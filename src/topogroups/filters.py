"""Subgroup filters and ultrafilters, convergence, and the theorem checks.

A subgroup filter is an upward-closed, intersection-closed set of non-trivial
subgroups containing the whole group.  On a finite lattice the meet of all
members is itself a member, its kernel K, so every filter is ↑K, the
subgroups containing K; a filter is stored as that kernel index.  ↑K is an
ultrafilter exactly when K is cyclic, and the pushforward of ↑K along f is
↑f(K).  When f(K) is trivial the image family is every non-trivial target
subgroup, which is a filter only when the target has a single minimal
subgroup; that degenerate family is validated and rejected with the axiom
failure.  The structure lemma is cross-validated against exhaustive
enumeration on small lattices, so any disagreement fails loudly instead of
silently trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

from .groups import FiniteGroup, Homomorphism, TopoGroupError, bits_of, mask_of
from .lattice import SubgroupLattice, enumerate_subgroups
from .report import ValidationFailure, ValidationReport
from .toposystems import BadParameterError, TopoSystem, _split_literals, resolve_subgroup_literal


class NoFipError(TopoGroupError):
    """Seed lacks the finite intersection property; witness is the flat pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"seed has no fip: meet of {witness} is trivial")


class IdentityNotAllowedError(TopoGroupError):
    pass


class NotAFilterError(TopoGroupError):
    def __init__(self, failure: ValidationFailure):
        self.failure = failure
        super().__init__(f"family is not a subgroup filter: {failure}")


class TrivialGroupError(TopoGroupError):
    pass


class OracleMismatchError(TopoGroupError):
    """A derived shortcut disagreed with its exhaustive oracle."""


@dataclass(frozen=True)
class SubgroupFilter:
    """The filter ↑K of the subgroups containing its non-trivial kernel K.

    ``kernel`` is K's lattice index; the members are read off the lattice's
    upper-bound bitset ``above[K]``.
    """

    lattice: SubgroupLattice
    kernel: int
    provenance: str = ""

    def __post_init__(self):
        if not 0 < self.kernel < len(self.lattice):
            raise BadParameterError(f"filter kernel #{self.kernel} is not a non-trivial subgroup index")

    @property
    def member_bits(self) -> int:
        return self.lattice.above[self.kernel]

    @cached_property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.member_bits))

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.member_indices)

    def __contains__(self, index: int) -> bool:
        return bool(self.member_bits >> index & 1)

    def __repr__(self):
        return f"SubgroupFilter({self.lattice.group.descriptor}; {self.provenance or self.member_indices})"


def filter_axiom_report(lattice: SubgroupLattice, members) -> ValidationReport:
    members = frozenset(members)
    if lattice.trivial_index in members:
        return ValidationReport(False, (ValidationFailure("non-trivial", (0,), "trivial subgroup is not allowed"),))
    if lattice.top_index not in members:
        return ValidationReport(False, (ValidationFailure("whole-group", (lattice.top_index,), "whole group missing"),))
    ordered = sorted(members)
    for i in ordered:
        mi = lattice.mask(i)
        for j in range(len(lattice)):
            if j not in members and mi & lattice.mask(j) == mi:
                return ValidationReport(False, (ValidationFailure("upward", (i, j), "superset missing"),))
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            mm = lattice.meet_index(i, j)
            if mm not in members:
                detail = "meet is trivial" if mm == lattice.trivial_index else "meet missing"
                return ValidationReport(False, (ValidationFailure("meet", (i, j, mm), detail),))
    return ValidationReport(True)


def filter_from_members(lattice: SubgroupLattice, members, provenance: str = "") -> SubgroupFilter:
    """The filter with exactly the given members; NotAFilterError if they are not one."""
    members = frozenset(members)
    report = filter_axiom_report(lattice, members)
    if not report.passed:
        raise NotAFilterError(report.first_failure())
    # the meet of a meet-closed family is its member of least order, which
    # the canonical order puts at the least index
    return SubgroupFilter(lattice, min(members), provenance)


def generate_filter(lattice: SubgroupLattice, seed, provenance: str | None = None) -> SubgroupFilter:
    """Smallest filter containing the seed: ↑ of the meet of its finite meets."""
    seed = sorted(set(seed))
    if lattice.trivial_index in seed:
        raise BadParameterError("seed must consist of non-trivial subgroup indices")
    closed = set(seed) | {lattice.top_index}
    queue = sorted(closed)
    i = 0
    while i < len(queue):
        a = queue[i]
        i += 1
        for b in queue[:i]:
            m = lattice.meet_index(a, b)
            if m == lattice.trivial_index:
                raise NoFipError((a, b))
            if m not in closed:
                closed.add(m)
                queue.append(m)
    if provenance is None:
        provenance = "generated:" + ",".join(f"#{s}" for s in seed)
    # closed is meet-closed, so its meet is its least-index member
    return SubgroupFilter(lattice, min(closed), provenance)


def principal_filter(lattice: SubgroupLattice, x: int) -> SubgroupFilter:
    """All non-trivial subgroups containing the element x (x != identity)."""
    if x == 0:
        raise IdentityNotAllowedError("the principal filter at the identity would need the trivial subgroup")
    if not 0 <= x < lattice.group.order:
        raise BadParameterError(f"element id {x} out of range")
    return SubgroupFilter(lattice, lattice.cyclic_index(x), f"principal:{x}")


@dataclass(frozen=True)
class OrdinaryFilter:
    """An ordinary filter of point sets, given by a base of element masks."""

    group: FiniteGroup
    base: tuple[int, ...]

    def contains(self, subset) -> bool:
        m = subset if isinstance(subset, int) else mask_of(subset)
        return any(b & m == b for b in self.base)


def ordinary_bridge(f: SubgroupFilter) -> OrdinaryFilter:
    """The ordinary filter whose members are the oversets of filter members."""
    # ascending indices sort the masks by (order, elements), the canonical order
    base = tuple(f.lattice.mask(i) for i in f.member_indices)
    return OrdinaryFilter(f.lattice.group, base)


def restrict_ordinary(lattice: SubgroupLattice, f1: OrdinaryFilter) -> SubgroupFilter:
    """Restrict an ordinary filter to the non-trivial subgroups it contains.

    The restriction can fail the meet axiom when the ordinary filter reaches
    below every non-trivial subgroup (e.g. a principal ultrafilter at the
    identity on a group with two minimal subgroups); this is validated rather
    than assumed.
    """
    if any(b == 0 for b in f1.base):
        raise BadParameterError("ordinary filter base may not contain the empty set")
    members = (i for i in range(1, len(lattice)) if f1.contains(lattice.mask(i)))
    return filter_from_members(lattice, members, "restricted")


def is_ultrafilter(f: SubgroupFilter) -> tuple[bool, int | None]:
    """↑K is an ultrafilter iff K is cyclic; otherwise the witness is K.

    K is the union of its cyclic subgroups, none of which is a member unless
    one of them is K itself, so a non-cyclic K is a member covered by
    non-members; conversely a cyclic ⟨x⟩ is covered only by a family holding
    a subgroup that contains x, hence a member.  The equivalence with the
    family-quantified definition is cross-checked in the test suite.
    """
    lattice, k = f.lattice, f.kernel
    # cyclic extension lists each cyclic subgroup with one generator
    if any(lattice.cyclic_index(g) == k for g in lattice.generators[k]):
        return True, None
    return False, k


def is_ultrafilter_bruteforce(f: SubgroupFilter) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive family enumeration; only feasible on small lattices."""
    lattice = f.lattice
    indices = range(len(lattice))
    for r in range(1, len(lattice) + 1):
        for family in combinations(indices, r):
            union = 0
            for a in family:
                union |= lattice.mask(a)
            u = lattice.maybe_index(union)
            if u is not None and u in f and not any(a in f for a in family):
                return False, family
    return True, None


def extend_to_ultrafilter(f: SubgroupFilter) -> SubgroupFilter:
    """A principal ultrafilter containing f: ↑⟨x⟩ for the least x ≠ 1 in its kernel."""
    x = next(e for e in bits_of(f.lattice.mask(f.kernel)) if e != 0)
    return principal_filter(f.lattice, x)


def all_filters(lattice: SubgroupLattice) -> tuple[frozenset[int], ...]:
    """The member sets of every subgroup filter on a small lattice, by brute force."""
    non_trivial = range(1, len(lattice) - 1)
    results = []
    for r in range(len(non_trivial) + 1):
        for extra in combinations(non_trivial, r):
            members = frozenset(extra) | {lattice.top_index}
            if filter_axiom_report(lattice, members).passed:
                results.append(members)
    return tuple(sorted(results, key=sorted))


ULTRAFILTER_ORACLE_LIMIT = 6


@cache
def enumerate_ultrafilters(lattice: SubgroupLattice) -> tuple[SubgroupFilter, ...]:
    """All subgroup ultrafilters: ↑⟨x⟩, one per cyclic subgroup ⟨x⟩ ≠ 1; once per lattice.

    Each is named by the least element generating its kernel.  On lattices
    with at most ULTRAFILTER_ORACLE_LIMIT subgroups the answer is compared
    against exhaustive filter enumeration and the family-quantified
    ultrafilter test; a mismatch raises OracleMismatchError instead of
    returning a wrong answer.
    """
    group = lattice.group
    if group.order < 2:
        raise TrivialGroupError("no non-trivial subgroups, hence no filters")
    # downwards, so the least element generating each cyclic subgroup is kept
    least = {lattice.cyclic_index(x): x for x in range(group.order - 1, 0, -1)}
    filters = tuple(principal_filter(lattice, x) for x in sorted(least.values()))
    if len(lattice) <= ULTRAFILTER_ORACLE_LIMIT:
        expected = set()
        for members in all_filters(lattice):
            candidate = filter_from_members(lattice, members)
            ultra = is_ultrafilter(candidate)[0]
            if ultra != is_ultrafilter_bruteforce(candidate)[0]:
                raise OracleMismatchError("criterion and family enumeration disagree")
            if ultra:
                expected.add(candidate.kernel)
        if expected != {f.kernel for f in filters}:
            raise OracleMismatchError("principal enumeration misses an ultrafilter")
    return filters


def pushforward(f_hom: Homomorphism, f: SubgroupFilter) -> SubgroupFilter:
    """Filter of target subgroups whose preimages are members: ↑f(K).

    A preimage contains K exactly when the target subgroup contains f(K).
    When f(K) is trivial every non-trivial target subgroup qualifies; that
    family is validated, and raises NotAFilterError when the target has more
    than one minimal subgroup, since it is then not meet-closed.
    """
    if f_hom.source != f.lattice.group:
        raise BadParameterError("filter and homomorphism live on different groups")
    target = enumerate_subgroups(f_hom.target)
    provenance = f"pushforward({f.provenance})"
    image = target.index_of(f_hom.image_mask(f.lattice.mask(f.kernel)))
    if image != target.trivial_index:
        return SubgroupFilter(target, image, provenance)
    return filter_from_members(target, range(1, len(target)), provenance)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Witness that every topen containing the target is a filter member."""

    filter: SubgroupFilter
    system: TopoSystem
    target: int
    checked: tuple[int, ...]


def _require_same_group(f: SubgroupFilter, system: TopoSystem):
    if f.lattice is not system.lattice and f.lattice.group != system.lattice.group:
        raise BadParameterError("filter and system live on different lattices")


def converges_to(f: SubgroupFilter, system: TopoSystem, y: int) -> tuple[bool, ConvergenceCertificate | None]:
    """True iff every topen containing y belongs to the filter.

    That is the bitset test T(y) & ~F == 0, with T(y) the system's incidence
    of y and F the filter's member bits; the certificate lists T(y)
    ascending.  The identity can never be a limit: the trivial subgroup is
    always a topen containing it, and filters exclude the trivial subgroup.
    """
    _require_same_group(f, system)
    topens = system.incidence[y]
    if topens & ~f.member_bits:
        return False, None
    return True, ConvergenceCertificate(f, system, y, tuple(bits_of(topens)))


@dataclass(frozen=True)
class ConvergenceSet:
    """Convergence points partitioned into equal-cyclic-subgroup classes."""

    points: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return not self.points


def convergence_set(f: SubgroupFilter, system: TopoSystem) -> ConvergenceSet:
    """Every point the filter converges to (see converges_to)."""
    _require_same_group(f, system)
    lattice = system.lattice
    outside = ~f.member_bits
    points = tuple(y for y, topens in enumerate(system.incidence) if not topens & outside)
    by_class: dict[int, list[int]] = {}
    for y in points:
        by_class.setdefault(lattice.cyclic_index(y), []).append(y)
    classes = tuple(tuple(sorted(v)) for v in sorted(by_class.values(), key=min))
    return ConvergenceSet(points, classes)


def _cyclically_distinct_pair(lattice: SubgroupLattice, points) -> tuple[int, int] | None:
    for x, y in combinations(points, 2):
        if lattice.disjoint[lattice.cyclic_index(x)] >> lattice.cyclic_index(y) & 1:
            return x, y
    return None


@dataclass(frozen=True)
class TheoremReport:
    """Per-cell outcome of the convergence and uniqueness theorem checks."""

    compactness_ok: bool
    compactness_witness: str | None
    hausdorff: bool
    equivalence_ok: bool
    multi_point_witness: str | None
    continuity_ok: bool
    continuity_witness: str | None
    findings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.compactness_ok and self.equivalence_ok and self.continuity_ok


def theorem_checks(lattice: SubgroupLattice, system: TopoSystem) -> TheoremReport:
    """Run the convergence/uniqueness/continuity battery on one cell.

    (i) every ultrafilter converges somewhere (the compactness direction; a
    finite group is always topo-compact), (ii) Hausdorff holds iff no
    ultrafilter converges to two cyclically distinct points, (iii) along each
    verified quotient topomorphism, convergence pushes forward pointwise.
    Degenerate pushforwards (kernel in the filter) and quotient member sets
    that fail the axioms are reported as findings, not failures.

    Quotients stay on the parent lattice: the preimage of K/N is K, so the
    natural map is a topomorphism iff each a ∨ N is a topen.  q(↑⟨x⟩) is
    ↑(⟨x⟩ ∨ N)/N, ultra with kernel ⟨xN⟩ unless ⟨x⟩ ≤ N; then it is every
    non-trivial subgroup of G/N, a filter iff (N, G] has a single atom.
    """
    ultrafilters = enumerate_ultrafilters(lattice)
    limits = [convergence_set(f, system).points for f in ultrafilters]
    compactness_witness = None
    for f, points in zip(ultrafilters, limits):
        if not points:
            compactness_witness = f.provenance
            break
    hausdorff, _ = system.hausdorff
    multi_witness = None
    for f, points in zip(ultrafilters, limits):
        pair = _cyclically_distinct_pair(lattice, points)
        if pair is not None:
            multi_witness = f"{f.provenance}->{pair}"
            break
    equivalence_ok = hausdorff == (multi_witness is None)

    findings: list[str] = []
    continuity_witness = None
    for n_index, quotient in system.quotients.items():
        if n_index == lattice.top_index:
            # the one-point quotient has no non-trivial subgroups, hence no
            # filters; nothing to push forward
            continue
        if not quotient.report.passed:
            findings.append(f"quotient-axioms@#{n_index}:{quotient.report.first_failure().kind}")
            continue
        offending = quotient.member_bits & ~system.member_bits
        if offending:
            target = lattice.quotient_index(n_index, (offending & -offending).bit_length() - 1)
            findings.append(f"quotient-not-topomorphism@#{n_index}:target#{target}")
            continue
        above_n = lattice.above[n_index] & ~(1 << n_index)
        atom = (above_n & -above_n).bit_length() - 1
        single_atom = above_n & ~lattice.above[atom] == 0
        for f, points in zip(ultrafilters, limits):
            # the pushforward's kernel is (⟨x⟩ ∨ N)/N
            if lattice.join_index(f.kernel, n_index) == n_index and not single_atom:
                findings.append(f"pushforward-degenerate({f.provenance})@#{n_index}")
            # the pointwise implication needs no filter structure: a topen
            # K/N around q(x) pulls back to the topen K around x, which is in f
            for x in points:
                outside = quotient.member_bits & lattice.containing[x] & ~f.member_bits
                if outside:
                    target = lattice.quotient_index(n_index, (outside & -outside).bit_length() - 1)
                    continuity_witness = f"{f.provenance}->x={x}@#{n_index}:target#{target}"
                    break
            if continuity_witness:
                break
        if continuity_witness:
            break

    return TheoremReport(
        compactness_ok=compactness_witness is None,
        compactness_witness=compactness_witness,
        hausdorff=hausdorff,
        equivalence_ok=equivalence_ok,
        multi_point_witness=multi_witness,
        continuity_ok=continuity_witness is None,
        continuity_witness=continuity_witness,
        findings=tuple(findings),
    )


def parse_filter(lattice: SubgroupLattice, text: str) -> SubgroupFilter:
    """CLI filter literals: ``principal:x``, ``generated:LIT,LIT,...``, ``cofinite``."""
    text = text.replace(" ", "")
    kind, _, arg = text.partition(":")
    if kind == "principal":
        try:
            x = int(arg)
        except ValueError:
            raise BadParameterError(f"bad element id {arg!r}") from None
        return principal_filter(lattice, x)
    if kind == "generated":
        seed = [resolve_subgroup_literal(lattice, p) for p in _split_literals(arg)]
        return generate_filter(lattice, seed)
    if kind == "cofinite":
        # on a finite group every subgroup has finite index, so this is all of
        # the non-trivial subgroups; validated because it need not be a filter
        return filter_from_members(lattice, range(1, len(lattice)), "cofinite")
    raise BadParameterError(f"unknown filter literal {text!r}")
