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

from functools import cache, cached_property
from itertools import combinations
from typing import NamedTuple

from .groups import Homomorphism, TopoGroupError, bits_of, mask_of, split_top_level
from .lattice import SubgroupLattice, enumerate_subgroups
from .report import ValidationFailure
from .toposystems import BadParameterError, TopoSystem, resolve_subgroup_literal


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


class SubgroupFilter:
    """The filter ↑K of the subgroups containing its non-trivial kernel K.

    ``kernel`` is K's lattice index; the members are read off the lattice's
    upper-bound bitset ``above[K]``.
    """

    lattice: SubgroupLattice
    kernel: int
    provenance: str

    def __init__(self, lattice: SubgroupLattice, kernel: int, provenance: str = ""):
        if not 0 < kernel < len(lattice):
            raise BadParameterError(f"filter kernel #{kernel} is not a non-trivial subgroup index")
        self.lattice = lattice
        self.kernel = kernel
        self.provenance = provenance

    @property
    def member_bits(self) -> int:
        return self.lattice.above[self.kernel]

    @cached_property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.member_bits))

    def __contains__(self, index: int) -> bool:
        return bool(self.member_bits >> index & 1)

    def __repr__(self):
        return f"SubgroupFilter({self.lattice.group.descriptor}; {self.provenance or self.member_indices})"


def filter_axiom_report(lattice: SubgroupLattice, members) -> ValidationFailure | None:
    """The first violated filter axiom of a family of subgroup indices, or None."""
    members = frozenset(members)
    if lattice.trivial_index in members:
        return ValidationFailure("non-trivial", (0,), "trivial subgroup is not allowed")
    if lattice.top_index not in members:
        return ValidationFailure("whole-group", (lattice.top_index,), "whole group missing")
    ordered = sorted(members)
    bits = mask_of(ordered)
    for i in ordered:
        # the subgroups above i that are not members, least index first
        missing = lattice.above[i] & ~bits
        if missing:
            j = (missing & -missing).bit_length() - 1
            return ValidationFailure("upward", (i, j), "superset missing")
    # an upward-closed family holds ↑k for its least member k and is a filter
    # iff it is no more; else the least member j outside ↑k meets k below k,
    # outside the family, and (k, j) is the first failing pair in index order
    k = ordered[0]
    outside = bits & ~lattice.above[k]
    if outside:
        j = (outside & -outside).bit_length() - 1
        mm = lattice.meet_index(k, j)
        detail = "meet is trivial" if mm == lattice.trivial_index else "meet missing"
        return ValidationFailure("meet", (k, j, mm), detail)
    return None


def filter_from_members(lattice: SubgroupLattice, members, provenance: str = "") -> SubgroupFilter:
    """The filter with exactly the given members; NotAFilterError if they are not one."""
    members = frozenset(members)
    failure = filter_axiom_report(lattice, members)
    if failure is not None:
        raise NotAFilterError(failure)
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


def is_ultrafilter(f: SubgroupFilter) -> bool:
    """↑K is an ultrafilter iff K is cyclic; a non-cyclic kernel is its own witness.

    K is the union of its cyclic subgroups, none of which is a member unless
    one of them is K itself, so a non-cyclic K is a member covered by
    non-members; conversely a cyclic ⟨x⟩ is covered only by a family holding
    a subgroup that contains x, hence a member.  The equivalence with the
    family-quantified definition is cross-checked in the test suite.
    """
    return bool(f.lattice.cyclic_bits >> f.kernel & 1)


def is_ultrafilter_bruteforce(f: SubgroupFilter) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive family enumeration; only feasible on small lattices.

    A family holding a member never witnesses a failure, so only families of
    non-members are enumerated; they come in the same relative order as
    among all families, so the first witness is the same.
    """
    lattice = f.lattice
    outside = [a for a in range(len(lattice)) if a not in f]
    for r in range(1, len(outside) + 1):
        for family in combinations(outside, r):
            union = 0
            for a in family:
                union |= lattice.mask(a)
            u = lattice.maybe_index(union)
            if u is not None and u in f:
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
            if filter_axiom_report(lattice, members) is None:
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
            ultra = is_ultrafilter(candidate)
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


def convergence_set(f: SubgroupFilter, system: TopoSystem) -> tuple[int, ...]:
    """Every point y the filter converges to: every topen containing y is a member.

    The filter ↑K is upward closed and every topen around y contains U(y),
    the system's least topen around y, so ↑K converges to y iff K ≤ U(y),
    that is, iff ``above[K]`` holds U(y).  The identity is never a limit:
    its least topen is the trivial subgroup, and filters exclude it.
    """
    lattice = system.lattice
    if f.lattice is not lattice and f.lattice.group != lattice.group:
        raise BadParameterError("filter and system live on different lattices")
    members = f.member_bits
    return tuple(y for y, u in enumerate(system.least_topen) if members >> u & 1)


def _cyclically_distinct_pair(lattice: SubgroupLattice, points) -> tuple[int, int] | None:
    for x, y in combinations(points, 2):
        if lattice.disjoint[lattice.cyclic_index(x)] >> lattice.cyclic_index(y) & 1:
            return x, y
    return None


class TheoremReport(NamedTuple):
    """Per-cell outcome of the convergence and uniqueness theorem checks."""

    compactness_witness: str | None
    equivalence_ok: bool
    multi_point_witness: str | None
    findings: tuple[str, ...] = ()


def theorem_checks(lattice: SubgroupLattice, system: TopoSystem) -> TheoremReport:
    """Run the convergence/uniqueness battery on one cell.

    (i) every ultrafilter converges somewhere (the compactness direction; a
    finite group is always topo-compact), (ii) Hausdorff holds iff no
    ultrafilter converges to two cyclically distinct points.  Quotient
    member sets that fail the axioms, quotient maps that are not
    topomorphisms and degenerate pushforwards are findings, not failures.

    Quotients stay on the parent lattice: the preimage of K/N is K, so the
    natural map is a topomorphism iff each a ∨ N is a topen.  q(↑⟨x⟩) is
    ↑(⟨x⟩ ∨ N)/N, ultra with kernel ⟨xN⟩ unless ⟨x⟩ ≤ N; then it is every
    non-trivial subgroup of G/N, a filter iff (N, G] has a single atom.
    """
    ultrafilters = enumerate_ultrafilters(lattice)
    limits = [convergence_set(f, system) for f in ultrafilters]
    compactness_witness = next((f.provenance for f, points in zip(ultrafilters, limits) if not points), None)
    multi_witness = None
    for f, points in zip(ultrafilters, limits):
        pair = _cyclically_distinct_pair(lattice, points)
        if pair is not None:
            multi_witness = f"{f.provenance}->{pair}"
            break
    equivalence_ok = system.hausdorff == (multi_witness is None)

    findings: list[str] = []
    for n_index, quotient in system.quotients.items():
        if n_index == lattice.top_index:
            # the one-point quotient has no non-trivial subgroups, hence no
            # filters; nothing to push forward
            continue
        if quotient.failure is not None:
            findings.append(f"quotient-axioms@#{n_index}:{quotient.failure.kind}")
            continue
        offending = quotient.member_bits & ~system.member_bits
        if offending:
            target = lattice.quotient_index(n_index, (offending & -offending).bit_length() - 1)
            findings.append(f"quotient-not-topomorphism@#{n_index}:target#{target}")
            continue
        above_n = lattice.above[n_index] & ~(1 << n_index)
        atom = (above_n & -above_n).bit_length() - 1
        single_atom = above_n & ~lattice.above[atom] == 0
        if not single_atom:
            # the pushforward of ↑⟨x⟩ has kernel (⟨x⟩ ∨ N)/N, trivial when ⟨x⟩ ≤ N
            degenerate = (f for f in ultrafilters if lattice.leq(f.kernel, n_index))
            findings += (f"pushforward-degenerate({f.provenance})@#{n_index}" for f in degenerate)

    return TheoremReport(
        compactness_witness=compactness_witness,
        equivalence_ok=equivalence_ok,
        multi_point_witness=multi_witness,
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
        seed = [resolve_subgroup_literal(lattice, p) for p in split_top_level(arg, ":,")]
        return generate_filter(lattice, seed)
    if kind == "cofinite":
        # on a finite group every subgroup has finite index, so this is all of
        # the non-trivial subgroups; validated because it need not be a filter
        return filter_from_members(lattice, range(1, len(lattice)), "cofinite")
    raise BadParameterError(f"unknown filter literal {text!r}")
