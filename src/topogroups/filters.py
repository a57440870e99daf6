"""Subgroup filters and ultrafilters, convergence, and the theorem checks.

A subgroup filter is an upward-closed, intersection-closed set of non-trivial
subgroups containing the whole group.  On finite groups every ultrafilter
turns out to be principal with a cyclic meet-kernel; that structure lemma is
derived here and is cross-validated against exhaustive enumeration on small
lattices, so any disagreement fails loudly instead of silently trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .groups import FiniteGroup, Homomorphism, TopoGroupError, bits_of, mask_of
from .lattice import SubgroupLattice, enumerate_subgroups
from .report import ValidationFailure, ValidationReport
from .toposystems import BadParameterError, TopoSystem, is_hausdorff, is_topomorphism, quotient_toposys


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
    """Upward- and meet-closed set of non-trivial subgroups, by lattice index."""

    lattice: SubgroupLattice
    members: frozenset[int]
    provenance: str = ""

    @cached_property
    def member_bits(self) -> int:
        return mask_of(self.members)

    @cached_property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.member_bits))

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def kernel_mask(self) -> int:
        acc = self.lattice.group.full_mask
        for i in self.members:
            acc &= self.lattice.mask(i)
        return acc

    def __repr__(self):
        return f"SubgroupFilter({self.lattice.group.descriptor}; {self.provenance or self.member_indices})"


def filter_axiom_report(lattice: SubgroupLattice, members) -> ValidationReport:
    members = frozenset(members)
    if lattice.trivial_index in members:
        return ValidationReport(False, (ValidationFailure("non-trivial", (0,), "trivial subgroup is not allowed"),))
    if lattice.top_index not in members:
        return ValidationReport(False, (ValidationFailure("whole-group", (lattice.top_index,), "whole group missing"),))
    for i in members:
        mi = lattice.mask(i)
        for j in range(len(lattice)):
            if j not in members and mi & lattice.mask(j) == mi:
                return ValidationReport(False, (ValidationFailure("upward", (i, j), "superset missing"),))
    ordered = sorted(members)
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            mm = lattice.meet_index(i, j)
            if mm not in members:
                detail = "meet is trivial" if mm == lattice.trivial_index else "meet missing"
                return ValidationReport(False, (ValidationFailure("meet", (i, j, mm), detail),))
    return ValidationReport(True)


def generate_filter(lattice: SubgroupLattice, seed, provenance: str | None = None) -> SubgroupFilter:
    """Smallest filter containing the seed: finite meets, then upward closure."""
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
    members = set()
    for j in range(1, len(lattice)):
        mj = lattice.mask(j)
        if any(lattice.mask(s) & mj == lattice.mask(s) for s in closed):
            members.add(j)
    if provenance is None:
        provenance = "generated:" + ",".join(f"#{s}" for s in seed)
    return SubgroupFilter(lattice, frozenset(members), provenance)


def principal_filter(lattice: SubgroupLattice, x: int) -> SubgroupFilter:
    """All non-trivial subgroups containing the element x (x != identity)."""
    if x == 0:
        raise IdentityNotAllowedError("the principal filter at the identity would need the trivial subgroup")
    if not 0 <= x < lattice.group.order:
        raise BadParameterError(f"element id {x} out of range")
    members = frozenset(i for i in range(1, len(lattice)) if lattice.mask(i) >> x & 1)
    return SubgroupFilter(lattice, members, f"principal:{x}")


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
    base = sorted((f.lattice.mask(i) for i in f.members), key=lambda m: (m.bit_count(), tuple(bits_of(m))))
    return OrdinaryFilter(f.lattice.group, tuple(base))


def restrict_ordinary(lattice: SubgroupLattice, f1: OrdinaryFilter) -> SubgroupFilter:
    """Restrict an ordinary filter to the non-trivial subgroups it contains.

    The restriction can fail the meet axiom when the ordinary filter reaches
    below every non-trivial subgroup (e.g. a principal ultrafilter at the
    identity on a group with two minimal subgroups); this is validated rather
    than assumed.
    """
    if any(b == 0 for b in f1.base):
        raise BadParameterError("ordinary filter base may not contain the empty set")
    members = frozenset(i for i in range(1, len(lattice)) if f1.contains(lattice.mask(i)))
    report = filter_axiom_report(lattice, members)
    if not report.passed:
        raise NotAFilterError(report.first_failure())
    return SubgroupFilter(lattice, members, "restricted")


def is_ultrafilter(f: SubgroupFilter) -> tuple[bool, int | None]:
    """Ultrafilter test; on failure the witness is the coverable member C.

    Criterion: for every member C, the union of the non-member subgroups
    lying inside C must be a proper subset of C.  Any violating finite family
    (non-members whose union is a member) refines to that maximal family, and
    the maximal family is itself violating, so this is equivalent to the
    family-quantified definition; the equivalence is cross-checked against
    exhaustive family enumeration on small lattices in the test suite.
    """
    lattice = f.lattice
    for c in f.member_indices:
        cmask = lattice.mask(c)
        union = 0
        for a in range(len(lattice)):
            if a in f.members:
                continue
            am = lattice.mask(a)
            if am & cmask == am:
                union |= am
        if union == cmask:
            return False, c
    return True, None


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
            if u is not None and u in f.members and not any(a in f.members for a in family):
                return False, family
    return True, None


def extend_to_ultrafilter(f: SubgroupFilter) -> SubgroupFilter:
    """A principal ultrafilter containing f, anchored at its meet-kernel.

    The kernel (meet of all members) is itself a member and is non-trivial by
    fip, so the principal filter at its least non-identity element works.
    """
    kernel = f.kernel_mask()
    x = next(e for e in bits_of(kernel) if e != 0)
    return principal_filter(f.lattice, x)


def all_filters(lattice: SubgroupLattice) -> tuple[frozenset[int], ...]:
    """Every subgroup filter on a small lattice, by brute force."""
    non_trivial = [i for i in range(1, len(lattice) - 1)]
    results = []
    for r in range(len(non_trivial) + 1):
        for extra in combinations(non_trivial, r):
            members = frozenset(extra) | {lattice.top_index}
            if filter_axiom_report(lattice, members).passed:
                results.append(members)
    return tuple(sorted(results, key=sorted))


ULTRAFILTER_ORACLE_LIMIT = 6


def enumerate_ultrafilters(lattice: SubgroupLattice) -> tuple[SubgroupFilter, ...]:
    """All subgroup ultrafilters: the principal filters, one per cyclic kernel.

    Derived structure lemma: an ultrafilter's kernel K is a member, is cyclic
    (K is the union of its cyclic subgroups, so one of them is a member and is
    then K itself), and upward closure gives exactly the principal filter of
    any generator.  Each returned filter is re-checked with is_ultrafilter,
    and on lattices with at most ULTRAFILTER_ORACLE_LIMIT subgroups the whole
    answer is compared against exhaustive filter enumeration; a mismatch
    raises OracleMismatchError instead of returning a wrong answer.
    """
    group = lattice.group
    if group.order < 2:
        raise TrivialGroupError("no non-trivial subgroups, hence no filters")
    reps: dict[int, int] = {}
    for x in range(1, group.order):
        c = lattice.cyclic_index(x)
        reps.setdefault(c, x)
    filters = tuple(principal_filter(lattice, x) for _, x in sorted(reps.items(), key=lambda kv: kv[1]))
    for f in filters:
        ok, witness = is_ultrafilter(f)
        if not ok:
            raise OracleMismatchError(f"principal filter {f.provenance} fails the ultrafilter check at #{witness}")
    if len(lattice) <= ULTRAFILTER_ORACLE_LIMIT:
        expected = set()
        for members in all_filters(lattice):
            candidate = SubgroupFilter(lattice, members)
            if is_ultrafilter(candidate)[0]:
                if not is_ultrafilter_bruteforce(candidate)[0]:
                    raise OracleMismatchError("criterion and family enumeration disagree")
                expected.add(members)
            elif is_ultrafilter_bruteforce(candidate)[0]:
                raise OracleMismatchError("criterion and family enumeration disagree")
        if expected != {f.members for f in filters}:
            raise OracleMismatchError("principal enumeration misses an ultrafilter")
    return filters


def pushforward(f_hom: Homomorphism, f: SubgroupFilter) -> SubgroupFilter:
    """Filter of target subgroups whose preimages are members.

    Raises NotAFilterError when the image family violates the filter axioms;
    that happens exactly when the kernel of the map is a member and the
    target has more than one minimal subgroup, in which case the family is
    all of the non-trivial subgroups and is not meet-closed.
    """
    if f_hom.source != f.lattice.group:
        raise BadParameterError("filter and homomorphism live on different groups")
    target_lattice = enumerate_subgroups(f_hom.target)
    source_lattice = f.lattice
    members = frozenset(
        b
        for b in range(1, len(target_lattice))
        if source_lattice.index_of(f_hom.preimage_mask(target_lattice.mask(b))) in f.members
    )
    report = filter_axiom_report(target_lattice, members)
    if not report.passed:
        raise NotAFilterError(report.first_failure())
    return SubgroupFilter(target_lattice, members, f"pushforward({f.provenance})")


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
        if lattice.mask(lattice.cyclic_index(x)) & lattice.mask(lattice.cyclic_index(y)) == 1:
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
    """
    ultrafilters = enumerate_ultrafilters(lattice)
    limits = [convergence_set(f, system).points for f in ultrafilters]
    compactness_witness = None
    for f, points in zip(ultrafilters, limits):
        if not points:
            compactness_witness = f.provenance
            break
    hausdorff, _ = is_hausdorff(system)
    multi_witness = None
    for f, points in zip(ultrafilters, limits):
        pair = _cyclically_distinct_pair(lattice, points)
        if pair is not None:
            multi_witness = f"{f.provenance}->{pair}"
            break
    equivalence_ok = hausdorff == (multi_witness is None)

    findings: list[str] = []
    continuity_witness = None
    for n_index in lattice.normal_indices():
        if n_index == lattice.top_index:
            # the one-point quotient has no non-trivial subgroups, hence no
            # filters; nothing to push forward
            continue
        quotient = quotient_toposys(system, n_index)
        if not quotient.report.passed:
            findings.append(f"quotient-axioms@#{n_index}:{quotient.report.first_failure().kind}")
            continue
        topo_ok, offending = is_topomorphism(quotient.natural, system, quotient.system)
        if not topo_ok:
            findings.append(f"quotient-not-topomorphism@#{n_index}:target#{offending}")
            continue
        qlattice = quotient.system.lattice
        natural = quotient.natural
        pulled_back = {
            b: lattice.index_of(natural.preimage_mask(qlattice.mask(b))) for b in quotient.system.member_indices
        }
        for f, points in zip(ultrafilters, limits):
            try:
                pushed = pushforward(natural, f)
                ok, witness = is_ultrafilter(pushed)
                if not ok:
                    continuity_witness = f"pushforward({f.provenance})@#{n_index} not ultra at #{witness}"
                    break
            except NotAFilterError:
                findings.append(f"pushforward-degenerate({f.provenance})@#{n_index}")
            # the pointwise implication needs no filter structure: any topen
            # around q(x) pulls back to a topen around x, which is in f
            for x in points:
                for b in quotient.system.topens_containing(natural(x)):
                    if pulled_back[b] not in f.members:
                        continuity_witness = f"{f.provenance}->x={x}@#{n_index}:target#{b}"
                        break
                if continuity_witness:
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
    """CLI filter literals: ``principal:x``, ``generated:#i,#j,...``, ``cofinite``."""
    text = text.replace(" ", "")
    kind, _, arg = text.partition(":")
    if kind == "principal":
        try:
            x = int(arg)
        except ValueError:
            raise BadParameterError(f"bad element id {arg!r}") from None
        return principal_filter(lattice, x)
    if kind == "generated":
        from .toposystems import resolve_subgroup_literal

        seed = [resolve_subgroup_literal(lattice, p) for p in arg.split(",") if p]
        return generate_filter(lattice, seed)
    if kind == "cofinite":
        # on a finite group every subgroup has finite index, so this is all of
        # the non-trivial subgroups; validated because it need not be a filter
        members = frozenset(range(1, len(lattice)))
        report = filter_axiom_report(lattice, members)
        if not report.passed:
            raise NotAFilterError(report.first_failure())
        return SubgroupFilter(lattice, members, "cofinite")
    raise BadParameterError(f"unknown filter literal {text!r}")
