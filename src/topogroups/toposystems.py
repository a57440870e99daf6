"""Topo-systems on finite groups: construction, verification and the calculus.

A topo-system is a set of subgroups containing the trivial subgroup and the
whole group, closed under generated joins of arbitrary subfamilies and under
pairwise intersection.  On a finite lattice the join axiom reduces to pairwise
closure: the join of any finite family is an iterated pairwise join, and every
member set here is finite.  Member subgroups are called topens, and a member
set is stored as a bitset over canonical lattice indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import Homomorphism, TopoGroupError, bits_of, closure_mask, mask_of
from .lattice import NotNormalError, SubgroupLattice, is_characteristic, verbal_residual
from .report import ValidationFailure, ValidationReport


class BadParameterError(TopoGroupError):
    pass


@dataclass(frozen=True)
class TopoSystem:
    """A verified set of topen subgroups over a canonical lattice.

    ``member_bits`` is the member set as a bitset over lattice indices, and
    ``incidence[e]`` is T(e), the bitset of the topens containing element e:
    the lattice's ``containing[e]`` restricted to the members.  The incidence
    is computed once per system, and every point-wise topen query reads it.
    """

    lattice: SubgroupLattice
    member_bits: int
    provenance: str
    notes: tuple[str, ...] = ()

    @cached_property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.member_bits))

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.member_indices)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        bits = self.member_bits
        return tuple(c & bits for c in self.lattice.containing)

    @cached_property
    def quotients(self) -> dict[int, QuotientToposys]:
        """quotient_toposys(self, n) per normal subgroup index n, computed once per system."""
        return {n: quotient_toposys(self, n) for n in bits_of(self.lattice.normal_bits)}

    @cached_property
    def hausdorff(self) -> tuple[bool, SeparationWitness | None]:
        """is_hausdorff(self), computed once per system."""
        return is_hausdorff(self)

    def __contains__(self, index: int) -> bool:
        return bool(self.member_bits >> index & 1)

    def topens_containing(self, x: int) -> tuple[int, ...]:
        """Topens containing element x, ascending."""
        return tuple(bits_of(self.incidence[x]))

    def __repr__(self):
        return f"TopoSystem({self.lattice.group.descriptor}; {self.provenance}; {self.member_bits.bit_count()} topens)"


def resolve_subgroup_literal(lattice: SubgroupLattice, text: str) -> int:
    """Resolve ``gen{e1,e2,...}`` (generators by element id) or ``#k``."""
    text = text.strip()
    if text.startswith("#"):
        try:
            k = int(text[1:])
        except ValueError:
            raise BadParameterError(f"bad subgroup index literal {text!r}") from None
        if not 0 <= k < len(lattice):
            raise BadParameterError(f"subgroup index {k} out of range [0,{len(lattice)})")
        return k
    if text.startswith("gen{") and text.endswith("}"):
        body = text[4:-1].strip()
        ids = []
        if body:
            for part in body.split(","):
                try:
                    e = int(part)
                except ValueError:
                    raise BadParameterError(f"bad element id {part!r} in {text!r}") from None
                if not 0 <= e < lattice.group.order:
                    raise BadParameterError(f"element id {e} out of range")
                ids.append(e)
        return lattice.index_of(closure_mask(lattice.group, ids))
    raise BadParameterError(f"bad subgroup literal {text!r} (expected gen{{..}} or #k)")


def verify_toposys(lattice: SubgroupLattice, bits: int, n: int = 0) -> ValidationReport:
    """Check the three topo-system axioms on a candidate member bitset.

    Pairwise join/meet closure is checked; this is equivalent to closure
    under arbitrary families because the member set is finite.  The set of
    all subgroups is closed by definition and passes with no scan.  Pairs are
    visited as i <= j in index order, and a pair with subgroup i inside
    subgroup j is skipped: its join is j and its meet is i, both members.
    The canonical order sorts by order first, so a subgroup inside j never
    has a larger index, and the skip cannot change the first failing pair.
    With a subgroup index n, members above n are checked on the interval
    [n, G] instead, with trivial subgroup n (see quotient_toposys).
    """
    failures = []
    for required in (n, lattice.top_index):
        if not bits >> required & 1:
            failures.append(ValidationFailure("axiom-a", (required,), "trivial subgroup or whole group missing"))
    if failures:
        return ValidationReport(False, tuple(failures))
    if bits == lattice.above[n]:
        return ValidationReport(True)
    for i in bits_of(bits):
        # members after i that do not contain it
        for j in bits_of(bits & ~lattice.above[i] & -(2 << i)):
            jj = lattice.join_index(i, j)
            if not bits >> jj & 1:
                failures.append(ValidationFailure("join-closure", (i, j, jj), "join of members is not a member"))
            mm = lattice.meet_index(i, j)
            if not bits >> mm & 1:
                failures.append(ValidationFailure("meet-closure", (i, j, mm), "meet of members is not a member"))
            if failures:
                return ValidationReport(False, tuple(failures))
    return ValidationReport(True)


def _closure(lattice: SubgroupLattice, bits: int, space: int) -> int:
    """Least join/meet-closed bitset containing bits, inside the down-set space.

    A seed that is the whole down-set is closed already.
    """
    if bits == space:
        return bits
    queue = list(bits_of(bits))
    i = 0
    while i < len(queue):
        a = queue[i]
        i += 1
        for b in queue[:i]:
            for c in (lattice.join_index(a, b), lattice.meet_index(a, b)):
                if not bits >> c & 1:
                    bits |= 1 << c
                    queue.append(c)
    return bits


def generate_toposys(lattice: SubgroupLattice, seed: int, provenance: str | None = None) -> TopoSystem:
    """Least topo-system containing the seed bitset (pairwise fixpoint)."""
    bits = _closure(lattice, seed | 1 | 1 << lattice.top_index, lattice.above[0])
    if provenance is None:
        provenance = "generated:" + ",".join(f"#{s}" for s in bits_of(seed))
    return TopoSystem(lattice, bits, provenance)


def build_toposys(lattice: SubgroupLattice, descriptor: str) -> TopoSystem:
    """Build one of the named topo-system families and verify its axioms.

    Grammar: ``discrete | trivial | cofinite | normal | characteristic |
    principal:LIT | variety:abelian | variety:exponent-n | thk:LIT:LIT |
    conj:LIT | generated:LIT,LIT,...`` where LIT is ``gen{..}`` or ``#k``.
    """
    return require_axioms(family_members(lattice, descriptor))


def require_axioms(system: TopoSystem) -> TopoSystem:
    """The system itself once verify_toposys passes; TopoGroupError otherwise."""
    report = verify_toposys(system.lattice, system.member_bits)
    if not report.passed:
        raise TopoGroupError(
            f"internal error: family {system.provenance!r} on {system.lattice.group.descriptor} "
            f"fails axioms: {report.first_failure()}"
        )
    return system


def family_members(lattice: SubgroupLattice, descriptor: str) -> TopoSystem:
    """The member set a descriptor names (see build_toposys), not yet verified.

    Every family is read off the lattice's bitsets: ``above[k]`` is the set
    of subgroups containing k, and ``normal_bits`` the normal subgroups.
    """
    desc = descriptor.replace(" ", "")
    kind, _, arg = desc.partition(":")
    notes: tuple[str, ...] = ()
    top = lattice.top_index
    above = lattice.above

    if kind == "discrete":
        bits = above[0]
    elif kind == "trivial":
        bits = 1 | 1 << top
    elif kind == "cofinite":
        # every subgroup of a finite group has finite index
        bits = above[0]
        notes = ("cofinite coincides with discrete on a finite group",)
    elif kind == "normal":
        bits = lattice.normal_bits
    elif kind == "characteristic":
        # a characteristic subgroup is normal
        bits = mask_of(i for i in bits_of(lattice.normal_bits) if is_characteristic(lattice.subgroup(i)))
    elif kind == "principal":
        bits = above[resolve_subgroup_literal(lattice, arg)] | 1
    elif kind == "variety":
        residual = lattice.index_of(verbal_residual(lattice.group, arg).mask)
        bits = lattice.normal_bits & above[residual] | 1
    elif kind == "thk":
        parts = _split_literals(arg)
        if len(parts) != 2:
            raise BadParameterError(f"thk needs two subgroup literals, got {descriptor!r}")
        h = resolve_subgroup_literal(lattice, parts[0])
        k = resolve_subgroup_literal(lattice, parts[1])
        if not lattice.leq(h, k):
            raise BadParameterError("thk requires the first subgroup to lie inside the second")
        # the subgroups i with [i, k] inside h
        bits = mask_of(i for i in range(len(lattice)) if above[lattice.commutator_index(i, k)] >> h & 1)
        bits |= 1 << top
    elif kind == "conj":
        # the subgroups whose normalizer contains h
        up = above[resolve_subgroup_literal(lattice, arg)]
        bits = mask_of(i for i in range(len(lattice)) if up >> lattice.normalizer_index(i) & 1)
    elif kind == "generated":
        seed = mask_of(resolve_subgroup_literal(lattice, p) for p in _split_literals(arg))
        return generate_toposys(lattice, seed, provenance=desc)
    else:
        raise BadParameterError(f"unknown topo-system kind {descriptor!r}")

    return TopoSystem(lattice, bits, desc, notes)


def _split_literals(arg: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in arg:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch in ":," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or not parts:
        parts.append("".join(cur))
    return [p for p in parts if p != ""]


@dataclass(frozen=True)
class InducedToposys:
    """The topo-system induced on subgroup h, on the parent lattice.

    L(h) is the down-set ↓h of the parent lattice, with the parent's joins
    and meets.  ``system`` holds the induced topens as parent indices, so
    its whole group is h, not the lattice's top; ``trace_bits`` is the
    bitset of the traces a ∧ h of the parent topens.
    """

    system: TopoSystem
    h: int
    trace_bits: int


def induced_toposys(parent: TopoSystem, h: int) -> InducedToposys:
    """The least join/meet-closed set in ↓h holding 1, h and the traces of the parent topens."""
    lattice = parent.lattice
    traces = mask_of(lattice.meet_index(a, h) for a in parent.member_indices)
    bits = _closure(lattice, traces | 1 | 1 << h, lattice.below[h])
    return InducedToposys(TopoSystem(lattice, bits, f"induced({parent.provenance})@#{h}"), h, traces)


@dataclass(frozen=True)
class QuotientToposys:
    """Image of a topo-system on G/N, on the parent lattice, plus its axiom report.

    The image of topen a is (a ∨ N)/N, and the subgroups of G/N are the
    K/N with K in the interval [N, G].  ``member_bits`` is the bitset of the
    parent indices a ∨ N; ``quotient_indices`` gives them as indices of
    L(G/N), which the witnesses use (see SubgroupLattice.quotient_index).
    Closure of the image set under intersection is not obvious in general,
    so the verifier runs on every produced quotient and the report travels
    with the system instead of being assumed.
    """

    parent: TopoSystem
    normal: int
    member_bits: int
    report: ValidationReport

    @property
    def quotient_indices(self) -> tuple[int, ...]:
        """The members as indices of L(G/N), ascending."""
        return tuple(self.parent.lattice.quotient_index(self.normal, k) for k in bits_of(self.member_bits))


def quotient_toposys(parent: TopoSystem, n: int) -> QuotientToposys:
    """The image {a ∨ N} of the parent topens, verified on [N, G] with quotient-index witnesses.

    [N, G] has the parent's joins and meets and, by SubgroupLattice.quotient_index,
    the parent's order, so the parent's scan meets the failing pairs in quotient order.
    """
    lattice = parent.lattice
    if not lattice.is_normal_index(n):
        raise NotNormalError(f"subgroup #{n} of {lattice.group.descriptor} is not normal")
    bits = mask_of(lattice.join_index(a, n) for a in parent.member_indices)
    report = verify_toposys(lattice, bits, n)
    failures = tuple(
        ValidationFailure(f.kind, tuple(lattice.quotient_index(n, k) for k in f.witness), f.detail)
        for f in report.failures
    )
    return QuotientToposys(parent, n, bits, ValidationReport(report.passed, failures))


def interior_boundary(system: TopoSystem, x: int) -> tuple[int, frozenset[int]]:
    """Interior (largest topen inside subgroup x) as an index, and the boundary element set.

    The join of all topens contained in x is itself a topen contained in x,
    so the element-wise union of those topens equals this join; the union is
    used as an independent cross-check in the tests.
    """
    lattice = system.lattice
    interior = lattice.join_of(bits_of(system.member_bits & lattice.below[x]))
    return interior, frozenset(bits_of(lattice.mask(x) & ~lattice.mask(interior)))


def _limits(system: TopoSystem, x: int) -> frozenset[int]:
    """The points whose every topen meets subgroup x in at least two elements.

    The trivial topen holds only the identity, so the identity is never one.
    """
    # topens meeting x in fewer than two elements, that is, in the identity only
    thin = system.member_bits & system.lattice.disjoint[x]
    return frozenset(e for e, topens in enumerate(system.incidence) if not topens & thin)


def closure_and_limits(system: TopoSystem, x: int) -> tuple[frozenset[int], int]:
    """Limit points of subgroup x, and the index of its closure, the least T-closed subgroup above x.

    A subgroup is T-closed exactly when it holds its limit points, and a limit
    of x is a limit of every subgroup above x, so joining in limit points until
    none is new reaches the closure.  One join is not always enough: on
    dihedral:4 under ``normal`` a reflection subgroup and its limits generate
    a Klein group whose limits include a rotation of order 4.
    """
    lattice = system.lattice
    limits = _limits(system, x)
    closure, new = x, limits
    while (grown := lattice.join_of([closure, *(lattice.cyclic_index(e) for e in new)])) != closure:
        closure, new = grown, _limits(system, grown)
    return limits, closure


@dataclass(frozen=True)
class TClosedReport:
    is_t_closed: bool
    t_closed_witness: int | None
    is_weak_t_closed: bool
    weak_witness: int | None


def t_closed_checks(system: TopoSystem, a: int) -> TClosedReport:
    """T-closed and weak T-closed separation checks with stuck-x witnesses.

    A point is stuck when no topen around it meets a trivially, that is, when
    it is a limit point of a; the witnesses are the least stuck points.
    Weak closedness quantifies only over x whose cyclic subgroup meets a
    trivially, and requires a separating topen that actually contains x;
    without that containment the trivial topen would satisfy everything.
    """
    lattice = system.lattice
    stuck = _limits(system, a)
    t_witness = min((x for x in stuck if not lattice.mask(a) >> x & 1), default=None)
    weak_witness = min((x for x in stuck if lattice.disjoint[a] >> lattice.cyclic_index(x) & 1), default=None)
    return TClosedReport(t_witness is None, t_witness, weak_witness is None, weak_witness)


@dataclass(frozen=True)
class SeparationWitness:
    """A cyclically distinct pair that no two disjoint topens separate."""

    x: int
    y: int


def is_hausdorff(system: TopoSystem) -> tuple[bool, SeparationWitness | None]:
    """True iff every cyclically distinct pair has disjoint topens around it."""
    lattice = system.lattice
    group = lattice.group
    incidence = system.incidence
    disjoint = lattice.disjoint
    for x in group.elements():
        # the topens disjoint from some topen around x
        apart = 0
        for a in bits_of(incidence[x]):
            apart |= disjoint[a]
        apart &= system.member_bits
        distinct = disjoint[lattice.cyclic_index(x)]
        for y in range(x, group.order):
            if not distinct >> lattice.cyclic_index(y) & 1:
                continue
            if not incidence[y] & apart:
                return False, SeparationWitness(x, y)
    return True, None


@dataclass(frozen=True)
class SubcoverCertificate:
    """Minimal subcover of a topen cover; finite groups are always topo-compact."""

    selected: tuple[int, ...]
    exact: bool
    note: str = "finite topen cover: subcover extracted constructively"


def find_finite_subcover(system: TopoSystem, x: int, cover) -> SubcoverCertificate | None:
    """Extract a minimal subcover of subgroup x from the given topen indices, or None."""
    from .lattice import minimal_cover

    lattice = system.lattice
    cover = list(cover)
    for i in cover:
        if i not in system:
            raise BadParameterError(f"cover entry #{i} is not a topen of the system")
    family = [lattice.subgroup(i) for i in cover]
    result = minimal_cover(lattice.subgroup(x), family)
    if result is None:
        return None
    return SubcoverCertificate(tuple(cover[p] for p in result.positions), result.exact)


def is_topomorphism(f: Homomorphism, source_sys: TopoSystem, target_sys: TopoSystem) -> tuple[bool, int | None]:
    """True iff every topen of the target pulls back to a topen of the source."""
    src_lattice = source_sys.lattice
    for b in target_sys.member_indices:
        pre = f.preimage_mask(target_sys.lattice.mask(b))
        if src_lattice.index_of(pre) not in source_sys:
            return False, b
    return True, None


def is_star_open(system: TopoSystem, xmask: int) -> bool:
    """An element bitset is star-open iff it equals the union of topens inside it."""
    lattice = system.lattice
    union = 0
    for a in system.member_indices:
        m = lattice.mask(a)
        if m & xmask == m:
            union |= m
    return union == xmask


@dataclass(frozen=True)
class StarTopologyReport:
    passed: bool
    never_hausdorff_ok: bool
    induced_traces_ok: bool
    sampled_union_traces_ok: bool
    failures: tuple[ValidationFailure, ...] = ()


def star_topology_checks(system: TopoSystem, union_sample_limit: int = 12) -> StarTopologyReport:
    """Checks for the point topology whose basis is the topen set.

    * never-Hausdorff: every topen contains the identity, hence every
      non-empty basis-open (and so every non-empty union of them) does too.
    * subspace compatibility: each trace of a topen on a subgroup h is open
      in the induced system on h; unions distribute over traces, so this
      covers arbitrary star-opens.  For small systems, traces of pairwise
      unions are additionally spot-checked.
    """
    lattice = system.lattice
    failures = []
    never_hausdorff_ok = all(lattice.mask(a) & 1 for a in system.member_indices)
    if not never_hausdorff_ok:
        failures.append(ValidationFailure("never-hausdorff", (), "a topen misses the identity"))

    traces_ok = True
    sampled_ok = True
    member_list = system.member_indices
    for h_index in range(len(lattice)):
        induced = induced_toposys(system, h_index)
        inside = induced.system.member_bits
        hmask = lattice.mask(h_index)
        if induced.trace_bits & ~inside:
            traces_ok = False
            failures.append(ValidationFailure("induced-trace", (h_index,), "a topen trace is not induced-topen"))
        if len(member_list) <= union_sample_limit:
            for pos, a in enumerate(member_list):
                for b in member_list[pos:]:
                    if not is_star_open(induced.system, (lattice.mask(a) | lattice.mask(b)) & hmask):
                        sampled_ok = False
                        failures.append(
                            ValidationFailure("union-trace", (a, b, h_index), "union trace is not star-open")
                        )
    passed = never_hausdorff_ok and traces_ok and sampled_ok
    return StarTopologyReport(passed, never_hausdorff_ok, traces_ok, sampled_ok, tuple(failures))
