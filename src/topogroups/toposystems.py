"""Topo-systems on finite groups: construction, verification and the calculus.

A topo-system is a set of subgroups containing the trivial subgroup and the
whole group, closed under generated joins of arbitrary subfamilies and under
pairwise intersection.  On a finite lattice the join axiom reduces to pairwise
closure: the join of any finite family is an iterated pairwise join, and every
member set here is finite.  Member subgroups are called topens, and a member
set is stored as a bitset over canonical lattice indices.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .groups import TopoGroupError, bits_of, mask_of, split_top_level
from .lattice import NotNormalError, SubgroupLattice, is_characteristic, minimal_cover, verbal_residual
from .report import ValidationFailure


class BadParameterError(TopoGroupError):
    pass


class TopoSystem:
    """A set of topen subgroups over a canonical lattice, and its axiom verdict.

    ``member_bits`` is the member set as a bitset over lattice indices, and
    ``least_topen[e]`` the index of U(e), the meet of the topens containing
    element e: in a meet-closed set, the lowest bit of ``member_bits &
    above[cyclic(e)]``.  Every point-wise query reads U, so it assumes a
    topo-system, as build_toposys, the suites and product_toposys ensure.
    U is computed once per system, and so is ``failure``, the verdict every
    layer reads: verify_toposys of the member set, the first violated axiom
    or None for a topo-system.
    """

    lattice: SubgroupLattice
    member_bits: int
    provenance: str
    notes: tuple[str, ...]

    def __init__(self, lattice: SubgroupLattice, member_bits: int, provenance: str, notes: tuple[str, ...] = ()):
        self.lattice = lattice
        self.member_bits = member_bits
        self.provenance = provenance
        self.notes = notes

    @cached_property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.member_bits))

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.member_indices)

    @cached_property
    def least_topen(self) -> tuple[int, ...]:
        # containing[e] is above[cyclic(e)]; G keeps U defined on a set that lacks it
        bits = self.member_bits | 1 << self.lattice.top_index
        return tuple(((t := c & bits) & -t).bit_length() - 1 for c in self.lattice.containing)

    @cached_property
    def failure(self) -> ValidationFailure | None:
        return verify_toposys(self.lattice, self.member_bits)

    @cached_property
    def upward(self) -> int:
        """Bitset of the topens a whose up-set above[a] lies inside the member set."""
        above, bits = self.lattice.above, self.member_bits
        return mask_of(a for a in self.member_indices if not above[a] & ~bits)

    @cached_property
    def quotients(self) -> dict[int, QuotientToposys]:
        """quotient_toposys(self, n) per normal subgroup index n, computed once per system."""
        return {n: quotient_toposys(self, n) for n in bits_of(self.lattice.normal_bits)}

    @cached_property
    def hausdorff(self) -> bool:
        """Whether is_hausdorff(self) holds, computed once per system."""
        return is_hausdorff(self)[0]

    def __contains__(self, index: int) -> bool:
        return bool(self.member_bits >> index & 1)

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
        return lattice.join_of(lattice.cyclic_index(e) for e in ids)
    raise BadParameterError(f"bad subgroup literal {text!r} (expected gen{{..}} or #k)")


def verify_toposys(lattice: SubgroupLattice, bits: int, n: int = 0) -> ValidationFailure | None:
    """The first violated topo-system axiom of a candidate member bitset, or None.

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
    for required in (n, lattice.top_index):
        if not bits >> required & 1:
            return ValidationFailure("axiom-a", (required,), "trivial subgroup or whole group missing")
    if bits == lattice.above[n]:
        return None
    for i in bits_of(bits):
        # members after i that do not contain it
        for j in bits_of(bits & ~lattice.above[i] & -(2 << i)):
            jj = lattice.join_index(i, j)
            if not bits >> jj & 1:
                return ValidationFailure("join-closure", (i, j, jj), "join of members is not a member")
            mm = lattice.meet_index(i, j)
            if not bits >> mm & 1:
                return ValidationFailure("meet-closure", (i, j, mm), "meet of members is not a member")
    return None


def _closure(lattice: SubgroupLattice, bits: int) -> int:
    """Least join/meet-closed bitset containing bits.

    A seed that is the whole lattice is closed already.
    """
    if bits == lattice.above[0]:
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
    bits = _closure(lattice, seed | 1 | 1 << lattice.top_index)
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
    """The system itself once its member set passes verify_toposys; TopoGroupError otherwise."""
    if system.failure is not None:
        raise TopoGroupError(
            f"internal error: family {system.provenance!r} on {system.lattice.group.descriptor} "
            f"fails axioms: {system.failure}"
        )
    return system


def family_members(lattice: SubgroupLattice, descriptor: str) -> TopoSystem:
    """The member set a descriptor names (see build_toposys), not yet verified.

    Every family is read off the lattice's bitsets: ``above[k]`` is the set
    of subgroups containing k, ``normalized_by[h]`` the subgroups that h
    normalizes, and ``normal_bits`` the normal subgroups.
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
        bits = mask_of(i for i in bits_of(lattice.normal_bits) if is_characteristic(lattice, i))
    elif kind == "principal":
        bits = above[resolve_subgroup_literal(lattice, arg)] | 1
    elif kind == "variety":
        bits = lattice.normal_bits & above[verbal_residual(lattice, arg)] | 1
    elif kind == "thk":
        parts = split_top_level(arg, ":,")
        if len(parts) != 2:
            raise BadParameterError(f"thk needs two subgroup literals, got {descriptor!r}")
        h = resolve_subgroup_literal(lattice, parts[0])
        k = resolve_subgroup_literal(lattice, parts[1])
        if not lattice.leq(h, k):
            raise BadParameterError("thk requires the first subgroup to lie inside the second")
        bits = thk_bits(lattice, h, k)
    elif kind == "conj":
        bits = lattice.normalized_by[resolve_subgroup_literal(lattice, arg)]
    elif kind == "generated":
        seed = mask_of(resolve_subgroup_literal(lattice, p) for p in split_top_level(arg, ":,"))
        return generate_toposys(lattice, seed, provenance=desc)
    else:
        raise BadParameterError(f"unknown topo-system kind {descriptor!r}")

    return TopoSystem(lattice, bits, desc, notes)


def thk_bits(lattice: SubgroupLattice, h: int, k: int) -> int:
    """Member set of ``thk:#h:#k``: the subgroups L with [L, k] inside h, and G."""
    return lattice.commutators_inside(h, k) | 1 << lattice.top_index


class QuotientToposys(NamedTuple):
    """Image of a topo-system on G/N, on the parent lattice, plus its first axiom failure.

    The image of topen a is (a ∨ N)/N, and the subgroups of G/N are the
    K/N with K in the interval [N, G].  ``member_bits`` is the bitset of the
    parent indices a ∨ N; the witnesses give them as indices of L(G/N)
    (see SubgroupLattice.quotient_index).  ``failure`` is the first axiom
    the image breaks on [N, G], or None.  When T is a topo-system and the
    image stays in T ∪ {N}, the image is (T ∩ [N, G]) ∪ {N}, closed under
    joins and meets with least element N, so it needs no scan.
    """

    member_bits: int
    failure: ValidationFailure | None


def quotient_toposys(parent: TopoSystem, n: int) -> QuotientToposys:
    """The image {a ∨ N} of the parent topens, verified on [N, G] with quotient-index witnesses.

    A topen above N is its own image, and an upward topen a has a ∨ N in
    ↑a ∩ ↑N, inside the member set, so only the other topens are joined.
    [N, G] has the parent's joins and meets and, by SubgroupLattice.quotient_index,
    the parent's order, so the parent's scan meets the failing pairs in quotient order.
    """
    lattice = parent.lattice
    if not lattice.is_normal_index(n):
        raise NotNormalError(f"subgroup #{n} of {lattice.group.descriptor} is not normal")
    bits = parent.member_bits
    image = bits & lattice.above[n]
    for a in bits_of(bits & ~lattice.above[n] & ~parent.upward):
        image |= 1 << lattice.join_index(a, n)
    if not image & ~(bits | 1 << n) and parent.failure is None:
        return QuotientToposys(image, None)
    failure = verify_toposys(lattice, image, n)
    if failure is not None:
        witness = tuple(lattice.quotient_index(n, k) for k in failure.witness)
        failure = ValidationFailure(failure.kind, witness, failure.detail)
    return QuotientToposys(image, failure)


def interior_boundary(system: TopoSystem, x: int) -> tuple[int, frozenset[int]]:
    """Interior (largest topen inside subgroup x) as an index, and the boundary element set.

    The join of the topens inside x is the one of largest order, which the
    canonical order puts at the top bit of ``member_bits & below[x]``; the
    tests check it against the join and the element-wise union of those topens.
    """
    lattice = system.lattice
    interior = (system.member_bits & lattice.below[x]).bit_length() - 1
    return interior, frozenset(bits_of(lattice.mask(x) & ~lattice.mask(interior)))


def _limits(system: TopoSystem, x: int) -> frozenset[int]:
    """The points whose every topen meets subgroup x in at least two elements.

    Those topens contain U(e), so e is one iff U(e) meets x beyond the
    identity, and the identity, whose U is the trivial topen, is never one.
    """
    thin = system.lattice.disjoint[x]
    return frozenset(e for e, u in enumerate(system.least_topen) if not thin >> u & 1)


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


class TClosedReport(NamedTuple):
    """The least stuck point of each check; a is (weak) T-closed when it is None."""

    t_closed_witness: int | None
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
    return TClosedReport(t_witness, weak_witness)


def is_hausdorff(system: TopoSystem) -> tuple[bool, tuple[int, int] | None]:
    """True iff every cyclically distinct pair has disjoint topens around it.

    Topens around x and y contain U(x) and U(y), so some two are disjoint iff
    ``disjoint[U(x)]`` holds U(y).  Otherwise the witness is the first pair
    (x, y) in element order that no two disjoint topens separate.
    """
    lattice = system.lattice
    least, disjoint, cyclic = system.least_topen, lattice.disjoint, lattice.cyclic_index
    order = lattice.group.order
    for x in range(order):
        distinct, apart = disjoint[cyclic(x)], disjoint[least[x]]
        for y in range(x, order):
            if distinct >> cyclic(y) & 1 and not apart >> least[y] & 1:
                return False, (x, y)
    return True, None


class SubcoverCertificate(NamedTuple):
    """Minimal subcover of a topen cover; finite groups are always topo-compact."""

    selected: tuple[int, ...]
    exact: bool


def find_finite_subcover(system: TopoSystem, x: int, cover) -> SubcoverCertificate | None:
    """Extract a minimal subcover of subgroup x from the given topen indices, or None."""
    lattice = system.lattice
    cover = list(cover)
    for i in cover:
        if i not in system:
            raise BadParameterError(f"cover entry #{i} is not a topen of the system")
    result = minimal_cover(lattice.mask(x), [lattice.mask(i) for i in cover])
    if result is None:
        return None
    positions, exact = result
    return SubcoverCertificate(tuple(cover[p] for p in positions), exact)


def star_topology_checks(system: TopoSystem) -> ValidationFailure | None:
    """The first failing check for the point topology whose basis is the topen set, or None.

    * never-Hausdorff: every topen contains the identity, so every non-empty
      union of topens does too; that is, every topen lies above U(identity),
      the trivial subgroup on a verified system, where it cannot fail.
    * subspace compatibility: the induced system on h is the fixpoint that
      the traces a ∧ h seed, so each trace is induced-open by construction
      and no induced system is built.  The trace a ∧ h is the element-wise
      intersection, so (a ∪ b) ∩ h is the union of two traces by
      distributivity; the tests check both in L(h) built as a group of its own.
    """
    if system.member_bits & ~system.lattice.above[system.least_topen[0]]:
        return ValidationFailure("never-hausdorff", (), "a topen misses the identity")
    return None
