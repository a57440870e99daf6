"""Topo-systems on finite groups: construction, verification and the calculus.

A topo-system is a set of subgroups containing the trivial subgroup and the
whole group, closed under generated joins of arbitrary subfamilies and under
pairwise intersection.  On a finite lattice the join axiom reduces to pairwise
closure: the join of any finite family is an iterated pairwise join, and every
member set here is finite.  Member subgroups are called topens and are stored
as canonical lattice indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TopoGroupError,
    bits_of,
    closure_mask,
    mask_of,
    subgroup_generated,
)
from .lattice import (
    SubgroupLattice,
    enumerate_subgroups,
    is_characteristic,
    verbal_residual,
)
from .report import ValidationFailure, ValidationReport


class BadParameterError(TopoGroupError):
    pass


@dataclass(frozen=True)
class TopoSystem:
    """A verified set of topen subgroups over a canonical lattice.

    ``member_bits`` is the member set as a bitset over lattice indices, and
    ``incidence[e]`` is T(e), the bitset of the topens containing element e:
    the lattice's ``containing[e]`` restricted to the members.  Both are
    computed once per system, and every point-wise topen query reads them.
    """

    lattice: SubgroupLattice
    members: frozenset[int]
    provenance: str
    notes: tuple[str, ...] = ()

    @cached_property
    def member_bits(self) -> int:
        return mask_of(self.members)

    @cached_property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.member_bits))

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        bits = self.member_bits
        return tuple(c & bits for c in self.lattice.containing)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def topens(self):
        return tuple(self.lattice.subgroup(i) for i in self.member_indices)

    def topens_containing(self, x: int) -> tuple[int, ...]:
        """Topens containing element x, ascending."""
        return tuple(bits_of(self.incidence[x]))

    def __repr__(self):
        return f"TopoSystem({self.lattice.group.descriptor}; {self.provenance}; {len(self.members)} topens)"


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


def verify_toposys(lattice: SubgroupLattice, members) -> ValidationReport:
    """Check the three topo-system axioms on a candidate member set.

    Pairwise join/meet closure is checked; this is equivalent to closure
    under arbitrary families because the member set is finite.  Pairs are
    visited as i <= j in index order, and a pair with subgroup i inside
    subgroup j is skipped: its join is j and its meet is i, both members.
    The canonical order sorts by order first, so a subgroup inside j never
    has a larger index, and the skip cannot change the first failing pair.
    """
    bits = mask_of(members)
    failures = []
    for required in (lattice.trivial_index, lattice.top_index):
        if not bits >> required & 1:
            failures.append(ValidationFailure("axiom-a", (required,), "trivial subgroup or whole group missing"))
    if failures:
        return ValidationReport(False, tuple(failures))
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


def generate_toposys(lattice: SubgroupLattice, seed, provenance: str | None = None) -> TopoSystem:
    """Least topo-system containing the seed indices (pairwise fixpoint)."""
    members = {lattice.trivial_index, lattice.top_index}
    members.update(seed)
    queue = sorted(members)
    i = 0
    while i < len(queue):
        a = queue[i]
        i += 1
        for b in queue[:i]:
            for c in (lattice.join_index(a, b), lattice.meet_index(a, b)):
                if c not in members:
                    members.add(c)
                    queue.append(c)
    if provenance is None:
        provenance = "generated:" + ",".join(f"#{s}" for s in sorted(set(seed)))
    return TopoSystem(lattice, frozenset(members), provenance)


def build_toposys(lattice: SubgroupLattice, descriptor: str) -> TopoSystem:
    """Build one of the named topo-system families from its descriptor.

    Grammar: ``discrete | trivial | cofinite | normal | characteristic |
    principal:LIT | variety:abelian | variety:exponent-n | thk:LIT:LIT |
    conj:LIT | generated:LIT,LIT,...`` where LIT is ``gen{..}`` or ``#k``.
    """
    desc = descriptor.replace(" ", "")
    kind, _, arg = desc.partition(":")
    notes: tuple[str, ...] = ()
    top = lattice.top_index
    all_indices = range(len(lattice))

    if kind == "discrete":
        members = set(all_indices)
    elif kind == "trivial":
        members = {0, top}
    elif kind == "cofinite":
        # every subgroup of a finite group has finite index
        members = set(all_indices)
        notes = ("cofinite coincides with discrete on a finite group",)
    elif kind == "normal":
        members = set(lattice.normal_indices())
    elif kind == "characteristic":
        members = {i for i in all_indices if is_characteristic(lattice.subgroup(i))}
    elif kind == "principal":
        b = resolve_subgroup_literal(lattice, arg)
        bmask = lattice.mask(b)
        members = {i for i in all_indices if bmask & lattice.mask(i) == bmask}
        members.add(0)
    elif kind == "variety":
        residual = verbal_residual(lattice.group, arg)
        rmask = residual.mask
        members = {
            i
            for i in lattice.normal_indices()
            if rmask & lattice.mask(i) == rmask
        }
        members.add(0)
    elif kind == "thk":
        parts = _split_literals(arg)
        if len(parts) != 2:
            raise BadParameterError(f"thk needs two subgroup literals, got {descriptor!r}")
        h = resolve_subgroup_literal(lattice, parts[0])
        k = resolve_subgroup_literal(lattice, parts[1])
        hmask = lattice.mask(h)
        if hmask & lattice.mask(k) != hmask:
            raise BadParameterError("thk requires the first subgroup to lie inside the second")
        members = {
            i
            for i in all_indices
            if lattice.mask(lattice.commutator_index(i, k)) & hmask == lattice.mask(lattice.commutator_index(i, k))
        }
        members.add(top)
    elif kind == "conj":
        h = resolve_subgroup_literal(lattice, arg)
        hmask = lattice.mask(h)
        members = {
            i for i in all_indices if hmask & lattice.mask(lattice.normalizer_index(i)) == hmask
        }
    elif kind == "generated":
        seed = [resolve_subgroup_literal(lattice, p) for p in _split_literals(arg)]
        return generate_toposys(lattice, seed, provenance=desc)
    else:
        raise BadParameterError(f"unknown topo-system kind {descriptor!r}")

    system = TopoSystem(lattice, frozenset(members), desc, notes)
    report = verify_toposys(lattice, system.members)
    if not report.passed:
        raise TopoGroupError(
            f"internal error: family {desc!r} on {lattice.group.descriptor} fails axioms: {report.first_failure()}"
        )
    return system


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
    """A topo-system induced on a subgroup, reindexed as a group of its own."""

    system: TopoSystem
    group: FiniteGroup
    embedding: Homomorphism
    trace_indices: tuple[int, ...]


def induced_toposys(parent: TopoSystem, h: Subgroup | int) -> InducedToposys:
    """Generate the induced system on h from the traces of the parent topens."""
    lattice = parent.lattice
    h_index = h if isinstance(h, int) else lattice.index_of_subgroup(h)
    hmask = lattice.mask(h_index)
    hgroup, embed = lattice.subgroup_as_group(h_index)
    hlattice = enumerate_subgroups(hgroup)
    local_of = {parent_id: local for local, parent_id in enumerate(embed.mapping)}
    seed = set()
    for a in parent.member_indices:
        trace = lattice.mask(a) & hmask
        seed.add(hlattice.index_of(mask_of(local_of[e] for e in bits_of(trace))))
    system = generate_toposys(hlattice, seed, provenance=f"induced({parent.provenance})@#{h_index}")
    return InducedToposys(system, hgroup, embed, tuple(sorted(seed)))


@dataclass(frozen=True)
class QuotientToposys:
    """Image system on a quotient group plus the always-run axiom report.

    Closure of the image set under intersection is not obvious in general, so
    the verifier runs on every produced quotient and the report travels with
    the system instead of being assumed.
    """

    system: TopoSystem
    group: FiniteGroup
    natural: Homomorphism
    report: ValidationReport


def quotient_toposys(parent: TopoSystem, n: Subgroup | int) -> QuotientToposys:
    lattice = parent.lattice
    n_index = n if isinstance(n, int) else lattice.index_of_subgroup(n)
    qgroup, natural = lattice.quotient_by(n_index)
    qlattice = enumerate_subgroups(qgroup)
    members = frozenset(
        qlattice.index_of(natural.image_mask(lattice.mask(a))) for a in parent.member_indices
    )
    report = verify_toposys(qlattice, members)
    system = TopoSystem(qlattice, members, f"quotient({parent.provenance})@#{n_index}")
    return QuotientToposys(system, qgroup, natural, report)


def interior_boundary(system: TopoSystem, x: Subgroup) -> tuple[Subgroup, frozenset[int]]:
    """Interior (largest topen inside x) and boundary element set.

    The join of all topens contained in x is itself a topen contained in x,
    so the element-wise union of those topens equals this join; the union is
    used as an independent cross-check in the tests.
    """
    lattice = system.lattice
    xmask = x.mask
    inside = [a for a in system.member_indices if lattice.mask(a) & xmask == lattice.mask(a)]
    interior_index = lattice.join_of(inside)
    interior = lattice.subgroup(interior_index)
    boundary = frozenset(bits_of(xmask & ~interior.mask))
    return interior, boundary


def closure_and_limits(system: TopoSystem, x: Subgroup) -> tuple[frozenset[int], Subgroup]:
    """Limit points of x and the subgroup generated by x plus its limits.

    A point is a limit of x when every topen containing it meets x in at
    least two elements; the trivial topen contains only the identity, so the
    identity is never a limit point.
    """
    lattice = system.lattice
    xmask = x.mask
    # topens meeting x in fewer than two elements
    thin = mask_of(a for a in system.member_indices if (lattice.mask(a) & xmask).bit_count() < 2)
    limits = {e for e, topens in enumerate(system.incidence) if not topens & thin}
    closure = subgroup_generated(lattice.group, xmask | mask_of(limits))
    return frozenset(limits), closure


@dataclass(frozen=True)
class TClosedReport:
    is_t_closed: bool
    t_closed_witness: int | None
    is_weak_t_closed: bool
    weak_witness: int | None


def t_closed_checks(system: TopoSystem, a: Subgroup) -> TClosedReport:
    """T-closed and weak T-closed separation checks with stuck-x witnesses.

    Weak closedness quantifies only over x whose cyclic subgroup meets a
    trivially, and requires a separating topen that actually contains x;
    without that containment the trivial topen would satisfy everything.
    """
    lattice = system.lattice
    amask = a.mask
    incidence = system.incidence
    disjoint_from_a = mask_of(i for i in system.member_indices if lattice.mask(i) & amask == 1)

    def separated(x: int) -> bool:
        return incidence[x] & disjoint_from_a != 0

    t_witness = None
    for x in lattice.group.elements():
        if not amask >> x & 1 and not separated(x):
            t_witness = x
            break
    weak_witness = None
    for x in lattice.group.elements():
        if lattice.mask(lattice.cyclic_index(x)) & amask == 1 and not separated(x):
            weak_witness = x
            break
    return TClosedReport(t_witness is None, t_witness, weak_witness is None, weak_witness)


@dataclass(frozen=True)
class SeparationWitness:
    """A cyclically distinct pair, with its separating topens when they exist."""

    x: int
    y: int
    separating: tuple[int, int] | None = None


def is_hausdorff(system: TopoSystem) -> tuple[bool, SeparationWitness | None]:
    """True iff every cyclically distinct pair has disjoint topens around it."""
    lattice = system.lattice
    group = lattice.group
    incidence = system.incidence
    members = system.member_indices
    # disjoint[a]: the topens meeting topen a only in the identity
    disjoint = {a: mask_of(b for b in members if lattice.mask(a) & lattice.mask(b) == 1) for a in members}
    for x in group.elements():
        cx = lattice.mask(lattice.cyclic_index(x))
        # the topens disjoint from some topen around x
        apart = 0
        for a in bits_of(incidence[x]):
            apart |= disjoint[a]
        for y in range(x, group.order):
            if cx & lattice.mask(lattice.cyclic_index(y)) != 1:
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


def find_finite_subcover(system: TopoSystem, x: Subgroup, cover) -> SubcoverCertificate | None:
    """Extract a minimal subcover of x from the given topen indices, or None."""
    from .lattice import minimal_cover

    lattice = system.lattice
    cover = list(cover)
    for i in cover:
        if i not in system.members:
            raise BadParameterError(f"cover entry #{i} is not a topen of the system")
    family = [lattice.subgroup(i) for i in cover]
    result = minimal_cover(x, family)
    if result is None:
        return None
    return SubcoverCertificate(tuple(cover[p] for p in result.positions), result.exact)


def is_topomorphism(f: Homomorphism, source_sys: TopoSystem, target_sys: TopoSystem) -> tuple[bool, int | None]:
    """True iff every topen of the target pulls back to a topen of the source."""
    src_lattice = source_sys.lattice
    for b in target_sys.member_indices:
        pre = f.preimage_mask(target_sys.lattice.mask(b))
        if src_lattice.index_of(pre) not in source_sys.members:
            return False, b
    return True, None


def is_star_open(system: TopoSystem, elements) -> bool:
    """A point set is star-open iff it equals the union of topens inside it."""
    xmask = elements if isinstance(elements, int) else mask_of(elements)
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
        hmask = lattice.mask(h_index)
        local_of = {parent_id: local for local, parent_id in enumerate(induced.embedding.mapping)}
        hlattice = induced.system.lattice

        def localize(parent_mask: int) -> int:
            return mask_of(local_of[e] for e in bits_of(parent_mask & hmask))

        for a in member_list:
            if hlattice.index_of(localize(lattice.mask(a))) not in induced.system.members:
                traces_ok = False
                failures.append(ValidationFailure("induced-trace", (a, h_index), "topen trace is not induced-topen"))
        if len(member_list) <= union_sample_limit:
            for pos, a in enumerate(member_list):
                for b in member_list[pos:]:
                    union_trace = (lattice.mask(a) | lattice.mask(b)) & hmask
                    if not is_star_open(induced.system, localize(union_trace)):
                        sampled_ok = False
                        failures.append(
                            ValidationFailure("union-trace", (a, b, h_index), "union trace is not star-open")
                        )
    passed = never_hausdorff_ok and traces_ok and sampled_ok
    return StarTopologyReport(passed, never_hausdorff_ok, traces_ok, sampled_ok, tuple(failures))
