"""Reference constructions the runtime no longer uses, kept as differential oracles.

The runtime works on the parent lattice for subgroups and quotients (↓H for
a subgroup H, the interval [N, G] for a quotient G/N).  The paths here build
the subgroup or quotient as a group of its own, enumerate its lattice and
work there, as the runtime once did; the tests compare the two.  The runtime
reads the family member sets and commutator subgroups off the lattice's
bitsets; the set comprehensions and closures here test each subgroup
against its definition instead.  Automorphisms are read through generating
sets at runtime, and normalizers and cores through one walk per conjugacy
class of subgroups (its Schreier elements and its meet); the full search
over generator images with its pairwise homomorphism check, the
element-by-element normalizer scan and the core as a fixpoint of conjugating
whole element masks are kept here.  The runtime reads thk
member sets and [H, K] off one commutator row per k, checks associativity on
generators only and walks only the product topens around the Tychonoff
point; the full scans and the replay over every product topen are kept
here, and so are the paper's topomorphism and ordinary-filter definitions.
A product-form subgroup mask is a union of shifted factor masks, and the
component identities join on the product lattice; the per-tuple encoding
and the closure of the union are kept here.
The runtime's star-topology check tests only never-Hausdorff, since each
trace is induced-open by construction and union traces are traces by
distributivity; both subspace checks run here, in L(h) built as a group of
its own.  The runtime joins only the topens whose image it cannot read off
the member set, and verifies a quotient image only where the
correspondence theorem leaves it open; the join of every topen with N and
the verification of every image are kept here.  The runtime's subgroup
oracle walks only the subsets that can still close, homomorphisms are
checked on generators and the ultrafilter family scan skips families that
hold a member; the size-filtered subset scan, the all-pairs homomorphism
check and the all-families scan are kept here.  The construction layer
works at table level: one closure per element gives each cyclic subgroup
and element order, and the greedy generators take their orbits from that
closure walk; the power walk and the restarted orbit walk are kept here.
The group axioms are decided row by row with C-level checks, the lattice
is sorted on C-level string keys, cosets are ORed straight into masks,
normalizers and commutator rows skip the centre and characteristic subgroups are read off Aut(G)-orbit masks; the cell-by-cell
axiom scan, the tuple sort key, the coset lists, the rows over all of G × K
and the per-cell dihedral and permutation products are kept here.  The
per-point calculus reads one least topen per point and an interior as one top
bit; T(x), the topens containing x, the limit, convergence and Hausdorff scans
over T(x) and the interior as a join are kept here, and the quotient-group
battery reads them.  Goursat's lemma counts the subgroups of a product from
the sections of its factors, with isomorphisms and automorphism counts from
a backtrack over generator images instead of the runtime's automorphism code.
"""

import functools
from dataclasses import dataclass
from itertools import combinations, permutations
from itertools import product as iter_product

from topogroups.filters import (
    NotAFilterError,
    SubgroupFilter,
    TheoremReport,
    _cyclically_distinct_pair,
    convergence_set,
    enumerate_ultrafilters,
    filter_from_members,
    is_ultrafilter,
    pushforward,
)
from topogroups.groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Homomorphism,
    NotAHomomorphismError,
    _perm_is_even,
    bits_of,
    build_group,
    closure_mask,
    make_homomorphism,
    mask_of,
    split_top_level,
)
from topogroups.lattice import (
    _close_generator_map,
    automorphisms,
    enumerate_subgroups,
    is_characteristic,
    verbal_residual,
)
from topogroups.products import CertificateFailureError, ProductGroup, ProductToposys, TychonoffCertificate
from topogroups.report import ValidationFailure
from topogroups.toposystems import (
    BadParameterError,
    QuotientToposys,
    TClosedReport,
    TopoSystem,
    generate_toposys,
    resolve_subgroup_literal,
    verify_toposys,
)


# the groups of the benchmark's wide and ladder workloads
WIDE_GROUPS = ("dihedral:24", "abelian:2x4x4", "abelian:2x2x2x3")
LADDER_GROUPS = (
    "dihedral:32",
    "product(sym:4,cyclic:2)",
    "abelian:2x2x2x2x2",
    "product(abelian:2x2,sym:3)",
    "abelian:2x2x2x3",
    "abelian:2x2x4",
)
# both, each group once
WIDE_AND_LADDER_GROUPS = tuple(dict.fromkeys(WIDE_GROUPS + LADDER_GROUPS))
# star_topology_failure checks pairwise union traces only on systems with at most this many topens
UNION_SAMPLE_LIMIT = 12


def census_descriptors(cap: int = DEFAULT_ORDER_CAP) -> tuple[str, ...]:
    """Descriptors of every order up to cap, one spelling each.

    cyclic:1..cap; every abelian: spelling of at least two factors, each at
    least 2, largest first; dihedral:1..cap/2; sym and alt up to degree 4;
    quaternion:8; and product(A,B) for each non-abelian A of these and each B
    of order at least 2, once per pair when B is non-abelian too.
    """

    def spellings(prefix, order):
        if len(prefix) >= 2:
            yield "abelian:" + "x".join(map(str, prefix))
        for f in range(min(prefix[-1] if prefix else cap, cap // order), 1, -1):
            yield from spellings(prefix + [f], order * f)

    base = [f"cyclic:{n}" for n in range(1, cap + 1)] + list(spellings([], 1))
    base += [f"dihedral:{n}" for n in range(1, cap // 2 + 1)]
    base += [f"{k}:{n}" for k in ("sym", "alt") for n in range(1, 5)] + ["quaternion:8"]
    groups = {d: build_group(d) for d in base}
    non_abelian = [d for d in base if groups[d].table != tuple(zip(*groups[d].table))]
    products = [
        f"product({a},{b})"
        for i, a in enumerate(non_abelian)
        for b in base
        if 1 < groups[b].order <= cap // groups[a].order and (b not in non_abelian or non_abelian.index(b) >= i)
    ]
    return tuple(base + products)


def family_members_by_scan(lattice, descriptor: str) -> frozenset[int]:
    """The member set of a family descriptor (not ``generated``), one subgroup at a time."""
    kind, _, arg = descriptor.partition(":")
    top = lattice.top_index
    all_indices = range(len(lattice))
    normal = {i for i in all_indices if lattice.is_normal_index(i)}
    if kind in ("discrete", "cofinite"):
        members = set(all_indices)
    elif kind == "trivial":
        members = {0, top}
    elif kind == "normal":
        members = normal
    elif kind == "characteristic":
        members = {i for i in all_indices if is_characteristic(lattice, i)}
    elif kind == "principal":
        bmask = lattice.mask(resolve_subgroup_literal(lattice, arg))
        members = {i for i in all_indices if bmask & lattice.mask(i) == bmask} | {0}
    elif kind == "variety":
        rmask = lattice.mask(verbal_residual(lattice, arg))
        members = {i for i in normal if rmask & lattice.mask(i) == rmask} | {0}
    elif kind == "thk":
        h, k = (resolve_subgroup_literal(lattice, p) for p in split_top_level(arg, ":,"))
        members = set(bits_of(thk_bits_by_scan(lattice, h, k))) | {top}
    elif kind == "conj":
        hmask = lattice.mask(resolve_subgroup_literal(lattice, arg))
        members = {i for i in all_indices if hmask & lattice.mask(lattice.normalizer_index(i)) == hmask}
    else:
        raise ValueError(f"no oracle for {descriptor!r}")
    return frozenset(members)


def membership_order(masks) -> list[int]:
    """The masks sorted by order, then by their sorted members as tuples."""
    return sorted(masks, key=lambda m: (m.bit_count(), tuple(bits_of(m))))


def subgroup_generators_by_coset_lists(group: FiniteGroup) -> dict[int, tuple[int, ...]]:
    """Subgroup mask -> generators by prime-index cyclic extension, each coset built as a list of elements."""
    table, inverse = group.table, group.inverse
    cyclic_masks = [closure_mask(group, (x,)) for x in group.elements()]
    least: dict[int, int] = {}
    for x, m in enumerate(cyclic_masks):
        least.setdefault(m, x)
    reps = list(least.values())[1:]
    generators: dict[int, tuple[int, ...]] = {1: ()}
    queue = [1]
    for h in queue:
        gens, elems = generators[h], list(bits_of(h))
        reached = h
        for x in reps:
            if reached >> x & 1:
                continue
            row, xi = table[x], inverse[x]
            if not all(h >> table[row[g]][xi] & 1 for g in gens):
                continue
            powers = [x]
            while not h >> (y := table[powers[-1]][x]) & 1:
                powers.append(y)
            p = len(powers) + 1
            if any(p % d == 0 for d in range(2, p)):
                continue
            cosets = [table[y][e] for y in powers for e in elems]
            j = h | mask_of(cosets)
            reached |= j
            if j not in generators:
                generators[j] = tuple(g for g in gens if not cyclic_masks[x] >> g & 1) + (x,)
                queue.append(j)
    return generators


def subgroup_masks_by_cyclic_extension(group: FiniteGroup) -> tuple[int, ...]:
    """The subgroup masks in canonical order, by plain cyclic extension.

    Breadth first from the trivial subgroup, every subgroup found is extended
    by every cyclic subgroup not inside it, with one closure per pair.  This
    is complete for every finite group, since each subgroup is the join of
    its cyclic subgroups.
    """
    cyclics: dict[int, int] = {}
    for x in group.elements():
        cyclics.setdefault(closure_mask(group, (x,)), x)
    generators: dict[int, tuple[int, ...]] = {1: ()}
    queue = [1]
    for h in queue:
        gens = generators[h]
        for c, x in cyclics.items():
            if c & h == c:
                continue
            j = closure_mask(group, gens + (x,))
            if j not in generators:
                generators[j] = gens + (x,)
                queue.append(j)
    return tuple(membership_order(generators))


def subgroup_group(group: FiniteGroup, mask: int, label: str = "") -> tuple[FiniteGroup, Homomorphism]:
    """Reindex a subgroup as a group of its own, plus the inclusion map.

    Local ids follow ascending parent ids, so the parent identity stays at 0.
    """
    elems = list(bits_of(mask))
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[group.table[a][b]] for b in elems] for a in elems]
    desc = f"{group.descriptor}{label or '|sub'}"
    sub = FiniteGroup(table, desc, tuple(group.name(e) for e in elems))
    embed = Homomorphism(sub, group, tuple(elems))
    return sub, embed


def quotient_group(group: FiniteGroup, normal_mask: int, label: str = "") -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup, plus the natural surjection.

    Cosets are numbered by their minimal element id, which keeps the identity
    coset at 0 and makes quotient tables deterministic.
    """
    n = group.order
    coset_of = [-1] * n
    reps: list[int] = []
    nm_elems = list(bits_of(normal_mask))
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for h in nm_elems:
            coset_of[group.table[x][h]] = idx
    table = [[coset_of[group.table[a][b]] for b in reps] for a in reps]
    names = tuple(f"[{group.name(r)}]" for r in reps)
    quot = FiniteGroup(table, f"{group.descriptor}{label or '|mod'}", names)
    natural = Homomorphism(group, quot, tuple(coset_of))
    return quot, natural


def quotient_lattice(lattice, n: int):
    """(L(G/N), natural map) with G/N built as a group of its own."""
    qgroup, natural = quotient_group(lattice.group, lattice.mask(n), f"|mod#{n}")
    return enumerate_subgroups(qgroup), natural


def induced_by_subgroup_group(parent: TopoSystem, h: int):
    """(members, traces) of the induced system on h, generated in L(h) and mapped to parent indices."""
    lattice = parent.lattice
    hmask = lattice.mask(h)
    hgroup, embed = subgroup_group(lattice.group, hmask, f"|sub#{h}")
    hlattice = enumerate_subgroups(hgroup)
    local_of = {parent_id: local for local, parent_id in enumerate(embed.mapping)}
    seed = {
        hlattice.index_of(mask_of(local_of[e] for e in bits_of(lattice.mask(a) & hmask)))
        for a in parent.member_indices
    }
    system = generate_toposys(hlattice, mask_of(seed))

    def to_parent(local: int) -> int:
        return lattice.index_of(embed.image_mask(hlattice.mask(local)))

    return frozenset(map(to_parent, system.members)), frozenset(map(to_parent, seed)), system, embed


def quotient_by_quotient_group(parent: TopoSystem, n: int):
    """(members as quotient indices, first axiom failure or None, quotient system, natural map) in L(G/N)."""
    lattice = parent.lattice
    qlattice, natural = quotient_lattice(lattice, n)
    members = frozenset(qlattice.index_of(natural.image_mask(lattice.mask(a))) for a in parent.member_indices)
    system = TopoSystem(qlattice, mask_of(members), f"quotient({parent.provenance})@#{n}")
    return members, verify_toposys(qlattice, system.member_bits), system, natural


def quotient_by_verify(parent: TopoSystem, n: int) -> QuotientToposys:
    """The image {a ∨ N} with one join per topen, verified on [N, G], witnesses as quotient indices."""
    lattice = parent.lattice
    bits = mask_of(lattice.join_index(a, n) for a in parent.member_indices)
    failure = verify_toposys(lattice, bits, n)
    if failure is not None:
        witness = tuple(lattice.quotient_index(n, k) for k in failure.witness)
        failure = ValidationFailure(failure.kind, witness, failure.detail)
    return QuotientToposys(bits, failure)


def is_topomorphism(f: Homomorphism, source_sys: TopoSystem, target_sys: TopoSystem) -> tuple[bool, int | None]:
    """True iff every topen of the target pulls back to a topen of the source."""
    src_lattice = source_sys.lattice
    for b in target_sys.member_indices:
        pre = f.preimage_mask(target_sys.lattice.mask(b))
        if src_lattice.index_of(pre) not in source_sys:
            return False, b
    return True, None


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


def restrict_ordinary(lattice, f1: OrdinaryFilter) -> SubgroupFilter:
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


def is_star_open(system: TopoSystem, xmask: int) -> bool:
    """An element bitset is star-open iff it equals the union of topens inside it."""
    lattice = system.lattice
    union = 0
    for a in system.member_indices:
        m = lattice.mask(a)
        if m & xmask == m:
            union |= m
    return union == xmask


def topens_around(system: TopoSystem, x: int) -> int:
    """T(x), the bitset of the topens containing element x: the lattice's containing[x] on the members."""
    return system.lattice.containing[x] & system.member_bits


def least_topen_by_meet(system: TopoSystem) -> tuple[int, ...]:
    """The meet of T(e) per element e, as an index; the whole group where no topen holds e."""
    lattice = system.lattice
    least = []
    for e in lattice.group.elements():
        meet = lattice.group.full_mask
        for a in bits_of(topens_around(system, e)):
            meet &= lattice.mask(a)
        least.append(lattice.index_of(meet))
    return tuple(least)


def limits_by_incidence(system: TopoSystem, x: int) -> frozenset[int]:
    """The points none of whose topens meets subgroup x in the identity only."""
    thin = system.member_bits & system.lattice.disjoint[x]
    return frozenset(e for e in system.lattice.group.elements() if not topens_around(system, e) & thin)


def t_closed_by_incidence(system: TopoSystem, a: int) -> TClosedReport:
    """Both stuck-point witnesses of subgroup a, from limits_by_incidence."""
    lattice = system.lattice
    stuck = limits_by_incidence(system, a)
    t_witness = min((x for x in stuck if not lattice.mask(a) >> x & 1), default=None)
    weak_witness = min((x for x in stuck if lattice.disjoint[a] >> lattice.cyclic_index(x) & 1), default=None)
    return TClosedReport(t_witness, weak_witness)


def convergence_by_incidence(f: SubgroupFilter, system: TopoSystem) -> tuple[int, ...]:
    """The points y with T(y) inside the filter's members."""
    outside = ~f.member_bits
    return tuple(y for y in system.lattice.group.elements() if not topens_around(system, y) & outside)


def is_hausdorff_by_incidence(system: TopoSystem) -> tuple[bool, tuple[int, int] | None]:
    """Every cyclically distinct pair (x, y) has a ∈ T(x) and b ∈ T(y) with a ∧ b trivial; else the first pair."""
    lattice = system.lattice
    disjoint = lattice.disjoint
    for x in lattice.group.elements():
        # the topens disjoint from some topen around x
        apart = 0
        for a in bits_of(topens_around(system, x)):
            apart |= disjoint[a]
        distinct = disjoint[lattice.cyclic_index(x)]
        for y in range(x, lattice.group.order):
            if distinct >> lattice.cyclic_index(y) & 1 and not topens_around(system, y) & apart:
                return False, (x, y)
    return True, None


def interior_by_join(system: TopoSystem, x: int) -> int:
    """The join of the topens inside subgroup x."""
    lattice = system.lattice
    return lattice.join_of(bits_of(system.member_bits & lattice.below[x]))


def star_topology_failure(system: TopoSystem) -> ValidationFailure | None:
    """The first subspace-compatibility failure, checked in L(h) for every subgroup h, or None.

    L(h) is built as a group of its own, and the induced system there is
    generated from the traces, so the induced-trace check is a real one here.
    """
    lattice = system.lattice
    member_list = system.member_indices
    for h in range(len(lattice)):
        _, _, induced, embed = induced_by_subgroup_group(system, h)
        hmask = lattice.mask(h)
        local_of = {parent_id: local for local, parent_id in enumerate(embed.mapping)}
        hlattice = induced.lattice

        def localize(parent_mask: int) -> int:
            return mask_of(local_of[e] for e in bits_of(parent_mask & hmask))

        if any(hlattice.index_of(localize(lattice.mask(a))) not in induced.members for a in member_list):
            return ValidationFailure("induced-trace", (h,), "a topen trace is not induced-topen")
        if len(member_list) <= UNION_SAMPLE_LIMIT:
            for pos, a in enumerate(member_list):
                for b in member_list[pos:]:
                    if not is_star_open(induced, localize(lattice.mask(a) | lattice.mask(b))):
                        return ValidationFailure("union-trace", (a, b, h), "union trace is not star-open")
    return None


def filter_failure_by_scan(lattice, members) -> ValidationFailure | None:
    """The first failure of a candidate member set holding the whole group and not the trivial subgroup.

    Upward closure is scanned on element masks: the first (member i,
    non-member j above i) in index order.  Then every pair i <= j of members
    is met in index order, the first meet outside the family failing.
    """
    for i in sorted(members):
        mi = lattice.mask(i)
        for j in range(len(lattice)):
            if j not in members and mi & lattice.mask(j) == mi:
                return ValidationFailure("upward", (i, j), "superset missing")
    ordered = sorted(members)
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            mm = lattice.meet_index(i, j)
            if mm not in members:
                detail = "meet is trivial" if mm == lattice.trivial_index else "meet missing"
                return ValidationFailure("meet", (i, j, mm), detail)
    return None


def commutator_mask_by_closure(lattice, i: int, j: int) -> int:
    """[H, K] as a mask: the generator commutators, closed and conjugated by the generators until stable."""
    group = lattice.group
    xs, ys = lattice.generators[i], lattice.generators[j]
    table, inverse = group.table, group.inverse
    gens = [table[table[a][b]][table[inverse[a]][inverse[b]]] for a in xs for b in ys]
    mask = closure_mask(group, gens)
    while True:
        new = {group.conjugate(g, n) for g in xs + ys for n in gens}
        new = [n for n in new if not mask >> n & 1]
        if not new:
            return mask
        gens += sorted(new)
        mask = closure_mask(group, gens)


@functools.cache
def _commutator_masks_by_closure(lattice, k: int) -> tuple[int, ...]:
    return tuple(commutator_mask_by_closure(lattice, i, k) for i in range(len(lattice)))


def thk_bits_by_scan(lattice, h: int, k: int) -> int:
    """The subgroups i with [i, k] inside h, one closure-oracle commutator per subgroup."""
    hmask = lattice.mask(h)
    return mask_of(i for i, c in enumerate(_commutator_masks_by_closure(lattice, k)) if c & ~hmask == 0)


def group_axioms_failure_by_scan(table) -> ValidationFailure | None:
    """verify_group_axioms cell by cell: shape and range, both identities, every inverse, then associativity."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            return ValidationFailure("shape", (i,), "row length mismatch")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                return ValidationFailure("range", (i, j), f"entry {v!r} out of range")
    for j in range(n):
        if table[0][j] != j:
            return ValidationFailure("identity", (0, j), "left identity broken")
    for i in range(n):
        if table[i][0] != i:
            return ValidationFailure("identity", (i, 0), "right identity broken")
    for a in range(n):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            return ValidationFailure("inverse", (a,), "no two-sided inverse")
    witness = associativity_failure_by_scan(table)
    return None if witness is None else ValidationFailure("associativity", witness, "")


def dihedral_table_by_formula(n: int) -> list[list[int]]:
    """The dihedral:n table from s^f1 r^k1 · s^f2 r^k2 = s^(f1+f2) r^(k2 ± k1), one product per cell."""

    def mul(a, b):
        f1, k1 = divmod(a, n)
        f2, k2 = divmod(b, n)
        k = (k2 + (k1 if f2 == 0 else -k1)) % n
        return ((f1 + f2) % 2) * n + k

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def permutation_table_by_compose(degree: int, even_only: bool) -> list[list[int]]:
    """The sym/alt table with each product composed as a tuple, right factor first."""
    perms = [p for p in permutations(range(degree)) if not even_only or _perm_is_even(p)]
    pos = {p: i for i, p in enumerate(perms)}
    return [[pos[tuple(a[b[i]] for i in range(degree))] for b in perms] for a in perms]


def right_generators_by_restart(table) -> list[int]:
    """right_generators with its own orbit walk: after each new generator, the orbit of 0 under all of them from scratch."""
    n = len(table)
    gens: list[int] = []
    reached = 1
    while reached != (1 << n) - 1:
        gens.append(next(x for x in range(n) if not reached >> x & 1))
        orbit, reached = [0], 1
        for x in orbit:
            for g in gens:
                y = table[x][g]
                if not reached >> y & 1:
                    reached |= 1 << y
                    orbit.append(y)
    return gens


def element_orders_by_powers(group: FiniteGroup) -> tuple[int, ...]:
    """The order of each element, as the number of powers up to the identity."""
    orders = []
    for y in group.elements():
        acc, n = y, 1
        while acc != 0:
            acc = group.table[acc][y]
            n += 1
        orders.append(n)
    return tuple(orders)


def commutator_row_by_scan(lattice, k: int) -> dict[int, int]:
    """The commutator row of subgroup k from every x in G against every y in k."""
    table, inverse, above, cyclic = lattice.group.table, lattice.group.inverse, lattice.above, lattice._cyclic
    row: dict[int, int] = {}
    for x in lattice.group.elements():
        common = -1
        for y in bits_of(lattice.mask(k)):
            common &= above[cyclic[table[table[x][y]][table[inverse[x]][inverse[y]]]]]
        c = (common & -common).bit_length() - 1
        row[c] = row.get(c, 0) | lattice.containing[x]
    return row


def is_characteristic_by_images(lattice, i: int) -> bool:
    """Subgroup i maps onto itself under every automorphism."""
    mask = lattice.mask(i)
    return all(phi.image_mask(mask) == mask for phi in automorphisms(lattice.group))


def associativity_failure_by_scan(table) -> tuple[int, int, int] | None:
    """The first (a, b, c) with (a·b)·c ≠ a·(b·c), scanning every triple."""
    n = len(table)
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    return a, b, c
    return None


def conjugate_mask(group: FiniteGroup, mask: int, g: int) -> int:
    """g·X·g⁻¹ for the element set X of a mask."""
    return mask_of(group.conjugate(g, x) for x in bits_of(mask))


def core_mask_by_conjugation(lattice, i: int) -> int:
    """The core of subgroup i as a mask: K <- K ∩ gKg⁻¹ over the generators of G until stable."""
    group = lattice.group
    mask, stable = lattice.mask(i), False
    while not stable:
        stable = True
        for g in lattice.generators[lattice.top_index]:
            conj = mask & conjugate_mask(group, mask, g)
            if conj != mask:
                mask, stable = conj, False
    return mask


def normalizer_by_scan(lattice, i: int) -> int:
    """Index of the normalizer of subgroup i: every element tested against every generator of it."""
    mask, gens, conjugate = lattice.mask(i), lattice.generators[i], lattice.group.conjugate
    return lattice.index_of(
        mask_of(g for g in lattice.group.elements() if all(mask >> conjugate(g, x) & 1 for x in gens))
    )


def automorphisms_by_backtracking(group: FiniteGroup) -> tuple[Homomorphism, ...]:
    """Every automorphism, each complete generator map closed again and checked on all |G|² pairs."""
    lattice = enumerate_subgroups(group)
    gens = lattice.generators[lattice.top_index]
    if not gens:
        return (make_homomorphism(group, group, (0,)),)
    candidates = [
        [h for h in group.elements() if group.element_order(h) == group.element_order(g)] for g in gens
    ]
    found: list[Homomorphism] = []

    def search(depth: int, imgs: list[int]):
        if depth == len(gens):
            mapping = _close_generator_map(group, gens, imgs)
            if mapping is not None and len(mapping) == group.order and len(set(mapping.values())) == group.order:
                found.append(make_homomorphism(group, group, tuple(mapping[x] for x in group.elements())))
            return
        for h in candidates[depth]:
            imgs.append(h)
            if _close_generator_map(group, gens[: depth + 1], imgs) is not None:
                search(depth + 1, imgs)
            imgs.pop()

    search(0, [])
    return tuple(found)


def theorem_checks_by_quotient_groups(lattice, system: TopoSystem) -> TheoremReport:
    """The theorem battery with every quotient built as a group of its own.

    Along each quotient topomorphism it also pushes every ultrafilter forward
    and checks convergence pointwise, which the runtime does not: the
    pullback of a topen around q(x) is a topen around x.  An AssertionError
    names the first case where that fails.
    """
    ultrafilters = enumerate_ultrafilters(lattice)
    limits = [convergence_by_incidence(f, system) for f in ultrafilters]
    compactness_witness = next((f.provenance for f, points in zip(ultrafilters, limits) if not points), None)
    multi_witness = None
    for f, points in zip(ultrafilters, limits):
        pair = _cyclically_distinct_pair(lattice, points)
        if pair is not None:
            multi_witness = f"{f.provenance}->{pair}"
            break
    findings: list[str] = []
    for n in bits_of(lattice.normal_bits):
        if n == lattice.top_index:
            continue
        _, failure, qsystem, natural = quotient_by_quotient_group(system, n)
        if failure is not None:
            findings.append(f"quotient-axioms@#{n}:{failure.kind}")
            continue
        topo_ok, offending = is_topomorphism(natural, system, qsystem)
        if not topo_ok:
            findings.append(f"quotient-not-topomorphism@#{n}:target#{offending}")
            continue
        qlattice = qsystem.lattice
        pulled_back = {b: lattice.index_of(natural.preimage_mask(qlattice.mask(b))) for b in qsystem.member_indices}
        for f, points in zip(ultrafilters, limits):
            try:
                pushed = pushforward(natural, f)
                assert is_ultrafilter(pushed), f"pushforward({f.provenance})@#{n} not ultra at #{pushed.kernel}"
            except NotAFilterError:
                findings.append(f"pushforward-degenerate({f.provenance})@#{n}")
            for x in points:
                for b in bits_of(topens_around(qsystem, natural(x))):
                    assert pulled_back[b] in f, f"{f.provenance}->x={x}@#{n}:target#{b}"
    return TheoremReport(
        compactness_witness=compactness_witness,
        equivalence_ok=is_hausdorff_by_incidence(system)[0] == (multi_witness is None),
        multi_point_witness=multi_witness,
        findings=tuple(findings),
    )


def tychonoff_certificate_by_replay(ptop: ProductToposys, f) -> TychonoffCertificate:
    """The Tychonoff replay, scanning every product topen for those that hold the point.

    Assumes f is an ultrafilter on the product group.
    """
    product = ptop.product
    plattice = ptop.system.lattice
    components = []
    pushed_list = []
    for i, projection in enumerate(product.projections):
        try:
            pushed = pushforward(projection, f)
        except NotAFilterError as exc:
            raise CertificateFailureError(f"pushforward[{i}]", exc.failure) from exc
        if not is_ultrafilter(pushed):
            raise CertificateFailureError(f"pushforward-ultra[{i}]", pushed.kernel)
        points = convergence_set(pushed, ptop.factor_systems[i])
        if not points:
            raise CertificateFailureError(f"factor-convergence[{i}]", pushed.provenance)
        components.append(min(points))
        pushed_list.append(pushed)

    x = product.encode(components)
    replayed = []
    for a in ptop.system.member_indices:
        amask = plattice.mask(a)
        if not amask >> x & 1:
            continue
        combo = ptop.member_factors[a]
        if not all(ai in pushed for pushed, ai in zip(pushed_list, combo)):
            raise CertificateFailureError("factor-preimage", (a, combo))
        inter = product.group.full_mask
        for projection, sys_i, ai in zip(product.projections, ptop.factor_systems, combo):
            inter &= projection.preimage_mask(sys_i.lattice.mask(ai))
        if inter != amask:
            raise CertificateFailureError("intersection-identity", (a, combo))
        if a not in f:
            raise CertificateFailureError("membership", (a,))
        replayed.append(a)
    return TychonoffCertificate(x, tuple(replayed))


def product_subgroup_mask_by_tuples(product: ProductGroup, factor_masks) -> int:
    """The product-form subgroup mask, one encode per tuple of factor members."""
    return mask_of(product.encode(t) for t in iter_product(*[list(bits_of(m)) for m in factor_masks]))


def product_join_by_closure(product: ProductGroup, a: int, b: int) -> int:
    """The join of two subgroup masks of the product: the subgroup their union generates."""
    return closure_mask(product.group, a | b)


def subgroup_masks_by_subset_scan(group: FiniteGroup) -> tuple[int, ...]:
    """Every identity-containing subset whose size divides the order, kept when closed under products."""
    n = group.order
    table = group.table
    found = []
    for size in (d for d in range(1, n + 1) if n % d == 0):
        for combo in combinations(range(1, n), size - 1):
            mask = 1 | mask_of(combo)
            elems = (0,) + combo
            if all(mask >> table[a][b] & 1 for a in elems for b in elems):
                found.append(mask)
    return tuple(membership_order(found))


def homomorphism_by_scan(source: FiniteGroup, target: FiniteGroup, mapping) -> Homomorphism:
    """make_homomorphism with f(x·y) = f(x)·f(y) tested on all |G|² pairs, raising at the first failing one."""
    mapping = tuple(int(v) for v in mapping)
    if len(mapping) != source.order or any(not 0 <= v < target.order for v in mapping):
        raise NotAHomomorphismError(-1, -1, "map is not total over the source or hits bad ids")
    for x in source.elements():
        mx = mapping[x]
        for y in source.elements():
            if mapping[source.table[x][y]] != target.table[mx][mapping[y]]:
                raise NotAHomomorphismError(x, y)
    return Homomorphism(source, target, mapping)


def is_ultrafilter_by_all_families(f: SubgroupFilter) -> tuple[bool, tuple[int, ...] | None]:
    """The first family of subgroups, over all families, whose union is a member while none of them is."""
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


def section_tables(lattice, max_order: int):
    """The Cayley table of A₁/A₂ for each section A₂ ⊴ A₁ of order at most max_order, A₁ inside N(A₂).

    The cosets are numbered by their least element, so the identity coset is 0.
    """
    table = lattice.group.table
    for a2 in range(len(lattice)):
        inner = list(bits_of(lattice.mask(a2)))
        for a1 in bits_of(lattice.below[lattice.normalizer_index(a2)]):
            outer = lattice.mask(a1)
            if not lattice.below[a1] >> a2 & 1 or outer.bit_count() > max_order * len(inner):
                continue
            least = {x: min(table[x][h] for h in inner) for x in bits_of(outer)}
            reps = sorted(set(least.values()))
            pos = {r: i for i, r in enumerate(reps)}
            yield tuple(tuple(pos[least[table[r][s]]] for s in reps) for r in reps)


def _extend_generator_map(p, q, gens, images) -> dict[int, int] | None:
    """The injective homomorphism from ⟨gens⟩ in table p to table q sending gens to images, or None."""
    mapping, frontier = {0: 0}, [0]
    while frontier:
        x = frontier.pop()
        for g, h in zip(gens, images):
            y, z = p[x][g], q[mapping[x]][h]
            if y not in mapping:
                mapping[y] = z
                frontier.append(y)
            elif mapping[y] != z:
                return None
    return mapping if len(set(mapping.values())) == len(mapping) else None


def table_isomorphisms(p, q):
    """Each isomorphism from Cayley table p to q, both with identity 0, by a backtrack over generator images."""
    if len(p) != len(q):
        return
    # a greedy generating set; the identity map on ⟨gens⟩ has the span as its keys
    gens, span = [], {0}
    for x in range(len(p)):
        if x not in span:
            gens.append(x)
            span = set(_extend_generator_map(p, p, gens, gens))

    def search(images):
        mapping = _extend_generator_map(p, q, gens[: len(images)], images)
        if mapping is None:
            return
        if len(images) == len(gens):
            yield mapping
            return
        for h in range(1, len(q)):
            yield from search(images + [h])

    yield from search([])


def goursat_subgroup_count(a: FiniteGroup, b: FiniteGroup) -> int:
    """|L(A × B)| by Goursat's lemma: the sum over section classes Q of n_A(Q) · n_B(Q) · |Aut(Q)|.

    A subgroup of A × B is a pair of sections A₁/A₂ ≅ B₁/B₂ with an
    isomorphism between them; the sections are read off the factor lattices
    and |Aut(Q)| counts the backtrack's isomorphisms from Q to itself.
    """
    classes = []  # [representative section table, sections of B like it, sections of A like it]
    for t in section_tables(enumerate_subgroups(b), b.order):
        like = next((c for c in classes if next(table_isomorphisms(c[0], t), None) is not None), None)
        if like is None:
            classes.append([t, 1, 0])
        else:
            like[1] += 1
    for t in section_tables(enumerate_subgroups(a), b.order):
        like = next((c for c in classes if next(table_isomorphisms(c[0], t), None) is not None), None)
        if like is not None:
            like[2] += 1
    return sum(n_b * n_a * sum(1 for _ in table_isomorphisms(t, t)) for t, n_b, n_a in classes)
