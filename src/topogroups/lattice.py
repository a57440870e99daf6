"""Complete subgroup lattices of small finite groups, plus the subgroup algebra.

Enumeration is by cyclic extension in prime-index steps: starting from the
trivial subgroup, a subgroup h is extended by an x that normalizes it and
whose least power inside h is x^p with p prime, so h⟨x⟩ is a union of p
cosets of h.  This reaches every subgroup of a solvable group, which every group the
descriptor grammar accepts under the order cap is, and it records a small
generating set for each subgroup on the way.  The canonical order is (order,
then membership lexicographic), so index 0 is the trivial subgroup and the
last index is the whole group.  Every other module stores subgroup sets as
bitsets over these canonical indices.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from operator import and_, itemgetter
from typing import Sequence

from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Homomorphism,
    OrderCapExceededError,
    Subgroup,
    TopoGroupError,
    bits_of,
    mask_of,
)

AUTOMORPHISM_CAP = 24
# Subgroup count past which the theorem suites skip the per-subgroup family
# sweeps (principal, conj, thk): they build and verify O(S) to O(S^2) systems,
# and the thk sweep builds one row per k from |G|·|k| element commutators.
FAMILY_SWEEP_CAP = 128


class UnsupportedVarietyError(TopoGroupError):
    pass


class NotNormalError(TopoGroupError):
    pass


SUPPORTED_EXPONENTS = (2, 3, 4, 6)


class SubgroupLattice:
    """Canonical array of every subgroup of a group, with the subgroup algebra.

    *generators* maps each subgroup mask to a generating set, and the masks
    are sorted by ``canonical_order``.  Meets are mask intersections; a join is read
    off ``above[k]``, the bitset of the subgroups containing subgroup k, with no
    closure.  ``containing[e]``, the subgroups holding element e, is the
    transposed membership matrix, and ``below[k]`` and ``disjoint[k]`` are the
    relations the topo-system calculus reads.  One walk per conjugacy class gives
    every normalizer and core; ``normal_bits`` and ``normalized_by[x]`` read the
    normalizers.  The commutator row of k is the one commutator table, built over
    G/Z(G), and ``is_characteristic`` reads one Aut(G)-orbit mask per element.
    """

    def __init__(self, group: FiniteGroup, generators: dict[int, tuple[int, ...]]):
        self.group = group
        ordered = canonical_order(generators, n := group.order)
        if ordered[0] != 1 or ordered[-1] != group.full_mask:
            raise TopoGroupError("lattice must span from the trivial subgroup to the whole group")
        self.subgroups: tuple[Subgroup, ...] = tuple(Subgroup(group, m) for m in ordered)
        self.generators: tuple[tuple[int, ...], ...] = tuple(map(generators.__getitem__, ordered))
        self._index_by_mask = {m: i for i, m in enumerate(ordered)}
        self._cyclic: tuple[int, ...] = tuple(map(self._index_by_mask.__getitem__, group.cyclic_masks))
        # containing[e]: column e of the membership matrix, read off by transposing its row
        # strings, last subgroup first so that each column is a binary number
        columns = zip(*(f"{m:0{n}b}" for m in reversed(ordered)))
        self.containing: tuple[int, ...] = tuple(map(int, map("".join, columns), [2] * n))[::-1]
        # above[k]: bitset of the subgroups containing each generator of subgroup k;
        # starting from every subgroup keeps above[0] (no generators) inside len(self) bits
        everything, contains = (1 << len(ordered)) - 1, self.containing.__getitem__
        self.above: tuple[int, ...] = tuple(reduce(and_, map(contains, gens), everything) for gens in self.generators)
        self._commutator_rows: dict[int, dict[int, int]] = {}

    def __len__(self) -> int:
        return len(self.subgroups)

    @property
    def trivial_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return len(self.subgroups) - 1

    def subgroup(self, i: int) -> Subgroup:
        return self.subgroups[i]

    def mask(self, i: int) -> int:
        return self.subgroups[i].mask

    def index_of(self, mask: int) -> int:
        try:
            return self._index_by_mask[mask]
        except KeyError:
            raise TopoGroupError(f"mask {mask:#x} is not a subgroup of {self.group.descriptor}") from None

    def maybe_index(self, mask: int) -> int | None:
        """Canonical index of a mask, or None when it is not a subgroup."""
        return self._index_by_mask.get(mask)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.above[i] >> j & 1)

    def meet_index(self, i: int, j: int) -> int:
        return self._index_by_mask[self.subgroups[i].mask & self.subgroups[j].mask]

    def join_index(self, i: int, j: int) -> int:
        # Every common upper bound contains the join, so the join is the
        # common upper bound of least order; the canonical order sorts by
        # order first, which makes it the lowest set bit.
        common = self.above[i] & self.above[j]
        return (common & -common).bit_length() - 1

    def join_of(self, indices) -> int:
        common = -1
        for i in indices:
            common &= self.above[i]
        return (common & -common).bit_length() - 1

    def cyclic_index(self, x: int) -> int:
        """Canonical index of the cyclic subgroup generated by element x."""
        return self._cyclic[x]

    @cached_property
    def cyclic_bits(self) -> int:
        """Bitset of the cyclic subgroups."""
        return mask_of(self._cyclic)

    def conjugate_index(self, g: int, k: int) -> int:
        """Index of gKg⁻¹ for subgroup k = K: the join of the cyclic subgroups of the conjugated generators of K."""
        conjugate, cyclic = self.group.conjugate, self._cyclic
        return self.join_of(cyclic[conjugate(g, x)] for x in self.generators[k])

    def core_index(self, i: int) -> int:
        """Index of Core(H) for subgroup i = H: the meet of its conjugacy class, H itself when G is abelian."""
        root, _, classes = self._classes
        return classes[root[i]][1]

    @cached_property
    def _conjugation_rows(self) -> dict[int, tuple[int, ...]]:
        """The row x ↦ g·x·g⁻¹ of each top generator g outside the centre; an abelian group has none."""
        table, inverse, identity = self.group.table, self.group.inverse, tuple(self.group.elements())
        rows = {g: tuple(map(itemgetter(inverse[g]), map(table.__getitem__, table[g]))) for g in self.generators[-1]}
        return {g: row for g, row in rows.items() if row != identity}

    @cached_property
    def _centre_cosets(self) -> tuple[list[int], list[int]]:
        """(least, reach): least[x] is the least element of xZ(G), and reach[x]
        the OR of ``containing`` over xZ(G) when x is that least element, else 0."""
        centre = [z for z in self.group.elements() if all(row[z] == z for row in self._conjugation_rows.values())]
        least, reach = [min(map(row.__getitem__, centre)) for row in self.group.table], [0] * self.group.order
        for y, x in enumerate(least):
            reach[x] |= self.containing[y]
        return least, reach

    @cached_property
    def _automorphism_orbits(self) -> tuple[int, ...]:
        """orbits[x]: bitset of the images of element x under Aut(G), one pass over Aut(G) per orbit."""
        mappings, orbits = [phi.mapping for phi in automorphisms(self.group)], [0] * self.group.order
        for x in self.group.elements():
            if not orbits[x]:
                for y in bits_of(orbit := mask_of(set(map(itemgetter(x), mappings)))):
                    orbits[y] = orbit
        return tuple(orbits)

    @cached_property
    def _classes(self) -> tuple[list[int], list[int], dict[int, tuple[int, int]]]:
        """(root, conjugator, classes), one walk per conjugacy class of subgroups.

        root[k] is the least index H of the class of k, conjugator[k] a g with gHg⁻¹ = k, and
        classes[H] = (N(H), Core(H)).  H is its own class, with N = G, when every conjugation row
        keeps its generators inside, as every H does in an abelian group, which has no row.  Else
        each point gHg⁻¹ is conjugated by the non-central top generators t, and a known image,
        with conjugator h, gives the Schreier element h⁻¹·t·g, which fixes H.  These and the
        central top generators generate N(H) (Schreier's lemma; Holt, Eick and O'Brien, 2005,
        ch. 4), and the meet of the class is Core(H).
        """
        table, inverse, cyclic, rows = self.group.table, self.group.inverse, self._cyclic, self._conjugation_rows
        masks, top = [s.mask for s in self.subgroups], self.top_index
        central = [cyclic[g] for g in self.generators[top] if g not in rows]
        root, conjugator, classes = [-1] * len(masks), [0] * len(masks), {}
        for k, gens in enumerate(self.generators):
            if root[k] >= 0:
                continue
            root[k] = k
            if all(masks[k] >> row[x] & 1 for row in rows.values() for x in gens):
                classes[k] = top, k
                continue
            orbit, stabilizer, core = [k], set(central), masks[k]
            for point in orbit:
                g = conjugator[point]
                for t, row in rows.items():
                    image, tg = self.join_of([cyclic[row[x]] for x in self.generators[point]]), table[t][g]
                    if root[image] < 0:
                        root[image], conjugator[image] = k, tg
                        orbit.append(image)
                        core &= masks[image]
                    else:
                        stabilizer.add(cyclic[table[inverse[conjugator[image]]][tg]])
            classes[k] = self.join_of(stabilizer), self._index_by_mask[core]
        return root, conjugator, classes

    def normalizer_index(self, i: int) -> int:
        """Index of N(H) for subgroup i = H: N(gKg⁻¹) = gN(K)g⁻¹ for its class root K; G when G is abelian."""
        root, conjugator, classes = self._classes
        n = classes[root[i]][0]
        return n if root[i] == i else self.conjugate_index(conjugator[i], n)

    @cached_property
    def normalizers(self) -> tuple[int, ...]:
        """normalizers[k]: normalizer_index(k), so the call on 0 runs the class walk."""
        return tuple(map(self.normalizer_index, range(len(self.subgroups))))

    @cached_property
    def normal_bits(self) -> int:
        """Bitset of the normal subgroups: those the whole group normalizes."""
        top = self.top_index
        return mask_of(k for k, n in enumerate(self.normalizers) if n == top)

    def is_normal_index(self, i: int) -> bool:
        return bool(self.normal_bits >> i & 1)

    @cached_property
    def normalized_by(self) -> tuple[int, ...]:
        """normalized_by[x]: bitset of the subgroups whose normalizer contains subgroup x.

        The subgroups are grouped by their normalizer n, and the row of x ORs
        the groups whose n lies above x.
        """
        by_normalizer: dict[int, int] = {}
        for k, n in enumerate(self.normalizers):
            by_normalizer[n] = by_normalizer.get(n, 0) | 1 << k
        rows = []
        for up in self.above:
            row = 0
            for n, ks in by_normalizer.items():
                if up >> n & 1:
                    row |= ks
            rows.append(row)
        return tuple(rows)

    def _commutator_row(self, k: int) -> dict[int, int]:
        """The commutator row of subgroup k: each c(x) = ⟨[x, y] : y ∈ k⟩ mapped to its bucket.

        The bucket of c is the OR of ``containing[x]`` over the x in G with
        c(x) = c, that is, the bitset of the subgroups holding such an x.  c(x)
        is the least subgroup above every cyclic ⟨[x, y]⟩, the lowest bit of
        the AND of their ``above``.  As [xz, yw] = [x, y] for central z and w, a
        row is built once from one x per coset of Z(G), whose bucket takes the
        coset's ``reach``, and the least element of each coset meeting k.
        """
        row = self._commutator_rows.get(k)
        if row is None:
            table, inverse, above, cyclic = self.group.table, self.group.inverse, self.above, self._cyclic
            least, reach = self._centre_cosets
            ys = [(y, inverse[y]) for y in {least[y] for y in bits_of(self.subgroups[k].mask)}]
            row = {}
            for x, bucket in enumerate(reach):
                if bucket:
                    row_x, row_xi = table[x], table[inverse[x]]
                    common = -1
                    for y, yi in ys:
                        common &= above[cyclic[table[row_x[y]][row_xi[yi]]]]
                    c = (common & -common).bit_length() - 1
                    row[c] = row.get(c, 0) | bucket
            self._commutator_rows[k] = row
        return row

    def commutator_index(self, i: int, j: int) -> int:
        """[H, K] for subgroups i = H and j = K: the join of c(x) over x in H.

        [H, K] is generated by the element commutators [x, y], x in H and y in
        K (Robinson, *A Course in the Theory of Groups*, 5.1.7), so it is the
        join of the bucket keys c of the row of K whose bucket holds H.
        """
        return self.join_of(c for c, bucket in self._commutator_row(j).items() if bucket >> i & 1)

    def commutators_inside(self, h: int, k: int) -> int:
        """Bitset of the subgroups i with [i, k] inside subgroup h.

        [i, k] ≤ h exactly when c(x) lies in h for every x in i, so the answer
        is every subgroup outside the buckets of the row of k whose c is not in ↓h.
        """
        inside = self.below[h]
        bits = self.above[0]
        for c, bucket in self._commutator_row(k).items():
            if not inside >> c & 1:
                bits &= ~bucket
        return bits

    @cached_property
    def below(self) -> tuple[int, ...]:
        """below[h]: bitset of the subgroups inside subgroup h, the down-set ↓h ≅ L(h)."""
        below = [0] * len(self.subgroups)
        for k, up in enumerate(self.above):
            for h in bits_of(up):
                below[h] |= 1 << k
        return tuple(below)

    @cached_property
    def disjoint(self) -> tuple[int, ...]:
        """disjoint[k]: bitset of the subgroups meeting subgroup k only in the identity."""
        everything = (1 << len(self.subgroups)) - 1
        disjoint = []
        for sub in self.subgroups:
            meets = 0
            for e in bits_of(sub.mask & ~1):
                meets |= self.containing[e]
            disjoint.append(everything & ~meets)
        return tuple(disjoint)

    def quotient_index(self, n: int, k: int) -> int:
        """Index of K/N in L(G/N) for subgroup k = K above normal subgroup n = N.

        K ↦ K/N maps [N, G] onto L(G/N), keeping joins and meets (correspondence
        theorem).  With cosets numbered by least element, L(G/N) sorts K/N by
        order, then by coset numbers: the parent's order, since the least element
        in which two subgroups above N differ is the least of its coset.
        """
        return (self.above[n] & ((1 << k) - 1)).bit_count()

    def describe(self, i: int) -> str:
        sub = self.subgroups[i]
        names = ",".join(self.group.name(x) for x in sub.members)
        return f"#{i}(order {sub.order}: {{{names}}})"


def canonical_order(masks, n: int) -> list[int]:
    """Masks over n elements by order, then membership lexicographic, sorted on C-level keys: of two
    masks of one order, the earlier holds the lowest element they differ in, so its bits read from 0 are larger."""
    lsb_first = dict(zip(masks, map(itemgetter(slice(None, None, -1)), map(format, masks, [f"0{n}b"] * len(masks)))))
    return sorted(sorted(masks, key=lsb_first.__getitem__, reverse=True), key=int.bit_count)


@cache
def enumerate_subgroups(group: FiniteGroup) -> SubgroupLattice:
    """Enumerate the complete subgroup lattice of a solvable group; equal groups share one lattice.

    Cyclic extension by prime-index steps (Neubüser, 1960; Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005): breadth first
    from the trivial subgroup, h is extended only by an x that normalizes h
    (a plain loop over the generators of h) and whose least power inside h is
    x^p with p prime.  Then h⟨x⟩ is the union of the p cosets h·x^i, whose bits
    are ORed off the table with no closure, and no subgroup lies strictly
    between h and h⟨x⟩, so every x inside h⟨x⟩ is skipped for this h.  Every
    subgroup K ≠ 1 of a solvable group has a normal subgroup H of prime index
    and is H⟨x⟩ for any x in K outside H, so this reaches every subgroup.  A
    group that is not solvable has no such chain up to itself and raises
    TopoGroupError.  The generators of h⟨x⟩ are those of h that ⟨x⟩ does not
    contain, then x.
    """
    if group.order > DEFAULT_ORDER_CAP:
        raise OrderCapExceededError(f"group order {group.order} exceeds lattice cap {DEFAULT_ORDER_CAP}")
    table, inverse, cyclic_masks = group.table, group.inverse, group.cyclic_masks
    primes = {p for p in range(2, group.order + 1) if all(p % d for d in range(2, p))}
    # the least generator of each non-trivial cyclic subgroup, ascending
    reps = [x for x, m in enumerate(cyclic_masks) if cyclic_masks.index(m) == x][1:]
    generators: dict[int, tuple[int, ...]] = {1: ()}
    queue = [1]
    for h in queue:
        gens, elems = generators[h], list(bits_of(h))
        reached = h
        for x in reps:
            # x in h, or in an h⟨y⟩ already found from h, which x would only reach again
            if reached >> x & 1:
                continue
            row, xi = table[x], inverse[x]
            for g in gens:
                if not h >> table[row[g]][xi] & 1:
                    break
            else:
                # x, ..., x^(p-1) lie outside h and x^p is the least power inside
                powers = [x]
                while not h >> (y := table[powers[-1]][x]) & 1:
                    powers.append(y)
                if len(powers) + 1 not in primes:
                    continue
                # x normalizes h, so the left cosets x^i·h are the right ones
                j = h
                for row_y in map(table.__getitem__, powers):
                    for e in elems:
                        j |= 1 << row_y[e]
                reached |= j
                if j not in generators:
                    generators[j] = tuple(g for g in gens if not cyclic_masks[x] >> g & 1) + (x,)
                    queue.append(j)
    if group.full_mask not in generators:
        raise TopoGroupError(
            f"{group.descriptor} is not solvable: prime-index cyclic extension never reaches the whole group"
        )
    return SubgroupLattice(group, generators)


def brute_force_subgroup_masks(group: FiniteGroup) -> tuple[int, ...]:
    """Independent completeness oracle: every identity-containing subset closed under products.

    The subsets are walked depth first, deciding the elements in ascending
    order.  ``needed`` holds every product of two chosen elements, so an
    element in it must be chosen, and a branch ends once a product at or
    below the latest choice was left out.  Every leaf is then closed, and a
    closed set is never cut off.
    """
    n = group.order
    table = group.table
    found = []
    chosen_elems = [0]

    def walk(m: int, chosen: int, needed: int) -> None:
        if m == n:
            found.append(chosen)
            return
        if not needed >> m & 1:
            walk(m + 1, chosen, needed)
        row = table[m]
        chosen_elems.append(m)
        for c in chosen_elems:
            needed |= 1 << row[c] | 1 << table[c][m]
        chosen |= 1 << m
        if not needed & ~chosen & ((2 << m) - 1):
            walk(m + 1, chosen, needed)
        chosen_elems.pop()

    walk(1, 1, 1)
    return tuple(canonical_order(found, n))


def _close_generator_map(group: FiniteGroup, gens, imgs) -> dict[int, int] | None:
    """Close a generator assignment into a map on the generated subgroup.

    The map is carried along the orbit of the identity under right
    multiplication by the generators, as in closure_mask; f(a*g) = f(a)*f(g)
    for every reached a and generator g makes it a homomorphism.  With fewer
    images than generators, only the generators that have one are used.
    Returns None as soon as these equations become inconsistent.
    """
    table = group.table
    mapping = {0: 0}
    known = [0]
    for a in known:
        row, image_row = table[a], table[mapping[a]]
        for g, h in zip(gens, imgs):
            p, q = row[g], image_row[h]
            got = mapping.get(p)
            if got is None:
                mapping[p] = q
                known.append(p)
            elif got != q:
                return None
    return mapping


def _automorphism_levels(group: FiniteGroup) -> list[tuple[list[tuple[int, ...]], dict[int, tuple[int, ...]]]]:
    """Sims' generating set of Aut(G) over the top generators g_1..g_m, level by level.

    Entry d holds the automorphisms found at level d, each fixing g_1..g_{d-1}
    (0-based: gens[:d]), and the orbit of g_d under every automorphism found
    at level d or deeper, as a transversal: orbit point c -> an automorphism
    sending g_d to c.  Levels run from the deepest up, so the automorphisms
    found so far all fix gens[:d] and generate the stabilizer of gens[:d+1];
    a same-order candidate outside the orbit is searched depth first for one
    automorphism that fixes gens[:d] and sends g_d there.  Each search node
    closes its generator prefix once and is pruned when that map is
    inconsistent or not injective on the subgroup the prefix generates (Sims,
    1970; Butler, *Fundamental Algorithms for Permutation Groups*, 1991).
    The transversal maps are permutations of the element ids.
    """
    lattice = enumerate_subgroups(group)
    gens = lattice.generators[lattice.top_index]
    order = group.element_order
    candidates = [[h for h in group.elements() if order(h) == order(g)] for g in gens]
    identity = tuple(group.elements())

    def search(imgs: list[int]) -> tuple[int, ...] | None:
        mapping = _close_generator_map(group, gens, imgs)
        if mapping is None or len(set(mapping.values())) < len(mapping):
            return None
        if len(imgs) == len(gens):
            return tuple(map(mapping.__getitem__, group.elements()))
        for h in candidates[len(imgs)]:
            imgs.append(h)
            found = search(imgs)
            imgs.pop()
            if found is not None:
                return found
        return None

    found: list[tuple[int, ...]] = []
    levels = []
    for d in reversed(range(len(gens))):
        new, orbit = [], {gens[d]: identity}
        for c in candidates[d]:
            if c in orbit:
                continue
            phi = search(list(gens[:d]) + [c])
            if phi is None:
                continue
            new.append(phi)
            found.append(phi)
            points = list(orbit)
            for point in points:
                rep = orbit[point]
                for s in found:
                    y = s[point]
                    if y not in orbit:
                        orbit[y] = tuple(map(s.__getitem__, rep))
                        points.append(y)
        levels.append((new, orbit))
    levels.reverse()
    return levels


@cache
def automorphisms(group: FiniteGroup) -> tuple[Homomorphism, ...]:
    """All automorphisms, in ascending order of their top-generator images; once per group.

    ``_automorphism_levels`` finds a generating set of Aut(G) by Sims'
    backtrack, so |Aut(G)| is the product of its orbit lengths.  Every
    automorphism is t_1∘t_2∘…∘t_m for exactly one transversal map t_d per
    level, so the expansion makes no duplicate; sorting by the generator
    images gives the order of a search over ascending images.
    """
    if group.order > AUTOMORPHISM_CAP:
        raise OrderCapExceededError(f"group order {group.order} exceeds automorphism cap {AUTOMORPHISM_CAP}")
    lattice = enumerate_subgroups(group)
    gens = lattice.generators[lattice.top_index]
    perms = [tuple(group.elements())]
    for _, orbit in reversed(_automorphism_levels(group)):
        perms = [tuple(map(t.__getitem__, p)) for t in orbit.values() for p in perms]
    # the trivial group has no generators and one automorphism
    perms.sort(key=itemgetter(*gens or (0,)))
    return tuple(Homomorphism(group, group, p) for p in perms)


def is_characteristic(lattice: SubgroupLattice, i: int) -> bool:
    # φ(H) ⊆ H for every φ once the Aut(G)-orbit of each generator of H lies
    # in H, and φ is injective, so the orders match and φ(H) = H
    mask, orbits = lattice.mask(i), lattice._automorphism_orbits
    return all(orbits[g] & ~mask == 0 for g in lattice.generators[i])


def verbal_residual(lattice: SubgroupLattice, variety: str) -> int:
    """Index of the smallest normal subgroup whose quotient lies in the variety.

    Supported: ``abelian`` (derived subgroup) and ``exponent:n`` for
    n in {2, 3, 4, 6} (the subgroup generated by all n-th powers; the
    generating set is conjugation-closed, so the result is normal).
    """
    v = variety.replace("exponent-", "exponent:")
    if v == "abelian":
        top = lattice.top_index
        return lattice.commutator_index(top, top)
    if v.startswith("exponent:"):
        try:
            n = int(v.split(":", 1)[1])
        except ValueError:
            raise UnsupportedVarietyError(f"bad exponent in variety {variety!r}") from None
        if n not in SUPPORTED_EXPONENTS:
            raise UnsupportedVarietyError(f"exponent {n} not in supported set {SUPPORTED_EXPONENTS}")
        group = lattice.group
        return lattice.join_of(lattice.cyclic_index(group.power(x, n)) for x in group.elements())
    raise UnsupportedVarietyError(f"unknown variety {variety!r}")


EXACT_COVER_LIMIT = 20


def minimal_cover(universe: int, masks: Sequence[int]) -> tuple[tuple[int, ...], bool] | None:
    """Minimum-cardinality subfamily of element masks whose union covers universe, or None.

    The answer is (positions into masks, exact).  Exact branch-and-bound up
    to EXACT_COVER_LIMIT family members, greedy with ``exact`` False beyond
    that.  Tie-breaking is deterministic (lowest positions win), so witnesses
    are reproducible.
    """
    if not masks:
        return None
    masks = [m & universe for m in masks]
    covered = 0
    for m in masks:
        covered |= m
    if covered != universe:
        return None
    if len(masks) > EXACT_COVER_LIMIT:
        return _greedy_cover(universe, masks), False
    covers_elem: dict[int, list[int]] = {}
    for e in bits_of(universe):
        covers_elem[e] = [p for p, m in enumerate(masks) if m >> e & 1]
    best: list[tuple[int, ...]] = [tuple(range(len(masks)))]

    def search(chosen: list[int], got: int):
        if len(chosen) >= len(best[0]):
            return
        if got == universe:
            best[0] = tuple(chosen)
            return
        remaining = universe & ~got
        pick = min(bits_of(remaining), key=lambda e: len(covers_elem[e]))
        for p in covers_elem[pick]:
            if p in chosen:
                continue
            chosen.append(p)
            search(chosen, got | masks[p])
            chosen.pop()

    search([], 0)
    return tuple(sorted(best[0])), True


def _greedy_cover(universe: int, masks: list[int]) -> tuple[int, ...]:
    picked: list[int] = []
    got = 0
    while got != universe:
        gain, choice = 0, -1
        for p, m in enumerate(masks):
            g = (m & ~got).bit_count()
            if g > gain:
                gain, choice = g, p
        picked.append(choice)
        got |= masks[choice]
    return tuple(sorted(picked))
