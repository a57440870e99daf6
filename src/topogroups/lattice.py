"""Complete subgroup lattices of small finite groups, plus the subgroup algebra.

Enumeration is by cyclic extension: starting from the trivial subgroup, every
subgroup found is extended by every cyclic subgroup not inside it.  This is
complete because each subgroup is the join of its own cyclic subgroups, and
it records a small generating set for each subgroup on the way.  The
canonical order is (order, then membership lexicographic), so index 0 is the
trivial subgroup and the last index is the whole group.  Every other module
stores subgroup sets as bitsets over these canonical indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Sequence

from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Homomorphism,
    OrderCapExceededError,
    Subgroup,
    TopoGroupError,
    bits_of,
    closure_mask,
    make_homomorphism,
    mask_of,
)

AUTOMORPHISM_CAP = 24
# Subgroup count past which the theorem suites skip the per-subgroup family
# sweeps (principal, conj, thk): they build and verify O(S) to O(S^2) systems.
FAMILY_SWEEP_CAP = 128


class UnsupportedVarietyError(TopoGroupError):
    pass


class NotNormalError(TopoGroupError):
    pass


SUPPORTED_EXPONENTS = (2, 3, 4, 6)


class SubgroupLattice:
    """Canonical array of every subgroup of a group, with the subgroup algebra.

    *generators* maps each subgroup mask to a generating set and
    *cyclic_masks* gives the cyclic subgroup of each element.  Meets are mask
    intersections; a join is read off per-subgroup bitsets of the subgroups
    containing it, with no closure.  ``containing[e]`` is the bitset of the
    subgroups that contain element e, the incidence index from which
    topo-systems answer their point-wise queries, and ``above[k]`` is the
    bitset of the subgroups that contain subgroup k.  ``below[k]`` (inside k)
    and ``disjoint[k]`` (meeting k only in the identity) are the two relations
    the topo-system calculus reads.
    """

    def __init__(self, group: FiniteGroup, generators: dict[int, tuple[int, ...]], cyclic_masks: Sequence[int]):
        self.group = group
        key = lambda m: (m.bit_count(), tuple(bits_of(m)))
        ordered = sorted(generators, key=key)
        if ordered[0] != 1 or ordered[-1] != group.full_mask:
            raise TopoGroupError("lattice must span from the trivial subgroup to the whole group")
        self.subgroups: tuple[Subgroup, ...] = tuple(Subgroup(group, m) for m in ordered)
        self.generators: tuple[tuple[int, ...], ...] = tuple(generators[m] for m in ordered)
        self._index_by_mask = {m: i for i, m in enumerate(ordered)}
        self._cyclic: tuple[int, ...] = tuple(self._index_by_mask[m] for m in cyclic_masks)
        containing = [0] * group.order
        for k, m in enumerate(ordered):
            for e in bits_of(m):
                containing[e] |= 1 << k
        self.containing: tuple[int, ...] = tuple(containing)
        # above[k]: bitset of the subgroups containing subgroup k, that is,
        # containing each of its generators; starting from every subgroup
        # keeps above[0] (no generators) inside len(self) bits
        everything = (1 << len(ordered)) - 1
        above = []
        for gens in self.generators:
            up = everything
            for g in gens:
                up &= containing[g]
            above.append(up)
        self.above: tuple[int, ...] = tuple(above)
        self._normalizers: dict[int, int] = {}
        self._cores: dict[int, int] = {}
        self._commutators: dict[tuple[int, int], int] = {}

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

    def conjugate_mask(self, mask: int, g: int) -> int:
        group = self.group
        return mask_of(group.conjugate(g, x) for x in bits_of(mask))

    def core_index(self, i: int) -> int:
        got = self._cores.get(i)
        if got is None:
            # K <- K ∩ gKg⁻¹ over the generators of G until stable: the fixpoint
            # is normalized by the generators, hence normal, and every step
            # keeps the core, so it is the largest normal subgroup inside K
            mask, stable = self.subgroups[i].mask, False
            while not stable:
                stable = True
                for g in self.generators[self.top_index]:
                    conj = mask & self.conjugate_mask(mask, g)
                    if conj != mask:
                        mask, stable = conj, False
            got = self._index_by_mask[mask]
            self._cores[i] = got
        return got

    def normalizer_index(self, i: int) -> int:
        got = self._normalizers.get(i)
        if got is None:
            # g normalizes a finite subgroup once it maps its generators inside
            mask = self.subgroups[i].mask
            gens = self.generators[i]
            conjugate = self.group.conjugate
            nm = mask_of(g for g in self.group.elements() if all(mask >> conjugate(g, x) & 1 for x in gens))
            got = self._index_by_mask[nm]
            self._normalizers[i] = got
        return got

    def is_normal_index(self, i: int) -> bool:
        return self.normalizer_index(i) == self.top_index

    @cached_property
    def normal_bits(self) -> int:
        """Bitset of the normal subgroups."""
        return mask_of(i for i in range(len(self.subgroups)) if self.is_normal_index(i))

    def commutator_index(self, i: int, j: int) -> int:
        """[H, K]: the normal closure in <H, K> of the generator commutators.

        With H = <X> and K = <Y>, [H, K] is the smallest subgroup containing
        every [x, y] (x in X, y in Y) that X and Y normalize; a finite
        subgroup is normalized by g once g maps its generators inside.
        """
        # [b, a] inverts [a, b], so the generated subgroup is symmetric in (i, j)
        key = (i, j) if i < j else (j, i)
        got = self._commutators.get(key)
        if got is None:
            group = self.group
            table, inverse = group.table, group.inverse
            xs, ys = self.generators[i], self.generators[j]
            gens = [table[table[a][b]][table[inverse[a]][inverse[b]]] for a in xs for b in ys]
            mask = closure_mask(group, gens)
            while True:
                new = {group.conjugate(g, n) for g in xs + ys for n in gens}
                new = [n for n in new if not mask >> n & 1]
                if not new:
                    break
                gens += sorted(new)
                mask = closure_mask(group, gens)
            got = self._index_by_mask[mask]
            self._commutators[key] = got
        return got

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


@cache
def enumerate_subgroups(group: FiniteGroup) -> SubgroupLattice:
    """Enumerate the complete subgroup lattice; equal groups share one lattice.

    Cyclic extension (Neubüser, 1960): breadth first from the trivial
    subgroup, each subgroup found is extended by each cyclic subgroup not
    inside it.  That is one closure per (subgroup, cyclic subgroup) pair, and
    each subgroup keeps the generators of its first-found, hence shortest,
    extension chain.
    """
    if group.order > DEFAULT_ORDER_CAP:
        raise OrderCapExceededError(f"group order {group.order} exceeds lattice cap {DEFAULT_ORDER_CAP}")
    cyclic_masks = [closure_mask(group, (x,)) for x in group.elements()]
    cyclics: dict[int, int] = {}
    for x, m in enumerate(cyclic_masks):
        cyclics.setdefault(m, x)
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
    return SubgroupLattice(group, generators, cyclic_masks)


def brute_force_subgroup_masks(group: FiniteGroup) -> tuple[int, ...]:
    """Independent completeness oracle: filter all identity-containing subsets.

    Only subsets whose size divides the group order can be closed, which keeps
    this usable up to order 16.
    """
    n = group.order
    table = group.table
    found = []
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    others = list(range(1, n))
    for size in divisors:
        for combo in combinations(others, size - 1):
            mask = 1 | mask_of(combo)
            elems = (0,) + combo
            ok = True
            for a in elems:
                row = table[a]
                for b in elems:
                    if not mask >> row[b] & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(mask)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), tuple(bits_of(m)))))


def _close_generator_map(group: FiniteGroup, gens, imgs) -> dict[int, int] | None:
    """Close a generator assignment into a map on the generated subgroup.

    The map is carried along the orbit of the identity under right
    multiplication by the generators, as in closure_mask; f(a*g) = f(a)*f(g)
    for every reached a and generator g makes it a homomorphism.  Returns None
    as soon as these equations become inconsistent.
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


@cache
def automorphisms(group: FiniteGroup) -> tuple[Homomorphism, ...]:
    """All invertible self-maps, by backtracking over generator images; once per group.

    Candidates are pruned on element-order mismatch; a full bijection search
    is infeasible past order 8.
    """
    if group.order > AUTOMORPHISM_CAP:
        raise OrderCapExceededError(f"group order {group.order} exceeds automorphism cap {AUTOMORPHISM_CAP}")
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


def is_characteristic(lattice: SubgroupLattice, i: int) -> bool:
    # φ(H) ⊆ H once φ maps the generators of H inside, and φ is injective,
    # so the orders match and φ(H) = H
    mask, gens = lattice.mask(i), lattice.generators[i]
    return all(all(mask >> phi.mapping[g] & 1 for g in gens) for phi in automorphisms(lattice.group))


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
        return lattice.index_of(closure_mask(group, (group.power(x, n) for x in group.elements())))
    raise UnsupportedVarietyError(f"unknown variety {variety!r}")


EXACT_COVER_LIMIT = 20


@dataclass(frozen=True)
class CoverResult:
    """Positions into the supplied family; exact=False marks a greedy answer."""

    positions: tuple[int, ...]
    exact: bool


def minimal_cover(universe: int, masks: Sequence[int]) -> CoverResult | None:
    """Minimum-cardinality subfamily of element masks whose union covers universe, or None.

    Exact branch-and-bound up to EXACT_COVER_LIMIT family members, greedy with
    ``exact=False`` beyond that.  Tie-breaking is deterministic (lowest
    positions win), so witnesses are reproducible.
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
        return CoverResult(_greedy_cover(universe, masks), exact=False)
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
    return CoverResult(tuple(sorted(best[0])), exact=True)


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
