"""Complete subgroup lattices of small finite groups, plus the subgroup algebra.

Enumeration is by cyclic extension: starting from the trivial subgroup, every
subgroup found is extended by every cyclic subgroup not inside it.  This is
complete because each subgroup is the join of its own cyclic subgroups, and
it records a small generating set for each subgroup on the way.  The
canonical order is (order, then membership lexicographic), so index 0 is the
trivial subgroup and the last index is the whole group.  Every other module
stores subgroup sets as sets of these canonical indices.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    quotient_group,
    subgroup_group,
)

AUTOMORPHISM_CAP = 24


class ParentMismatchError(TopoGroupError):
    pass


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
    containing it, with no closure.
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
        # _up[k]: bitset of the subgroups containing subgroup k, that is,
        # containing each of its generators
        self._up: list[int] = []
        for gens in self.generators:
            up = -1
            for g in gens:
                up &= containing[g]
            self._up.append(up)
        self._normalizers: dict[int, int] = {}
        self._cores: dict[int, int] = {}
        self._commutators: dict[tuple[int, int], int] = {}
        self._subgroup_groups: dict[int, tuple[FiniteGroup, Homomorphism]] = {}
        self._quotients: dict[int, tuple[FiniteGroup, Homomorphism]] = {}

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

    def index_of_subgroup(self, sub: Subgroup) -> int:
        if sub.group != self.group:
            raise ParentMismatchError("subgroup belongs to a different group")
        return self.index_of(sub.mask)

    def leq(self, i: int, j: int) -> bool:
        mi, mj = self.subgroups[i].mask, self.subgroups[j].mask
        return mi & mj == mi

    def meet_index(self, i: int, j: int) -> int:
        return self._index_by_mask[self.subgroups[i].mask & self.subgroups[j].mask]

    def join_index(self, i: int, j: int) -> int:
        # Every common upper bound contains the join, so the join is the
        # common upper bound of least order; the canonical order sorts by
        # order first, which makes it the lowest set bit.
        common = self._up[i] & self._up[j]
        return (common & -common).bit_length() - 1

    def join_of(self, indices) -> int:
        common = -1
        for i in indices:
            common &= self._up[i]
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
            mask = self.subgroups[i].mask
            acc = mask
            for g in self.group.elements():
                acc &= self.conjugate_mask(mask, g)
            got = self._index_by_mask[acc]
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

    def normal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.subgroups)) if self.is_normal_index(i))

    def commutator_index(self, i: int, j: int) -> int:
        # [b, a] inverts [a, b], so the generated subgroup is symmetric in (i, j)
        key = (i, j) if i < j else (j, i)
        got = self._commutators.get(key)
        if got is None:
            group = self.group
            gens = set()
            for a in bits_of(self.subgroups[i].mask):
                for b in bits_of(self.subgroups[j].mask):
                    gens.add(group.table[group.table[a][b]][group.table[group.inverse[a]][group.inverse[b]]])
            got = self._index_by_mask[closure_mask(group, gens)]
            self._commutators[key] = got
        return got

    def subgroup_as_group(self, i: int) -> tuple[FiniteGroup, Homomorphism]:
        got = self._subgroup_groups.get(i)
        if got is None:
            got = subgroup_group(self.group, self.subgroups[i].mask, f"|sub#{i}")
            self._subgroup_groups[i] = got
        return got

    def quotient_by(self, i: int) -> tuple[FiniteGroup, Homomorphism]:
        if not self.is_normal_index(i):
            raise NotNormalError(f"subgroup #{i} of {self.group.descriptor} is not normal")
        got = self._quotients.get(i)
        if got is None:
            got = quotient_group(self.group, self.subgroups[i].mask, f"|mod#{i}")
            self._quotients[i] = got
        return got

    def describe(self, i: int) -> str:
        sub = self.subgroups[i]
        names = ",".join(self.group.name(x) for x in sub.members)
        return f"#{i}(order {sub.order}: {{{names}}})"


def enumerate_subgroups(group: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> SubgroupLattice:
    """Enumerate the complete subgroup lattice (memoized per group instance).

    Cyclic extension (Neubüser, 1960): breadth first from the trivial
    subgroup, each subgroup found is extended by each cyclic subgroup not
    inside it.  That is one closure per (subgroup, cyclic subgroup) pair, and
    each subgroup keeps the generators of its first-found, hence shortest,
    extension chain.
    """
    if group._lattice is not None:
        return group._lattice
    if group.order > cap:
        raise OrderCapExceededError(f"group order {group.order} exceeds lattice cap {cap}")
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
    lattice = SubgroupLattice(group, generators, cyclic_masks)
    group._lattice = lattice
    return lattice


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


def _require_same_parent(a: Subgroup, b: Subgroup):
    if a.group != b.group:
        raise ParentMismatchError("subgroups have different parent groups")


def meet(a: Subgroup, b: Subgroup) -> Subgroup:
    _require_same_parent(a, b)
    return Subgroup(a.group, a.mask & b.mask)


def _locate(a: Subgroup) -> tuple[SubgroupLattice, int]:
    lattice = enumerate_subgroups(a.group)
    return lattice, lattice.index_of(a.mask)


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    _require_same_parent(a, b)
    lattice, i = _locate(a)
    return lattice.subgroup(lattice.join_index(i, lattice.index_of(b.mask)))


def core(x: Subgroup) -> Subgroup:
    """Intersection of all conjugates: the largest normal subgroup inside x."""
    lattice, i = _locate(x)
    return lattice.subgroup(lattice.core_index(i))


def normalizer(a: Subgroup) -> Subgroup:
    lattice, i = _locate(a)
    return lattice.subgroup(lattice.normalizer_index(i))


def is_normal(a: Subgroup) -> bool:
    lattice, i = _locate(a)
    return lattice.is_normal_index(i)


def commutator_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    _require_same_parent(a, b)
    lattice, i = _locate(a)
    return lattice.subgroup(lattice.commutator_index(i, lattice.index_of(b.mask)))


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


def automorphisms(group: FiniteGroup, cap: int = AUTOMORPHISM_CAP) -> tuple[Homomorphism, ...]:
    """All invertible self-maps, by backtracking over generator images.

    Candidates are pruned on element-order mismatch; a full bijection search
    is infeasible past order 8.
    """
    if group.order > cap:
        raise OrderCapExceededError(f"group order {group.order} exceeds automorphism cap {cap}")
    cached = group._automorphisms.get(cap)
    if cached is not None:
        return cached
    lattice = enumerate_subgroups(group)
    gens = lattice.generators[lattice.top_index]
    if not gens:
        result = (make_homomorphism(group, group, (0,)),)
        group._automorphisms[cap] = result
        return result
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
    result = tuple(found)
    group._automorphisms[cap] = result
    return result


def is_characteristic(a: Subgroup, cap: int = AUTOMORPHISM_CAP) -> bool:
    return all(phi.image_mask(a.mask) == a.mask for phi in automorphisms(a.group, cap))


def verbal_residual(group: FiniteGroup, variety: str) -> Subgroup:
    """Smallest normal subgroup whose quotient lies in the variety.

    Supported: ``abelian`` (derived subgroup) and ``exponent:n`` for
    n in {2, 3, 4, 6} (the subgroup generated by all n-th powers; the
    generating set is conjugation-closed, so the result is normal).
    """
    v = variety.replace("exponent-", "exponent:")
    if v == "abelian":
        full = Subgroup(group, group.full_mask)
        return commutator_subgroup(full, full)
    if v.startswith("exponent:"):
        try:
            n = int(v.split(":", 1)[1])
        except ValueError:
            raise UnsupportedVarietyError(f"bad exponent in variety {variety!r}") from None
        if n not in SUPPORTED_EXPONENTS:
            raise UnsupportedVarietyError(f"exponent {n} not in supported set {SUPPORTED_EXPONENTS}")
        return Subgroup(group, closure_mask(group, (group.power(x, n) for x in group.elements())))
    raise UnsupportedVarietyError(f"unknown variety {variety!r}")


EXACT_COVER_LIMIT = 20


@dataclass(frozen=True)
class CoverResult:
    """Positions into the supplied family; exact=False marks a greedy answer."""

    positions: tuple[int, ...]
    exact: bool


def minimal_cover(x: Subgroup, family: Sequence[Subgroup]) -> CoverResult | None:
    """Minimum-cardinality subfamily whose union still covers x, or None.

    Exact branch-and-bound up to EXACT_COVER_LIMIT family members, greedy with
    ``exact=False`` beyond that.  Tie-breaking is deterministic (lowest
    positions win), so witnesses are reproducible.
    """
    if not family:
        return None
    for s in family:
        _require_same_parent(x, s)
    universe = x.mask
    masks = [s.mask & universe for s in family]
    covered = 0
    for m in masks:
        covered |= m
    if covered & universe != universe:
        return None
    if len(family) > EXACT_COVER_LIMIT:
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
