"""Finite groups as Cayley tables over integer element ids; id 0 is the identity.

Element numbering is fixed per construction kind so witnesses and reports are
reproducible:

* ``cyclic:n``      id ``i`` is the residue ``i``; ``i * j = (i + j) mod n``.
* ``abelian:a x b x ...``  component tuples in mixed radix, first factor most
  significant; id 0 is the all-zero tuple.
* ``dihedral:n``    ids ``0..n-1`` are the rotations ``r^k``, id ``n+k`` is the
  reflection ``s r^k`` (group order ``2n``).
* ``sym:n`` / ``alt:n``  permutations of ``{0..n-1}`` in lexicographic order,
  degree at most 4; the product applies the right factor first.
* ``quaternion:8``  fixed element order ``1, -1, i, -i, j, -j, k, -k``.
* ``product(A,B,...)``  factor tuples in mixed radix, first factor most
  significant.

Subgroup membership is stored as an int bitmask (bit ``i`` = element ``i``), so
intersections are single ``&`` operations.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, permutations
from itertools import product as iter_product
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .report import ValidationFailure

DEFAULT_ORDER_CAP = 64
PERMUTATION_DEGREE_CAP = 4
# product(...) nesting depth; far above any real descriptor, far below the recursion limit
PRODUCT_NESTING_CAP = 32


class TopoGroupError(Exception):
    """Base class for all errors raised by this package."""


class UnknownKindError(TopoGroupError):
    pass


class OrderCapExceededError(TopoGroupError):
    pass


class NotAHomomorphismError(TopoGroupError):
    """Raised with the witness pair (x, y) where f(x*y) != f(x)*f(y)."""

    def __init__(self, x: int, y: int, message: str = ""):
        self.witness = (x, y)
        super().__init__(message or f"map is not a homomorphism at pair {(x, y)}")


def mask_of(ids) -> int:
    m = 0
    for x in ids:
        m |= 1 << x
    return m


def bits_of(mask: int):
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def right_generators(table) -> list[int]:
    """Greedy generators of a table with identity 0 under right multiplication.

    Each is the least element outside the orbit of 0 under right
    multiplication by those before it, so together they reach every element.
    In a group the orbit is the generated subgroup, which each new generator
    at least doubles: at most ⌈log₂ n⌉ of them.
    """
    gens: list[int] = []
    reached, everything = 1, (1 << len(table)) - 1
    while reached != everything:
        # the least element outside the orbit: the lowest clear bit
        gens.append((~reached & (reached + 1)).bit_length() - 1)
        reached = _orbit(table, gens)
    return gens


def verify_group_axioms(table) -> ValidationFailure | None:
    """Check that a square table over [0, n) is a Cayley table with identity 0.

    Never raises: returns the first failure, whose witness is the offending
    cell, element or triple, or None when the table is a group.  C-level
    checks decide each row; only a check that fails runs the cell scan,
    which names the witness.
    """
    n = len(table)
    ids = range(n)
    for i, row in enumerate(table):
        if len(row) != n:
            return ValidationFailure("shape", (i,), "row length mismatch")
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    return ValidationFailure("range", (i, j), f"entry {v!r} out of range")
    for j in ids:
        if table[0][j] != j:
            return ValidationFailure("identity", (0, j), "left identity broken")
    for i in ids:
        if table[i][0] != i:
            return ValidationFailure("identity", (i, 0), "right identity broken")
    for a, row in enumerate(table):
        # the first zero of the row is the inverse, or the scan tries every b
        if not (0 in row and table[row.index(0)][a] == 0 or any(row[b] == 0 and table[b][a] == 0 for b in ids)):
            return ValidationFailure("inverse", (a,), "no two-sided inverse")
    # Light's test (Clifford and Preston, *The Algebraic Theory of Semigroups* I,
    # 1961, §1.2): the b with (a·b)·c = a·(b·c) for all a, c are closed under
    # products, so checking generators suffices; the full scan only names the
    # first failing triple
    for b in right_generators(table):
        # c -> (a·b)·c is row a·b; c -> a·(b·c) reads row a at row b (a tuple, as n > 1)
        left = map(tuple, map(table.__getitem__, map(itemgetter(b), table)))
        if list(left) != list(map(itemgetter(*table[b]), table)):
            witness = next(
                (a, b, c)
                for a in range(n)
                for b in range(n)
                for c in range(n)
                if table[table[a][b]][c] != table[a][table[b][c]]
            )
            return ValidationFailure("associativity", witness, "")
    return None


class FiniteGroup:
    """A finite group given by its full Cayley table.

    Instances are immutable in spirit: nothing mutates ``table`` after
    construction, so values are safe for unrestricted concurrent reads.
    Equality is descriptor-plus-table identity; no isomorphism testing.
    """

    def __init__(self, table, descriptor: str, element_names=None):
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(map(int, row)) for row in table)
        self.order: int = len(self.table)
        self.descriptor: str = descriptor
        names = map(str, range(self.order)) if element_names is None else element_names
        self.element_names: tuple[str, ...] = tuple(names)
        self.inverse: tuple[int, ...] = tuple(row.index(0) for row in self.table)

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def power(self, x: int, k: int) -> int:
        acc = 0
        for _ in range(k):
            acc = self.table[acc][x]
        return acc

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def cyclic_masks(self) -> tuple[int, ...]:
        """cyclic_masks[x]: bitmask of ⟨x⟩, one closure per element."""
        return tuple(closure_mask(self, (x,)) for x in self.elements())

    def element_order(self, x: int) -> int:
        return self.cyclic_masks[x].bit_count()

    def name(self, x: int) -> str:
        return self.element_names[x]

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.descriptor == other.descriptor
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.descriptor, self.order))

    def __repr__(self):
        return f"FiniteGroup({self.descriptor!r}, order={self.order})"


class Subgroup(NamedTuple):
    """An element-indexed membership set over a parent group."""

    group: FiniteGroup
    mask: int

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __repr__(self):
        names = ",".join(self.group.name(x) for x in self.members)
        return f"Subgroup({self.group.descriptor}; {{{names}}})"


def closure_mask(group: FiniteGroup, seed) -> int:
    """Bitmask of the subgroup generated by *seed* (ids or a mask).

    The subgroup is the orbit of the identity under right multiplication by
    the generators: in a finite group the powers of an element reach its
    inverse.
    """
    return _orbit(group.table, bits_of(seed) if isinstance(seed, int) and not isinstance(seed, bool) else seed)


def _orbit(table, seeds) -> int:
    """Bitmask of the orbit of 0 under right multiplication by the seed ids.

    A seed already inside the orbit is skipped, as in a group it adds nothing,
    so the cost is O(|orbit| * seeds actually used).  ``right_generators``
    passes no such seed, so on any table it gets the whole orbit.
    """
    gens: list[int] = []
    members = [0]
    mask = 1
    for g in seeds:
        if mask >> g & 1:
            continue
        # the members so far are closed under the earlier generators; they
        # need only g, while every new member needs all generators
        gens.append(g)
        done = len(members)
        for x in members[:done]:
            y = table[x][g]
            if not mask >> y & 1:
                mask |= 1 << y
                members.append(y)
        i = done
        while i < len(members):
            row = table[members[i]]
            i += 1
            for h in gens:
                y = row[h]
                if not mask >> y & 1:
                    mask |= 1 << y
                    members.append(y)
    return mask


class Homomorphism:
    """A total, verified group homomorphism between two Cayley-table groups."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: tuple[int, ...]):
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def image_mask(self, source_mask: int) -> int:
        return mask_of(self.mapping[x] for x in bits_of(source_mask))

    @cached_property
    def fibers(self) -> tuple[int, ...]:
        """fibers[t]: bitset of the source elements that map to target element t."""
        fibers = [0] * self.target.order
        for x, t in enumerate(self.mapping):
            fibers[t] |= 1 << x
        return tuple(fibers)

    def preimage_mask(self, target_mask: int) -> int:
        fibers = self.fibers
        acc = 0
        for t in bits_of(target_mask):
            acc |= fibers[t]
        return acc


def make_homomorphism(source: FiniteGroup, target: FiniteGroup, mapping) -> Homomorphism:
    """Validate a total map as a homomorphism; raises with a witness pair."""
    mapping = tuple(int(v) for v in mapping)
    if len(mapping) != source.order or any(not 0 <= v < target.order for v in mapping):
        raise NotAHomomorphismError(-1, -1, "map is not total over the source or hits bad ids")
    table, ttable = source.table, target.table

    def breaks(x: int, y: int) -> bool:
        return mapping[table[x][y]] != ttable[mapping[x]][mapping[y]]

    # as in verify_group_axioms: the g with f(x·g) = f(x)·f(g) for all x are
    # closed under products, so the generators suffice, plus f(0) = 0 for an
    # order-1 source, which has none; the full scan only names the first
    # failing pair
    if mapping[0] != 0 or any(breaks(x, g) for g in right_generators(table) for x in source.elements()):
        raise NotAHomomorphismError(*next((x, y) for x in source.elements() for y in source.elements() if breaks(x, y)))
    return Homomorphism(source, target, mapping)


# --- construction -----------------------------------------------------------

def _shifted(n: int, k: int, base: int = 0) -> list[int]:
    """The row j -> base + (j + k) mod n, for 0 <= k < n, from two ranges."""
    return [*range(base + k, base + n), *range(base, base + k)]


def _cyclic_table(n: int):
    return [_shifted(n, i) for i in range(n)]


def _product_table(tables, name_lists):
    """Cayley table and element names of the direct product of the factor tables.

    Ids are factor tuples in mixed radix, first factor most significant, so
    the table is the Kronecker product of the factor tables, built one row
    block per factor.
    """
    table = [[0]]
    for t in tables:
        n = len(t)
        table = [[pb * n + tj for pb in pa for tj in ti] for pa in table for ti in t]
    names = tuple("(" + ",".join(combo) + ")" for combo in iter_product(*name_lists))
    return table, names


def _perm_name(p) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + "".join(str(c) for c in cyc) + ")")
    return "".join(parts) or "e"


def _perm_is_even(p) -> bool:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2 == 0


def _permutation_table(degree: int, even_only: bool):
    perms = [p for p in permutations(range(degree)) if not even_only or _perm_is_even(p)]
    pos = {p: i for i, p in enumerate(perms)}
    # (a * b)(i) = a(b(i)): apply b first
    table = [[pos[tuple(map(a.__getitem__, b))] for b in perms] for a in perms]
    names = tuple(_perm_name(p) for p in perms)
    return table, names


_QUATERNION_NAMES = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _quaternion_table():
    # element id = 2*axis + (0 for +, 1 for -); axes 0=1, 1=i, 2=j, 3=k
    def mul(a, b):
        sa, ta = 1 - 2 * (a & 1), a >> 1
        sb, tb = 1 - 2 * (b & 1), b >> 1
        if ta == 0:
            s, t = sa * sb, tb
        elif tb == 0:
            s, t = sa * sb, ta
        elif ta == tb:
            s, t = -sa * sb, 0
        else:
            # i*j=k, j*k=i, k*i=j and the sign flips on the reversed order
            forward = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
            if (ta, tb) in forward:
                s, t = sa * sb, forward[(ta, tb)]
            else:
                s, t = -sa * sb, forward[(tb, ta)]
        return 2 * t + (0 if s > 0 else 1)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def _dihedral_table(n: int):
    # element (f, k) = s^f r^k with id f*n + k; r^k s = s r^(-k), so row r^k
    # maps r^j to r^(j+k) and s r^j to s r^(j-k), and row s r^k swaps the halves
    table = [_shifted(n, k) + _shifted(n, -k % n, n) for k in range(n)]
    table += [_shifted(n, k, n) + _shifted(n, -k % n) for k in range(n)]
    names = tuple(
        ("e" if k == 0 else f"r{k}") if f == 0 else ("s" if k == 0 else f"sr{k}")
        for f in range(2)
        for k in range(n)
    )
    return table, names


def split_top_level(text: str, separators: str = ",") -> list[str]:
    """Split text at the separators outside every (), {} bracket, keeping empty parts."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch in separators and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_int(text: str, what: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise UnknownKindError(f"bad {what} in group descriptor: {text!r}") from None
    if v < 1:
        raise UnknownKindError(f"{what} must be positive, got {v}")
    return v


def build_group(descriptor: str) -> FiniteGroup:
    """Build a catalog group from its descriptor string, once per normalized descriptor.

    Grammar: ``cyclic:n``, ``abelian:n1xn2x...``, ``dihedral:n``, ``sym:n``,
    ``alt:n``, ``quaternion:8``, ``product(D1,D2,...)``.  Orders past
    DEFAULT_ORDER_CAP raise OrderCapExceededError, and product nesting past
    PRODUCT_NESTING_CAP raises UnknownKindError before any recursion.
    """
    desc = descriptor.replace(" ", "").lower()
    cached = _GROUP_CACHE.get(desc)
    if cached is not None:
        return cached

    if desc.startswith("product(") and desc.endswith(")"):
        if max(accumulate((ch == "(") - (ch == ")") for ch in desc)) > PRODUCT_NESTING_CAP:
            raise UnknownKindError(f"product descriptor nested deeper than {PRODUCT_NESTING_CAP}")
        inner = split_top_level(desc[len("product(") : -1])
        if len(inner) < 1 or any(not p for p in inner):
            raise UnknownKindError(f"bad product descriptor: {descriptor!r}")
        factors = [build_group(p) for p in inner]
        total = prod(f.order for f in factors)
        if total > DEFAULT_ORDER_CAP:
            raise OrderCapExceededError(f"product order {total} exceeds cap {DEFAULT_ORDER_CAP}")
        table, names = _product_table([f.table for f in factors], [f.element_names for f in factors])
        group = FiniteGroup(table, desc, names)
    else:
        kind, _, arg = desc.partition(":")
        if kind == "cyclic":
            n = _parse_int(arg, "order")
            if n > DEFAULT_ORDER_CAP:
                raise OrderCapExceededError(f"order {n} exceeds cap {DEFAULT_ORDER_CAP}")
            group = FiniteGroup(_cyclic_table(n), desc)
        elif kind == "abelian":
            # an empty factor ("2x", "2xx3", "x2") is rejected, so each group has one spelling
            ns = [_parse_int(p, "factor order") for p in arg.split("x")]
            total = prod(ns)
            if total > DEFAULT_ORDER_CAP:
                raise OrderCapExceededError(f"order {total} exceeds cap {DEFAULT_ORDER_CAP}")
            table, names = _product_table([_cyclic_table(n) for n in ns], [map(str, range(n)) for n in ns])
            group = FiniteGroup(table, desc, names)
        elif kind == "dihedral":
            n = _parse_int(arg, "degree")
            if 2 * n > DEFAULT_ORDER_CAP:
                raise OrderCapExceededError(f"order {2 * n} exceeds cap {DEFAULT_ORDER_CAP}")
            table, names = _dihedral_table(n)
            group = FiniteGroup(table, desc, names)
        elif kind in ("sym", "alt"):
            # degree 4 keeps the order at 24, inside DEFAULT_ORDER_CAP
            n = _parse_int(arg, "degree")
            if n > PERMUTATION_DEGREE_CAP:
                raise OrderCapExceededError(f"degree {n} exceeds the permutation degree cap {PERMUTATION_DEGREE_CAP}")
            table, names = _permutation_table(n, even_only=(kind == "alt"))
            group = FiniteGroup(table, desc, names)
        elif kind == "quaternion":
            if arg != "8":
                raise UnknownKindError("only quaternion:8 is supported")
            group = FiniteGroup(_quaternion_table(), desc, _QUATERNION_NAMES)
        else:
            raise UnknownKindError(f"unknown group kind: {descriptor!r}")

    failure = verify_group_axioms(group.table)
    if failure is not None:
        raise TopoGroupError(f"internal error: constructed table for {desc!r} fails {failure}")
    _GROUP_CACHE[desc] = group
    return group


_GROUP_CACHE: dict[str, FiniteGroup] = {}
