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

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import prod

from .report import ValidationFailure, ValidationReport

DEFAULT_ORDER_CAP = 64
PERMUTATION_DEGREE_CAP = 4


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


def verify_group_axioms(table) -> ValidationReport:
    """Check that a square table over [0, n) is a Cayley table with identity 0.

    Report-based: never raises; a failing report carries a witness (the
    offending cell, element, or triple).
    """
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            return ValidationReport(False, (ValidationFailure("shape", (i,), "row length mismatch"),))
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                return ValidationReport(False, (ValidationFailure("range", (i, j), f"entry {v!r} out of range"),))
    for j in range(n):
        if table[0][j] != j:
            return ValidationReport(False, (ValidationFailure("identity", (0, j), "left identity broken"),))
    for i in range(n):
        if table[i][0] != i:
            return ValidationReport(False, (ValidationFailure("identity", (i, 0), "right identity broken"),))
    for a in range(n):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            return ValidationReport(False, (ValidationFailure("inverse", (a,), "no two-sided inverse"),))
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = ta[b]
            tb = table[b]
            for c in range(n):
                if table[tab][c] != ta[tb[c]]:
                    return ValidationReport(False, (ValidationFailure("associativity", (a, b, c), ""),))
    return ValidationReport(True)


class FiniteGroup:
    """A finite group given by its full Cayley table.

    Instances are immutable in spirit: nothing mutates ``table`` after
    construction, so values are safe for unrestricted concurrent reads.
    Equality is descriptor-plus-table identity; no isomorphism testing.
    """

    def __init__(self, table, descriptor: str, element_names=None):
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(int(v) for v in row) for row in table)
        self.order: int = len(self.table)
        self.descriptor: str = descriptor
        if element_names is None:
            element_names = tuple(str(i) for i in range(self.order))
        self.element_names: tuple[str, ...] = tuple(element_names)
        self.inverse: tuple[int, ...] = tuple(self.table[a].index(0) for a in range(self.order))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

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
    def _element_orders(self) -> tuple[int, ...]:
        orders = []
        for y in range(self.order):
            acc, n = y, 1
            while acc != 0:
                acc = self.table[acc][y]
                n += 1
            orders.append(n)
        return tuple(orders)

    def element_order(self, x: int) -> int:
        return self._element_orders[x]

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


@dataclass(frozen=True)
class Subgroup:
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

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    @property
    def is_whole(self) -> bool:
        return self.mask == self.group.full_mask

    def __repr__(self):
        names = ",".join(self.group.name(x) for x in self.members)
        return f"Subgroup({self.group.descriptor}; {{{names}}})"


def closure_mask(group: FiniteGroup, seed) -> int:
    """Bitmask of the subgroup generated by *seed* (ids or a mask).

    The subgroup is the orbit of the identity under right multiplication by
    the generators: in a finite group the powers of an element reach its
    inverse.  A seed element already inside the orbit adds nothing and is
    skipped, so the cost is O(|H| * generators actually used).
    """
    table = group.table
    gens: list[int] = []
    members = [0]
    mask = 1
    seeds = bits_of(seed) if isinstance(seed, int) and not isinstance(seed, bool) else seed
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


def subgroup_generated(group: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of *group* containing the given element ids."""
    return Subgroup(group, closure_mask(group, gens))


@dataclass(frozen=True)
class Homomorphism:
    """A total, verified group homomorphism between two Cayley-table groups."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

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

    @property
    def kernel_mask(self) -> int:
        return self.fibers[0]

    @property
    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and len(set(self.mapping)) == self.source.order

    def compose(self, other: "Homomorphism") -> "Homomorphism":
        """self after other (apply *other* first)."""
        if other.target is not self.source and other.target != self.source:
            raise TopoGroupError("composition domain mismatch")
        return Homomorphism(other.source, self.target, tuple(self.mapping[v] for v in other.mapping))


def make_homomorphism(source: FiniteGroup, target: FiniteGroup, mapping) -> Homomorphism:
    """Validate a total map as a homomorphism; raises with a witness pair."""
    mapping = tuple(int(v) for v in mapping)
    if len(mapping) != source.order or any(not 0 <= v < target.order for v in mapping):
        raise NotAHomomorphismError(-1, -1, "map is not total over the source or hits bad ids")
    for x in source.elements():
        mx = mapping[x]
        for y in source.elements():
            if mapping[source.table[x][y]] != target.table[mx][mapping[y]]:
                raise NotAHomomorphismError(x, y)
    return Homomorphism(source, target, mapping)


# --- construction -----------------------------------------------------------

def _cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def mixed_radix_decode(orders, idx: int) -> tuple[int, ...]:
    """Digits of *idx* in mixed radix over *orders*, first digit most significant."""
    out = []
    for o in reversed(orders):
        idx, digit = divmod(idx, o)
        out.append(digit)
    return tuple(reversed(out))


def mixed_radix_encode(orders, digits) -> int:
    idx = 0
    for o, d in zip(orders, digits):
        idx = idx * o + d
    return idx


def _mixed_radix_tables(orders: list[int], mul_component):
    total = 1
    for o in orders:
        total *= o
    tuples = [mixed_radix_decode(orders, i) for i in range(total)]
    table = [
        [
            mixed_radix_encode(orders, (mul_component(k, a[k], b[k]) for k in range(len(orders))))
            for b in tuples
        ]
        for a in tuples
    ]
    names = tuple("(" + ",".join(str(t) for t in tup) + ")" for tup in tuples)
    return table, names


def _perm_compose(p, q):
    # (p * q)(i) = p(q(i)): apply q first
    return tuple(p[q[i]] for i in range(len(p)))


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
    table = [[pos[_perm_compose(a, b)] for b in perms] for a in perms]
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
    # element (f, k) = s^f r^k with id f*n + k; r^k s = s r^(-k)
    def mul(a, b):
        f1, k1 = divmod(a, n)
        f2, k2 = divmod(b, n)
        k = (k2 + (k1 if f2 == 0 else -k1)) % n
        return ((f1 + f2) % 2) * n + k

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    names = tuple(
        ("e" if k == 0 else f"r{k}") if f == 0 else ("s" if k == 0 else f"sr{k}")
        for f in range(2)
        for k in range(n)
    )
    return table, names


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
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
    DEFAULT_ORDER_CAP raise OrderCapExceededError.
    """
    desc = descriptor.replace(" ", "").lower()
    cached = _GROUP_CACHE.get(desc)
    if cached is not None:
        return cached

    if desc.startswith("product(") and desc.endswith(")"):
        inner = _split_top_level(desc[len("product(") : -1])
        if len(inner) < 1 or any(not p for p in inner):
            raise UnknownKindError(f"bad product descriptor: {descriptor!r}")
        factors = [build_group(p) for p in inner]
        orders = [f.order for f in factors]
        total = prod(orders)
        if total > DEFAULT_ORDER_CAP:
            raise OrderCapExceededError(f"product order {total} exceeds cap {DEFAULT_ORDER_CAP}")
        table, _ = _mixed_radix_tables(orders, lambda k, a, b: factors[k].table[a][b])
        names = tuple(
            "(" + ",".join(f.name(c) for f, c in zip(factors, mixed_radix_decode(orders, i))) + ")"
            for i in range(total)
        )
        group = FiniteGroup(table, desc, names)
    else:
        kind, _, arg = desc.partition(":")
        if kind == "cyclic":
            n = _parse_int(arg, "order")
            if n > DEFAULT_ORDER_CAP:
                raise OrderCapExceededError(f"order {n} exceeds cap {DEFAULT_ORDER_CAP}")
            group = FiniteGroup(_cyclic_table(n), desc)
        elif kind == "abelian":
            ns = [_parse_int(p, "factor order") for p in arg.split("x") if p != ""]
            if not ns:
                raise UnknownKindError(f"bad abelian descriptor: {descriptor!r}")
            total = 1
            for n in ns:
                total *= n
            if total > DEFAULT_ORDER_CAP:
                raise OrderCapExceededError(f"order {total} exceeds cap {DEFAULT_ORDER_CAP}")
            table, names = _mixed_radix_tables(ns, lambda k, a, b: (a + b) % ns[k])
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

    report = verify_group_axioms(group.table)
    if not report.passed:
        raise TopoGroupError(f"internal error: constructed table for {desc!r} fails {report.first_failure()}")
    _GROUP_CACHE[desc] = group
    return group


_GROUP_CACHE: dict[str, FiniteGroup] = {}
