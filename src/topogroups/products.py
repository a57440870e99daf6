"""Direct products of topo-groups, the product system, and Tychonoff replay."""

from __future__ import annotations

from functools import cache
from itertools import product as iter_product
from math import prod
from typing import NamedTuple

from .groups import FiniteGroup, Homomorphism, TopoGroupError, bits_of, build_group, make_homomorphism
from .lattice import enumerate_subgroups
from .report import ValidationFailure
from .toposystems import BadParameterError, TopoSystem
from .filters import NotAFilterError, SubgroupFilter, convergence_set, is_ultrafilter, pushforward


class CertificateFailureError(TopoGroupError):
    """A replayed proof step failed; this would falsify the theorem at desk scale."""

    def __init__(self, step: str, witness):
        self.step = step
        self.witness = witness
        super().__init__(f"certificate step {step!r} failed with witness {witness!r}")


class ProductGroup(NamedTuple):
    """Tuple group over the factors, with validated projections.

    Element ids use mixed radix with factor 0 most significant, so the
    all-identities tuple is id 0, ``decode`` reads the projections and a
    product-form subgroup mask is a union of shifted factor masks.
    """

    factors: tuple[FiniteGroup, ...]
    group: FiniteGroup
    projections: tuple[Homomorphism, ...]

    def decode(self, idx: int) -> tuple[int, ...]:
        return tuple(p.mapping[idx] for p in self.projections)

    def encode(self, components) -> int:
        idx = 0
        for f, c in zip(self.factors, components):
            idx = idx * f.order + c
        return idx


def direct_product(factors) -> ProductGroup:
    """The product of the factors; its group is ``build_group("product(...)")``."""
    factors = tuple(factors)
    if not factors:
        raise BadParameterError("a product needs at least one factor")
    return _direct_product(factors)


@cache
def _direct_product(factors: tuple[FiniteGroup, ...]) -> ProductGroup:
    group = build_group("product(" + ",".join(f.descriptor for f in factors) + ")")
    # component i is digit i in mixed radix, whose stride is the order of the later factors
    strides = [prod(f.order for f in factors[i + 1 :]) for i in range(len(factors))]
    projections = tuple(
        make_homomorphism(group, f, tuple(x // s % f.order for x in group.elements())) for f, s in zip(factors, strides)
    )
    return ProductGroup(factors, group, projections)


def product_subgroup_mask(product: ProductGroup, factor_masks) -> int:
    """Mask of the product-form subgroup with the given sequence of factor masks.

    Its members with first component a are the later factors' mask shifted by a times their order."""
    mask, stride = 1, 1
    for factor, m in zip(reversed(product.factors), reversed(factor_masks)):
        mask, stride = sum(mask << a * stride for a in bits_of(m)), stride * factor.order
    return mask


class ProductToposys(NamedTuple):
    """Product system: exactly the products of factor topens.

    The index set is finite, so the almost-all-full condition on factor
    choices imposes nothing here.
    """

    product: ProductGroup
    system: TopoSystem
    factor_systems: tuple[TopoSystem, ...]
    member_factors: dict[int, tuple[int, ...]]


def product_toposys(product: ProductGroup, factor_systems) -> ProductToposys:
    factor_systems = tuple(factor_systems)
    if len(factor_systems) != len(product.factors):
        raise BadParameterError("one topo-system per factor is required")
    for sys_i, f in zip(factor_systems, product.factors):
        if sys_i.lattice.group != f:
            raise BadParameterError("factor system does not live on the matching factor")
    plattice = enumerate_subgroups(product.group)
    member_factors: dict[int, tuple[int, ...]] = {}
    bits = 0
    for combo in iter_product(*[s.member_indices for s in factor_systems]):
        masks = [s.lattice.mask(i) for s, i in zip(factor_systems, combo)]
        index = plattice.index_of(product_subgroup_mask(product, masks))
        member_factors[index] = combo
        bits |= 1 << index
    provenance = "product(" + ",".join(s.provenance for s in factor_systems) + ")"
    system = TopoSystem(plattice, bits, provenance)
    if system.failure is not None:
        raise TopoGroupError(f"internal error: product system fails axioms: {system.failure}")
    return ProductToposys(product, system, factor_systems, member_factors)


def product_identities_check(product: ProductGroup) -> ValidationFailure | None:
    """The first pair breaking the componentwise meet or join identity, or None.

    Both sides are computed independently: componentwise in the factor
    lattices, and directly in the product, where the meet intersects the
    masks and the join is read off the product lattice."""
    lattices = [enumerate_subgroups(f) for f in product.factors]
    plattice = enumerate_subgroups(product.group)
    combos = list(iter_product(*[range(len(lat)) for lat in lattices]))
    pindex = {
        combo: plattice.index_of(product_subgroup_mask(product, [lat.mask(i) for lat, i in zip(lattices, combo)]))
        for combo in combos
    }
    mask = [s.mask for s in plattice.subgroups]
    for pos, a in enumerate(combos):
        for b in combos[pos:]:
            meet_direct = mask[pindex[a]] & mask[pindex[b]]
            meet_factorwise = mask[pindex[tuple(lat.meet_index(i, j) for lat, i, j in zip(lattices, a, b))]]
            if meet_direct != meet_factorwise:
                return ValidationFailure("meet-identity", (a, b), "")
            join_direct = plattice.join_index(pindex[a], pindex[b])
            join_factorwise = pindex[tuple(lat.join_index(i, j) for lat, i, j in zip(lattices, a, b))]
            if join_direct != join_factorwise:
                return ValidationFailure("join-identity", (a, b), "")
    return None


class TychonoffCertificate(NamedTuple):
    """Replay trail of the product-compactness proof for one ultrafilter.

    ``replayed`` lists the product topens around the point; each passed every step.
    """

    point: int
    replayed: tuple[int, ...]


def tychonoff_certificate(ptop: ProductToposys, f: SubgroupFilter) -> TychonoffCertificate:
    """Replay the product-compactness argument step by step for one ultrafilter.

    Pushes the filter along each projection, checks the result is an
    ultrafilter, picks the least convergence point per factor, then verifies
    for every product topen around the assembled point that each factor
    preimage is a member, that the preimages intersect to exactly the topen,
    and that the topen itself is a member.  Any failed step raises
    CertificateFailureError with the step name and witness.
    """
    product = ptop.product
    plattice = ptop.system.lattice
    if f.lattice.group != product.group:
        raise BadParameterError("filter does not live on the product group")
    if not is_ultrafilter(f):
        raise BadParameterError(f"certificate requires an ultrafilter; witness #{f.kernel}")

    components = []
    pushed_list = []
    for i, (projection, sys_i) in enumerate(zip(product.projections, ptop.factor_systems)):
        try:
            pushed = pushforward(projection, f)
        except NotAFilterError as exc:
            raise CertificateFailureError(f"pushforward[{i}]", exc.failure) from exc
        if not is_ultrafilter(pushed):
            raise CertificateFailureError(f"pushforward-ultra[{i}]", pushed.kernel)
        points = convergence_set(pushed, sys_i)
        if not points:
            raise CertificateFailureError(f"factor-convergence[{i}]", pushed.provenance)
        components.append(min(points))
        pushed_list.append(pushed)

    x = product.encode(components)
    replayed = []
    for a in bits_of(ptop.system.member_bits & plattice.above[plattice.cyclic_index(x)]):
        amask = plattice.mask(a)
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
