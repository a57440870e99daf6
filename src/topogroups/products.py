"""Direct products of topo-groups, the product system, and Tychonoff replay."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iter_product

from .groups import (
    FiniteGroup,
    Homomorphism,
    TopoGroupError,
    bits_of,
    build_group,
    closure_mask,
    make_homomorphism,
    mask_of,
    mixed_radix_decode,
    mixed_radix_encode,
)
from .lattice import enumerate_subgroups
from .report import ValidationFailure, ValidationReport
from .toposystems import BadParameterError, TopoSystem, verify_toposys
from .filters import NotAFilterError, SubgroupFilter, convergence_set, is_ultrafilter, pushforward


class CertificateFailureError(TopoGroupError):
    """A replayed proof step failed; this would falsify the theorem at desk scale."""

    def __init__(self, step: str, witness):
        self.step = step
        self.witness = witness
        super().__init__(f"certificate step {step!r} failed with witness {witness!r}")


@dataclass(frozen=True)
class ProductGroup:
    """Tuple group over the factors, with validated projections and embeddings.

    Element ids use mixed radix with factor 0 most significant, so the
    all-identities tuple is id 0.
    """

    factors: tuple[FiniteGroup, ...]
    group: FiniteGroup
    projections: tuple[Homomorphism, ...]
    embeddings: tuple[Homomorphism, ...]

    def decode(self, idx: int) -> tuple[int, ...]:
        return mixed_radix_decode([f.order for f in self.factors], idx)

    def encode(self, components) -> int:
        return mixed_radix_encode([f.order for f in self.factors], components)


def direct_product(factors) -> ProductGroup:
    """The product of the factors; its group is ``build_group("product(...)")``."""
    factors = tuple(factors)
    if not factors:
        raise BadParameterError("a product needs at least one factor")
    return _direct_product(factors)


@cache
def _direct_product(factors: tuple[FiniteGroup, ...]) -> ProductGroup:
    group = build_group("product(" + ",".join(f.descriptor for f in factors) + ")")
    orders = [f.order for f in factors]
    projections = tuple(
        make_homomorphism(group, factors[i], tuple(mixed_radix_decode(orders, x)[i] for x in group.elements()))
        for i in range(len(factors))
    )
    embeddings = []
    for i, f in enumerate(factors):
        maps = []
        for a in f.elements():
            tup = [0] * len(factors)
            tup[i] = a
            maps.append(mixed_radix_encode(orders, tup))
        embeddings.append(make_homomorphism(f, group, tuple(maps)))
    return ProductGroup(factors, group, projections, tuple(embeddings))


def product_subgroup_mask(product: ProductGroup, factor_masks) -> int:
    """Mask of the product-form subgroup with the given factor masks."""
    member_lists = [list(bits_of(m)) for m in factor_masks]
    return mask_of(product.encode(tup) for tup in iter_product(*member_lists))


def decompose_product_subgroup(product: ProductGroup, mask: int) -> tuple[int, ...] | None:
    """Factor masks with ``prod(pi_i(A)) == A``, or None for non-product form."""
    images = tuple(p.image_mask(mask) for p in product.projections)
    if product_subgroup_mask(product, images) != mask:
        return None
    return images


@dataclass(frozen=True)
class ProductToposys:
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
    report = verify_toposys(plattice, bits)
    if not report.passed:
        raise TopoGroupError(f"internal error: product system fails axioms: {report.first_failure()}")
    return ProductToposys(product, system, factor_systems, member_factors)


def product_identities_check(product: ProductGroup) -> ValidationReport:
    """Verify the componentwise meet and join identities, both sides computed
    independently (componentwise in the factors vs directly in the product)."""
    lattices = [enumerate_subgroups(f) for f in product.factors]
    combos = list(iter_product(*[range(len(lat)) for lat in lattices]))
    pmask = {
        combo: product_subgroup_mask(product, [lat.mask(i) for lat, i in zip(lattices, combo)])
        for combo in combos
    }
    failures = []
    for pos, a in enumerate(combos):
        for b in combos[pos:]:
            meet_direct = pmask[a] & pmask[b]
            meet_factorwise = pmask[tuple(lat.meet_index(i, j) for lat, i, j in zip(lattices, a, b))]
            if meet_direct != meet_factorwise:
                failures.append(ValidationFailure("meet-identity", (a, b), ""))
            join_direct = closure_mask(product.group, pmask[a] | pmask[b])
            join_factorwise = pmask[tuple(lat.join_index(i, j) for lat, i, j in zip(lattices, a, b))]
            if join_direct != join_factorwise:
                failures.append(ValidationFailure("join-identity", (a, b), ""))
            if failures:
                return ValidationReport(False, tuple(failures))
    return ValidationReport(True, notes=(f"{len(combos)} factor tuples checked pairwise",))


@dataclass(frozen=True)
class FactorRecord:
    index: int
    pushforward_members: tuple[int, ...]
    convergence_points: tuple[int, ...]
    chosen_point: int


@dataclass(frozen=True)
class TopenReplay:
    index: int
    factor_indices: tuple[int, ...]
    preimages_in_filter: bool
    intersection_matches: bool
    member_of_filter: bool


@dataclass(frozen=True)
class TychonoffCertificate:
    """Full replay trail of the product-compactness proof for one ultrafilter."""

    point: int
    point_components: tuple[int, ...]
    factor_records: tuple[FactorRecord, ...]
    replays: tuple[TopenReplay, ...]

    @property
    def ok(self) -> bool:
        return all(r.preimages_in_filter and r.intersection_matches and r.member_of_filter for r in self.replays)


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
    ok, witness = is_ultrafilter(f)
    if not ok:
        raise BadParameterError(f"certificate requires an ultrafilter; witness #{witness}")

    records = []
    components = []
    pushed_list = []
    for i, projection in enumerate(product.projections):
        try:
            pushed = pushforward(projection, f)
        except NotAFilterError as exc:
            raise CertificateFailureError(f"pushforward[{i}]", exc.failure) from exc
        ultra, uw = is_ultrafilter(pushed)
        if not ultra:
            raise CertificateFailureError(f"pushforward-ultra[{i}]", uw)
        cs = convergence_set(pushed, ptop.factor_systems[i])
        if cs.is_empty:
            raise CertificateFailureError(f"factor-convergence[{i}]", pushed.provenance)
        x_i = min(cs.points)
        components.append(x_i)
        pushed_list.append(pushed)
        records.append(FactorRecord(i, pushed.member_indices, cs.points, x_i))

    x = product.encode(components)
    replays = []
    for a in ptop.system.member_indices:
        amask = plattice.mask(a)
        if not amask >> x & 1:
            continue
        combo = ptop.member_factors[a]
        pre_ok = all(ai in pushed for pushed, ai in zip(pushed_list, combo))
        inter = product.group.full_mask
        for projection, sys_i, ai in zip(product.projections, ptop.factor_systems, combo):
            inter &= projection.preimage_mask(sys_i.lattice.mask(ai))
        inter_ok = inter == amask
        member_ok = a in f
        replays.append(TopenReplay(a, combo, pre_ok, inter_ok, member_ok))
        if not pre_ok:
            raise CertificateFailureError("factor-preimage", (a, combo))
        if not inter_ok:
            raise CertificateFailureError("intersection-identity", (a, combo))
        if not member_ok:
            raise CertificateFailureError("membership", (a,))
    return TychonoffCertificate(x, tuple(components), tuple(records), tuple(replays))
