"""Direct products, the product system, component identities, Tychonoff replay."""

import time
from collections import Counter
from itertools import combinations_with_replacement, product as iter_product

import pytest

from topogroups.groups import bits_of, build_group, closure_mask, make_homomorphism, mask_of
from topogroups.lattice import enumerate_subgroups
from topogroups import toposystems
from topogroups.toposystems import build_toposys, family_members, verify_toposys
from topogroups.filters import enumerate_ultrafilters, principal_filter
from topogroups.products import (
    CertificateFailureError,
    direct_product,
    product_identities_check,
    product_subgroup_mask,
    product_toposys,
    tychonoff_certificate,
)
from topogroups.suites import (
    DEFAULT_CATALOG,
    FACTOR_SYSTEM_KINDS,
    IDENTITY_PRODUCTS,
    TYCHONOFF_PRODUCTS,
    cell_system_descriptors,
)
from oracles import (
    is_topomorphism,
    product_join_by_closure,
    product_subgroup_mask_by_tuples,
    topens_around,
    tychonoff_certificate_by_replay,
)


def _product(*descs):
    return direct_product([build_group(d) for d in descs])


def test_one_product_group_and_lattice_per_descriptor():
    p = _product("cyclic:2", "cyclic:3")
    g = build_group("product(cyclic:2,cyclic:3)")
    assert p.group is g and _product("cyclic:2", "cyclic:3") is p
    assert enumerate_subgroups(p.group) is enumerate_subgroups(g)
    assert p.group.element_names == g.element_names


def test_single_factor_product():
    p = _product("cyclic:3")
    assert p.group.order == 3
    assert p.projections[0].mapping == (0, 1, 2)


def test_mixed_radix_encoding_and_element_orders():
    p = _product("cyclic:2", "cyclic:3")
    assert p.group.order == 6
    x = p.encode((1, 1))
    assert p.decode(x) == (1, 1)
    assert p.group.element_order(x) == 6


def test_projection_embedding_composition():
    p = _product("cyclic:4", "cyclic:2")
    for i, (proj, factor) in enumerate(zip(p.projections, p.factors)):
        axis = [tuple(a if k == i else 0 for k in range(len(p.factors))) for a in factor.elements()]
        emb = make_homomorphism(factor, p.group, [p.encode(t) for t in axis])
        assert tuple(proj(emb(a)) for a in factor.elements()) == tuple(range(factor.order))


def test_klein_diagonal_is_not_product_form():
    p = _product("cyclic:2", "cyclic:2")

    def product_of_images(mask):
        return product_subgroup_mask(p, [proj.image_mask(mask) for proj in p.projections])

    diag = closure_mask(p.group, [p.encode((1, 1))])
    assert product_of_images(diag) != diag
    axis = closure_mask(p.group, [p.encode((1, 0))])
    assert product_of_images(axis) == axis and p.projections[1].image_mask(axis) == 1


def test_product_toposys_member_counts():
    p = _product("cyclic:2", "cyclic:2")
    d = [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors]
    t = [build_toposys(enumerate_subgroups(f), "trivial") for f in p.factors]
    assert len(product_toposys(p, t).system.members) == 4
    pt = product_toposys(p, d)
    assert len(pt.system.members) == 4
    assert len(enumerate_subgroups(p.group)) == 5  # the diagonal is excluded
    p23 = _product("cyclic:2", "cyclic:3")
    d23 = [build_toposys(enumerate_subgroups(f), "discrete") for f in p23.factors]
    pt23 = product_toposys(p23, d23)
    assert pt23.system.members == frozenset(range(len(enumerate_subgroups(p23.group))))


@pytest.mark.parametrize(
    "descs",
    [("cyclic:2", "cyclic:3"), ("cyclic:2", "cyclic:2"), ("cyclic:4", "cyclic:6"), ("sym:3", "cyclic:2")],
)
def test_product_identities(descs):
    assert product_identities_check(_product(*descs)) is None


def test_product_identity_spot_values():
    p = _product("cyclic:4", "cyclic:6")
    l1, l2 = (enumerate_subgroups(f) for f in p.factors)
    a = product_subgroup_mask(p, [l1.mask(l1.cyclic_index(2)), 1])
    b = product_subgroup_mask(p, [1, l2.mask(l2.cyclic_index(3))])
    assert a & b == 1  # meet identity on the pair from the componentwise sides
    joined = closure_mask(p.group, [p.encode((2, 0)), p.encode((0, 3))])
    expected = product_subgroup_mask(p, [l1.mask(l1.cyclic_index(2)), l2.mask(l2.cyclic_index(3))])
    assert joined == expected


def _replayed_every_topen_around_the_point(ptop, cert) -> bool:
    """A returned certificate replayed each product topen that holds its point, in index order."""
    plattice = ptop.system.lattice
    return cert.replayed == tuple(a for a in ptop.system.member_indices if plattice.mask(a) >> cert.point & 1)


def test_tychonoff_certificate_examples():
    p = _product("cyclic:3")
    lat = enumerate_subgroups(p.group)
    d = [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors]
    pt = product_toposys(p, d)
    cert = tychonoff_certificate(pt, principal_filter(lat, 1))
    assert _replayed_every_topen_around_the_point(pt, cert) and cert.point == 1

    p23 = _product("cyclic:2", "cyclic:3")
    lat23 = enumerate_subgroups(p23.group)
    pt23 = product_toposys(p23, [build_toposys(enumerate_subgroups(f), "discrete") for f in p23.factors])
    f = principal_filter(lat23, p23.encode((1, 1)))
    cert = tychonoff_certificate(pt23, f)
    assert _replayed_every_topen_around_the_point(pt23, cert)
    assert p23.decode(cert.point) == (1, 1)
    # every replayed topen is a member of the filter, as the membership step checked
    assert cert.replayed and all(a in f for a in cert.replayed)

    p22 = _product("cyclic:2", "cyclic:2")
    lat22 = enumerate_subgroups(p22.group)
    pt22 = product_toposys(p22, [build_toposys(enumerate_subgroups(f), "discrete") for f in p22.factors])
    diag = principal_filter(lat22, p22.encode((1, 1)))
    cert = tychonoff_certificate(pt22, diag)
    assert _replayed_every_topen_around_the_point(pt22, cert) and p22.decode(cert.point) == (1, 1)


def test_certificate_carries_no_always_true_flags():
    from topogroups import products

    p = _product("cyclic:2", "cyclic:2")
    pt = product_toposys(p, [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors])
    cert = tychonoff_certificate(pt, enumerate_ultrafilters(enumerate_subgroups(p.group))[0])
    assert not hasattr(cert, "ok") and not hasattr(products, "TopenReplay")
    assert all(type(a) is int for a in cert.replayed)


def test_tychonoff_requires_an_ultrafilter():
    from topogroups.toposystems import BadParameterError
    from topogroups.filters import filter_from_members

    p = _product("cyclic:2", "cyclic:2")
    lat = enumerate_subgroups(p.group)
    pt = product_toposys(p, [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors])
    not_ultra = filter_from_members(lat, {lat.top_index})
    with pytest.raises(BadParameterError):
        tychonoff_certificate(pt, not_ultra)


def test_tychonoff_certificate_all_ultrafilters_small_products():
    for descs in (("cyclic:2", "cyclic:3"), ("cyclic:2", "cyclic:2"), ("cyclic:4", "cyclic:2")):
        p = _product(*descs)
        plat = enumerate_subgroups(p.group)
        for kinds in (("discrete",) * len(p.factors), ("trivial",) * len(p.factors)):
            pt = product_toposys(
                p, [build_toposys(enumerate_subgroups(f), k) for f, k in zip(p.factors, kinds)]
            )
            for f in enumerate_ultrafilters(plat):
                assert _replayed_every_topen_around_the_point(pt, tychonoff_certificate(pt, f))


def test_tychonoff_degenerate_pushforward_is_a_certificate_failure():
    # a factor without a unique minimal subgroup breaks the pushforward step
    # when the ultrafilter anchor projects to the identity in that factor
    p = _product("sym:3", "cyclic:2")
    plat = enumerate_subgroups(p.group)
    pt = product_toposys(p, [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors])
    f = principal_filter(plat, p.encode((0, 1)))
    with pytest.raises(CertificateFailureError) as exc:
        tychonoff_certificate(pt, f)
    assert exc.value.step == "pushforward[0]"


def _outcome(certify, ptop, f):
    try:
        return certify(ptop, f)
    except CertificateFailureError as exc:
        return exc.step, exc.witness


@pytest.mark.parametrize("descs", IDENTITY_PRODUCTS)
def test_certificates_match_the_replay_oracle_on_every_combination(descs):
    # every kind combination of one product, against the oracle that scans
    # every product topen
    p = _product(*descs)
    ultrafilters = enumerate_ultrafilters(enumerate_subgroups(p.group))
    failures = 0
    for combo in iter_product(FACTOR_SYSTEM_KINDS, repeat=len(descs)):
        pt = product_toposys(p, [build_toposys(enumerate_subgroups(f), k) for f, k in zip(p.factors, combo)])
        for f in ultrafilters:
            got = _outcome(tychonoff_certificate, pt, f)
            assert got == _outcome(tychonoff_certificate_by_replay, pt, f)
            failures += type(got) is tuple
    # a factor with two minimal subgroups makes some pushforwards degenerate
    assert bool(failures) == any(d in ("cyclic:6", "sym:3") for d in descs)


@pytest.mark.parametrize("descs", TYCHONOFF_PRODUCTS)
def test_shared_product_indices_match_a_fresh_build(monkeypatch, descs):
    # kind combinations with the same factor member sets share one product
    # member set, so the suite certifies each (product, factor member sets)
    # once; each build verifies its own system and matches the intersections
    # of the projection preimages of the factor topens
    p = _product(*descs)
    plat = enumerate_subgroups(p.group)
    combos = list(iter_product(FACTOR_SYSTEM_KINDS, repeat=len(descs)))
    systems = {combo: [build_toposys(enumerate_subgroups(f), k) for f, k in zip(p.factors, combo)] for combo in combos}
    verified = []

    def counting(lattice, bits):
        verified.append(bits)
        return verify_toposys(lattice, bits)

    monkeypatch.setattr(toposystems, "verify_toposys", counting)
    built = [product_toposys(p, systems[combo]) for combo in combos]
    monkeypatch.undo()
    assert verified == [pt.system.member_bits for pt in built]
    shared = {}
    for combo, pt in zip(combos, built):
        factor_bits = tuple(s.member_bits for s in systems[combo])
        assert shared.setdefault(factor_bits, pt.system.member_bits) == pt.system.member_bits
        fresh = {}
        for members in iter_product(*[s.member_indices for s in systems[combo]]):
            inter = p.group.full_mask
            for proj, s, i in zip(p.projections, systems[combo], members):
                inter &= proj.preimage_mask(s.lattice.mask(i))
            fresh[plat.index_of(inter)] = members
        assert pt.member_factors == fresh and pt.system.member_bits == mask_of(fresh)


def _distinct_cell_systems(group):
    lattice = enumerate_subgroups(group)
    systems = {}
    for desc in cell_system_descriptors(lattice):
        system = family_members(lattice, desc)
        systems.setdefault(system.member_bits, system)
    return list(systems.values())


def _small_catalog_pairs():
    """Every unordered pair of catalog groups with product order at most 36."""
    groups = [build_group(d) for d in DEFAULT_CATALOG]
    return [(a, b) for a, b in combinations_with_replacement(groups, 2) if a.order * b.order <= 36]


def test_certificates_match_the_replay_oracle_on_every_small_catalog_pair():
    # every small catalog pair under every pair of the factors' distinct cell
    # systems; about 0.5 s, and the budget may only be tightened
    start = time.perf_counter()
    pairs = _small_catalog_pairs()
    outcomes = Counter()
    for a, b in pairs:
        p = direct_product([a, b])
        ultrafilters = enumerate_ultrafilters(enumerate_subgroups(p.group))
        for systems in iter_product(_distinct_cell_systems(a), _distinct_cell_systems(b)):
            pt = product_toposys(p, systems)
            for f in ultrafilters:
                got = _outcome(tychonoff_certificate, pt, f)
                assert got == _outcome(tychonoff_certificate_by_replay, pt, f)
                if type(got) is tuple:
                    outcomes[got[0]] += 1
                else:
                    outcomes["replayed a proper topen" if len(got.replayed) > 1 else "replayed G only"] += 1
    elapsed = time.perf_counter() - start
    assert len(pairs) == 52 and sum(outcomes.values()) == 6267
    # a factor with more than one minimal subgroup breaks the pushforward of
    # an ultrafilter whose kernel projects to its identity
    assert outcomes["pushforward[0]"] + outcomes["pushforward[1]"] == 1379
    # the only certificates whose per-topen steps see a proper topen
    assert outcomes["replayed a proper topen"] == 2122
    assert elapsed < 10, f"{elapsed:.1f}s over the 10s budget"


@pytest.mark.parametrize(
    "factors",
    [pytest.param(pair, id=f"{pair[0].descriptor},{pair[1].descriptor}") for pair in _small_catalog_pairs()]
    + [pytest.param((build_group("dihedral:4"), build_group("abelian:2x2x2")), id="dihedral:4,abelian:2x2x2")],
)
def test_shifted_masks_and_lattice_joins_match_the_tuple_and_closure_oracles(factors):
    # every factor-subgroup tuple and every pair of them; the components of
    # each element are its digits in mixed radix, first factor most significant
    p = direct_product(factors)
    plat = enumerate_subgroups(p.group)
    lattices = [enumerate_subgroups(f) for f in p.factors]
    combos = iter_product(*(range(len(lat)) for lat in lattices))
    factor_masks = [[lat.mask(i) for lat, i in zip(lattices, combo)] for combo in combos]
    masks = [product_subgroup_mask(p, fm) for fm in factor_masks]
    assert masks == [product_subgroup_mask_by_tuples(p, fm) for fm in factor_masks]
    index = [plat.index_of(m) for m in masks]
    for a, b in combinations_with_replacement(range(len(masks)), 2):
        assert plat.mask(plat.join_index(index[a], index[b])) == product_join_by_closure(p, masks[a], masks[b])
    ids = list(p.group.elements())
    assert [p.decode(x) for x in ids] == list(iter_product(*(range(f.order) for f in p.factors)))
    assert [p.encode(p.decode(x)) for x in ids] == ids
    assert all(p.decode(x)[i] == proj(x) for x in ids for i, proj in enumerate(p.projections))


@pytest.mark.parametrize(
    "descs", [("cyclic:4", "cyclic:2"), ("cyclic:2", "cyclic:3"), ("cyclic:3", "cyclic:3")]
)
def test_projections_are_topomorphisms_from_product_system(descs):
    p = _product(*descs)
    for kind in ("discrete", "trivial", "normal"):
        systems = [build_toposys(enumerate_subgroups(f), kind) for f in p.factors]
        pt = product_toposys(p, systems)
        for proj, target in zip(p.projections, systems):
            assert is_topomorphism(proj, pt.system, target) == (True, None)


def test_convergence_pushes_forward_componentwise():
    # every factor topen around the projected point pulls back to a member;
    # full typed convergence additionally needs the component to be a
    # non-identity element, since filters never contain the trivial subgroup
    from topogroups.filters import convergence_set, pushforward

    p = _product("cyclic:4", "cyclic:3")
    plat = enumerate_subgroups(p.group)
    systems = [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors]
    pt = product_toposys(p, systems)
    for f in enumerate_ultrafilters(plat):
        points = convergence_set(f, pt.system)
        for i, proj in enumerate(p.projections):
            pushed = pushforward(proj, f)
            flat = enumerate_subgroups(p.factors[i])
            for x in points:
                xi = p.decode(x)[i]
                for b in bits_of(topens_around(systems[i], xi)):
                    if b == flat.trivial_index:
                        assert plat.index_of(proj.preimage_mask(flat.mask(b))) in f
                    else:
                        assert b in pushed
                if xi != 0:
                    assert xi in convergence_set(pushed, systems[i])
