"""Direct products, the product system, component identities, Tychonoff replay."""

import pytest

from topogroups.groups import build_group, subgroup_generated
from topogroups.lattice import enumerate_subgroups
from topogroups.toposystems import build_toposys
from topogroups.filters import enumerate_ultrafilters, principal_filter
from topogroups.products import (
    CertificateFailureError,
    decompose_product_subgroup,
    direct_product,
    product_identities_check,
    product_subgroup_mask,
    product_toposys,
    tychonoff_certificate,
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
    assert p.projections[0].is_bijective


def test_mixed_radix_encoding_and_element_orders():
    p = _product("cyclic:2", "cyclic:3")
    assert p.group.order == 6
    x = p.encode((1, 1))
    assert p.decode(x) == (1, 1)
    assert p.group.element_order(x) == 6


def test_projection_embedding_composition():
    p = _product("cyclic:4", "cyclic:2")
    for i, (proj, emb) in enumerate(zip(p.projections, p.embeddings)):
        composed = proj.compose(emb)
        assert composed.mapping == tuple(range(p.factors[i].order))


def test_klein_diagonal_is_not_product_form():
    p = _product("cyclic:2", "cyclic:2")
    diag = subgroup_generated(p.group, [p.encode((1, 1))])
    assert decompose_product_subgroup(p, diag.mask) is None
    axis = subgroup_generated(p.group, [p.encode((1, 0))])
    got = decompose_product_subgroup(p, axis.mask)
    assert got is not None and got[1] == 1


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
    report = product_identities_check(_product(*descs))
    assert report.passed


def test_product_identity_spot_values():
    p = _product("cyclic:4", "cyclic:6")
    l1, l2 = (enumerate_subgroups(f) for f in p.factors)
    a = product_subgroup_mask(p, [l1.mask(l1.cyclic_index(2)), 1])
    b = product_subgroup_mask(p, [1, l2.mask(l2.cyclic_index(3))])
    assert a & b == 1  # meet identity on the pair from the componentwise sides
    joined = subgroup_generated(p.group, [p.encode((2, 0)), p.encode((0, 3))]).mask
    expected = product_subgroup_mask(p, [l1.mask(l1.cyclic_index(2)), l2.mask(l2.cyclic_index(3))])
    assert joined == expected


def test_tychonoff_certificate_examples():
    p = _product("cyclic:3")
    lat = enumerate_subgroups(p.group)
    d = [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors]
    pt = product_toposys(p, d)
    cert = tychonoff_certificate(pt, principal_filter(lat, 1))
    assert cert.ok and cert.point == 1

    p23 = _product("cyclic:2", "cyclic:3")
    lat23 = enumerate_subgroups(p23.group)
    pt23 = product_toposys(p23, [build_toposys(enumerate_subgroups(f), "discrete") for f in p23.factors])
    f = principal_filter(lat23, p23.encode((1, 1)))
    cert = tychonoff_certificate(pt23, f)
    assert cert.ok
    assert cert.point_components == (1, 1)
    assert all(r.preimages_in_filter and r.intersection_matches and r.member_of_filter for r in cert.replays)

    p22 = _product("cyclic:2", "cyclic:2")
    lat22 = enumerate_subgroups(p22.group)
    pt22 = product_toposys(p22, [build_toposys(enumerate_subgroups(f), "discrete") for f in p22.factors])
    diag = principal_filter(lat22, p22.encode((1, 1)))
    cert = tychonoff_certificate(pt22, diag)
    assert cert.ok and cert.point_components == (1, 1)


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
                assert tychonoff_certificate(pt, f).ok


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


@pytest.mark.parametrize(
    "descs", [("cyclic:4", "cyclic:2"), ("cyclic:2", "cyclic:3"), ("cyclic:3", "cyclic:3")]
)
def test_projections_are_topomorphisms_from_product_system(descs):
    from topogroups.toposystems import is_topomorphism

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
    from topogroups.filters import convergence_set, converges_to, pushforward

    p = _product("cyclic:4", "cyclic:3")
    plat = enumerate_subgroups(p.group)
    systems = [build_toposys(enumerate_subgroups(f), "discrete") for f in p.factors]
    pt = product_toposys(p, systems)
    for f in enumerate_ultrafilters(plat):
        points = convergence_set(f, pt.system).points
        for i, proj in enumerate(p.projections):
            pushed = pushforward(proj, f)
            flat = enumerate_subgroups(p.factors[i])
            for x in points:
                xi = p.decode(x)[i]
                for b in systems[i].topens_containing(xi):
                    if b == flat.trivial_index:
                        assert plat.index_of(proj.preimage_mask(flat.mask(b))) in f.members
                    else:
                        assert b in pushed.members
                if xi != 0:
                    assert converges_to(pushed, systems[i], xi)[0]
