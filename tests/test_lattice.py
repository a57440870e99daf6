"""Lattice enumeration against the brute-force oracle, and the subgroup algebra."""

import inspect

import pytest
from hypothesis import given, strategies as st

import topogroups
from topogroups import groups, lattice
from topogroups.groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    OrderCapExceededError,
    bits_of,
    build_group,
    closure_mask,
    mask_of,
    subgroup_generated,
)
from topogroups.lattice import (
    AUTOMORPHISM_CAP,
    CoverResult,
    UnsupportedVarietyError,
    automorphisms,
    brute_force_subgroup_masks,
    enumerate_subgroups,
    is_characteristic,
    minimal_cover,
    verbal_residual,
)
from topogroups.products import direct_product
from topogroups.suites import DEFAULT_CATALOG

EXPECTED_COUNTS = {
    "cyclic:4": 3,
    "abelian:2x2": 5,
    "sym:3": 6,
    "quaternion:8": 6,
}

ORACLE_DESCRIPTORS = (
    "cyclic:4",
    "cyclic:6",
    "abelian:2x2",
    "sym:3",
    "quaternion:8",
    "dihedral:4",
    "abelian:2x2x2",
    "alt:4",
)
WIDE_DESCRIPTORS = ("dihedral:24", "abelian:2x4x4", "abelian:2x2x2x3")


# lattices past the brute-force oracle's reach, up to the order-64 cap
LARGE_COUNTS = {
    "dihedral:32": 69,
    "product(sym:4,cyclic:2)": 98,
    "abelian:2x2x2x2x2": 374,
    "abelian:2x2x2x2x2x2": 2825,
}


@pytest.mark.parametrize("desc,count", sorted(EXPECTED_COUNTS.items()) + sorted(LARGE_COUNTS.items()))
def test_known_subgroup_counts(desc, count):
    assert len(enumerate_subgroups(build_group(desc))) == count


def _pairwise_closure(group, seed_ids) -> int:
    """Reference closure: add every pairwise product until nothing changes."""
    members = {0, *seed_ids}
    while True:
        grown = {group.mul(a, b) for a in members for b in members} | members
        if grown == members:
            return mask_of(members)
        members = grown


@given(st.sampled_from(ORACLE_DESCRIPTORS), st.data())
def test_closure_mask_matches_pairwise_closure(desc, data):
    group = build_group(desc)
    seed = data.draw(st.lists(st.integers(0, group.order - 1), max_size=4))
    want = _pairwise_closure(group, seed)
    assert closure_mask(group, seed) == want
    assert closure_mask(group, mask_of(seed)) == want


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_join_index_matches_closure_of_union(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert lat.mask(lat.join_index(i, j)) == closure_mask(group, lat.mask(i) | lat.mask(j))


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_generators_and_cyclic_indices(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    for i, gens in enumerate(lat.generators):
        assert closure_mask(group, gens) == lat.mask(i)
    for x in group.elements():
        assert lat.mask(lat.cyclic_index(x)) == closure_mask(group, (x,))


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_containing_lists_the_subgroups_of_each_element(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    for e in group.elements():
        assert lat.containing[e] == mask_of(k for k in range(len(lat)) if lat.mask(k) >> e & 1)


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_normalizer_index_matches_conjugation_by_every_element(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    for i in range(len(lat)):
        mask = lat.mask(i)
        want = mask_of(g for g in group.elements() if mask_of(group.conjugate(g, x) for x in bits_of(mask)) == mask)
        assert lat.mask(lat.normalizer_index(i)) == want


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_enumeration_matches_brute_force(desc):
    group = build_group(desc)
    enumerated = {s.mask for s in enumerate_subgroups(group).subgroups}
    assert enumerated == set(brute_force_subgroup_masks(group))


def test_canonical_order_trivial_first_group_last():
    lat = enumerate_subgroups(build_group("sym:3"))
    assert lat.subgroup(0).order == 1
    assert lat.subgroup(lat.top_index).order == 6
    orders = [s.order for s in lat.subgroups]
    assert orders == sorted(orders)


def _s3():
    g = build_group("sym:3")
    lat = enumerate_subgroups(g)
    return g, lat


def _index_generated(lat, elements):
    return lat.index_of(subgroup_generated(lat.group, elements).mask)


def test_meet_join_examples():
    g, lat = _s3()
    top = lat.top_index
    assert lat.meet_index(1, top) == 1
    assert lat.join_index(1, 0) == 1
    assert lat.join_index(1, 2) == top
    v4 = enumerate_subgroups(build_group("abelian:2x2"))
    a, b = _index_generated(v4, [1]), _index_generated(v4, [2])
    assert v4.subgroup(v4.meet_index(a, b)).order == 1


def test_subgroup_algebra_takes_indices_only():
    retired = ("meet", "join", "core", "normalizer", "is_normal", "commutator_subgroup")
    for name in retired + ("_locate", "_require_same_parent", "ParentMismatchError"):
        assert not hasattr(lattice, name)
    assert not hasattr(groups, "element_order")
    assert not set(retired + ("ParentMismatchError", "element_order")) & set(vars(topogroups))


@given(st.sampled_from(ORACLE_DESCRIPTORS), st.data())
def test_lattice_laws(desc, data):
    lat = enumerate_subgroups(build_group(desc))
    pick = st.integers(0, len(lat) - 1)
    a, b, c = (data.draw(pick) for _ in range(3))
    meet, join = lat.meet_index, lat.join_index
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


def test_core_examples():
    g, lat = _s3()
    assert lat.core_index(lat.top_index) == lat.top_index
    assert lat.subgroup(lat.core_index(1)).order == 1
    q8 = enumerate_subgroups(build_group("quaternion:8"))
    i_sub = _index_generated(q8, [2])
    assert q8.core_index(i_sub) == i_sub  # every subgroup of Q8 is normal


@given(st.sampled_from(ORACLE_DESCRIPTORS), st.data())
def test_core_is_largest_normal_inside(desc, data):
    lat = enumerate_subgroups(build_group(desc))
    x = data.draw(st.integers(0, len(lat) - 1))
    c = lat.core_index(x)
    assert lat.is_normal_index(c)
    assert lat.leq(c, x)
    for n in range(len(lat)):
        if lat.is_normal_index(n) and lat.leq(n, x):
            assert lat.leq(n, c)


# on sym:4 and product(sym:3,sym:3) some cores need a second pass over the generators
@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + ("sym:4", "product(sym:3,sym:3)"))
def test_core_fixpoint_matches_intersection_of_all_conjugates(desc):
    lat = enumerate_subgroups(build_group(desc))
    group = lat.group
    for i in range(len(lat)):
        acc = lat.mask(i)
        for g in group.elements():
            acc &= mask_of(group.conjugate(g, x) for x in bits_of(lat.mask(i)))
        assert lat.mask(lat.core_index(i)) == acc


def test_normalizer_examples():
    g, lat = _s3()
    assert lat.subgroup(lat.normalizer_index(lat.top_index)).is_whole
    assert lat.normalizer_index(1) == 1
    a3 = next(i for i in range(len(lat)) if lat.subgroup(i).order == 3)
    assert lat.is_normal_index(a3)


def test_normals_closed_under_meet_and_join():
    for desc in ORACLE_DESCRIPTORS:
        lat = enumerate_subgroups(build_group(desc))
        normals = list(bits_of(lat.normal_bits))
        for a in normals:
            for b in normals:
                assert lat.is_normal_index(lat.meet_index(a, b))
                assert lat.is_normal_index(lat.join_index(a, b))


def test_commutator_examples():
    g, lat = _s3()
    top = lat.top_index
    assert lat.subgroup(lat.commutator_index(top, 0)).order == 1
    derived = lat.subgroup(lat.commutator_index(top, top))
    assert derived.order == 3
    q8 = enumerate_subgroups(build_group("quaternion:8"))
    q8top = q8.top_index
    assert q8.subgroup(q8.commutator_index(q8top, q8top)).members == (0, 1)


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_commutator_index_matches_all_element_pairs(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    for i in range(len(lat)):
        for j in range(len(lat)):
            pairs = [
                group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))
                for a in bits_of(lat.mask(i))
                for b in bits_of(lat.mask(j))
            ]
            assert lat.mask(lat.commutator_index(i, j)) == closure_mask(group, pairs)


@given(st.sampled_from(ORACLE_DESCRIPTORS), st.data())
def test_commutator_inside_join(desc, data):
    lat = enumerate_subgroups(build_group(desc))
    pick = st.integers(0, len(lat) - 1)
    a, b = data.draw(pick), data.draw(pick)
    assert lat.leq(lat.commutator_index(a, b), lat.join_index(a, b))


def test_automorphism_counts():
    assert len(automorphisms(build_group("cyclic:4"))) == 2
    assert len(automorphisms(build_group("abelian:2x2"))) == 6
    assert len(automorphisms(build_group("sym:3"))) == 6
    assert len(automorphisms(build_group("quaternion:8"))) == 24
    assert len(automorphisms(build_group("dihedral:6"))) == 12
    assert len(automorphisms(build_group("abelian:2x2x2"))) == 168


def test_automorphism_set_is_a_group():
    auts = automorphisms(build_group("sym:3"))
    mappings = {a.mapping for a in auts}
    assert tuple(range(6)) in mappings
    for a in auts:
        assert a.is_bijective
        for b in auts:
            assert a.compose(b).mapping in mappings
        inverse = tuple(a.mapping.index(x) for x in range(6))
        assert inverse in mappings


def test_characteristic_examples():
    v4 = build_group("abelian:2x2")
    lat = enumerate_subgroups(v4)
    assert is_characteristic(lat, 0)
    assert is_characteristic(lat, lat.top_index)
    for i in range(1, lat.top_index):
        assert not is_characteristic(lat, i)


# the default catalog and the one wide group inside the automorphism cap
@pytest.mark.parametrize("desc", DEFAULT_CATALOG + ("abelian:2x2x2x3",))
def test_characteristic_matches_image_definition(desc):
    group = build_group(desc)
    auts = automorphisms(group)
    lat = enumerate_subgroups(group)
    for i, sub in enumerate(lat.subgroups):
        assert is_characteristic(lat, i) == all(phi.image_mask(sub.mask) == sub.mask for phi in auts)


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + WIDE_DESCRIPTORS)
def test_disjoint_and_leq_match_masks(desc):
    lat = enumerate_subgroups(build_group(desc))
    for k in range(len(lat)):
        for b in range(len(lat)):
            meet = lat.mask(k) & lat.mask(b)
            assert bool(lat.disjoint[k] >> b & 1) == (meet == 1)
            assert lat.leq(k, b) == (meet == lat.mask(k))


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + WIDE_DESCRIPTORS)
def test_normal_bits_match_is_normal_index_and_conjugation(desc):
    lat = enumerate_subgroups(build_group(desc))
    assert lat.normal_bits is lat.normal_bits
    for i in range(len(lat)):
        conjugation_stable = all(lat.conjugate_mask(lat.mask(i), g) == lat.mask(i) for g in lat.group.elements())
        assert bool(lat.normal_bits >> i & 1) == lat.is_normal_index(i) == conjugation_stable


def test_verbal_residual_examples():
    v4 = enumerate_subgroups(build_group("abelian:2x2"))
    assert v4.subgroup(verbal_residual(v4, "abelian")).order == 1
    s3 = enumerate_subgroups(build_group("sym:3"))
    assert s3.subgroup(verbal_residual(s3, "abelian")).order == 3
    z4 = enumerate_subgroups(build_group("cyclic:4"))
    assert z4.subgroup(verbal_residual(z4, "exponent:2")).members == (0, 2)
    with pytest.raises(UnsupportedVarietyError):
        verbal_residual(z4, "exponent:5")
    with pytest.raises(UnsupportedVarietyError):
        verbal_residual(z4, "nilpotent")


def test_verbal_residual_is_least_normal_with_quotient_in_variety():
    for desc in ("sym:3", "quaternion:8", "cyclic:6", "dihedral:4"):
        g = build_group(desc)
        lat = enumerate_subgroups(g)
        derived = lat.subgroup(verbal_residual(lat, "abelian"))
        for i in bits_of(lat.normal_bits):
            n = lat.subgroup(i)
            # G/N abelian iff every commutator [a,b] = ab(ba)^-1 lies in N
            abelian = all(
                n.mask >> g.mul(g.mul(a, b), g.inv(g.mul(b, a))) & 1
                for a in g.elements()
                for b in g.elements()
            )
            assert abelian == derived.is_subset_of(n)


def test_minimal_cover_examples():
    g, lat = _s3()
    one = lat.mask(0)
    got = minimal_cover(one, [lat.mask(1)])
    assert got == CoverResult((0,), True)
    # the four maximal cyclic subgroups cover S3 minimally
    cyclics = [lat.mask(i) for i in (1, 2, 3, 4)]
    got = minimal_cover(lat.mask(lat.top_index), cyclics + [one])
    assert got.exact and len(got.positions) == 4 and 4 not in got.positions
    assert minimal_cover(lat.mask(4), [lat.mask(1)]) is None


def test_minimal_cover_greedy_past_limit():
    g, lat = _s3()
    family = [lat.mask(1), lat.mask(2), lat.mask(3), lat.mask(4)] + [lat.mask(0)] * 18
    got = minimal_cover(lat.mask(lat.top_index), family)
    assert not got.exact
    assert set(got.positions) >= {0, 1, 2, 3}


# --- one constructor and one cache per object --------------------------------


def test_constructors_take_no_cap():
    for fn in (build_group, enumerate_subgroups, automorphisms, is_characteristic, direct_product):
        assert "cap" not in inspect.signature(fn).parameters, fn.__name__


def test_lattice_and_automorphisms_are_built_once_per_group():
    g = build_group("sym:3")
    assert not hasattr(g, "_lattice") and not hasattr(g, "_automorphisms")
    assert build_group(" Sym:3 ") is g
    assert enumerate_subgroups(g) is enumerate_subgroups(build_group("sym:3"))
    assert automorphisms(g) is automorphisms(build_group("sym:3"))
    # an equal group built by hand shares the lattice
    twin = FiniteGroup(g.table, g.descriptor, g.element_names)
    assert twin is not g and enumerate_subgroups(twin) is enumerate_subgroups(g)


def test_order_caps_still_raise():
    with pytest.raises(OrderCapExceededError):
        build_group(f"cyclic:{DEFAULT_ORDER_CAP + 1}")
    with pytest.raises(OrderCapExceededError):
        build_group("product(cyclic:8,cyclic:9)")
    with pytest.raises(OrderCapExceededError):
        direct_product([build_group("cyclic:8"), build_group("cyclic:9")])
    n = DEFAULT_ORDER_CAP + 1
    big = FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], f"cyclic:{n}|by-hand")
    for _ in range(2):
        with pytest.raises(OrderCapExceededError):
            enumerate_subgroups(big)
    past = build_group(f"cyclic:{AUTOMORPHISM_CAP + 1}")
    with pytest.raises(OrderCapExceededError):
        automorphisms(past)
    with pytest.raises(OrderCapExceededError):
        is_characteristic(enumerate_subgroups(past), 1)
