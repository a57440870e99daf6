"""Group construction, axioms, generated subgroups and homomorphisms."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from topogroups.groups import (
    PRODUCT_NESTING_CAP,
    NotAHomomorphismError,
    OrderCapExceededError,
    Subgroup,
    UnknownKindError,
    build_group,
    closure_mask,
    make_homomorphism,
    mask_of,
    subgroup_generated,
    verify_group_axioms,
)
from oracles import quotient_group, subgroup_group

SMALL_DESCRIPTORS = (
    "cyclic:4",
    "cyclic:6",
    "abelian:2x2",
    "sym:3",
    "quaternion:8",
    "dihedral:4",
    "alt:4",
)


def _count_orders(group):
    counts = {}
    for x in group.elements():
        counts[group.element_order(x)] = counts.get(group.element_order(x), 0) + 1
    return counts


# independent oracle: compose permutation tuples directly
def _sym3_order_counts():
    perms = list(permutations(range(3)))
    counts = {}
    for p in perms:
        q, n = p, 1
        while q != (0, 1, 2):
            q = tuple(p[q[i]] for i in range(3))
            n += 1
        counts[n] = counts.get(n, 0) + 1
    return counts


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1 and g.table == ((0,),)


def test_cyclic4_table_is_addition_mod_4():
    g = build_group("cyclic:4")
    for i in range(4):
        for j in range(4):
            assert g.mul(i, j) == (i + j) % 4


def test_sym3_order_profile_matches_permutation_oracle():
    g = build_group("sym:3")
    assert g.order == 6
    assert _count_orders(g) == _sym3_order_counts() == {1: 1, 2: 3, 3: 2}


def test_verify_axioms_pass_and_fail_witness():
    g = build_group("cyclic:4")
    assert verify_group_axioms(g.table).passed
    broken = [list(row) for row in g.table]
    broken[0], broken[1] = broken[1], broken[0]
    report = verify_group_axioms(broken)
    assert not report.passed
    assert report.first_failure().kind == "identity"
    assert report.first_failure().witness is not None


def test_sym3_table_passes_axioms():
    assert verify_group_axioms(build_group("sym:3").table).passed


def test_group_descriptor_errors():
    with pytest.raises(UnknownKindError):
        build_group("frobnicate:7")
    with pytest.raises(OrderCapExceededError):
        build_group("cyclic:200")
    with pytest.raises(OrderCapExceededError):
        build_group("sym:5")
    with pytest.raises(UnknownKindError):
        build_group("quaternion:16")


def test_quaternion_numbering_and_orders():
    q8 = build_group("quaternion:8")
    assert q8.element_names == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert q8.element_order(1) == 2  # -1
    assert all(q8.element_order(x) == 4 for x in (2, 3, 4, 5, 6, 7))
    # i * j = k
    assert q8.name(q8.mul(2, 4)) == "k"
    assert q8.name(q8.mul(4, 2)) == "-k"


def test_dihedral_reflection_relations():
    d4 = build_group("dihedral:4")
    assert d4.order == 8
    s = 4  # id of the base reflection
    r = 1
    assert d4.element_order(s) == 2
    assert d4.element_order(r) == 4
    # s r s^-1 = r^-1
    assert d4.conjugate(s, r) == d4.inv(r)


def test_subgroup_generated_examples():
    z4 = build_group("cyclic:4")
    assert subgroup_generated(z4, []).members == (0,)
    assert subgroup_generated(z4, [2]).members == (0, 2)
    s3 = build_group("sym:3")
    transpositions = [x for x in s3.elements() if s3.element_order(x) == 2]
    full = subgroup_generated(s3, transpositions[:2])
    assert full.order == 6


@given(st.sampled_from(SMALL_DESCRIPTORS), st.data())
def test_subgroup_generated_idempotent(desc, data):
    g = build_group(desc)
    ids = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    sub = subgroup_generated(g, ids)
    again = subgroup_generated(g, sub.members)
    assert again.mask == sub.mask


@given(st.sampled_from(SMALL_DESCRIPTORS), st.data())
def test_element_order_divides_group_order(desc, data):
    g = build_group(desc)
    x = data.draw(st.integers(0, g.order - 1))
    assert g.order % g.element_order(x) == 0


def test_make_homomorphism_identity_and_sign():
    s3 = build_group("sym:3")
    ident = make_homomorphism(s3, s3, tuple(range(6)))
    assert ident.is_bijective
    z2 = build_group("cyclic:2")
    # sign: even permutations are e, the two 3-cycles
    even = {x for x in s3.elements() if s3.element_order(x) in (1, 3)}
    sign = make_homomorphism(s3, z2, tuple(0 if x in even else 1 for x in s3.elements()))
    assert sign.kernel_mask == mask_of(even)


def test_make_homomorphism_rejects_with_witness():
    s3 = build_group("sym:3")
    z2 = build_group("cyclic:2")
    # send everything except the identity to 1: not multiplicative
    bad = tuple(0 if x == 0 else 1 for x in s3.elements())
    with pytest.raises(NotAHomomorphismError) as exc:
        make_homomorphism(s3, z2, bad)
    x, y = exc.value.witness
    assert bad[s3.mul(x, y)] != (bad[x] + bad[y]) % 2


@given(st.sampled_from(("sym:3", "quaternion:8", "cyclic:6")), st.data())
def test_preimage_of_subgroup_is_closed(desc, data):
    g = build_group(desc)
    z2 = build_group("cyclic:2")
    # quotient-style maps when available, else the trivial map
    if desc == "sym:3":
        even = {x for x in g.elements() if g.element_order(x) in (1, 3)}
        hom = make_homomorphism(g, z2, tuple(0 if x in even else 1 for x in g.elements()))
    else:
        hom = make_homomorphism(g, z2, (0,) * g.order)
    target = data.draw(st.sampled_from([1, 2, 3]))
    pre = hom.preimage_mask(closure_mask(z2, [target % 2]))
    sub = Subgroup(g, pre)
    for a in sub.members:
        assert g.inv(a) in sub
        for b in sub.members:
            assert g.mul(a, b) in sub


def test_subgroup_group_reindexes_with_identity_first():
    s3 = build_group("sym:3")
    a3_mask = closure_mask(s3, [3])
    sub, embed = subgroup_group(s3, a3_mask)
    assert sub.order == 3
    assert embed.mapping[0] == 0
    assert verify_group_axioms(sub.table).passed


def test_quotient_group_orders_cosets_by_minimal_element():
    s3 = build_group("sym:3")
    a3_mask = closure_mask(s3, [3])
    quot, natural = quotient_group(s3, a3_mask)
    assert quot.order == 2
    assert natural(0) == 0
    # all of A3 lands on the identity coset
    assert all(natural(x) == 0 for x in Subgroup(s3, a3_mask).members)


def test_product_descriptor_matches_direct_encoding():
    p = build_group("product(cyclic:2,cyclic:3)")
    assert p.order == 6
    # (1,1) = 1*3 + 1 = id 4, and has order 6
    assert p.element_order(4) == 6


def test_product_nesting_is_capped_before_recursion():
    def nested(depth):
        return "product(" * depth + "cyclic:2" + ")" * depth

    assert build_group(nested(PRODUCT_NESTING_CAP)).order == 2
    with pytest.raises(UnknownKindError, match=f"nested deeper than {PRODUCT_NESTING_CAP}"):
        build_group(nested(PRODUCT_NESTING_CAP + 1))


def test_every_catalog_group_passes_axioms():
    from topogroups.suites import DEFAULT_CATALOG

    for desc in DEFAULT_CATALOG:
        assert verify_group_axioms(build_group(desc).table).passed
