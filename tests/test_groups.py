"""Group construction, axioms, generated subgroups and homomorphisms."""

from itertools import permutations, product as iter_product

import pytest
from hypothesis import given, strategies as st

from topogroups.groups import (
    PRODUCT_NESTING_CAP,
    _dihedral_table,
    _permutation_table,
    NotAHomomorphismError,
    OrderCapExceededError,
    Subgroup,
    UnknownKindError,
    build_group,
    closure_mask,
    make_homomorphism,
    mask_of,
    right_generators,
    split_top_level,
    verify_group_axioms,
)
from topogroups.report import ValidationFailure
from topogroups.suites import DEFAULT_CATALOG, IDENTITY_PRODUCTS, TYCHONOFF_PRODUCTS
from topogroups.lattice import automorphisms
from topogroups.products import direct_product
from oracles import (
    LADDER_GROUPS,
    WIDE_AND_LADDER_GROUPS,
    associativity_failure_by_scan,
    census_descriptors,
    dihedral_table_by_formula,
    element_orders_by_powers,
    group_axioms_failure_by_scan,
    homomorphism_by_scan,
    permutation_table_by_compose,
    quotient_group,
    right_generators_by_restart,
    subgroup_group,
)

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
            assert g.table[i][j] == (i + j) % 4


def test_sym3_order_profile_matches_permutation_oracle():
    g = build_group("sym:3")
    assert g.order == 6
    assert _count_orders(g) == _sym3_order_counts() == {1: 1, 2: 3, 3: 2}


def test_verify_axioms_pass_and_fail_witness():
    g = build_group("cyclic:4")
    assert verify_group_axioms(g.table) is None
    broken = [list(row) for row in g.table]
    broken[0], broken[1] = broken[1], broken[0]
    failure = verify_group_axioms(broken)
    assert failure is not None and failure.kind == "identity" and failure.witness is not None


def test_sym3_table_passes_axioms():
    assert verify_group_axioms(build_group("sym:3").table) is None


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
    assert q8.name(q8.table[2][4]) == "k"
    assert q8.name(q8.table[4][2]) == "-k"


def test_dihedral_reflection_relations():
    d4 = build_group("dihedral:4")
    assert d4.order == 8
    s = 4  # id of the base reflection
    r = 1
    assert d4.element_order(s) == 2
    assert d4.element_order(r) == 4
    # s r s^-1 = r^-1
    assert d4.conjugate(s, r) == d4.inverse[r]


def test_subgroup_generated_examples():
    z4 = build_group("cyclic:4")
    assert closure_mask(z4, []) == 1
    assert closure_mask(z4, [2]) == mask_of((0, 2))
    s3 = build_group("sym:3")
    transpositions = [x for x in s3.elements() if s3.element_order(x) == 2]
    assert closure_mask(s3, transpositions[:2]) == s3.full_mask


@given(st.sampled_from(SMALL_DESCRIPTORS), st.data())
def test_subgroup_generated_idempotent(desc, data):
    g = build_group(desc)
    ids = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    mask = closure_mask(g, ids)
    assert closure_mask(g, mask) == mask


@given(st.sampled_from(SMALL_DESCRIPTORS), st.data())
def test_element_order_divides_group_order(desc, data):
    g = build_group(desc)
    x = data.draw(st.integers(0, g.order - 1))
    assert g.order % g.element_order(x) == 0


def test_make_homomorphism_identity_and_sign():
    s3 = build_group("sym:3")
    ident = make_homomorphism(s3, s3, tuple(range(6)))
    assert ident.mapping == tuple(range(6))
    z2 = build_group("cyclic:2")
    # sign: even permutations are e, the two 3-cycles
    even = {x for x in s3.elements() if s3.element_order(x) in (1, 3)}
    sign = make_homomorphism(s3, z2, tuple(0 if x in even else 1 for x in s3.elements()))
    assert sign.fibers[0] == mask_of(even)


def test_make_homomorphism_rejects_with_witness():
    s3 = build_group("sym:3")
    z2 = build_group("cyclic:2")
    # send everything except the identity to 1: not multiplicative
    bad = tuple(0 if x == 0 else 1 for x in s3.elements())
    with pytest.raises(NotAHomomorphismError) as exc:
        make_homomorphism(s3, z2, bad)
    x, y = exc.value.witness
    assert bad[s3.table[x][y]] != (bad[x] + bad[y]) % 2


def _homomorphism_outcome(make, source, target, mapping):
    """The mapping made, or the witness pair raised."""
    try:
        return make(source, target, mapping).mapping
    except NotAHomomorphismError as exc:
        return exc.witness


def _homomorphism_cases():
    """(source, target, mapping): every catalog projection, every automorphism, each with one value moved."""
    cases = []
    for descs in IDENTITY_PRODUCTS:
        p = direct_product([build_group(d) for d in descs])
        cases += [(p.group, proj.target, proj.mapping) for proj in p.projections]
    for desc in SMALL_DESCRIPTORS:
        g = build_group(desc)
        cases += [(g, g, phi.mapping) for phi in automorphisms(g)]
    moved = []
    for source, target, mapping in cases:
        x = len(mapping) // 2
        moved.append((source, target, mapping[:x] + ((mapping[x] + 1) % target.order,) + mapping[x + 1 :]))
    return cases + moved


def test_generator_check_matches_the_pairwise_scan_on_homomorphisms_and_moved_maps():
    outcomes = {"made": 0, "raised": 0}
    for source, target, mapping in _homomorphism_cases():
        got = _homomorphism_outcome(make_homomorphism, source, target, mapping)
        assert got == _homomorphism_outcome(homomorphism_by_scan, source, target, mapping)
        outcomes["made" if got == mapping else "raised"] += 1
    assert outcomes["made"] and outcomes["raised"]


@given(st.sampled_from(SMALL_DESCRIPTORS + ("cyclic:2",)), st.sampled_from(("cyclic:2", "cyclic:3", "sym:3")), st.data())
def test_generator_check_matches_the_pairwise_scan_on_random_maps(source_desc, target_desc, data):
    source, target = build_group(source_desc), build_group(target_desc)
    mapping = tuple(data.draw(st.lists(st.integers(0, target.order - 1), min_size=source.order, max_size=source.order)))
    got = _homomorphism_outcome(make_homomorphism, source, target, mapping)
    assert got == _homomorphism_outcome(homomorphism_by_scan, source, target, mapping)


def test_an_order_1_source_must_go_to_the_identity():
    trivial, z2 = build_group("cyclic:1"), build_group("cyclic:2")
    assert make_homomorphism(trivial, z2, (0,)).mapping == (0,)
    with pytest.raises(NotAHomomorphismError) as exc:
        make_homomorphism(trivial, z2, (1,))
    assert exc.value.witness == (0, 0)
    assert _homomorphism_outcome(homomorphism_by_scan, trivial, z2, (1,)) == (0, 0)


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
        assert g.inverse[a] in sub
        for b in sub.members:
            assert g.table[a][b] in sub


def test_subgroup_group_reindexes_with_identity_first():
    s3 = build_group("sym:3")
    a3_mask = closure_mask(s3, [3])
    sub, embed = subgroup_group(s3, a3_mask)
    assert sub.order == 3
    assert embed.mapping[0] == 0
    assert verify_group_axioms(sub.table) is None


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


# every abelian: and product(...) group that the catalog, the benchmark
# workloads and the product suites build
PRODUCT_TABLE_GROUPS = tuple(
    dict.fromkeys(
        [d for d in DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS if d.startswith(("abelian:", "product("))]
        + ["product(" + ",".join(descs) + ")" for descs in TYCHONOFF_PRODUCTS + IDENTITY_PRODUCTS]
    )
)


@pytest.mark.parametrize("desc", PRODUCT_TABLE_GROUPS)
def test_product_tables_multiply_componentwise(desc):
    group = build_group(desc)
    if desc.startswith("abelian:"):
        factors = [build_group(f"cyclic:{n}") for n in desc[len("abelian:") :].split("x")]
    else:
        factors = [build_group(d) for d in split_top_level(desc[len("product(") : -1])]
    # the digit tuples in mixed radix order, first factor most significant; an id is its tuple's position
    digits = list(iter_product(*(range(f.order) for f in factors)))
    ids = {a: x for x, a in enumerate(digits)}
    for x, a in enumerate(digits):
        want = [ids[tuple(f.table[i][j] for f, i, j in zip(factors, a, b))] for b in digits]
        assert list(group.table[x]) == want
    assert group.element_names == tuple("(" + ",".join(f.name(c) for f, c in zip(factors, a)) + ")" for a in digits)


def test_product_nesting_is_capped_before_recursion():
    def nested(depth):
        return "product(" * depth + "cyclic:2" + ")" * depth

    assert build_group(nested(PRODUCT_NESTING_CAP)).order == 2
    with pytest.raises(UnknownKindError, match=f"nested deeper than {PRODUCT_NESTING_CAP}"):
        build_group(nested(PRODUCT_NESTING_CAP + 1))


def test_every_catalog_group_passes_axioms():
    from topogroups.suites import DEFAULT_CATALOG

    for desc in DEFAULT_CATALOG:
        assert verify_group_axioms(build_group(desc).table) is None


@pytest.mark.parametrize("desc", WIDE_AND_LADDER_GROUPS)
def test_every_wide_and_ladder_group_passes_axioms(desc):
    table = build_group(desc).table
    assert verify_group_axioms(table) is None and associativity_failure_by_scan(table) is None


@pytest.mark.parametrize("desc", LADDER_GROUPS)
def test_light_test_needs_at_most_log2_n_generators(desc):
    group = build_group(desc)
    gens = right_generators(group.table)
    assert closure_mask(group, gens) == group.full_mask
    assert len(gens) <= (group.order - 1).bit_length()


def test_census_generators_and_orders_match_the_restarted_walk_and_the_powers():
    # right_generators takes each orbit from the closure walk, and element_order
    # reads the closure of <x>; the old walks agree on every census table
    for desc in census_descriptors():
        group = build_group(desc)
        assert right_generators(group.table) == right_generators_by_restart(group.table), desc
        assert tuple(map(group.element_order, group.elements())) == element_orders_by_powers(group), desc


def _swapped(desc, *swaps):
    """A group table with two entries of a row swapped, per (row, column, column).

    No swapped entry is the identity, so the identity and every two-sided
    inverse stay; associativity breaks.
    """
    table = [list(r) for r in build_group(desc).table]
    for row, c1, c2 in swaps:
        assert 0 not in (table[row][c1], table[row][c2]) and 0 not in (row, c1, c2)
        table[row][c1], table[row][c2] = table[row][c2], table[row][c1]
    return table


# (group, swaps) -> the first failing (a, b, c)
NON_ASSOCIATIVE_TABLES = {
    ("cyclic:5", ((3, 1, 3),)): (1, 2, 1),
    ("cyclic:5", ((1, 2, 3),)): (1, 1, 1),
    ("sym:3", ((3, 1, 2),)): (1, 3, 1),
    ("sym:3", ((2, 3, 4), (3, 2, 5))): (1, 2, 3),
    ("quaternion:8", ((6, 1, 2),)): (1, 6, 1),
    ("abelian:2x4", ((3, 2, 3),)): (1, 2, 2),
}


@pytest.mark.parametrize("case", list(NON_ASSOCIATIVE_TABLES))
def test_non_associative_table_gives_the_scan_witness(case):
    desc, swaps = case
    table = _swapped(desc, *swaps)
    failure = verify_group_axioms(table)
    assert failure is not None and failure.kind == "associativity"
    assert failure.witness == associativity_failure_by_scan(table) == NON_ASSOCIATIVE_TABLES[case]
    assert failure == group_axioms_failure_by_scan(table)


def test_a_non_associative_table_can_fail_first_at_a_non_generator():
    # the generator check finds that the table is not associative; the
    # witness comes from the full scan, whose first b need not be a generator
    misses = [
        (desc, swaps)
        for (desc, swaps), (_, b, _) in NON_ASSOCIATIVE_TABLES.items()
        if b not in right_generators(_swapped(desc, *swaps))
    ]
    assert ("cyclic:5", ((3, 1, 3),)) in misses and ("sym:3", ((3, 1, 2),)) in misses


@pytest.mark.parametrize("case", list(NON_ASSOCIATIVE_TABLES))
def test_generators_of_a_non_associative_table_match_the_restarted_walk(case):
    desc, swaps = case
    table = _swapped(desc, *swaps)
    assert right_generators(table) == right_generators_by_restart(table)


def test_a_table_associative_at_its_first_generator_fails_at_its_second():
    table = _swapped("sym:3", (2, 3, 4), (3, 2, 5))
    assert right_generators(table) == [1, 2]
    assert all(table[table[a][1]][c] == table[a][table[1][c]] for a in range(6) for c in range(6))
    assert verify_group_axioms(table).witness == (1, 2, 3)


@given(
    desc=st.sampled_from(("cyclic:5", "cyclic:6", "sym:3", "quaternion:8", "abelian:2x4", "dihedral:4")),
    data=st.data(),
)
def test_swapped_tables_match_the_associativity_scan(desc, data):
    group = build_group(desc)
    row = data.draw(st.integers(1, group.order - 1))
    cols = [c for c in range(1, group.order) if group.table[row][c] != 0]
    c1, c2 = data.draw(st.lists(st.sampled_from(cols), min_size=2, max_size=2, unique=True))
    table = _swapped(desc, (row, c1, c2))
    witness = associativity_failure_by_scan(table)
    want = None if witness is None else ValidationFailure("associativity", witness, "")
    assert verify_group_axioms(table) == want


def _malformed(desc, cells=(), rows=()):
    """A group table with each (row, column, value) of cells written and each (row, new row) of rows put in."""
    table = [list(r) for r in build_group(desc).table]
    for i, j, v in cells:
        table[i][j] = v
    for i, row in rows:
        table[i] = row
    return table


# name -> (table, the kind of its first failure, or None when the scan accepts it)
MALFORMED_TABLES = {
    "a float entry": (_malformed("sym:3", cells=((2, 3, 4.0),)), "range"),
    "a float identity entry": (_malformed("cyclic:3", cells=((0, 0, 0.0),)), "range"),
    "bool entries": (_malformed("cyclic:3", cells=((0, 1, True), (1, 2, False))), None),
    "a negative entry": (_malformed("cyclic:5", cells=((1, 2, -1),)), "range"),
    "an out-of-range entry": (_malformed("cyclic:5", cells=((1, 2, 5),)), "range"),
    "a short row": (_malformed("sym:3", rows=((3, [3, 4, 5, 0, 1]),)), "shape"),
    "a long row": (_malformed("cyclic:3", rows=((2, [2, 0, 1, 2]),)), "shape"),
    "a broken left identity": (_malformed("cyclic:4", cells=((0, 2, 3),)), "identity"),
    "a broken right identity": (_malformed("cyclic:4", cells=((3, 0, 2),)), "identity"),
    # the first zero of row 1 is no inverse, the second is
    "two zeros in one row, the second an inverse": (_malformed("cyclic:4", cells=((1, 2, 0),)), "associativity"),
    "two zeros in one row, neither an inverse": (
        _malformed("cyclic:5", cells=((1, 2, 0), (1, 3, 0), (1, 4, 3))),
        "inverse",
    ),
    "a row without a zero": (_malformed("cyclic:5", cells=((2, 3, 2),)), "inverse"),
}


@pytest.mark.parametrize("case", list(MALFORMED_TABLES))
@pytest.mark.parametrize("rows", [list, tuple])
def test_malformed_tables_give_the_scan_failure(case, rows):
    table, kind = MALFORMED_TABLES[case]
    table = [rows(r) for r in table]
    want = group_axioms_failure_by_scan(table)
    assert (want and want.kind) == kind
    assert verify_group_axioms(table) == want


@given(
    desc=st.sampled_from(("cyclic:1", "cyclic:5", "abelian:2x2", "sym:3", "quaternion:8", "dihedral:4")),
    data=st.data(),
)
def test_overwritten_cells_give_the_scan_failure(desc, data):
    table = [list(r) for r in build_group(desc).table]
    n = len(table)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[i][j] = data.draw(st.one_of(st.integers(-1, n), st.booleans(), st.floats(0, n - 1)))
    assert verify_group_axioms(table) == group_axioms_failure_by_scan(table)


@pytest.mark.parametrize("n", range(1, 33))
def test_dihedral_tables_match_the_product_formula(n):
    assert _dihedral_table(n)[0] == dihedral_table_by_formula(n)


@pytest.mark.parametrize("degree", range(1, 5))
@pytest.mark.parametrize("even_only", [False, True])
def test_permutation_tables_match_composed_products(degree, even_only):
    assert _permutation_table(degree, even_only)[0] == permutation_table_by_compose(degree, even_only)
