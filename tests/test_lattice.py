"""Lattice enumeration against the brute-force oracle, and the subgroup algebra."""

import ast
import functools
import inspect
import itertools
import math
import operator
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import topogroups
from topogroups import filters, groups, lattice, products, suites, toposystems
from topogroups.groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    OrderCapExceededError,
    TopoGroupError,
    bits_of,
    build_group,
    closure_mask,
    make_homomorphism,
    mask_of,
)
from topogroups.lattice import (
    AUTOMORPHISM_CAP,
    UnsupportedVarietyError,
    automorphisms,
    brute_force_subgroup_masks,
    canonical_order,
    enumerate_subgroups,
    is_characteristic,
    minimal_cover,
    verbal_residual,
)
from topogroups.products import direct_product
from topogroups.suites import DEFAULT_CATALOG
from topogroups.toposystems import build_toposys
from oracles import (
    LADDER_GROUPS,
    WIDE_AND_LADDER_GROUPS,
    WIDE_GROUPS,
    automorphisms_by_backtracking,
    census_descriptors,
    commutator_mask_by_closure,
    commutator_row_by_scan,
    conjugate_mask,
    core_mask_by_conjugation,
    is_characteristic_by_images,
    membership_order,
    normalizer_by_scan,
    subgroup_generators_by_coset_lists,
    subgroup_masks_by_cyclic_extension,
    subgroup_masks_by_subset_scan,
    thk_bits_by_scan,
)

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
        grown = {group.table[a][b] for a in members for b in members} | members
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


# the catalog, wide and ladder groups, and the order-64 group; the cyclic
# indices are checked against closure_mask, as plain cyclic extension builds them
DIFFERENTIAL_GROUPS = DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS + ("abelian:2x2x2x2x2x2",)


@pytest.mark.parametrize("desc", DIFFERENTIAL_GROUPS)
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


# every catalog group the size-filtered subset scan reaches, and more of order 16
SUBSET_SCAN_GROUPS = tuple(d for d in DEFAULT_CATALOG if build_group(d).order <= 16) + (
    "abelian:2x2x2x2",
    "abelian:4x4",
    "dihedral:8",
    "abelian:2x2x4",
    "product(quaternion:8,cyclic:2)",
)


@pytest.mark.parametrize("desc", SUBSET_SCAN_GROUPS)
def test_pruned_subset_walk_matches_the_subset_scan(desc):
    group = build_group(desc)
    assert brute_force_subgroup_masks(group) == subgroup_masks_by_subset_scan(group)


def test_brute_force_matches_enumeration_past_order_16():
    start = time.monotonic()
    for desc in WIDE_AND_LADDER_GROUPS + ("product(dihedral:4,abelian:2x2x2)", "abelian:2x2x2x2x2x2"):
        group = build_group(desc)
        assert set(brute_force_subgroup_masks(group)) == {s.mask for s in enumerate_subgroups(group).subgroups}, desc
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"{elapsed:.1f}s over the 5s budget"


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _gaussian_binomial(n, k, p):
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num, den = num * (p ** (n - i) - 1), den * (p ** (i + 1) - 1)
    return num // den


def _gaussian_binomial_sum(d, p):
    """The number of subgroups of the elementary abelian group of order p^d: the sum over k of [d k]_p."""
    return sum(_gaussian_binomial(d, k, p) for k in range(d + 1))


def _conjugate_partition(parts, length):
    """λ'_1..λ'_length: λ'_i is the number of parts of λ that are at least i."""
    return [sum(part >= i for part in parts) for i in range(1, length + 1)]


def _abelian_p_group_subgroup_count(lam, p):
    """Subgroups of the abelian p-group of type λ (Birkhoff 1935, Delsarte 1948; Butler, Mem. AMS 539, 1994).

    With λ', μ' the conjugate partitions, the subgroups of type μ ⊆ λ number the product over i of
    p^(μ'_{i+1}(λ'_i − μ'_i)) · [λ'_i − μ'_{i+1} choose μ'_i − μ'_{i+1}]_p.
    """
    lam, total = sorted(lam, reverse=True), 0
    length = lam[0] + 1
    lc = _conjugate_partition(lam, length)
    for mu in itertools.product(*(range(part + 1) for part in lam)):
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue
        mc, term = _conjugate_partition(mu, length), 1
        for i in range(length - 1):
            term *= p ** (mc[i + 1] * (lc[i] - mc[i])) * _gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
        total += term
    return total


def _abelian_subgroup_count(factors):
    """Subgroups of the product of cyclic groups of these orders: one Birkhoff–Delsarte count per Sylow subgroup."""
    types: dict[int, list[int]] = {}
    for n in factors:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e:
                types.setdefault(p, []).append(e)
            p += 1
    return math.prod(_abelian_p_group_subgroup_count(lam, p) for p, lam in types.items())


def _closed_form_counts(desc):
    """(subgroups, normal subgroups) by closed form, or None for a descriptor without one."""
    kind, _, arg = desc.partition(":")
    if kind == "cyclic":
        n = int(arg)
        return len(_divisors(n)), len(_divisors(n))
    if kind == "dihedral":
        # the rotation subgroups, one per divisor, and the reflection-holding
        # ones, one per coset of a rotation subgroup; normal are the rotation
        # subgroups, the whole group and, for even n, the two of index 2
        n = int(arg)
        return len(_divisors(n)) + sum(_divisors(n)), len(_divisors(n)) + (3 if n % 2 == 0 else 1)
    if kind == "abelian":
        count = _abelian_subgroup_count(map(int, arg.split("x")))
        return count, count
    return None


def test_census_lattices_build_within_budget_and_match_closed_forms():
    # every descriptor up to the order cap gets its lattice and normal
    # subgroups; the budget is generous and may only be tightened
    census, elapsed, checked = census_descriptors(), 0.0, 0
    for desc in census:
        start = time.monotonic()
        lat = enumerate_subgroups.__wrapped__(build_group(desc))
        normal = lat.normal_bits
        elapsed += time.monotonic() - start
        masks = [s.mask for s in lat.subgroups]
        # the canonical order sorts as the tuples of the members
        assert masks == membership_order(masks), desc
        want = _closed_form_counts(desc)
        if want is not None:
            assert (len(lat), normal.bit_count()) == want, desc
            checked += 1
    # every cyclic, dihedral and abelian descriptor
    abelian = sum(d.startswith("abelian:") for d in census)
    assert len(census) == 395 and abelian == 134 and checked == 64 + 32 + abelian
    # the Birkhoff–Delsarte count agrees with the Gaussian binomials on elementary abelian groups
    assert _abelian_subgroup_count([2] * 6) == _gaussian_binomial_sum(6, 2) == 2825
    assert len(enumerate_subgroups(build_group("abelian:2x2x2x2x2"))) == _gaussian_binomial_sum(5, 2) == 374
    assert elapsed < 20, f"{elapsed:.1f}s over the 20s budget"


def test_census_class_tables_match_the_element_scans_within_budget():
    # every census group, abelian ones too, on a fresh lattice: the normalizers,
    # normal subgroups, normalized_by rows and cores of the class walk against the
    # scans; the budget may only be tightened
    start, groups, subgroups = time.monotonic(), 0, 0
    for desc in census_descriptors():
        group = build_group(desc)
        lat = enumerate_subgroups.__wrapped__(group)
        normalizers = tuple(normalizer_by_scan(lat, k) for k in range(len(lat)))
        assert lat.normalizers == normalizers, desc
        # rows[h] holds every k with h inside N(k), ORed in once per distinct N(k)
        by_normalizer, rows = {}, [0] * len(lat)
        for k, n in enumerate(normalizers):
            by_normalizer[n] = by_normalizer.get(n, 0) | 1 << k
        for n, ks in by_normalizer.items():
            for h in bits_of(lat.below[n]):
                rows[h] |= ks
        assert lat.normalized_by == tuple(rows), desc
        assert lat.normal_bits == rows[lat.top_index], desc
        cores = [lat.mask(lat.core_index(k)) for k in range(len(lat))]
        assert cores == [core_mask_by_conjugation(lat, k) for k in range(len(lat))], desc
        groups, subgroups = groups + 1, subgroups + len(lat)
    assert (groups, subgroups) == (395, 19735)
    elapsed = time.monotonic() - start
    assert elapsed < 20, f"{elapsed:.1f}s over the 20s budget"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 64])
def test_canonical_order_sorts_any_input_order_as_the_member_tuples(n):
    masks = [m for m in range(1, 1 << n, max(1, (1 << n) // 300)) if m & 1]
    assert canonical_order(masks[::-1], n) == canonical_order(masks, n) == membership_order(masks)


@pytest.mark.parametrize("desc", DIFFERENTIAL_GROUPS)
def test_prime_steps_match_cyclic_extension(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    assert tuple(lat.mask(i) for i in range(len(lat))) == subgroup_masks_by_cyclic_extension(group)
    # and each subgroup has the generators of the prime steps that build coset lists
    assert dict(zip(map(lat.mask, range(len(lat))), lat.generators)) == subgroup_generators_by_coset_lists(group)


# the generators of h<x> are those of h outside <x>, then x; these are the
# tuples the normalizer, core, commutator and automorphism searches loop over
TOP_GENERATOR_COUNTS = {
    "dihedral:32": 2,
    "product(sym:4,cyclic:2)": 5,
    "abelian:2x2x2x2x2": 5,
    "product(abelian:2x2,sym:3)": 4,
    "abelian:2x2x2x3": 4,
    "abelian:2x2x4": 3,
}


@pytest.mark.parametrize("desc,count", TOP_GENERATOR_COUNTS.items())
def test_top_generator_counts_on_the_ladder(desc, count):
    lat = enumerate_subgroups(build_group(desc))
    assert len(lat.generators[lat.top_index]) == count


@pytest.mark.parametrize("desc", LADDER_GROUPS + ("abelian:2x2x2x2x2x2",))
def test_enumeration_makes_at_most_one_closure_per_element(monkeypatch, desc):
    # one closure per element, for its cyclic subgroup, while a fresh group builds
    # its masks and lattice; the prime steps read cosets off the table, so one
    # closure per (subgroup, cyclic subgroup) pair would fail here
    cached = build_group(desc)
    group = FiniteGroup(cached.table, cached.descriptor, cached.element_names)
    assert group is not cached and "cyclic_masks" not in vars(group)
    calls = []

    def counting(*args):
        calls.append(args)
        return closure_mask(*args)

    monkeypatch.setattr(groups, "closure_mask", counting)
    lat = enumerate_subgroups.__wrapped__(group)
    assert 0 < len(calls) <= group.order
    assert group.cyclic_masks == cached.cyclic_masks
    assert len(lat) == len(enumerate_subgroups(cached))


def test_non_solvable_group_is_refused_by_name():
    # A5 is the smallest group that is not solvable; the grammar caps alt at
    # degree 4, so it is built by hand
    table, names = groups._permutation_table(5, even_only=True)
    a5 = FiniteGroup(table, "a5-by-hand", names)
    with pytest.raises(TopoGroupError, match="not solvable"):
        enumerate_subgroups(a5)


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
    return lat.index_of(closure_mask(lat.group, elements))


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


# the core is the meet of the class walk, which reaches each conjugate by top-generator steps;
# on sym:4 and the products some conjugates lie several steps from the class root
@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + ("sym:4", "product(sym:3,sym:3)", "product(sym:4,cyclic:2)"))
def test_core_fixpoint_matches_intersection_of_all_conjugates(desc):
    lat = enumerate_subgroups(build_group(desc))
    group = lat.group
    for i in range(len(lat)):
        acc = lat.mask(i)
        for g in group.elements():
            acc &= conjugate_mask(group, lat.mask(i), g)
        assert lat.mask(lat.core_index(i)) == acc


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS)
def test_core_index_matches_the_conjugation_oracle(desc):
    lat = enumerate_subgroups(build_group(desc))
    for i in range(len(lat)):
        assert lat.mask(lat.core_index(i)) == core_mask_by_conjugation(lat, i)


def test_normalizer_examples():
    g, lat = _s3()
    assert lat.normalizer_index(lat.top_index) == lat.top_index
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
            table, inverse = group.table, group.inverse
            pairs = [
                table[table[a][b]][table[inverse[a]][inverse[b]]]
                for a in bits_of(lat.mask(i))
                for b in bits_of(lat.mask(j))
            ]
            assert lat.mask(lat.commutator_index(i, j)) == closure_mask(group, pairs)


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_GROUPS)
def test_commutator_index_matches_the_closure_oracle_on_every_pair(desc):
    lat = enumerate_subgroups(build_group(desc))
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert lat.mask(lat.commutator_index(i, j)) == commutator_mask_by_closure(lat, i, j)


@pytest.mark.parametrize(
    "desc", DEFAULT_CATALOG + WIDE_GROUPS + ("dihedral:32", "product(sym:4,cyclic:2)", "product(abelian:2x2,sym:3)")
)
def test_commutators_inside_matches_the_scan_on_every_nested_pair(desc):
    lat = enumerate_subgroups(build_group(desc))
    for k in range(len(lat)):
        for h in bits_of(lat.below[k]):
            assert lat.commutators_inside(h, k) == thk_bits_by_scan(lat, h, k)


class _CountingRows(dict):
    def __init__(self):
        super().__init__()
        self.built = []

    def __setitem__(self, k, row):
        self.built.append(k)
        super().__setitem__(k, row)


def test_a_thk_sweep_builds_one_row_per_k_from_element_commutators(monkeypatch):
    # a fresh lattice, so no row and no normalizer is cached
    lat = enumerate_subgroups.__wrapped__(build_group("product(sym:4,cyclic:2)"))
    lat._commutator_rows = rows = _CountingRows()
    calls = []
    for name in ("commutator_index", "normalizer_index"):
        monkeypatch.setattr(lattice.SubgroupLattice, name, lambda self, *a, name=name: calls.append(name))
    assert suites.check_family(lat, "thk", {}) == ("pass", None)
    assert len(lat) == 98 and sorted(rows.built) == list(range(len(lat)))
    assert calls == []


def test_the_uncapped_thk_sweep_of_an_elementary_abelian_group_has_one_bucket(monkeypatch):
    monkeypatch.setattr(suites, "FAMILY_SWEEP_CAP", 1000)
    lat = enumerate_subgroups.__wrapped__(build_group("abelian:2x2x2x2x2"))
    assert suites.check_family(lat, "thk", {}) == ("pass", None)
    # every commutator is the identity, so every element falls in bucket 0
    assert len(lat) == 374 and lat._commutator_rows == {k: {0: lat.above[0]} for k in range(len(lat))}


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS)
def test_centre_cosets_are_the_cosets_of_the_elements_commuting_with_all(desc):
    group = build_group(desc)
    table, lat = group.table, enumerate_subgroups(group)
    centre = [z for z in group.elements() if all(table[z][g] == table[g][z] for g in group.elements())]
    least, reach = lat._centre_cosets
    assert least == [min(table[x][z] for z in centre) for x in group.elements()]
    for x in group.elements():
        coset = [table[x][z] for z in centre]
        union = functools.reduce(operator.or_, (lat.containing[y] for y in coset))
        assert reach[x] == (union if x == min(coset) else 0)


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS)
def test_commutator_rows_over_the_centre_quotient_match_the_scan_over_g(desc):
    lat = enumerate_subgroups(build_group(desc))
    for k in range(len(lat)):
        assert lat._commutator_row(k) == commutator_row_by_scan(lat, k)


@pytest.mark.parametrize("desc", LADDER_GROUPS + ("abelian:2x2x2x2x2x2",))
def test_commutator_index_with_the_whole_group_matches_the_closure_oracle(desc):
    # the pairs (i, top) are the ones the thk:#0:#top cell reads
    lat = enumerate_subgroups(build_group(desc))
    top = lat.top_index
    for i in range(len(lat)):
        assert lat.mask(lat.commutator_index(i, top)) == commutator_mask_by_closure(lat, i, top)


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS)
def test_normalizer_index_matches_the_element_scan(desc):
    lat = enumerate_subgroups.__wrapped__(build_group(desc))
    for i in range(len(lat)):
        assert lat.normalizer_index(i) == normalizer_by_scan(lat, i)


def test_normal_bits_conjugate_only_the_generators(monkeypatch):
    # every subgroup of an abelian group is normal, and with no conjugation row
    # every subgroup is its own class, so no class is walked
    lat = enumerate_subgroups.__wrapped__(build_group("abelian:2x2x2x2x2"))
    real, calls = FiniteGroup.conjugate, []

    def counting(self, g, x):
        calls.append((g, x))
        return real(self, g, x)

    monkeypatch.setattr(FiniteGroup, "conjugate", counting)
    assert lat.normal_bits == (1 << len(lat)) - 1
    # every top generator is central, so no conjugation row is built and nothing is conjugated
    assert lat._conjugation_rows == {} and calls == []
    # every core is the subgroup itself
    assert [lat.core_index(i) for i in range(len(lat))] == list(range(len(lat)))


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS + ("product(dihedral:4,dihedral:4)",))
def test_normalized_by_matches_the_normalizer_scan(desc):
    lat = enumerate_subgroups(build_group(desc))
    normalizers = [normalizer_by_scan(lat, k) for k in range(len(lat))]
    assert lat.normalizers == tuple(normalizers)
    for h in range(len(lat)):
        want = mask_of(k for k, n in enumerate(normalizers) if lat.leq(h, n))
        assert lat.normalized_by[h] == want
    assert lat.normal_bits == lat.normalized_by[lat.top_index]


def test_a_conj_sweep_computes_each_normalizer_once(monkeypatch):
    # a fresh lattice, so no normalizer table is cached
    lat = enumerate_subgroups.__wrapped__(build_group("dihedral:24"))
    real, calls = lattice.SubgroupLattice.normalizer_index, []

    def counting(self, i):
        calls.append(i)
        return real(self, i)

    monkeypatch.setattr(lattice.SubgroupLattice, "normalizer_index", counting)
    conjugated = []
    real_conjugate = lattice.SubgroupLattice.conjugate_index

    def counting_conjugate(self, g, k):
        conjugated.append(k)
        return real_conjugate(self, g, k)

    monkeypatch.setattr(lattice.SubgroupLattice, "conjugate_index", counting_conjugate)
    assert suites.check_family(lat, "conj", {}) == ("pass", None)
    # one call per subgroup, in index order; the class walk runs once, and each
    # point other than the least index of its class, the root of its walk,
    # conjugates the root's normalizer once
    classes = {
        frozenset(lat.index_of(conjugate_mask(lat.group, lat.mask(k), g)) for g in lat.group.elements())
        for k in range(len(lat))
    }
    assert calls == list(range(len(lat)))
    roots = {min(c) for c in classes}
    assert len(conjugated) == len(lat) - len(roots)
    assert (len(calls), len(conjugated)) == (68, 46)


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_normalized_by_matches_conjugation_by_every_element(desc):
    lat = enumerate_subgroups(build_group(desc))
    for h in range(len(lat)):
        want = mask_of(
            k
            for k in range(len(lat))
            if all(conjugate_mask(lat.group, lat.mask(k), g) == lat.mask(k) for g in bits_of(lat.mask(h)))
        )
        assert lat.normalized_by[h] == want


def test_families_on_a_built_lattice_make_no_closure(monkeypatch):
    # commutators, normalizers, verbal residuals and gen{..} literals are read
    # off the lattice's bitsets; closure runs only while the lattice is built
    built = [enumerate_subgroups.__wrapped__(build_group(d)) for d in DEFAULT_CATALOG + WIDE_GROUPS]
    calls = []

    def counting(*args):
        calls.append(args)
        return closure_mask(*args)

    for module in (groups, lattice, toposystems, filters, products, suites):
        if hasattr(module, "closure_mask"):
            monkeypatch.setattr(module, "closure_mask", counting)
    for lat in built:
        last = lat.group.order - 1
        for desc in (
            f"thk:#0:#{lat.top_index}",
            "variety:abelian",
            "variety:exponent-2",
            "conj:gen{1}",
            f"principal:gen{{1,{last}}}",
        ):
            build_toposys(lat, desc)
    assert calls == []


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
    # |GL(4, 2)|, the largest automorphism group under the cap
    assert len(automorphisms(build_group("abelian:2x2x2x2"))) == 20160


AUTOMORPHISM_GROUPS = tuple(
    d for d in ("cyclic:1",) + DEFAULT_CATALOG + WIDE_AND_LADDER_GROUPS if build_group(d).order <= AUTOMORPHISM_CAP
)


@pytest.mark.parametrize("desc", AUTOMORPHISM_GROUPS)
def test_automorphisms_match_the_backtracking_oracle(desc):
    group = build_group(desc)
    auts = automorphisms(group)
    assert [phi.mapping for phi in auts] == [phi.mapping for phi in automorphisms_by_backtracking(group)]
    for phi in auts:
        made = make_homomorphism(group, group, phi.mapping)
        assert (made.source, made.target, made.mapping) == (phi.source, phi.target, phi.mapping)
        assert sorted(phi.mapping) == list(range(group.order))


@pytest.mark.parametrize("desc", AUTOMORPHISM_GROUPS)
def test_sims_levels_fix_the_earlier_generators_and_count_aut(desc):
    group = build_group(desc)
    lat = enumerate_subgroups(group)
    gens = lat.generators[lat.top_index]
    levels = lattice._automorphism_levels(group)
    assert len(levels) == len(gens)
    size = 1
    for d, (new, orbit) in enumerate(levels):
        for phi in new:
            assert all(phi[g] == g for g in gens[:d])
        # the transversal map of each orbit point fixes gens[:d] and sends gens[d] there
        for point, t in orbit.items():
            assert all(t[g] == g for g in gens[:d]) and t[gens[d]] == point
        size *= len(orbit)
    assert size == len(automorphisms(group))


# the search over every branch of the generator-image tree closed 801, 457 and
# 1473 nodes; closing every complete generator map a second time, as the
# backtracking oracle does, makes 1486, 848 and 1688 closures
@pytest.mark.parametrize(
    "desc,most", [("abelian:2x2x2x3", 28), ("abelian:2x2x4", 28), ("product(abelian:2x2,sym:3)", 74)]
)
def test_automorphism_search_closes_each_node_once(monkeypatch, desc, most):
    group = build_group(desc)
    want = [phi.mapping for phi in automorphisms(group)]
    real, calls = lattice._close_generator_map, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "_close_generator_map", counting)
    assert [phi.mapping for phi in automorphisms.__wrapped__(group)] == want
    assert 0 < len(calls) <= most


def test_automorphisms_need_no_pairwise_homomorphism_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("make_homomorphism called")

    for module in (groups, lattice):
        monkeypatch.setattr(module, "make_homomorphism", refuse, raising=False)
    for desc in ("cyclic:1", "sym:3", "abelian:2x2x2"):
        group = build_group(desc)
        assert len(automorphisms.__wrapped__(group)) == len(automorphisms(group))


def test_automorphism_set_is_a_group():
    auts = automorphisms(build_group("sym:3"))
    mappings = {a.mapping for a in auts}
    assert tuple(range(6)) in mappings
    for a in auts:
        assert sorted(a.mapping) == list(range(6))
        for b in auts:
            assert tuple(a(v) for v in b.mapping) in mappings
        inverse = tuple(a.mapping.index(x) for x in range(6))
        assert inverse in mappings


def test_characteristic_examples():
    v4 = build_group("abelian:2x2")
    lat = enumerate_subgroups(v4)
    assert is_characteristic(lat, 0)
    assert is_characteristic(lat, lat.top_index)
    for i in range(1, lat.top_index):
        assert not is_characteristic(lat, i)


# the default catalog and the wide and ladder groups inside the automorphism cap
@pytest.mark.parametrize(
    "desc", DEFAULT_CATALOG + tuple(d for d in WIDE_AND_LADDER_GROUPS if build_group(d).order <= AUTOMORPHISM_CAP)
)
def test_characteristic_matches_image_definition(desc):
    lat = enumerate_subgroups(build_group(desc))
    for i in range(len(lat)):
        assert is_characteristic(lat, i) == is_characteristic_by_images(lat, i)


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + WIDE_GROUPS)
def test_disjoint_and_leq_match_masks(desc):
    lat = enumerate_subgroups(build_group(desc))
    for k in range(len(lat)):
        for b in range(len(lat)):
            meet = lat.mask(k) & lat.mask(b)
            assert bool(lat.disjoint[k] >> b & 1) == (meet == 1)
            assert lat.leq(k, b) == (meet == lat.mask(k))


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + WIDE_GROUPS)
def test_normal_bits_match_is_normal_index_and_conjugation(desc):
    lat = enumerate_subgroups(build_group(desc))
    assert lat.normal_bits is lat.normal_bits
    for i in range(len(lat)):
        conjugation_stable = all(conjugate_mask(lat.group, lat.mask(i), g) == lat.mask(i) for g in lat.group.elements())
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
        derived = verbal_residual(lat, "abelian")
        for i in bits_of(lat.normal_bits):
            # G/N abelian iff every commutator [a,b] = ab(ba)^-1 lies in N
            abelian = all(
                lat.mask(i) >> g.table[g.table[a][b]][g.inverse[g.table[b][a]]] & 1
                for a in g.elements()
                for b in g.elements()
            )
            assert abelian == lat.leq(derived, i)


def test_minimal_cover_examples():
    g, lat = _s3()
    one = lat.mask(0)
    got = minimal_cover(one, [lat.mask(1)])
    assert got == ((0,), True)
    # the four maximal cyclic subgroups cover S3 minimally
    cyclics = [lat.mask(i) for i in (1, 2, 3, 4)]
    positions, exact = minimal_cover(lat.mask(lat.top_index), cyclics + [one])
    assert exact and len(positions) == 4 and 4 not in positions
    assert minimal_cover(lat.mask(4), [lat.mask(1)]) is None


def test_minimal_cover_greedy_past_limit():
    g, lat = _s3()
    family = [lat.mask(1), lat.mask(2), lat.mask(3), lat.mask(4)] + [lat.mask(0)] * 18
    positions, exact = minimal_cover(lat.mask(lat.top_index), family)
    assert not exact
    assert set(positions) >= {0, 1, 2, 3}


# --- one constructor and one cache per object --------------------------------


def test_constructors_take_no_cap():
    for fn in (build_group, enumerate_subgroups, automorphisms, is_characteristic, direct_product):
        assert "cap" not in inspect.signature(fn).parameters, fn.__name__


def _exports_no_runtime_code_uses(src: Path) -> set[str]:
    """Names ``__init__.py`` exports that no code in the package reads outside their own definitions.

    Reads are names in code, so a docstring does not count.  A name read
    only inside the definition of another such name is one too, so a class
    that only a test-only function builds is caught with that function.
    """
    init = ast.parse((src / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    statements = []  # (names a top-level statement defines, names its code reads)
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defines = {node.name}
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                defines = {t.id for t in targets if isinstance(t, ast.Name)}
            reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            statements.append((defines, reads - defines))
    unused: set[str] = set()
    while True:
        read = set().union(*(reads for defines, reads in statements if not defines & unused))
        if exported - read == unused:
            return unused
        unused = exported - read


def test_every_exported_name_is_used_by_the_runtime():
    assert _exports_no_runtime_code_uses(Path(topogroups.__file__).parent) == set()


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


def _class_members(trees) -> set[tuple[str, str]]:
    """(class, member) for the annotated fields, methods and properties of every class body, dunders aside."""
    members = set()
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.add((cls.name, item.target.id))
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    members.add((cls.name, item.name))
    return members


def _package_trees():
    return [ast.parse(path.read_text()) for path in sorted(Path(topogroups.__file__).parent.glob("*.py"))]


def _class_members_no_runtime_code_reads(trees) -> set[str]:
    """``Class.member`` for each class member in the package that no code in the package reads.

    A member counts as read when some attribute read ``x.member`` anywhere in
    the package has its name.  The match is by name only, so a member that
    shares its name with an attribute read elsewhere still passes: a
    ``SubgroupFilter.notes`` field would, because ``TopoSystem.notes`` is
    read.  test_member_names_shared_by_classes_are_reviewed closes that gap.
    """
    read = {
        n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return {f"{cls}.{name}" for cls, name in _class_members(trees) if name not in read}


def test_every_class_member_is_read_by_the_runtime():
    assert _class_members_no_runtime_code_reads(_package_trees()) == set()


def test_member_names_shared_by_classes_are_reviewed():
    # The read check above matches by name, so it cannot tell these apart.
    # Each was checked by hand to be read on every class that has it;
    # TopoSystem.members is read by the benchmark's ladder workload and tracer.
    # A new shared name fails here until it is checked the same way.
    names = Counter(name for _, name in _class_members(_package_trees()))
    shared = {name for name, count in names.items() if count > 1}
    assert shared == {
        "failure",
        "group",
        "lattice",
        "mask",
        "member_bits",
        "member_indices",
        "members",
        "provenance",
        "witness",
    }


def test_only_the_system_verdict_and_quotients_run_the_verifier():
    # a member set's verdict is TopoSystem.failure; every other layer reads it
    callers = set()
    for tree in _package_trees():
        owner = {}
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            prefix = f"{scope.name}." if isinstance(scope, ast.ClassDef) else ""
            for fn in (n for n in scope.body if isinstance(n, ast.FunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), prefix + fn.name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "verify_toposys":
                callers.add(owner.get(n, "<module>"))
    assert callers == {"TopoSystem.failure", "quotient_toposys"}
