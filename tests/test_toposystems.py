"""Topo-system families, the interior/closure calculus, separation and covers."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from topogroups.groups import bits_of, build_group, mask_of, subgroup_generated
from topogroups.lattice import AUTOMORPHISM_CAP, NotNormalError, core, enumerate_subgroups
from topogroups.toposystems import (
    BadParameterError,
    build_toposys,
    closure_and_limits,
    family_members,
    find_finite_subcover,
    generate_toposys,
    induced_toposys,
    interior_boundary,
    is_hausdorff,
    is_star_open,
    is_topomorphism,
    quotient_toposys,
    resolve_subgroup_literal,
    star_topology_checks,
    t_closed_checks,
    verify_toposys,
)
from topogroups.groups import OrderCapExceededError, make_homomorphism
from topogroups.suites import DEFAULT_CATALOG, FAMILY_NAMES, family_instance_descriptors
from oracles import family_members_by_scan, quotient_lattice
from test_correspondence import WIDE_GROUPS
from test_lattice import ORACLE_DESCRIPTORS

CATALOG = (
    "cyclic:4",
    "cyclic:6",
    "abelian:2x2",
    "sym:3",
    "quaternion:8",
    "dihedral:4",
)

FAMILIES = ("discrete", "trivial", "cofinite", "normal", "characteristic", "variety:abelian")


def _lat(desc):
    return enumerate_subgroups(build_group(desc))


def _sys(desc, system):
    lat = _lat(desc)
    return lat, build_toposys(lat, system)


def test_family_values_on_catalog_examples():
    lat, tn = _sys("sym:3", "normal")
    assert tn.member_indices == (0, 4, 5)
    lat_v4, tc = _sys("abelian:2x2", "characteristic")
    assert tc.member_indices == (0, lat_v4.top_index)
    lat_q8, thk = _sys("quaternion:8", "thk:#0:#5")
    # center of Q8 is {1,-1}
    assert [lat_q8.subgroup(i).order for i in thk.member_indices] == [1, 2, 8]
    lat, conj = _sys("sym:3", "conj:gen{3}")
    assert conj.member_indices == (0, 4, 5)
    lat, var = _sys("sym:3", "variety:abelian")
    assert var.member_indices == (0, 4, 5)


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS + WIDE_GROUPS)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_bitsets_match_set_comprehensions(desc, family):
    lat = _lat(desc)
    for d in family_instance_descriptors(lat, family):
        if family == "characteristic" and lat.group.order > AUTOMORPHISM_CAP:
            for build in (family_members, family_members_by_scan):
                with pytest.raises(OrderCapExceededError):
                    build(lat, d)
            continue
        assert family_members(lat, d).members == family_members_by_scan(lat, d), d
    if family == "characteristic" and lat.group.order <= AUTOMORPHISM_CAP:
        assert family_members(lat, "characteristic").member_bits & ~lat.normal_bits == 0


def test_cofinite_is_discrete_on_finite_groups_with_note():
    lat, t = _sys("sym:3", "cofinite")
    assert t.members == frozenset(range(len(lat)))
    assert t.notes


def test_verify_examples():
    lat = _lat("sym:3")
    assert verify_toposys(lat, mask_of({0, lat.top_index})).passed
    assert verify_toposys(lat, mask_of(range(len(lat)))).passed
    report = verify_toposys(lat, mask_of({0, 1, 2, lat.top_index}))
    assert report.passed  # the join of the two transposition subgroups is present
    report = verify_toposys(lat, mask_of({0, 1, 2}))
    assert not report.passed


def test_verify_join_failure_witness():
    # on V4 the member set {1, <a>, <b>, V4} misses nothing, but dropping V4 breaks (a)
    lat = _lat("abelian:2x2")
    report = verify_toposys(lat, mask_of({0, 1, 2, lat.top_index}))
    assert report.passed
    bad = verify_toposys(lat, mask_of({0, 1, 2, 3, lat.top_index} - {lat.top_index}))
    assert not bad.passed


def test_thk_requires_nested_parameters():
    lat = _lat("sym:3")
    with pytest.raises(BadParameterError):
        build_toposys(lat, "thk:#4:#1")


def test_generate_examples():
    lat = _lat("sym:3")
    assert generate_toposys(lat, 0).member_indices == (0, 5)
    assert generate_toposys(lat, mask_of(range(len(lat)))).member_indices == tuple(range(6))
    assert generate_toposys(lat, mask_of({1, 2})).member_indices == (0, 1, 2, 5)


@pytest.mark.parametrize("desc", CATALOG)
def test_generate_is_least_fixpoint(desc):
    lat = _lat(desc)
    if len(lat) > 10:
        pytest.skip("enumeration oracle only for small lattices")
    indices = list(range(1, len(lat) - 1))
    for r in range(min(3, len(indices)) + 1):
        for seed in combinations(indices, r):
            generated = generate_toposys(lat, mask_of(seed)).members
            # least: contained in every verified superset of the seed
            for extra_r in range(len(indices) + 1):
                for candidate_extra in combinations(indices, extra_r):
                    candidate = set(seed) | set(candidate_extra) | {0, lat.top_index}
                    if set(seed) <= candidate and verify_toposys(lat, mask_of(candidate)).passed:
                        assert generated <= candidate
            assert verify_toposys(lat, mask_of(generated)).passed


def test_induced_examples():
    lat, tn = _sys("sym:3", "normal")
    whole = induced_toposys(tn, lat.top_index)
    assert whole.system.members == tn.members
    ind = induced_toposys(tn, 1)
    assert lat.subgroup(ind.h).order == 2
    assert ind.system.member_indices == (0, 1) and ind.trace_bits == mask_of((0, 1))
    lat_q8, thk = _sys("quaternion:8", "thk:#0:#5")
    i_index = lat_q8.index_of(subgroup_generated(lat_q8.group, [2]).mask)
    ind2 = induced_toposys(thk, i_index)
    # members are parent indices inside the subgroup <i> of order 4
    assert [lat_q8.subgroup(i).order for i in ind2.system.member_indices] == [1, 2, 4]
    assert all(lat_q8.leq(i, i_index) for i in ind2.system.member_indices)


def test_quotient_examples():
    lat, tn = _sys("sym:3", "normal")
    q = quotient_toposys(tn, lat.top_index)
    assert q.member_bits == 1 << lat.top_index and q.quotient_indices == (0,)
    lat, ds = _sys("sym:3", "discrete")
    q2 = quotient_toposys(ds, 4)
    # S3/A3 has order 2: the interval [A3, S3] holds two subgroups
    assert q2.member_bits == mask_of({4, 5}) and q2.quotient_indices == (0, 1)
    assert q2.report.passed
    q3 = quotient_toposys(tn, 4)
    assert q3.quotient_indices == (0, 1)
    with pytest.raises(NotNormalError):
        quotient_toposys(ds, 1)


@pytest.mark.parametrize("desc", CATALOG)
def test_cached_quotients_match_quotient_toposys(desc):
    for kind in ("discrete", "trivial", "normal", "thk:#0:#1"):
        lat, system = _sys(desc, kind)
        quotients = system.quotients
        assert system.quotients is quotients
        assert tuple(quotients) == tuple(bits_of(lat.normal_bits))
        for n, q in quotients.items():
            fresh = quotient_toposys(system, n)
            assert (q.member_bits, q.report) == (fresh.member_bits, fresh.report)


def test_interior_examples():
    lat, ds = _sys("sym:3", "discrete")
    for i in range(len(lat)):
        interior, boundary = interior_boundary(ds, i)
        assert interior == i and not boundary
    lat, tn = _sys("sym:3", "normal")
    interior, boundary = interior_boundary(tn, 1)
    assert interior == 0
    assert boundary == {1}
    interior, _ = interior_boundary(tn, 4)
    assert interior == 4


@pytest.mark.parametrize("desc", CATALOG)
def test_interior_matches_elementwise_definition_and_core_identity(desc):
    lat = _lat(desc)
    tn = build_toposys(lat, "normal")
    for i in range(len(lat)):
        x = lat.subgroup(i)
        interior, _ = interior_boundary(tn, i)
        # independent element-wise oracle: union of topens inside x
        union = 0
        for a in tn.member_indices:
            if lat.mask(a) & x.mask == lat.mask(a):
                union |= lat.mask(a)
        assert lat.mask(interior) == union
        assert lat.mask(interior) == core(x).mask


@given(st.sampled_from(CATALOG), st.data())
def test_interior_monotone_idempotent_member(desc, data):
    lat = _lat(desc)
    system = build_toposys(lat, data.draw(st.sampled_from(FAMILIES)))
    pick = st.integers(0, len(lat) - 1)
    x, y = data.draw(pick), data.draw(pick)
    ix, _ = interior_boundary(system, x)
    assert ix in system.members
    again, _ = interior_boundary(system, ix)
    assert again == ix
    if lat.subgroup(x).is_subset_of(lat.subgroup(y)):
        iy, _ = interior_boundary(system, y)
        assert lat.subgroup(ix).is_subset_of(lat.subgroup(iy))


def test_closure_and_limits_examples():
    lat, ds = _sys("sym:3", "discrete")
    limits, closure = closure_and_limits(ds, 0)
    assert not limits and closure == 0
    lat, tn = _sys("sym:3", "normal")
    limits, closure = closure_and_limits(tn, 4)
    assert {1, 2, 5} <= limits  # every transposition is a limit point
    assert closure == lat.top_index
    limits, closure = closure_and_limits(tn, 0)
    assert not limits and closure == 0
    lat, tn = _sys("dihedral:4", "normal")
    limits, closure = closure_and_limits(tn, 2)
    assert lat.mask(2) == mask_of((0, 4)) and limits == {4, 6}
    # <4, 6> = {0, 2, 4, 6} is not T-closed: every topen around 1 holds 2
    assert not t_closed_checks(tn, lat.index_of(mask_of((0, 2, 4, 6)))).is_t_closed
    assert closure == lat.top_index


@given(st.sampled_from(CATALOG), st.data())
def test_closure_is_t_closed(desc, data):
    lat = _lat(desc)
    system = build_toposys(lat, data.draw(st.sampled_from(FAMILIES)))
    x = data.draw(st.integers(0, len(lat) - 1))
    _, closure = closure_and_limits(system, x)
    assert t_closed_checks(system, closure).is_t_closed


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_closure_is_the_least_t_closed_subgroup_above_x(desc, family):
    lat = _lat(desc)
    system = build_toposys(lat, family)
    closed = [k for k in range(len(lat)) if t_closed_checks(system, k).is_t_closed]
    for x in range(len(lat)):
        _, closure = closure_and_limits(system, x)
        above = [k for k in closed if lat.leq(x, k)]
        assert closure in above and all(lat.leq(closure, k) for k in above)


def test_t_closed_examples():
    lat = _lat("cyclic:8")
    ds = build_toposys(lat, "discrete")
    report = t_closed_checks(ds, lat.index_of(mask_of((0, 2, 4, 6))))
    assert not report.is_t_closed and report.t_closed_witness == 1
    lat, ds3 = _sys("sym:3", "discrete")
    report = t_closed_checks(ds3, 4)
    assert report.is_weak_t_closed
    report = t_closed_checks(ds3, lat.top_index)
    assert report.is_t_closed and report.is_weak_t_closed


def test_t_closed_intersections_and_extremes():
    for desc in CATALOG:
        lat = _lat(desc)
        for family in ("discrete", "normal", "trivial"):
            system = build_toposys(lat, family)
            closed = [i for i in range(len(lat)) if t_closed_checks(system, i).is_t_closed]
            assert 0 in closed and lat.top_index in closed
            for i in closed:
                for j in closed:
                    assert lat.meet_index(i, j) in closed


def test_hausdorff_examples():
    lat, ds = _sys("sym:3", "discrete")
    assert is_hausdorff(ds) == (True, None)
    lat, tn = _sys("sym:3", "normal")
    ok, witness = is_hausdorff(tn)
    assert not ok
    # the witness pair is a cyclically distinct inseparable pair of transpositions
    g = build_group("sym:3")
    assert g.element_order(witness.x) == 2 and g.element_order(witness.y) == 2
    lat4, tv = _sys("cyclic:4", "trivial")
    assert is_hausdorff(tv)[0]


def test_find_finite_subcover_examples():
    lat, ds = _sys("sym:3", "discrete")
    full = lat.top_index
    got = find_finite_subcover(ds, full, [lat.top_index])
    assert got.selected == (lat.top_index,)
    got = find_finite_subcover(ds, full, [0, 1, 2, 3, 4])
    assert got.exact and len(got.selected) == 4 and 0 not in got.selected
    assert find_finite_subcover(ds, 4, [1]) is None
    with pytest.raises(BadParameterError):
        tn = build_toposys(lat, "normal")
        find_finite_subcover(tn, full, [1])


def test_topomorphism_examples():
    lat, ds = _sys("sym:3", "discrete")
    tn = build_toposys(lat, "normal")
    g = build_group("sym:3")
    ident = make_homomorphism(g, g, tuple(range(6)))
    assert is_topomorphism(ident, ds, ds) == (True, None)
    # quotient map S3 -> Z2 with (normal on S3, discrete on Z2)
    z2 = build_group("cyclic:2")
    even = {x for x in g.elements() if g.element_order(x) in (1, 3)}
    sign = make_homomorphism(g, z2, tuple(0 if x in even else 1 for x in g.elements()))
    dz2 = build_toposys(enumerate_subgroups(z2), "discrete")
    assert is_topomorphism(sign, tn, dz2) == (True, None)
    ok, offending = is_topomorphism(ident, tn, ds)
    assert not ok and offending == 1


def test_star_topology_examples():
    lat, tn = _sys("sym:3", "normal")
    assert is_star_open(tn, lat.mask(4))
    assert not is_star_open(tn, mask_of((0, 3, 4, 1)))
    report = star_topology_checks(tn)
    assert report.passed


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_star_topology_all_cells(desc, family):
    lat = _lat(desc)
    report = star_topology_checks(build_toposys(lat, family))
    assert report.passed, report.failures


def test_subgroup_literals():
    lat = _lat("sym:3")
    assert resolve_subgroup_literal(lat, "#4") == 4
    assert resolve_subgroup_literal(lat, "gen{}") == 0
    assert resolve_subgroup_literal(lat, "gen{3}") == 4
    with pytest.raises(BadParameterError):
        resolve_subgroup_literal(lat, "#99")
    with pytest.raises(BadParameterError):
        resolve_subgroup_literal(lat, "junk")


# --- the incidence index against the per-element scans it replaced -----------

def _scan_topens_containing(system, x):
    return tuple(i for i in sorted(system.members) if system.lattice.mask(i) >> x & 1)


def _all_pairs_verify(lat, members):
    """Reference check: join and meet of every member pair, comparable or not."""
    members = frozenset(members)
    failures = []
    for required in (lat.trivial_index, lat.top_index):
        if required not in members:
            failures.append(("axiom-a", (required,)))
    if failures:
        return failures
    ordered = sorted(members)
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            join_ij = lat.index_of(subgroup_generated(lat.group, lat.mask(i) | lat.mask(j)).mask)
            if join_ij not in members:
                failures.append(("join-closure", (i, j, join_ij)))
            meet_ij = lat.index_of(lat.mask(i) & lat.mask(j))
            if meet_ij not in members:
                failures.append(("meet-closure", (i, j, meet_ij)))
            if failures:
                return failures
    return failures


def _scan_is_hausdorff(system):
    lat = system.lattice
    group = lat.group
    for x in group.elements():
        for y in range(x, group.order):
            if lat.mask(lat.cyclic_index(x)) & lat.mask(lat.cyclic_index(y)) != 1:
                continue
            if not any(
                lat.mask(a) & lat.mask(b) == 1
                for a in _scan_topens_containing(system, x)
                for b in _scan_topens_containing(system, y)
            ):
                return False, (x, y)
    return True, None


def _scan_t_closed(system, amask):
    lat = system.lattice

    def separated(x):
        return any(lat.mask(m) & amask == 1 for m in _scan_topens_containing(system, x))

    elements = lat.group.elements()
    t_witness = next((x for x in elements if not amask >> x & 1 and not separated(x)), None)
    weak = next((x for x in elements if lat.mask(lat.cyclic_index(x)) & amask == 1 and not separated(x)), None)
    return t_witness, weak


def _scan_limits(system, xmask):
    lat = system.lattice
    return frozenset(
        e
        for e in lat.group.elements()
        if all((lat.mask(a) & xmask).bit_count() >= 2 for a in _scan_topens_containing(system, e))
    )


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_topens_containing_matches_mask_scan(desc, family):
    lat, system = _sys(desc, family)
    assert system.member_indices == tuple(sorted(system.members))
    for x in lat.group.elements():
        assert system.topens_containing(x) == _scan_topens_containing(system, x)


@given(st.sampled_from(CATALOG + ("abelian:2x2x2", "alt:4")), st.data())
def test_verify_matches_all_pairs_check(desc, data):
    lat = _lat(desc)
    members = set(data.draw(st.sets(st.integers(0, len(lat) - 1))))
    if data.draw(st.booleans()):
        members |= {0, lat.top_index}
    report = verify_toposys(lat, mask_of(members))
    want = _all_pairs_verify(lat, members)
    assert report.passed == (not want)
    assert [(f.kind, f.witness) for f in report.failures] == want


@pytest.mark.parametrize("desc", DEFAULT_CATALOG)
def test_full_set_passes_without_a_scan_as_with_one(desc, monkeypatch):
    lat = _lat(desc)
    full = range(len(lat))
    assert _all_pairs_verify(lat, full) == []
    monkeypatch.setattr(type(lat), "join_index", lambda *args: pytest.fail("full set scanned"))
    assert verify_toposys(lat, mask_of(full)).passed
    # every quotient image of the discrete system is its whole interval
    for n in bits_of(lat.normal_bits):
        assert verify_toposys(lat, mask_of(k for k in full if lat.leq(n, k)), n).passed


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_hausdorff_and_t_closed_match_mask_scans(desc, family):
    lat, system = _sys(desc, family)
    ok, witness = is_hausdorff(system)
    assert (ok, witness and (witness.x, witness.y)) == _scan_is_hausdorff(system)
    for i in range(len(lat)):
        report = t_closed_checks(system, i)
        assert (report.t_closed_witness, report.weak_witness) == _scan_t_closed(system, lat.mask(i))
        assert report.is_t_closed == (report.t_closed_witness is None)
        assert closure_and_limits(system, i)[0] == _scan_limits(system, lat.mask(i))


@pytest.mark.parametrize("desc", DEFAULT_CATALOG)
def test_preimage_mask_matches_element_scan(desc):
    lat = _lat(desc)
    for n in bits_of(lat.normal_bits):
        qlattice, natural = quotient_lattice(lat, n)
        targets = [s.mask for s in qlattice.subgroups]
        targets += [1 << t for t in qlattice.group.elements()]
        for tmask in targets:
            want = mask_of(x for x in lat.group.elements() if tmask >> natural(x) & 1)
            assert natural.preimage_mask(tmask) == want
        assert natural.kernel_mask == lat.mask(n)
