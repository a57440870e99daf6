"""Topo-system families, the interior/closure calculus, separation and covers."""

import inspect
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import topogroups
from topogroups import toposystems

from topogroups.groups import bits_of, build_group, closure_mask, mask_of
from topogroups.lattice import AUTOMORPHISM_CAP, NotNormalError, enumerate_subgroups
from topogroups.toposystems import (
    BadParameterError,
    build_toposys,
    closure_and_limits,
    family_members,
    find_finite_subcover,
    generate_toposys,
    interior_boundary,
    is_hausdorff,
    quotient_toposys,
    resolve_subgroup_literal,
    star_topology_checks,
    t_closed_checks,
    verify_toposys,
)
from topogroups.groups import OrderCapExceededError, make_homomorphism
from topogroups.filters import convergence_set, enumerate_ultrafilters
from topogroups.suites import DEFAULT_CATALOG, FAMILY_NAMES, SuiteConfig, family_instances
from oracles import (
    convergence_by_incidence,
    family_members_by_scan,
    interior_by_join,
    is_hausdorff_by_incidence,
    is_star_open,
    is_topomorphism,
    least_topen_by_meet,
    limits_by_incidence,
    quotient_lattice,
    t_closed_by_incidence,
    topens_around,
)
from test_correspondence import HAND_BUILT, WIDE_GROUPS, every_toposys, hand_built, matrix_systems
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
    if family == "characteristic" and lat.group.order > AUTOMORPHISM_CAP:
        for build in (family_members, family_members_by_scan):
            with pytest.raises(OrderCapExceededError):
                build(lat, family)
        return
    for d, bits in family_instances(lat, family):
        assert frozenset(bits_of(bits)) == family_members_by_scan(lat, d), d
    if family == "characteristic":
        assert family_members(lat, "characteristic").member_bits & ~lat.normal_bits == 0


def test_cofinite_is_discrete_on_finite_groups_with_note():
    lat, t = _sys("sym:3", "cofinite")
    assert t.members == frozenset(range(len(lat)))
    assert t.notes


def test_verify_examples():
    lat = _lat("sym:3")
    assert verify_toposys(lat, mask_of({0, lat.top_index})) is None
    assert verify_toposys(lat, mask_of(range(len(lat)))) is None
    # the join of the two transposition subgroups is present
    assert verify_toposys(lat, mask_of({0, 1, 2, lat.top_index})) is None
    assert verify_toposys(lat, mask_of({0, 1, 2})) is not None


def test_verify_join_failure_witness():
    # on V4 the member set {1, <a>, <b>, V4} misses nothing, but dropping V4 breaks (a)
    lat = _lat("abelian:2x2")
    assert verify_toposys(lat, mask_of({0, 1, 2, lat.top_index})) is None
    assert verify_toposys(lat, mask_of({0, 1, 2, 3, lat.top_index} - {lat.top_index})) is not None


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
                    if set(seed) <= candidate and verify_toposys(lat, mask_of(candidate)) is None:
                        assert generated <= candidate
            assert verify_toposys(lat, mask_of(generated)) is None


def test_quotient_examples():
    lat, tn = _sys("sym:3", "normal")
    q = quotient_toposys(tn, lat.top_index)
    assert q.member_bits == 1 << lat.top_index
    lat, ds = _sys("sym:3", "discrete")
    q2 = quotient_toposys(ds, 4)
    # S3/A3 has order 2: the interval [A3, S3] holds two subgroups
    assert q2.member_bits == mask_of({4, 5}) and [lat.quotient_index(4, k) for k in (4, 5)] == [0, 1]
    assert q2.failure is None
    assert quotient_toposys(tn, 4).member_bits == mask_of({4, 5})
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
            assert (q.member_bits, q.failure) == (fresh.member_bits, fresh.failure)


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
        assert interior == lat.core_index(i)


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
    if lat.leq(x, y):
        iy, _ = interior_boundary(system, y)
        assert lat.leq(ix, iy)


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
    assert t_closed_checks(tn, lat.index_of(mask_of((0, 2, 4, 6)))).t_closed_witness is not None
    assert closure == lat.top_index


@given(st.sampled_from(CATALOG), st.data())
def test_closure_is_t_closed(desc, data):
    lat = _lat(desc)
    system = build_toposys(lat, data.draw(st.sampled_from(FAMILIES)))
    x = data.draw(st.integers(0, len(lat) - 1))
    _, closure = closure_and_limits(system, x)
    assert t_closed_checks(system, closure).t_closed_witness is None


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_closure_is_the_least_t_closed_subgroup_above_x(desc, family):
    lat = _lat(desc)
    system = build_toposys(lat, family)
    closed = [k for k in range(len(lat)) if t_closed_checks(system, k).t_closed_witness is None]
    for x in range(len(lat)):
        _, closure = closure_and_limits(system, x)
        above = [k for k in closed if lat.leq(x, k)]
        assert closure in above and all(lat.leq(closure, k) for k in above)


def test_t_closed_examples():
    lat = _lat("cyclic:8")
    ds = build_toposys(lat, "discrete")
    assert t_closed_checks(ds, lat.index_of(mask_of((0, 2, 4, 6)))).t_closed_witness == 1
    lat, ds3 = _sys("sym:3", "discrete")
    assert t_closed_checks(ds3, 4).weak_witness is None
    assert t_closed_checks(ds3, lat.top_index) == (None, None)


def test_t_closed_intersections_and_extremes():
    for desc in CATALOG:
        lat = _lat(desc)
        for family in ("discrete", "normal", "trivial"):
            system = build_toposys(lat, family)
            closed = [i for i in range(len(lat)) if t_closed_checks(system, i).t_closed_witness is None]
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
    x, y = witness
    assert g.element_order(x) == 2 and g.element_order(y) == 2
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
    assert star_topology_checks(tn) is None


def test_star_topology_checks_take_only_the_system():
    assert list(inspect.signature(star_topology_checks).parameters) == ["system"]
    assert star_topology_checks(_sys("sym:3", "normal")[1]) is None
    for gone in ("is_star_open", "StarTopologyReport"):
        assert not hasattr(toposystems, gone) and not hasattr(topogroups, gone)


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_star_topology_all_cells(desc, family):
    lat = _lat(desc)
    failure = star_topology_checks(build_toposys(lat, family))
    assert failure is None, failure


def test_subgroup_literals():
    lat = _lat("sym:3")
    assert resolve_subgroup_literal(lat, "#4") == 4
    assert resolve_subgroup_literal(lat, "gen{}") == 0
    assert resolve_subgroup_literal(lat, "gen{3}") == 4
    with pytest.raises(BadParameterError):
        resolve_subgroup_literal(lat, "#99")
    with pytest.raises(BadParameterError):
        resolve_subgroup_literal(lat, "junk")


# --- the least topen against the per-element scans it replaced ---------------

def _scan_topens_containing(system, x):
    return tuple(i for i in sorted(system.members) if system.lattice.mask(i) >> x & 1)


def _all_pairs_verify(lat, members):
    """Reference check: join and meet of every member pair, comparable or not; the first failure or None."""
    members = frozenset(members)
    for required in (lat.trivial_index, lat.top_index):
        if required not in members:
            return "axiom-a", (required,)
    ordered = sorted(members)
    for pos, i in enumerate(ordered):
        for j in ordered[pos:]:
            join_ij = lat.index_of(closure_mask(lat.group, lat.mask(i) | lat.mask(j)))
            if join_ij not in members:
                return "join-closure", (i, j, join_ij)
            meet_ij = lat.index_of(lat.mask(i) & lat.mask(j))
            if meet_ij not in members:
                return "meet-closure", (i, j, meet_ij)
    return None


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
        around = _scan_topens_containing(system, x)
        assert tuple(bits_of(topens_around(system, x))) == around
        # the least topen around x lies inside every other one, so it has the least index
        assert system.least_topen[x] == around[0]


def _calculus_corpus(part):
    if part == "small":
        return [s for desc in DEFAULT_CATALOG if len(_lat(desc)) <= 10 for s in every_toposys(_lat(desc))]
    if part == "matrix":
        return matrix_systems()
    if part == "wide":
        return matrix_systems(SuiteConfig(max_group_order=64, groups=WIDE_GROUPS))
    return [s for desc in HAND_BUILT for s in hand_built(desc) if s.failure is None]


CALCULUS_CORPORA = {"small": 439, "matrix": 69, "wide": 16, "hand-built": 40}


def _least_topen_mismatch(system) -> str | None:
    """The first least-topen read that differs from its incidence oracle on one system, or None."""
    lat = system.lattice
    if system.least_topen != least_topen_by_meet(system):
        return "least_topen"
    if toposystems.is_hausdorff(system) != is_hausdorff_by_incidence(system):
        return "is_hausdorff"
    if any(convergence_set(f, system) != convergence_by_incidence(f, system) for f in enumerate_ultrafilters(lat)):
        return "convergence_set"
    for i in range(len(lat)):
        if closure_and_limits(system, i)[0] != limits_by_incidence(system, i):
            return f"closure_and_limits of #{i}"
        if t_closed_checks(system, i) != t_closed_by_incidence(system, i):
            return f"t_closed_checks of #{i}"
        if toposystems.interior_boundary(system, i)[0] != interior_by_join(system, i):
            return f"interior_boundary of #{i}"
    return None


@pytest.mark.parametrize("part, count", CALCULUS_CORPORA.items())
def test_least_topen_reads_match_incidence_oracles(part, count):
    systems = _calculus_corpus(part)
    assert len(systems) == count
    for system in systems:
        assert _least_topen_mismatch(system) is None, system


def _hausdorff_reading_the_cyclic_subgroup(system):
    # seeded fault: is_hausdorff reads <x> where it should read U(x)
    lattice = system.lattice
    least, disjoint, cyclic = system.least_topen, lattice.disjoint, lattice.cyclic_index
    order = lattice.group.order
    for x in range(order):
        distinct = apart = disjoint[cyclic(x)]
        for y in range(x, order):
            if distinct >> cyclic(y) & 1 and not apart >> least[y] & 1:
                return False, (x, y)
    return True, None


def _interior_at_the_lowest_bit(system, x):
    # seeded fault: the interior is read at the lowest bit of member_bits & below[x], not the top one
    lattice = system.lattice
    inside = system.member_bits & lattice.below[x]
    interior = (inside & -inside).bit_length() - 1
    return interior, frozenset(bits_of(lattice.mask(x) & ~lattice.mask(interior)))


LEAST_TOPEN_FAULTS = {"is_hausdorff": _hausdorff_reading_the_cyclic_subgroup, "interior_boundary": _interior_at_the_lowest_bit}


@pytest.mark.parametrize("name", LEAST_TOPEN_FAULTS)
@pytest.mark.parametrize("part", CALCULUS_CORPORA)
def test_a_seeded_least_topen_fault_is_caught_on_every_corpus(monkeypatch, part, name):
    systems = _calculus_corpus(part)
    monkeypatch.setattr(toposystems, name, LEAST_TOPEN_FAULTS[name])
    mismatches = [m for m in map(_least_topen_mismatch, systems) if m is not None]
    assert mismatches and all(m.partition(" ")[0] == name for m in mismatches)


@given(st.sampled_from(CATALOG + ("abelian:2x2x2", "alt:4")), st.data())
def test_verify_matches_all_pairs_check(desc, data):
    lat = _lat(desc)
    members = set(data.draw(st.sets(st.integers(0, len(lat) - 1))))
    if data.draw(st.booleans()):
        members |= {0, lat.top_index}
    failure = verify_toposys(lat, mask_of(members))
    assert (None if failure is None else (failure.kind, failure.witness)) == _all_pairs_verify(lat, members)


@pytest.mark.parametrize("desc", DEFAULT_CATALOG)
def test_full_set_passes_without_a_scan_as_with_one(desc, monkeypatch):
    lat = _lat(desc)
    full = range(len(lat))
    assert _all_pairs_verify(lat, full) is None
    monkeypatch.setattr(type(lat), "join_index", lambda *args: pytest.fail("full set scanned"))
    assert verify_toposys(lat, mask_of(full)) is None
    # every quotient image of the discrete system is its whole interval
    for n in bits_of(lat.normal_bits):
        assert verify_toposys(lat, mask_of(k for k in full if lat.leq(n, k)), n) is None


@pytest.mark.parametrize("desc", CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_hausdorff_and_t_closed_match_mask_scans(desc, family):
    lat, system = _sys(desc, family)
    ok, witness = is_hausdorff(system)
    assert (ok, witness) == _scan_is_hausdorff(system)
    for i in range(len(lat)):
        report = t_closed_checks(system, i)
        assert (report.t_closed_witness, report.weak_witness) == _scan_t_closed(system, lat.mask(i))
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
        assert natural.fibers[0] == lat.mask(n)
