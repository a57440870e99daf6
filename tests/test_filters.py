"""Subgroup filters, ultrafilters, the ordinary-filter bridge and convergence."""

import pytest
from hypothesis import given, strategies as st

from topogroups import filters, suites
from topogroups.groups import FiniteGroup, bits_of, build_group, mask_of
from topogroups.lattice import enumerate_subgroups
from topogroups.toposystems import BadParameterError, build_toposys
from topogroups.filters import (
    IdentityNotAllowedError,
    NoFipError,
    NotAFilterError,
    OracleMismatchError,
    SubgroupFilter,
    all_filters,
    convergence_set,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    filter_axiom_report,
    filter_from_members,
    generate_filter,
    is_ultrafilter,
    is_ultrafilter_bruteforce,
    parse_filter,
    principal_filter,
    pushforward,
    theorem_checks,
)
from topogroups.products import direct_product
from topogroups.report import FAIL
from topogroups.suites import ultrafilter_cell
from oracles import (
    WIDE_AND_LADDER_GROUPS,
    OrdinaryFilter,
    filter_failure_by_scan,
    is_ultrafilter_by_all_families,
    ordinary_bridge,
    quotient_group,
    restrict_ordinary,
    topens_around,
)

SMALL_LATTICE_DESCRIPTORS = ("cyclic:4", "cyclic:6", "abelian:2x2", "sym:3", "quaternion:8")


def _lat(desc):
    return enumerate_subgroups(build_group(desc))


def test_generate_filter_examples():
    lat = _lat("sym:3")
    assert generate_filter(lat, [lat.top_index]).member_indices == (lat.top_index,)
    assert generate_filter(lat, [4]).member_indices == (4, 5)
    with pytest.raises(NoFipError) as exc:
        generate_filter(lat, [1, 2])
    assert set(exc.value.witness) == {1, 2}


def test_generate_filter_outputs_satisfy_axioms():
    for desc in SMALL_LATTICE_DESCRIPTORS:
        lat = _lat(desc)
        for seed in ([lat.top_index], [1], [1, lat.top_index]):
            try:
                f = generate_filter(lat, seed)
            except NoFipError:
                continue
            assert filter_axiom_report(lat, f.member_indices) is None


def test_principal_filter_examples():
    lat4 = _lat("cyclic:4")
    assert [lat4.subgroup(i).order for i in principal_filter(lat4, 2).member_indices] == [2, 4]
    lat = _lat("sym:3")
    assert principal_filter(lat, 3).member_indices == (4, 5)
    latv = _lat("abelian:2x2")
    assert [latv.subgroup(i).order for i in principal_filter(latv, 1).member_indices] == [2, 4]
    with pytest.raises(IdentityNotAllowedError):
        principal_filter(lat, 0)


def test_ordinary_bridge_round_trip():
    lat = _lat("sym:3")
    for x in range(1, 6):
        f = principal_filter(lat, x)
        assert restrict_ordinary(lat, ordinary_bridge(f)).member_bits == f.member_bits
    g = filter_from_members(lat, {lat.top_index})
    assert restrict_ordinary(lat, ordinary_bridge(g)).member_bits == g.member_bits


@pytest.mark.parametrize("desc", SMALL_LATTICE_DESCRIPTORS)
def test_ordinary_bridge_round_trip_on_all_small_filters(desc):
    lat = _lat(desc)
    for members in all_filters(lat):
        f = filter_from_members(lat, members)
        assert restrict_ordinary(lat, ordinary_bridge(f)).member_bits == mask_of(members)


def test_restrict_of_principal_ordinary_ultrafilter():
    lat = _lat("sym:3")
    for x in range(1, 6):
        point = OrdinaryFilter(lat.group, (1 << x,))
        assert restrict_ordinary(lat, point).member_bits == principal_filter(lat, x).member_bits


def test_restrict_can_reject_identity_anchored_ultrafilter():
    # at the identity the restriction reaches all non-trivial subgroups of V4,
    # which is not meet-closed
    lat = _lat("abelian:2x2")
    point = OrdinaryFilter(lat.group, (1,))
    with pytest.raises(NotAFilterError):
        restrict_ordinary(lat, point)


def test_is_ultrafilter_examples():
    latv = _lat("abelian:2x2")
    assert not is_ultrafilter(filter_from_members(latv, {latv.top_index}))
    lat = _lat("sym:3")
    assert is_ultrafilter(principal_filter(lat, 1))
    lat4 = _lat("cyclic:4")
    assert is_ultrafilter(filter_from_members(lat4, {lat4.top_index}))


def _ultra_by_union(f):
    """Reference criterion: a member covered by the non-members inside it."""
    lat = f.lattice
    for c in f.member_indices:
        cmask = lat.mask(c)
        union = 0
        for a in range(len(lat)):
            am = lat.mask(a)
            if a not in f and am & cmask == am:
                union |= am
        if union == cmask:
            return False, c
    return True, None


@pytest.mark.parametrize("desc", SMALL_LATTICE_DESCRIPTORS)
def test_ultrafilter_criterion_agrees_with_family_oracle(desc):
    lat = _lat(desc)
    assert len(lat) <= 6
    for members in all_filters(lat):
        f = filter_from_members(lat, members)
        got = is_ultrafilter(f)
        assert _ultra_by_union(f) == ((True, None) if got else (False, f.kernel))
        ok, family = is_ultrafilter_bruteforce(f)
        assert ok == got
        if not ok:
            # a family of non-members whose union is a member
            union = 0
            for a in family:
                union |= lat.mask(a)
            assert lat.index_of(union) in f and not any(a in f for a in family)


@pytest.mark.parametrize("desc", SMALL_LATTICE_DESCRIPTORS)
def test_extension_contains_input_and_is_ultra(desc):
    lat = _lat(desc)
    for members in all_filters(lat):
        f = filter_from_members(lat, members)
        extended = extend_to_ultrafilter(f)
        assert f.member_bits & ~extended.member_bits == 0
        assert is_ultrafilter(extended)


def test_extension_examples():
    lat = _lat("sym:3")
    f = generate_filter(lat, [4])  # {A3, S3}
    assert extend_to_ultrafilter(f).member_bits == f.member_bits
    latv = _lat("abelian:2x2")
    ext = extend_to_ultrafilter(filter_from_members(latv, {latv.top_index}))
    assert ext.provenance == "principal:1"


def test_enumerate_ultrafilter_counts():
    assert len(enumerate_ultrafilters(_lat("cyclic:4"))) == 2
    assert len(enumerate_ultrafilters(_lat("abelian:2x2"))) == 3
    assert len(enumerate_ultrafilters(_lat("sym:3"))) == 4


@pytest.mark.parametrize("desc", SMALL_LATTICE_DESCRIPTORS)
def test_enumeration_equals_bruteforce_ultrafilters(desc):
    lat = _lat(desc)
    expected = {
        members
        for members in all_filters(lat)
        if is_ultrafilter_bruteforce(filter_from_members(lat, members))[0]
    }
    assert {frozenset(f.member_indices) for f in enumerate_ultrafilters(lat)} == expected


def test_pushforward_examples():
    lat = _lat("sym:3")
    g = lat.group
    from topogroups.groups import make_homomorphism

    ident = make_homomorphism(g, g, tuple(range(6)))
    f = principal_filter(lat, 1)
    assert pushforward(ident, f).member_bits == f.member_bits
    z2 = build_group("cyclic:2")
    even = {x for x in g.elements() if g.element_order(x) in (1, 3)}
    sign = make_homomorphism(g, z2, tuple(0 if x in even else 1 for x in g.elements()))
    pushed = pushforward(sign, f)
    assert pushed.member_indices == (1,)
    assert is_ultrafilter(pushed)
    # projection pi_1 on Z2 x Z3 maps the filter at (1,1) to the filter at 1
    p = direct_product([z2, build_group("cyclic:3")])
    plat = enumerate_subgroups(p.group)
    f11 = principal_filter(plat, p.encode((1, 1)))
    pushed = pushforward(p.projections[0], f11)
    assert pushed.member_bits == principal_filter(enumerate_subgroups(z2), 1).member_bits


def test_pushforward_preserves_ultra_on_catalog_homomorphisms():
    z2 = build_group("cyclic:2")
    p = direct_product([build_group("cyclic:4"), z2])
    plat = enumerate_subgroups(p.group)
    for f in enumerate_ultrafilters(plat):
        for hom in p.projections:
            assert is_ultrafilter(pushforward(hom, f))


def test_pushforward_degenerate_case_is_rejected():
    # kernel in the filter and a target with two minimal subgroups
    g = build_group("sym:3")
    z2 = build_group("cyclic:2")
    p = direct_product([g, z2])
    plat = enumerate_subgroups(p.group)
    f = principal_filter(plat, p.encode((0, 1)))  # anchored inside ker(pi_1)
    with pytest.raises(NotAFilterError):
        pushforward(p.projections[0], f)


def test_convergence_examples():
    lat = _lat("sym:3")
    tn = build_toposys(lat, "normal")
    ds = build_toposys(lat, "discrete")
    for x in range(1, 6):
        f = principal_filter(lat, x)
        assert x in convergence_set(f, tn)
        assert all(i in f for i in bits_of(topens_around(tn, x)))
    f3 = principal_filter(lat, 3)
    assert convergence_set(f3, tn) == (1, 2, 3, 4, 5)
    f1 = principal_filter(lat, 1)
    assert convergence_set(f1, ds) == (1,)


def test_identity_never_converges():
    for desc in SMALL_LATTICE_DESCRIPTORS:
        lat = _lat(desc)
        system = build_toposys(lat, "discrete")
        for f in enumerate_ultrafilters(lat):
            assert 0 not in convergence_set(f, system)


def test_theorem_checks_cells():
    lat = _lat("sym:3")
    ds = build_toposys(lat, "discrete")
    report = theorem_checks(lat, ds)
    assert report.compactness_witness is None and report.equivalence_ok and ds.hausdorff
    tn = build_toposys(lat, "normal")
    report = theorem_checks(lat, tn)
    assert report.compactness_witness is None and report.equivalence_ok and not tn.hausdorff
    assert report.multi_point_witness is not None
    lat4 = _lat("cyclic:4")
    tv = build_toposys(lat4, "trivial")
    report = theorem_checks(lat4, tv)
    assert report.compactness_witness is None and report.equivalence_ok and tv.hausdorff
    # every non-identity point is a limit of F_1, but no pair is cyclically distinct
    f1 = principal_filter(lat4, 1)
    assert convergence_set(f1, tv) == (1, 2, 3)


def test_parse_filter_literals():
    lat = _lat("cyclic:4")
    assert parse_filter(lat, "principal:2").member_indices == (1, 2)
    assert parse_filter(lat, "generated:#1").member_indices == (1, 2)
    assert parse_filter(lat, "cofinite").member_indices == (1, 2)
    latv = _lat("abelian:2x2")
    with pytest.raises(NotAFilterError):
        parse_filter(latv, "cofinite")


# --- bitset convergence against the definition --------------------------------

CONVERGENCE_FAMILIES = ("discrete", "trivial", "normal", "variety:abelian", "principal:gen{1}", "conj:gen{1}")


def _converges_by_definition(f, system, y):
    """Every topen containing y is a filter member."""
    lat = system.lattice
    return all(i in f for i in system.members if lat.mask(i) >> y & 1)


@pytest.mark.parametrize("desc", SMALL_LATTICE_DESCRIPTORS)
def test_convergence_matches_definition_on_every_filter(desc):
    lat = _lat(desc)
    filters = [filter_from_members(lat, members) for members in all_filters(lat)]
    filters += [principal_filter(lat, x) for x in range(1, lat.group.order)]
    for family in CONVERGENCE_FAMILIES:
        system = build_toposys(lat, family)
        for f in filters:
            want = tuple(y for y in lat.group.elements() if _converges_by_definition(f, system, y))
            assert convergence_set(f, system) == want


@pytest.mark.parametrize("desc", ("alt:4", "dihedral:6", "abelian:2x2x2"))
def test_convergence_matches_definition_on_principal_filters(desc):
    lat = _lat(desc)
    for family in CONVERGENCE_FAMILIES:
        system = build_toposys(lat, family)
        for x in range(1, lat.group.order):
            f = principal_filter(lat, x)
            want = tuple(y for y in lat.group.elements() if _converges_by_definition(f, system, y))
            assert convergence_set(f, system) == want


def test_convergence_rejects_a_system_on_another_group():
    f = principal_filter(_lat("cyclic:4"), 1)
    system = build_toposys(_lat("cyclic:6"), "discrete")
    with pytest.raises(BadParameterError):
        convergence_set(f, system)


# --- the kernel representation against the member-set definitions ------------

PUSHFORWARD_PRODUCTS = (
    ("cyclic:2", "cyclic:2"),
    ("cyclic:2", "cyclic:3"),
    ("cyclic:4", "cyclic:2"),
    ("abelian:2x2", "cyclic:2"),
    ("sym:3", "cyclic:2"),
)
# past the brute-force oracle, checked against the union criterion only
CRITERION_DESCRIPTORS = SMALL_LATTICE_DESCRIPTORS + ("dihedral:4", "abelian:2x2x2", "alt:4", "dihedral:6", "sym:4")


def _pushforward_by_scan(hom, f):
    """Reference pushforward: every target subgroup whose preimage is a member."""
    source = f.lattice
    target = enumerate_subgroups(hom.target)
    members = frozenset(
        b for b in range(1, len(target)) if source.index_of(hom.preimage_mask(target.mask(b))) in f
    )
    failure = filter_axiom_report(target, members)
    if failure is not None:
        raise NotAFilterError(failure)
    return members


def _pushforward_cases():
    """(source lattice, homomorphism): every quotient map and every projection."""
    cases = []
    for desc in SMALL_LATTICE_DESCRIPTORS:
        lat = _lat(desc)
        cases += [(lat, quotient_group(lat.group, lat.mask(n))[1]) for n in bits_of(lat.normal_bits)]
    for descs in PUSHFORWARD_PRODUCTS:
        p = direct_product([build_group(d) for d in descs])
        cases += [(enumerate_subgroups(p.group), proj) for proj in p.projections]
    return cases


@pytest.mark.parametrize("lat,hom", _pushforward_cases())
def test_pushforward_matches_member_scan(lat, hom):
    for members in all_filters(lat):
        f = filter_from_members(lat, members)
        try:
            want = _pushforward_by_scan(hom, f)
        except NotAFilterError as expected:
            with pytest.raises(NotAFilterError) as got:
                pushforward(hom, f)
            assert got.value.failure == expected.failure
            continue
        pushed = pushforward(hom, f)
        assert pushed.member_bits == mask_of(want)
        assert pushed.lattice is enumerate_subgroups(hom.target)


# every lattice whose filters the tests here enumerate: the small ones and the pushforward sources
FILTER_LATTICES = SMALL_LATTICE_DESCRIPTORS + tuple("product(" + ",".join(d) + ")" for d in PUSHFORWARD_PRODUCTS)


@pytest.mark.parametrize("desc", FILTER_LATTICES)
def test_family_scan_over_non_members_matches_the_scan_over_all_families(desc):
    lat = _lat(desc)
    for members in all_filters(lat):
        f = filter_from_members(lat, members)
        assert is_ultrafilter_bruteforce(f) == is_ultrafilter_by_all_families(f)


def test_pushforward_cases_reach_both_degenerate_outcomes():
    # a kernel inside ker f gives the family of every non-trivial subgroup,
    # which is a filter only when the target has a single minimal subgroup
    outcomes = set()
    for lat, hom in _pushforward_cases():
        for members in all_filters(lat):
            f = filter_from_members(lat, members)
            if hom.image_mask(lat.mask(f.kernel)) == 1:
                try:
                    pushforward(hom, f)
                    outcomes.add("filter")
                except NotAFilterError:
                    outcomes.add("rejected")
    assert outcomes == {"filter", "rejected"}


# prime-step enumeration reaches a cyclic subgroup through <x^p> then x, so its
# generator tuple need not hold an element generating it alone
@pytest.mark.parametrize("desc", CRITERION_DESCRIPTORS + WIDE_AND_LADDER_GROUPS)
def test_is_ultrafilter_matches_union_criterion_on_every_kernel(desc):
    lat = _lat(desc)
    cyclic = {lat.cyclic_index(x) for x in lat.group.elements()}
    for k in range(1, len(lat)):
        f = SubgroupFilter(lat, k)
        assert _ultra_by_union(f) == ((True, None) if is_ultrafilter(f) else (False, k))
        assert is_ultrafilter(f) == (k in cyclic)


def _generate_by_upward_closure(lat, seed):
    """Reference generation: close the seed under meets, then close upward."""
    closed = set(seed) | {lat.top_index}
    queue = sorted(closed)
    i = 0
    while i < len(queue):
        a = queue[i]
        i += 1
        for b in queue[:i]:
            m = lat.meet_index(a, b)
            if m == lat.trivial_index:
                raise NoFipError((a, b))
            if m not in closed:
                closed.add(m)
                queue.append(m)
    return frozenset(j for j in range(1, len(lat)) if any(lat.leq(s, j) for s in closed))


@given(st.sampled_from(CRITERION_DESCRIPTORS), st.data())
def test_generate_filter_matches_upward_closure(desc, data):
    lat = _lat(desc)
    seed = data.draw(st.lists(st.integers(1, len(lat) - 1), max_size=4))
    try:
        want = _generate_by_upward_closure(lat, sorted(set(seed)))
    except NoFipError as expected:
        with pytest.raises(NoFipError) as got:
            generate_filter(lat, seed)
        assert got.value.witness == expected.witness
        return
    f = generate_filter(lat, seed)
    assert f.member_bits == mask_of(want)
    assert filter_axiom_report(lat, want) is None


@pytest.mark.parametrize("desc", SMALL_LATTICE_DESCRIPTORS)
def test_every_filter_is_principal_on_its_kernel(desc):
    lat = _lat(desc)
    filters = all_filters(lat)
    assert {mask_of(members) for members in filters} == {lat.above[k] for k in range(1, len(lat))}
    for members in filters:
        f = filter_from_members(lat, members)
        assert f.member_bits == mask_of(members)
        assert f.kernel == min(members)


def test_filter_kernel_must_be_non_trivial():
    lat = _lat("sym:3")
    for k in (0, len(lat), -1):
        with pytest.raises(BadParameterError):
            SubgroupFilter(lat, k)
    with pytest.raises(NotAFilterError):
        filter_from_members(lat, {1, 2, lat.top_index})


def test_upward_witness_names_the_least_member():
    # README tie-break: witnesses name the least index; on sym:4 both #5 and
    # #9 miss a superset, and #5 ⊆ #14 is the first such pair
    failure = filter_axiom_report(_lat("sym:4"), {5, 9, 29})
    assert failure.kind == "upward" and failure.witness == (5, 14)


@pytest.mark.parametrize(
    "desc", ["sym:3", "abelian:2x2", "quaternion:8", "dihedral:4", "alt:4", "abelian:2x4", "dihedral:5"]
)
def test_upward_witness_matches_the_element_mask_scan(desc):
    # every candidate member set: the whole group and no trivial subgroup;
    # upward failures, then the kernel test against the pairwise meet scan
    lat = _lat(desc)
    inner = list(range(1, lat.top_index))
    kinds = set()
    for chosen in range(1 << len(inner)):
        members = {i for k, i in enumerate(inner) if chosen >> k & 1} | {lat.top_index}
        failure = filter_axiom_report(lat, members)
        assert failure == filter_failure_by_scan(lat, members)
        kinds.add(failure and failure.kind)
    assert "meet" in kinds


def test_ultrafilters_are_listed_once_per_lattice():
    lat = _lat("sym:4")
    assert enumerate_ultrafilters(lat) is enumerate_ultrafilters(lat)


def test_oracle_mismatch_raises_and_fails_the_ultrafilter_cell(monkeypatch):
    # a group built by hand, so no ultrafilter list is cached for its lattice
    group = FiniteGroup(build_group("cyclic:4").table, "cyclic:4|oracle-mismatch")
    lat = enumerate_subgroups(group)
    monkeypatch.setattr(filters, "is_ultrafilter_bruteforce", lambda f: (not is_ultrafilter(f), None))
    with pytest.raises(OracleMismatchError, match="criterion and family enumeration disagree"):
        enumerate_ultrafilters(lat)
    assert ultrafilter_cell(lat) == (FAIL, "criterion and family enumeration disagree")


def test_ultrafilter_cell_names_the_first_kernel_with_a_broken_extension(monkeypatch):
    # every kernel is checked, not only the ultrafilters: an "extension" that
    # returns the filter itself first breaks on the least non-cyclic kernel
    lat = _lat("dihedral:24")
    assert len(lat) == 68
    monkeypatch.setattr(suites, "extend_to_ultrafilter", lambda f: f)
    broken = next(k for k in range(1, len(lat)) if not lat.cyclic_bits >> k & 1)
    assert ultrafilter_cell(lat) == (FAIL, f"extension broken for kernel #{broken}")
