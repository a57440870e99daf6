"""Induced and quotient systems on the parent lattice against subgroup and quotient groups.

L(H) is the down-set ↓H of L(G), and L(G/N) is the interval [N, G], both with
the parent's joins and meets.  Each test compares the parent-lattice path with
the construction in oracles.py that builds H or G/N as a group of its own.
"""

import random

import pytest

from topogroups.filters import theorem_checks
from topogroups.groups import bits_of, build_group, closure_mask, mask_of
from topogroups.lattice import SubgroupLattice, enumerate_subgroups
from topogroups import toposystems
from topogroups.suites import DEFAULT_CATALOG, SuiteConfig, SuiteRun
from topogroups.toposystems import (
    TopoSystem,
    _closure,
    build_toposys,
    quotient_toposys,
    star_topology_checks,
    verify_toposys,
)
from oracles import (
    WIDE_GROUPS,
    induced_by_subgroup_group,
    quotient_by_quotient_group,
    quotient_by_verify,
    quotient_lattice,
    star_topology_failure,
    theorem_checks_by_quotient_groups,
)

FAMILIES = ("discrete", "trivial", "cofinite", "normal", "characteristic", "variety:abelian")
# lattices for random hand-built member sets, closed or not
HAND_BUILT = ("dihedral:4", "alt:4", "dihedral:6", "sym:4", "abelian:2x2x2x2")


def _lat(desc):
    return enumerate_subgroups(build_group(desc))


def matrix_systems(config=SuiteConfig()):
    """Every distinct system of a theorem matrix, by default the default one."""
    return list({id(system): system for _, system in SuiteRun(config).cells}.values())


def _induced_on_parent(system, h):
    """(member bits, trace bits) of the induced system on h: the traces a ∧ h closed in ↓h of the parent lattice."""
    lat = system.lattice
    traces = mask_of(lat.meet_index(a, h) for a in system.member_indices)
    return _closure(lat, traces | 1 | 1 << h), traces


def hand_built(desc, count=40, seed=0):
    """Member sets drawn at random, half of them with 1 and G; most are not closed.

    Random sets rarely break closure in a proper quotient, so on (Z2)^4 two
    sets do so by construction for N = <8>: the images of <1> and <2> join
    outside the image set, and those of <1,2> and <1,4> meet outside it.
    """
    lat = _lat(desc)
    rng = random.Random(seed)
    systems = []
    for t in range(count):
        members = {i for i in range(len(lat)) if rng.random() < 0.3}
        if t % 2:
            members |= {0, lat.top_index}
        systems.append(TopoSystem(lat, mask_of(members), f"hand-built#{t}"))
    if desc == "abelian:2x2x2x2":
        index = {gens: lat.index_of(closure_mask(lat.group, gens)) for gens in ((1,), (2,), (1, 2), (1, 4))}
        for a, b in (((1,), (2,)), ((1, 2), (1, 4))):
            systems.append(TopoSystem(lat, mask_of({0, index[a], index[b], lat.top_index}), f"{a}|{b}"))
    return systems


@pytest.mark.parametrize("desc", DEFAULT_CATALOG)
@pytest.mark.parametrize("family", FAMILIES)
def test_induced_members_match_subgroup_group(desc, family):
    lat = _lat(desc)
    system = build_toposys(lat, family)
    for h in range(len(lat)):
        induced, trace_bits = _induced_on_parent(system, h)
        members, traces, _, _ = induced_by_subgroup_group(system, h)
        assert induced == mask_of(members)
        assert trace_bits == mask_of(traces)
        assert induced & ~lat.below[h] == 0


@pytest.mark.parametrize("desc", HAND_BUILT)
def test_induced_members_of_hand_built_systems_match_subgroup_group(desc):
    for system in hand_built(desc, count=10):
        for h in range(len(system.lattice)):
            members, traces, _, _ = induced_by_subgroup_group(system, h)
            assert _induced_on_parent(system, h)[0] == mask_of(members)


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + WIDE_GROUPS)
def test_quotient_index_matches_quotient_lattice(desc):
    lat = _lat(desc)
    for n in bits_of(lat.normal_bits):
        qlattice, natural = quotient_lattice(lat, n)
        interval = [k for k in range(len(lat)) if lat.leq(n, k)]
        assert len(interval) == len(qlattice)
        got = [lat.quotient_index(n, k) for k in interval]
        assert got == [qlattice.index_of(natural.image_mask(lat.mask(k))) for k in interval]


@pytest.mark.parametrize("desc", DEFAULT_CATALOG)
def test_quotient_members_and_report_match_quotient_group(desc):
    lat = _lat(desc)
    for family in FAMILIES + ("principal:gen{1}", "generated:#1"):
        if family == "generated:#1" and len(lat) < 3:
            continue
        system = build_toposys(lat, family)
        for n in bits_of(lat.normal_bits):
            quotient = quotient_toposys(system, n)
            members, failure, _, _ = quotient_by_quotient_group(system, n)
            assert tuple(lat.quotient_index(n, k) for k in bits_of(quotient.member_bits)) == tuple(sorted(members))
            assert quotient.failure == failure


def _quotient_calls(monkeypatch, system):
    """(join_index pairs, verify_toposys (bits, n) calls) made while the system's quotients are built."""
    joins, verified = [], []
    join, verify = SubgroupLattice.join_index, toposystems.verify_toposys
    monkeypatch.setattr(SubgroupLattice, "join_index", lambda self, i, j: joins.append((i, j)) or join(self, i, j))
    monkeypatch.setattr(toposystems, "verify_toposys", lambda lat, bits, n=0: verified.append((bits, n)) or verify(lat, bits, n))
    system.quotients
    monkeypatch.undo()
    return joins, verified


def test_discrete_images_need_no_join(monkeypatch):
    # every subgroup of an abelian group is normal, so each one has a quotient
    lat = _lat("abelian:2x2x2x2")
    discrete = build_toposys(lat, "discrete")
    assert lat.normal_bits == lat.above[0]
    # nor verification: each image [N, G] stays inside the member set
    assert _quotient_calls(monkeypatch, discrete) == ([], [])
    assert all(q.member_bits == lat.above[k] for k, q in discrete.quotients.items())


def test_quotients_verify_only_images_that_leave_the_member_set(monkeypatch):
    lat = _lat("abelian:2x2x2x2")
    assert len(lat) == 67
    # the trivial topen is the only one of principal:gen{1} and of trivial
    # that is not upward: each non-trivial N joins it (the trivial N lies
    # below every topen), and nothing is verified
    for family in ("principal:gen{1}", "trivial"):
        system = build_toposys(lat, family)
        assert system.upward == system.member_bits & ~1
        assert _quotient_calls(monkeypatch, system) == ([(0, n) for n in range(1, len(lat))], [])
    # an image that leaves T ∪ {N} is verified, on the abelian group and on
    # the non-abelian dihedral:6, where theorem_checks reports those quotient
    # maps as not topomorphisms
    for desc, family in (("abelian:2x2x2x2", "generated:#1"), ("dihedral:6", "thk:#0:#15")):
        system = build_toposys(_lat(desc), family)
        leaving = [
            n
            for n in bits_of(system.lattice.normal_bits)
            if quotient_by_verify(system, n).member_bits & ~(system.member_bits | 1 << n)
        ]
        _, verified = _quotient_calls(monkeypatch, system)
        assert leaving and [n for _, n in verified] == leaving
        findings = theorem_checks(system.lattice, system).findings
        assert all(any(f.startswith(f"quotient-not-topomorphism@#{n}:") for f in findings) for n in leaving)


def _assert_quotients_match_verify_oracle(systems):
    failures = 0
    for system in systems:
        for n in bits_of(system.lattice.normal_bits):
            quotient = quotient_toposys(system, n)
            assert quotient == quotient_by_verify(system, n)
            failures += quotient.failure is not None
    return failures


def test_quotients_match_the_verify_oracle_on_every_small_toposys():
    small = [desc for desc in DEFAULT_CATALOG if len(_lat(desc)) <= 10]
    assert _assert_quotients_match_verify_oracle(s for desc in small for s in every_toposys(_lat(desc))) == 0


def test_quotients_match_the_verify_oracle_on_every_matrix_and_wide_cell():
    wide = SuiteConfig(max_group_order=64, groups=WIDE_GROUPS)
    assert _assert_quotients_match_verify_oracle(matrix_systems() + matrix_systems(wide)) == 0


@pytest.mark.parametrize("desc", HAND_BUILT)
def test_quotients_match_the_verify_oracle_on_hand_built_systems(desc):
    # most of these are not topo-systems, so their quotients take the verifier
    systems = hand_built(desc)
    assert sum(system.failure is not None for system in systems) > len(systems) // 2
    assert _assert_quotients_match_verify_oracle(systems)


def test_quotient_failure_witnesses_match_quotient_group():
    kinds = set()
    for desc in HAND_BUILT:
        lat = _lat(desc)
        for system in hand_built(desc):
            for n in bits_of(lat.normal_bits):
                quotient = quotient_toposys(system, n)
                members, failure, _, _ = quotient_by_quotient_group(system, n)
                assert tuple(lat.quotient_index(n, k) for k in bits_of(quotient.member_bits)) == tuple(sorted(members))
                assert quotient.failure == failure
                if failure is not None and n:
                    kinds.add(failure.kind)
    # every witness kind is renumbered on a non-trivial N
    assert kinds == {"axiom-a", "join-closure", "meet-closure"}


def test_theorem_checks_match_quotient_groups_on_every_matrix_cell():
    systems = matrix_systems()
    assert len(systems) == 69
    for system in systems:
        assert theorem_checks(system.lattice, system) == theorem_checks_by_quotient_groups(system.lattice, system)


@pytest.mark.parametrize("desc", HAND_BUILT)
def test_theorem_checks_match_quotient_groups_on_hand_built_systems(desc):
    # the convergence and Hausdorff reads assume a topo-system, so a set that
    # fails its axioms is compared on its quotient findings only
    findings = set()
    for system in hand_built(desc, count=12):
        report = theorem_checks(system.lattice, system)
        oracle = theorem_checks_by_quotient_groups(system.lattice, system)
        assert report.findings == oracle.findings
        if system.failure is None:
            assert report == oracle
        findings.update(f.partition("@")[0].partition("(")[0] for f in report.findings)
    assert "quotient-axioms" in findings


def test_star_topology_matches_subgroup_groups_on_every_matrix_cell():
    for system in matrix_systems():
        assert star_topology_checks(system) is None and star_topology_failure(system) is None


# topo-systems per catalog group with at most 10 subgroups; 439 in all
EXHAUSTIVE_COUNTS = {
    "cyclic:2": 1,
    "cyclic:3": 1,
    "cyclic:4": 2,
    "abelian:2x2": 8,
    "cyclic:6": 4,
    "sym:3": 16,
    "cyclic:8": 4,
    "abelian:2x4": 33,
    "dihedral:4": 92,
    "quaternion:8": 12,
    "cyclic:9": 2,
    "dihedral:5": 64,
    "alt:4": 192,
    "cyclic:16": 8,
}


def every_toposys(lat):
    """Every member set holding 1 and G that passes verify_toposys."""
    inner = [i for i in range(len(lat)) if i not in (0, lat.top_index)]
    systems = []
    for chosen in range(1 << len(inner)):
        bits = mask_of(i for k, i in enumerate(inner) if chosen >> k & 1) | 1 | 1 << lat.top_index
        if verify_toposys(lat, bits) is None:
            systems.append(TopoSystem(lat, bits, f"exhaustive#{chosen}"))
    return systems


def test_star_topology_matches_subgroup_groups_on_every_small_toposys():
    small = [desc for desc in DEFAULT_CATALOG if len(_lat(desc)) <= 10]
    assert {desc: len(every_toposys(_lat(desc))) for desc in small} == EXHAUSTIVE_COUNTS
    for desc in small:
        for system in every_toposys(_lat(desc)):
            assert star_topology_checks(system) is None and star_topology_failure(system) is None


def test_star_topology_builds_no_induced_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("star_topology_checks built an induced system")

    monkeypatch.setattr(toposystems, "_closure", refuse)
    for desc in ("sym:3", "dihedral:4", "abelian:2x2x2x2"):
        for family in ("discrete", "trivial", "normal", "principal:gen{1}"):
            assert star_topology_checks(build_toposys(_lat(desc), family)) is None

