"""Induced and quotient systems on the parent lattice against subgroup and quotient groups.

L(H) is the down-set ↓H of L(G), and L(G/N) is the interval [N, G], both with
the parent's joins and meets.  Each test compares the parent-lattice path with
the construction in oracles.py that builds H or G/N as a group of its own.
"""

import random

import pytest

from topogroups.filters import theorem_checks
from topogroups.groups import bits_of, build_group, closure_mask, mask_of
from topogroups.lattice import enumerate_subgroups
from topogroups.suites import DEFAULT_CATALOG, SuiteConfig, SuiteRun
from topogroups.toposystems import (
    TopoSystem,
    build_toposys,
    induced_toposys,
    quotient_toposys,
    star_topology_checks,
)
from oracles import (
    induced_by_subgroup_group,
    quotient_by_quotient_group,
    quotient_lattice,
    star_topology_failures,
    theorem_checks_by_quotient_groups,
)

FAMILIES = ("discrete", "trivial", "cofinite", "normal", "characteristic", "variety:abelian")
WIDE_GROUPS = ("dihedral:24", "abelian:2x4x4", "abelian:2x2x2x3")
# lattices for random hand-built member sets, closed or not
HAND_BUILT = ("dihedral:4", "alt:4", "dihedral:6", "sym:4", "abelian:2x2x2x2")


def _lat(desc):
    return enumerate_subgroups(build_group(desc))


def _matrix_systems():
    """Every distinct system of the default theorem matrix."""
    return list({id(system): system for _, system in SuiteRun(SuiteConfig()).cells}.values())


def _hand_built(desc, count=40, seed=0):
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
        induced = induced_toposys(system, h)
        members, traces, _, _ = induced_by_subgroup_group(system, h)
        assert induced.system.members == members
        assert induced.trace_bits == mask_of(traces)
        assert induced.system.member_bits & ~lat.below[h] == 0


@pytest.mark.parametrize("desc", HAND_BUILT)
def test_induced_members_of_hand_built_systems_match_subgroup_group(desc):
    for system in _hand_built(desc, count=10):
        for h in range(len(system.lattice)):
            members, traces, _, _ = induced_by_subgroup_group(system, h)
            assert induced_toposys(system, h).system.members == members


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
            members, report, _, _ = quotient_by_quotient_group(system, n)
            assert quotient.quotient_indices == tuple(sorted(members))
            assert quotient.report == report


def test_quotient_failure_witnesses_match_quotient_group():
    kinds = set()
    for desc in HAND_BUILT:
        lat = _lat(desc)
        for system in _hand_built(desc):
            for n in bits_of(lat.normal_bits):
                quotient = quotient_toposys(system, n)
                members, report, _, _ = quotient_by_quotient_group(system, n)
                assert quotient.quotient_indices == tuple(sorted(members))
                assert quotient.report == report
                if not report.passed and n:
                    kinds.add(report.first_failure().kind)
    # every witness kind is renumbered on a non-trivial N
    assert kinds == {"axiom-a", "join-closure", "meet-closure"}


def test_theorem_checks_match_quotient_groups_on_every_matrix_cell():
    systems = _matrix_systems()
    assert len(systems) == 69
    for system in systems:
        assert theorem_checks(system.lattice, system) == theorem_checks_by_quotient_groups(system.lattice, system)


@pytest.mark.parametrize("desc", HAND_BUILT)
def test_theorem_checks_match_quotient_groups_on_hand_built_systems(desc):
    findings = set()
    for system in _hand_built(desc, count=12):
        report = theorem_checks(system.lattice, system)
        assert report == theorem_checks_by_quotient_groups(system.lattice, system)
        findings.update(f.partition("@")[0].partition("(")[0] for f in report.findings)
    assert "quotient-axioms" in findings


def test_star_topology_matches_subgroup_groups_on_every_matrix_cell():
    for system in _matrix_systems():
        report = star_topology_checks(system)
        assert report.passed and list(report.failures) == star_topology_failures(system)
