"""The theorem run: cells built once, each distinct (group, member set) checked once."""

import functools
from collections import Counter

import pytest

from topogroups import suites, toposystems
from topogroups.cli import run_command
from topogroups.groups import TopoGroupError, build_group, mask_of
from topogroups.lattice import enumerate_subgroups
from topogroups.report import FAIL, PASS, ValidationFailure, ValidationReport
from topogroups.suites import (
    FAMILY_NAMES,
    SuiteConfig,
    SuiteRun,
    cell_system_descriptors,
    family_instance_descriptors,
    run_suite,
)
from topogroups.toposystems import build_toposys, family_members


def count_calls(monkeypatch, calls: Counter, module, name: str):
    fn = getattr(module, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def fail_member_set(monkeypatch, bad: frozenset):
    real = toposystems.verify_toposys

    def verify(lattice, bits):
        if bits == mask_of(bad):
            return ValidationReport(False, (ValidationFailure("join-closure", (1, 2, 3), "forced"),))
        return real(lattice, bits)

    monkeypatch.setattr(toposystems, "verify_toposys", verify)


def test_default_run_checks_each_distinct_member_set_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, suites, "theorem_checks")
    count_calls(monkeypatch, calls, suites, "star_topology_checks")
    count_calls(monkeypatch, calls, suites, "require_axioms")
    count_calls(monkeypatch, calls, toposystems, "quotient_toposys")
    count_calls(monkeypatch, calls, toposystems, "is_hausdorff")
    resolved = Counter()
    real_members = suites.family_members

    def members(lattice, desc):
        resolved[lattice.group.descriptor, desc] += 1
        return real_members(lattice, desc)

    monkeypatch.setattr(suites, "family_members", members)
    result = run_suite(SuiteConfig())

    lattices = [enumerate_subgroups(build_group(d)) for d in SuiteConfig().groups]
    cells = Counter((lat.group.descriptor, d) for lat in lattices for d in cell_system_descriptors(lat))
    distinct = {
        (lat.group.descriptor, family_members(lat, d).members): lat
        for lat in lattices
        for d in cell_system_descriptors(lat)
    }
    assert sum(cells.values()) == 185 and len(distinct) == 69
    assert calls["theorem_checks"] == calls["star_topology_checks"] == 69
    # the theorem checks and weak-closed share one verdict per system
    assert calls["is_hausdorff"] == 69
    # every normal subgroup of each distinct system, read by the theorem checks and the probe
    assert calls["quotient_toposys"] == sum(lat.normal_bits.bit_count() for lat in distinct.values()) == 371
    # no family is skipped on the default catalog, so every sweep descriptor is resolved once more
    sweeps = Counter(
        (lat.group.descriptor, d) for lat in lattices for f in FAMILY_NAMES for d in family_instance_descriptors(lat, f)
    )
    assert resolved == cells + sweeps
    # the sweeps and the cells share one verification record
    lattice_of = {lat.group.descriptor: lat for lat in lattices}
    named = {(g, family_members(lattice_of[g], d).members) for g, d in resolved}
    assert calls["require_axioms"] == len(named)
    # rows are still one per descriptor
    assert sum(r.check == "star-topology" for r in result.reports) == 185
    assert [r.toposys for r in result.reports if r.check == "prime-order"] == [
        d for lat in sorted(lattices, key=lambda lat: (lat.group.order, lat.group.descriptor))
        for d in cell_system_descriptors(lat)
    ]


def test_tychonoff_builds_each_factor_system_and_product_ultrafilter_list_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, suites, "build_toposys")
    count_calls(monkeypatch, calls, suites, "enumerate_ultrafilters")
    reports = suites.suite_tychonoff(SuiteRun(SuiteConfig()))
    factors = {d for descs in suites.TYCHONOFF_PRODUCTS for d in descs}
    assert calls["build_toposys"] == len(factors) * len(suites.FACTOR_SYSTEM_KINDS) == 12
    assert calls["enumerate_ultrafilters"] == len(suites.TYCHONOFF_PRODUCTS) == 8
    rows = [(r.group, r.toposys) for r in reports if r.check == "tychonoff-certificate"]
    assert rows == [
        ("product(" + ",".join(descs) + ")", "x".join(combo))
        for descs in suites.TYCHONOFF_PRODUCTS
        for combo in suites.iter_product(suites.FACTOR_SYSTEM_KINDS, repeat=len(descs))
    ]
    assert all(r.status == PASS for r in reports)


def test_toposys_axioms_verifies_each_member_set_once_per_group(monkeypatch):
    lattice = enumerate_subgroups(build_group("abelian:2x2x2"))
    sweeps = {
        f: [family_members(lattice, d).members for d in family_instance_descriptors(lattice, f)] for f in FAMILY_NAMES
    }
    distinct = {m for sets in sweeps.values() for m in sets}
    full = frozenset(range(len(lattice)))
    assert sum(map(len, sweeps.values())) == 108 and len(distinct) == 16
    assert sum(full in sets for sets in sweeps.values()) == 7
    verified = []
    real = suites.require_axioms
    monkeypatch.setattr(suites, "require_axioms", lambda system: verified.append(system.members) or real(system))
    reports = suites.suite_toposys_axioms(SuiteRun(SuiteConfig(groups=("abelian:2x2x2",))))
    assert [(r.toposys, r.status) for r in reports] == [(f, PASS) for f in FAMILY_NAMES]
    # one verification per distinct set; a record per family row would take 25
    assert sorted(map(sorted, verified)) == sorted(map(sorted, distinct))


def test_toposys_axioms_repeats_a_stored_failure_in_every_row_naming_the_set(monkeypatch):
    lattice = enumerate_subgroups(build_group("abelian:2x2x2"))
    full = frozenset(range(len(lattice)))
    fail_member_set(monkeypatch, full)
    with_full = [
        f
        for f in FAMILY_NAMES
        if any(family_members(lattice, d).members == full for d in family_instance_descriptors(lattice, f))
    ]
    verified = []
    real = suites.require_axioms
    monkeypatch.setattr(suites, "require_axioms", lambda system: verified.append(system.members) or real(system))
    reports = suites.suite_toposys_axioms(SuiteRun(SuiteConfig(groups=("abelian:2x2x2",))))
    assert verified.count(full) == 1
    with pytest.raises(TopoGroupError) as exc:
        build_toposys(lattice, "discrete")
    # "discrete" is the first descriptor of the run that names the full set
    for r in reports:
        if r.toposys in with_full:
            assert (r.status, r.witness) == (FAIL, f"discrete:{exc.value}")
        else:
            assert r.status == PASS
    assert len(with_full) == 7


def test_a_cell_failing_its_axioms_stops_the_run_with_exit_2(monkeypatch, capsys):
    lattice = enumerate_subgroups(build_group("sym:3"))
    fail_member_set(monkeypatch, build_toposys(lattice, "normal").members)
    code = run_command(["theorems", "--groups", "sym:3", "--suite", "prime-order"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: normal:internal error: family 'normal' on sym:3 fails axioms: ")
