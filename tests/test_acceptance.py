"""Acceptance battery: one test per criterion, exact checks, pinned runtimes.

Everything here is discrete mathematics, so every comparison is exact
equality; the only tolerances are the wall-clock budgets.
"""

import hashlib
import time

import pytest

from oracles import census_descriptors
from topogroups.cli import run_command
from topogroups.groups import bits_of, build_group
from topogroups.lattice import brute_force_subgroup_masks, enumerate_subgroups
from topogroups.toposystems import build_toposys, t_closed_checks
from topogroups.filters import convergence_set, principal_filter
from topogroups.report import ERROR, FAIL, PASS
from topogroups.suites import (
    SuiteConfig,
    SuiteRun,
    prime_order_cell,
    run_suite,
    suite_convergence_compactness,
    suite_hausdorff_equivalence,
    suite_interior_core,
    suite_lattice_completeness,
    suite_prime_order,
    suite_quotient_probe,
    suite_star_topology,
    suite_toposys_axioms,
    suite_tychonoff,
    suite_ultrafilter_machinery,
    suite_weak_closed,
)

CONFIG = SuiteConfig()


def _assert_all_pass(reports, criterion, budget=None, elapsed=None, allow_findings=False):
    failures = [r for r in reports if r.status in (FAIL, ERROR)]
    assert not failures, f"{criterion}: {[r.text_line() for r in failures[:5]]}"
    if not allow_findings:
        assert all(r.status == PASS for r in reports)
    if budget is not None:
        assert elapsed < budget, f"{criterion}: {elapsed:.1f}s over the {budget}s budget"
    line = f"criterion {criterion}: PASS ({len(reports)} checks"
    if elapsed is not None:
        line += f", {elapsed:.1f}s"
    print(line + ")")


def test_c01_lattice_completeness():
    start = time.monotonic()
    reports = suite_lattice_completeness(SuiteRun(CONFIG))
    elapsed = time.monotonic() - start
    expected = {"cyclic:4": 3, "abelian:2x2": 5, "sym:3": 6, "quaternion:8": 6}
    for desc, count in expected.items():
        group = build_group(desc)
        assert len(enumerate_subgroups(group)) == count
        assert len(brute_force_subgroup_masks(group)) == count
    covered = {r.group for r in reports}
    assert all(g.order > 16 or g.descriptor in covered for g in map(build_group, CONFIG.groups))
    _assert_all_pass(reports, "1 (lattice completeness)", budget=10, elapsed=elapsed)


def test_c02_toposys_axioms_all_families():
    start = time.monotonic()
    reports = suite_toposys_axioms(SuiteRun(CONFIG))
    elapsed = time.monotonic() - start
    assert len(reports) == 9 * len([g for g in CONFIG.groups if build_group(g).order <= 24])
    _assert_all_pass(reports, "2 (topo-system axioms)", budget=30, elapsed=elapsed)


def test_c03_interior_equals_core_for_normal_system():
    reports = suite_interior_core(SuiteRun(CONFIG))
    _assert_all_pass(reports, "3 (interior = core)")


def test_c04_prime_order_proposition():
    reports = suite_prime_order(SuiteRun(CONFIG))
    positives = []
    for desc in ("abelian:2x2", "cyclic:3"):
        lattice = enumerate_subgroups(build_group(desc))
        system = build_toposys(lattice, "discrete")
        # the antecedent: every cyclic subgroup is T-closed
        assert all(t_closed_checks(system, c).t_closed_witness is None for c in bits_of(lattice.cyclic_bits))
        assert prime_order_cell(SuiteRun(SuiteConfig(groups=(desc,))), system) == (PASS, None)
        assert lattice.group.order > 1
        positives.append(desc)
    assert len(positives) >= 2
    _assert_all_pass(reports, "4 (prime-order proposition)")


def test_c05_weak_closed_proposition():
    reports = suite_weak_closed(SuiteRun(CONFIG))
    _assert_all_pass(reports, "5 (weak T-closed under Hausdorff)")


def test_c06_ultrafilter_machinery():
    start = time.monotonic()
    reports = suite_ultrafilter_machinery(SuiteRun(CONFIG))
    elapsed = time.monotonic() - start
    small = [d for d in CONFIG.groups if len(enumerate_subgroups(build_group(d))) <= 6]
    assert {"cyclic:4", "cyclic:6", "abelian:2x2", "sym:3", "quaternion:8"} <= set(small)
    _assert_all_pass(reports, "6 (ultrafilter machinery)", budget=30, elapsed=elapsed)


def test_c07_every_ultrafilter_converges():
    reports = suite_convergence_compactness(SuiteRun(CONFIG))
    _assert_all_pass(reports, "7 (ultrafilter convergence)")


def test_c08_hausdorff_equivalence_with_witness_cell():
    reports = suite_hausdorff_equivalence(SuiteRun(CONFIG))
    lattice = enumerate_subgroups(build_group("sym:3"))
    normal = build_toposys(lattice, "normal")
    from topogroups.toposystems import is_hausdorff

    ok, witness = is_hausdorff(normal)
    assert not ok and witness is not None
    three_cycle = next(x for x in lattice.group.elements() if lattice.group.element_order(x) == 3)
    points = convergence_set(principal_filter(lattice, three_cycle), normal)
    transpositions = [x for x in points if lattice.group.element_order(x) == 2]
    assert len(transpositions) >= 2
    x, y = transpositions[:2]
    assert lattice.mask(lattice.cyclic_index(x)) & lattice.mask(lattice.cyclic_index(y)) == 1
    _assert_all_pass(reports, "8 (Hausdorff iff unique convergence)", allow_findings=True)


def test_c09_tychonoff():
    start = time.monotonic()
    reports = suite_tychonoff(SuiteRun(CONFIG))
    elapsed = time.monotonic() - start
    assert any(r.check == "product-identities" for r in reports)
    assert any(r.check == "tychonoff-certificate" for r in reports)
    _assert_all_pass(reports, "9 (Tychonoff certificates + identities)", budget=60, elapsed=elapsed)


def test_c10_quotient_probe():
    reports = suite_quotient_probe(SuiteRun(CONFIG))
    assert reports
    for r in reports:
        assert r.status in (PASS, "finding")
        if r.status != PASS:
            assert r.witness
    failures = [r for r in reports if r.status == FAIL]
    assert not failures
    findings = sum(1 for r in reports if r.status == "finding")
    print(f"criterion 10 (quotient probe): PASS ({len(reports)} triples, {findings} findings)")


def test_c11_star_topology():
    reports = suite_star_topology(SuiteRun(CONFIG))
    _assert_all_pass(reports, "11 (star-topology remark)")


def test_full_default_suite_under_budget():
    start = time.monotonic()
    result = run_suite(CONFIG)
    elapsed = time.monotonic() - start
    assert result.counts.get(FAIL, 0) == result.counts.get(ERROR, 0) == 0
    assert elapsed < 30, f"default suite took {elapsed:.1f}s"
    print(
        f"full suite: {result.counts.get('pass', 0)} pass, "
        f"{result.counts.get('finding', 0)} findings in {elapsed:.1f}s"
    )


def test_the_full_battery_passes_on_every_census_group_within_budget():
    # every descriptor the grammar accepts up to the order cap, one spelling each,
    # through all 11 suites: nothing raises and no row fails
    start, rows = time.monotonic(), 0
    for desc in census_descriptors():
        result = run_suite(SuiteConfig(max_group_order=64, groups=(desc,)))
        failures = [r.text_line() for r in result.reports if r.status in (FAIL, ERROR)]
        assert not failures, f"{desc}: {failures[:5]}"
        rows += len(result.reports)
    elapsed = time.monotonic() - start
    assert (len(census_descriptors()), rows) == (395, 182703)
    assert elapsed < 60, f"census battery took {elapsed:.1f}s"


# stdout sha256 of `theorems --max-order 64 --groups <group> --format json` on the largest lattices
ORDER_64_PINS = {
    "abelian:2x2x2x2x2x2": "a4e584e52111adcef0b6c5db59ff6e498fadb841e99bc97653f11edc5a53425b",
    "product(dihedral:4,abelian:2x2x2)": "f2566ab213289dc9c82c465dab327c3eac7ea1d14f020bcd0474234b2c076502",
}


@pytest.mark.parametrize("group", ORDER_64_PINS)
def test_order_64_runs_keep_their_pinned_output_under_budget(capsys, group):
    start = time.monotonic()
    code = run_command(["theorems", "--max-order", "64", "--groups", group, "--format", "json"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == ORDER_64_PINS[group]
    assert elapsed < 20, f"{group} took {elapsed:.1f}s"
