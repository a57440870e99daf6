"""The theorem run: cells built once, each distinct (group, member set) checked once."""

import functools
from collections import Counter
from typing import Callable, NamedTuple

import pytest

import oracles
from topogroups import filters, products, suites, toposystems
from topogroups.cli import run_command
from topogroups.groups import Homomorphism, TopoGroupError, bits_of, build_group, mask_of
from topogroups.filters import NotAFilterError, SubgroupFilter, enumerate_ultrafilters
from topogroups.lattice import (
    AUTOMORPHISM_CAP,
    FAMILY_SWEEP_CAP,
    SubgroupLattice,
    brute_force_subgroup_masks,
    enumerate_subgroups,
)
from topogroups.report import ERROR, FAIL, FINDING, PASS, ValidationFailure
from topogroups.suites import (
    DEFAULT_CATALOG,
    FAMILY_NAMES,
    SuiteConfig,
    SuiteRun,
    SWEPT_FAMILIES,
    cell_system_descriptors,
    family_instances,
    run_suite,
)
from topogroups.toposystems import (
    QuotientToposys,
    TopoSystem,
    build_toposys,
    family_members,
    quotient_toposys,
    verify_toposys,
)


def count_calls(monkeypatch, calls: Counter, module, name: str):
    fn = getattr(module, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def fail_member_set(monkeypatch, bad: frozenset | None, verified: list | None = None):
    """Fail verify_toposys on member set ``bad``, if any; record the members of each whole-group run in ``verified``."""
    real = toposystems.verify_toposys

    def verify(lattice, bits, n=0):
        if verified is not None and n == 0:
            verified.append(frozenset(bits_of(bits)))
        if bad is not None and bits == mask_of(bad) and n == 0:
            return ValidationFailure("join-closure", (1, 2, 3), "forced")
        return real(lattice, bits, n)

    monkeypatch.setattr(toposystems, "verify_toposys", verify)


def test_default_run_checks_each_distinct_member_set_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, suites, "theorem_checks")
    count_calls(monkeypatch, calls, suites, "star_topology_checks")
    count_calls(monkeypatch, calls, toposystems, "quotient_toposys")
    count_calls(monkeypatch, calls, toposystems, "is_hausdorff")
    resolved = Counter()
    real_members = suites.family_members

    def members(lattice, desc):
        resolved[lattice.group.descriptor, desc] += 1
        return real_members(lattice, desc)

    monkeypatch.setattr(suites, "family_members", members)
    swept = Counter()
    real_instances = suites.family_instances

    def instances(lattice, family):
        for desc, bits in real_instances(lattice, family):
            swept[lattice.group.descriptor, desc, bits] += 1
            yield desc, bits

    monkeypatch.setattr(suites, "family_instances", instances)
    # every member set verified on a whole group, and the sets the suites build apart from the run's table
    verified = Counter()
    real_verify = toposystems.verify_toposys

    def verify(lattice, bits, n=0):
        verified[lattice.group.descriptor, bits] += n == 0
        return real_verify(lattice, bits, n)

    monkeypatch.setattr(toposystems, "verify_toposys", verify)
    apart = Counter()
    real_build, real_product = suites.build_toposys, suites.product_toposys

    def build(lattice, desc):
        system = real_build(lattice, desc)
        apart[lattice.group.descriptor, system.member_bits] += 1
        return system

    def product_system(product, factor_systems):
        ptop = real_product(product, factor_systems)
        apart[product.group.descriptor, ptop.system.member_bits] = 1
        return ptop

    monkeypatch.setattr(suites, "build_toposys", build)
    monkeypatch.setattr(suites, "product_toposys", product_system)
    result = run_suite(SuiteConfig())
    # a copy, since the oracle sweeps below resolve descriptors through the patched family_members
    resolved_by_run = Counter(resolved)

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
    # no family is skipped on the default catalog, so every sweep instance is read once; the
    # swept families are read by index, and each other descriptor is resolved once more
    instances_of = Counter(
        (lat.group.descriptor, d, bits) for lat in lattices for f in FAMILY_NAMES for d, bits in real_instances(lat, f)
    )
    assert swept == instances_of
    unswept = Counter((g, d) for g, d, _ in instances_of if d.partition(":")[0] not in SWEPT_FAMILIES)
    assert resolved_by_run == cells + unswept
    # the sweeps, the cells and interior-core share one system per member set, verified once;
    # only the Tychonoff factor systems are built apart, and a product verifies each distinct set once
    lattice_of = {lat.group.descriptor: lat for lat in lattices}
    named = {(g, family_members(lattice_of[g], d).member_bits) for g, d in cells}
    named |= {(g, bits) for g, _, bits in swept}
    assert +verified == Counter(dict.fromkeys(named, 1)) + apart
    tychonoff = {d for descs in suites.TYCHONOFF_PRODUCTS for d in descs + (f"product({','.join(descs)})",)}
    assert {g for g, _ in apart} <= tychonoff
    # 238 whole-group runs for 227 distinct sets: the 11 repeats are factor systems on catalog groups
    assert sum(verified.values()) == 238 and len(+verified) == 227
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


def tychonoff_rows(run: SuiteRun) -> list[tuple[str, str, str, str | None]]:
    reports = suites.suite_tychonoff(run)
    return [(r.group, r.toposys, r.status, r.witness) for r in reports if r.check == "tychonoff-certificate"]


def test_tychonoff_pushes_each_ultrafilter_along_each_projection_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, products, "pushforward")
    count_calls(monkeypatch, calls, products, "convergence_set")
    count_calls(monkeypatch, calls, suites, "tychonoff_certificate")
    count_calls(monkeypatch, calls, suites, "product_toposys")
    rows = tychonoff_rows(SuiteRun(SuiteConfig()))
    assert len(rows) == 90 and all(status == PASS for _, _, status, _ in rows)
    # one certificate per (distinct product system, ultrafilter): the 90 rows
    # name 13 distinct product systems, and one per row would be 504 certificates
    assert calls["product_toposys"] == 13
    assert calls["tychonoff_certificate"] == 79
    # one pushforward and one convergence set per (certificate, factor): two
    # factors each, and a third for the 7 certificates of cyclic:2 cubed
    assert calls["pushforward"] == calls["convergence_set"] == 2 * 79 + 7 == 165


def _in_both(name, broken):
    """Patches of ``name`` where the certificate and the replay oracle read it."""
    return [(products, name, broken), (oracles, name, broken)]


def _break_pushforward():
    # projection 1 of product(cyclic:4,cyclic:2) fails on its third ultrafilter
    target = build_group("product(cyclic:4,cyclic:2)")
    third = enumerate_ultrafilters(enumerate_subgroups(target))[2]
    real = products.pushforward

    def pushforward(hom, f):
        if hom.source is target and hom.target.descriptor == "cyclic:2" and f.kernel == third.kernel:
            raise NotAFilterError(ValidationFailure("meet", (1, 2, 0), "forced"))
        return real(hom, f)

    return _in_both("pushforward", pushforward), "pushforward[1]", 9


def _break_ultrafilter():
    # a filter on cyclic:4 with the kernel #1 reads as not ultra
    real = products.is_ultrafilter

    def is_ultrafilter(f):
        return not (f.lattice.group.descriptor == "cyclic:4" and f.kernel == 1) and real(f)

    return _in_both("is_ultrafilter", is_ultrafilter), "pushforward-ultra", 27


def _break_convergence():
    # the trivial system of cyclic:4 converges nowhere for the kernel #1
    real = products.convergence_set
    trivial = build_toposys(enumerate_subgroups(build_group("cyclic:4")), "trivial")

    def convergence_set(f, system):
        if system.lattice is trivial.lattice and system.member_bits == trivial.member_bits and f.kernel == 1:
            return ()
        return real(f, system)

    return _in_both("convergence_set", convergence_set), "factor-convergence", 11


def _break_factor_preimage():
    # every factor converges at the identity, so the trivial topen is replayed
    def convergence_set(f, system):
        return tuple(range(system.lattice.group.order))

    return _in_both("convergence_set", convergence_set), "factor-preimage", 90


def _break_intersection():
    # a preimage without the identity; a preimage read as the whole group
    # would move no row, since every default certificate replays only G
    real = Homomorphism.preimage_mask

    def preimage_mask(self, target_mask):
        return real(self, target_mask) & ~1

    return [(Homomorphism, "preimage_mask", preimage_mask)], "intersection-identity", 90


def _break_membership():
    # the product ultrafilter holds no topen, while the pushed ones keep theirs
    real = SubgroupFilter.__contains__

    def contains(self, index):
        return not self.lattice.group.descriptor.startswith("product(") and real(self, index)

    return [(SubgroupFilter, "__contains__", contains)], "membership", 90


@pytest.mark.parametrize(
    "breaker",
    [_break_pushforward, _break_ultrafilter, _break_convergence, _break_factor_preimage, _break_intersection, _break_membership],
)
def test_a_failing_factor_step_gives_the_replay_row(monkeypatch, breaker):
    patches, step, failing = breaker()
    for target, name, broken in patches:
        monkeypatch.setattr(target, name, broken)
    got = tychonoff_rows(SuiteRun(SuiteConfig()))
    monkeypatch.setattr(suites, "tychonoff_certificate", oracles.tychonoff_certificate_by_replay)
    assert got == tychonoff_rows(SuiteRun(SuiteConfig()))
    failed = [witness for _, _, status, witness in got if status == FAIL]
    assert len(failed) == failing and all(step in witness for witness in failed)


@pytest.mark.parametrize("desc", DEFAULT_CATALOG + oracles.WIDE_AND_LADDER_GROUPS)
def test_family_instances_match_their_descriptors(desc):
    lattice = enumerate_subgroups(build_group(desc))
    for family in FAMILY_NAMES:
        if (family == "characteristic" and lattice.group.order > AUTOMORPHISM_CAP) or (
            family in SWEPT_FAMILIES and len(lattice) > FAMILY_SWEEP_CAP
        ):
            status, witness = suites.check_family(lattice, family, {})
            assert status == FINDING and witness.startswith("skipped: ")
            continue
        for d, bits in family_instances(lattice, family):
            assert bits == family_members(lattice, d).member_bits, d


def test_toposys_axioms_verifies_each_member_set_once_per_group(monkeypatch):
    lattice = enumerate_subgroups(build_group("abelian:2x2x2"))
    sweeps = {f: [family_members(lattice, d).members for d, _ in family_instances(lattice, f)] for f in FAMILY_NAMES}
    distinct = {m for sets in sweeps.values() for m in sets}
    full = frozenset(range(len(lattice)))
    assert sum(map(len, sweeps.values())) == 108 and len(distinct) == 16
    assert sum(full in sets for sets in sweeps.values()) == 7
    verified = []
    fail_member_set(monkeypatch, None, verified)
    reports = suites.suite_toposys_axioms(SuiteRun(SuiteConfig(groups=("abelian:2x2x2",))))
    assert [(r.toposys, r.status) for r in reports] == [(f, PASS) for f in FAMILY_NAMES]
    # one verification per distinct set; a record per family row would take 25
    assert sorted(map(sorted, verified)) == sorted(map(sorted, distinct))


def test_toposys_axioms_repeats_a_stored_failure_in_every_row_naming_the_set(monkeypatch):
    lattice = enumerate_subgroups(build_group("abelian:2x2x2"))
    full = frozenset(range(len(lattice)))
    with_full = [
        f
        for f in FAMILY_NAMES
        if any(family_members(lattice, d).members == full for d, _ in family_instances(lattice, f))
    ]
    verified = []
    fail_member_set(monkeypatch, full, verified)
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


def test_a_cell_failing_its_axioms_fails_its_rows_with_exit_1(monkeypatch, capsys):
    lattice = enumerate_subgroups(build_group("sym:3"))
    bad = build_toposys(lattice, "normal").members
    fail_member_set(monkeypatch, bad)
    code = run_command(["theorems", "--groups", "sym:3", "--suite", "prime-order"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    rows = captured.out.splitlines()
    # every cell on the failing set, named by "normal", the first descriptor that reached it;
    # the other cells still run
    failing = [d for d in cell_system_descriptors(lattice) if family_members(lattice, d).members == bad]
    assert failing == ["normal", "characteristic", "variety:abelian", "variety:exponent-2"]
    witness = "witness=normal:internal error: family 'normal' on sym:3 fails axioms: "
    for desc, row in zip(cell_system_descriptors(lattice), rows):
        assert row.startswith(("FAIL" if desc in failing else "PASS") + f"    prime-order group=sym:3 sys={desc}")
        assert (witness in row) == (desc in failing)
    assert rows[-1] == "summary: 7 pass, 4 fail, 0 finding"
    # interior-core reads the same system, and fails its row instead of stopping the run
    assert run_command(["theorems", "--groups", "sym:3", "--suite", "interior-core"]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL    interior-core group=sym:3 sys=normal {witness}")


THEOREM_SUITES = ("convergence-compactness", "hausdorff-equivalence")


def test_a_check_that_raises_gives_error_rows_and_the_run_goes_on(monkeypatch, capsys):
    lattice = enumerate_subgroups(build_group("sym:3"))
    bad = build_toposys(lattice, "normal").member_bits
    raising = [d for d in cell_system_descriptors(lattice) if family_members(lattice, d).member_bits == bad]
    assert raising == ["normal", "characteristic", "variety:abelian", "variety:exponent-2"]
    real = suites.theorem_checks

    def theorem_checks(lattice, system):
        if lattice.group.descriptor == "sym:3" and system.member_bits == bad:
            raise ZeroDivisionError("seeded")
        return real(lattice, system)

    before = run_suite(SuiteConfig())
    monkeypatch.setattr(suites, "theorem_checks", theorem_checks)
    after = run_suite(SuiteConfig())
    # each theorem row of a sym:3 cell on that set is one error row; every other row keeps its bytes
    moved = [r.check in THEOREM_SUITES and r.group == "sym:3" and r.toposys in raising for r in before.reports]
    want = [r._replace(status=ERROR, witness="ZeroDivisionError: seeded") if m else r for r, m in zip(before.reports, moved)]
    assert [r.json_line() for r in after.reports] == [r.json_line() for r in want]
    assert sum(moved) == after.counts[ERROR] == 8 and after.counts[FAIL] == 0
    assert (before.exit_code, after.exit_code) == (0, 1)
    # the summary names the errors only when there are some
    assert run_command(["theorems", "--groups", "sym:3", "--suite", THEOREM_SUITES[0]]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[3] == "ERROR   convergence-compactness group=sym:3 sys=normal witness=ZeroDivisionError: seeded"
    assert rows[-1] == "summary: 7 pass, 0 fail, 0 finding, 4 error"
    assert run_command(["theorems", "--groups", "sym:3", "--suite", THEOREM_SUITES[0], "--format", "json"]) == 1
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == '{"summary": {"error": 4, "fail": 0, "finding": 0, "pass": 7}}'


def test_a_cell_that_raises_gives_one_quotient_probe_row(monkeypatch):
    # quotient-probe gives one row per normal subgroup, but one error row for a cell that raises
    config = SuiteConfig(groups=("sym:3",), suites=("quotient-probe",))
    before = run_suite(config).reports
    lattice = enumerate_subgroups(build_group("sym:3"))
    bad = build_toposys(lattice, "normal").member_bits
    real = toposystems.quotient_toposys

    def quotient(system, n):
        if system.member_bits == bad:
            raise KeyError(n)
        return real(system, n)

    monkeypatch.setattr(toposystems, "quotient_toposys", quotient)
    after = run_suite(config).reports
    raising = {d for d in cell_system_descriptors(lattice) if family_members(lattice, d).member_bits == bad}
    normal_count = lattice.normal_bits.bit_count()
    assert [r.json_line() for r in before if r.toposys not in raising] == [
        r.json_line() for r in after if r.toposys not in raising
    ]
    assert len(before) - len(after) == len(raising) * (normal_count - 1)
    assert [(r.toposys, r.status, r.witness) for r in after if r.toposys in raising] == [
        (d, ERROR, "KeyError: 0") for d in cell_system_descriptors(lattice) if d in raising
    ]


# the suites whose rows come one cell at a time (quotient-probe: one row per normal subgroup)
CELL_SUITES = (
    "prime-order",
    "weak-closed",
    "convergence-compactness",
    "hausdorff-equivalence",
    "quotient-probe",
    "star-topology",
)


def _raising(monkeypatch, module, name, hit, times=1):
    """Make module.name raise ZeroDivisionError("seeded") on its first `times` calls that hit accepts (None: all)."""
    real, raised = getattr(module, name), []

    def seeded(*args):
        if (times is None or len(raised) < times) and hit(*args):
            raised.append(args)
            raise ZeroDivisionError("seeded")
        return real(*args)

    monkeypatch.setattr(module, name, seeded)
    return raised


def _with_error_rows(reports, moved, collapse=()):
    # a moved row becomes an error row; the moved rows of one check in `collapse` become one
    want, seen = [], set()
    for r in reports:
        if not moved(r):
            want.append(r)
        elif r.check not in collapse or (r.check, r.group, r.toposys) not in seen:
            seen.add((r.check, r.group, r.toposys))
            want.append(r._replace(status=ERROR, witness="ZeroDivisionError: seeded"))
    return want


def test_a_cell_whose_member_set_raises_gives_one_error_row_per_cell_suite(monkeypatch):
    # the cells read family_members outside any row; a descriptor only the cells name
    before = run_suite(SuiteConfig())
    hit = ("sym:3", "principal:gen{1}")
    raised = _raising(monkeypatch, suites, "family_members", lambda lat, desc: (lat.group.descriptor, desc) == hit)
    after = run_suite(SuiteConfig())
    assert len(raised) == 1

    def moved(r):
        return r.check in CELL_SUITES and (r.group, r.toposys) == hit

    want = _with_error_rows(before.reports, moved, collapse=("quotient-probe",))
    assert [r.json_line() for r in after.reports] == [r.json_line() for r in want]
    assert after.counts[ERROR] == len(CELL_SUITES) and after.counts[FAIL] == 0 and after.exit_code == 1


def test_a_factor_system_that_raises_gives_error_rows_for_the_certificates_that_need_it(monkeypatch):
    config = SuiteConfig(suites=("tychonoff",))
    before = run_suite(config)
    hit = ("cyclic:2", "normal")
    raised = _raising(monkeypatch, suites, "build_toposys", lambda lat, kind: (lat.group.descriptor, kind) == hit)
    after = run_suite(config)
    assert len(raised) == 1

    def moved(r):
        factors = r.group[len("product(") : -1].split(",")
        return r.check == "tychonoff-certificate" and hit in zip(factors, r.toposys.split("x"))

    want = _with_error_rows(before.reports, moved)
    assert [r.json_line() for r in after.reports] == [r.json_line() for r in want]
    # C2xC2: 5 kind pairs use normal on C2, C2xC3 and C4xC2: 3 each, C2xC2xC2: 19
    assert after.counts[ERROR] == 5 + 3 + 3 + 19 and after.exit_code == 1


def test_a_product_that_raises_gives_an_error_row_for_each_of_its_rows(monkeypatch):
    # the identities build and the certificate build of C3xC3 both raise
    config = SuiteConfig(suites=("tychonoff",))
    before = run_suite(config)
    descs = ["cyclic:3", "cyclic:3"]
    raised = _raising(monkeypatch, suites, "direct_product", lambda fs: [f.descriptor for f in fs] == descs, 2)
    after = run_suite(config)
    assert len(raised) == 2
    want = _with_error_rows(before.reports, lambda r: r.group == "product(cyclic:3,cyclic:3)")
    assert [r.json_line() for r in after.reports] == [r.json_line() for r in want]
    assert after.counts[ERROR] == 1 + 9 and after.exit_code == 1


def test_a_certificate_that_raises_is_an_error_row_for_each_row_that_shares_it(monkeypatch):
    # every kind pair on C2xC3 names one product system, so its nine rows share one certification
    config = SuiteConfig(suites=("tychonoff",))
    before = run_suite(config)
    name = "product(cyclic:2,cyclic:3)"
    _raising(monkeypatch, suites, "tychonoff_certificate", lambda ptop, f: ptop.product.group.descriptor == name, None)
    after = run_suite(config)
    want = _with_error_rows(before.reports, lambda r: r.check == "tychonoff-certificate" and r.group == name)
    assert [r.json_line() for r in after.reports] == [r.json_line() for r in want]
    assert after.counts[ERROR] == 9 and after.exit_code == 1


def test_a_default_run_with_a_cell_failing_its_axioms_runs_to_the_end(monkeypatch):
    # the toposys-axioms control's fault, in a default run: the 17 `normal` rows of
    # toposys-axioms fail, each cell suite gives one FAIL row for each `normal` cell,
    # naming the axiom failure, and every other row keeps its status and witness
    before = run_suite(SuiteConfig())
    assert before.counts[FAIL] == 0
    monkeypatch.setattr(suites, "family_members", _normal_without_the_whole_group)
    after = run_suite(SuiteConfig())
    failures = {}
    for lattice in map(enumerate_subgroups, map(build_group, DEFAULT_CATALOG)):
        bits = family_members(lattice, "normal").member_bits & ~(1 << lattice.top_index)
        failure = verify_toposys(lattice, bits)
        assert failure.kind == "axiom-a"
        group = lattice.group.descriptor
        failures[group] = f"normal:internal error: family 'normal' on {group} fails axioms: {failure}"
    want, seen = [], set()
    for r in before.reports:
        if r.toposys != "normal" or r.check not in CELL_SUITES + ("toposys-axioms",):
            want.append((r.check, r.group, r.toposys, r.status, r.witness))
        elif (r.check, r.group) not in seen:
            seen.add((r.check, r.group))
            want.append((r.check, r.group, "normal", FAIL, failures[r.group]))
    assert [(r.check, r.group, r.toposys, r.status, r.witness) for r in after.reports] == want
    assert after.counts[FAIL] == 17 * (1 + len(CELL_SUITES)) == 119
    assert len(before.reports) - len(after.reports) == 67 and after.exit_code == 1


# --- negative controls: a fault in the calculus a suite checks must move its rows ---

def _interior_without_members(system, x):
    # the top bit of below[x] alone is x itself, whatever the topens inside x
    return system.lattice.below[x].bit_length() - 1, frozenset()


def _isolated_points(system):
    # the lowest member, the trivial subgroup, read without above[cyclic(e)]
    return (0,) * system.lattice.group.order


def _least_topen_at_the_top(system):
    # the top bit of member_bits & above[cyclic(e)], not the lowest: G for every point
    return tuple((c & system.member_bits).bit_length() - 1 for c in system.lattice.containing)


def _weak_without_its_hypothesis(system, a):
    # every point outside a, not only those whose cyclic subgroup meets a trivially
    report = toposystems.t_closed_checks(system, a)
    return report._replace(weak_witness=report.t_closed_witness)


def _convergence_at_the_kernel_only(f, system):
    # K = U(y) instead of K ≤ U(y)
    return tuple(y for y, u in enumerate(system.least_topen) if u == f.kernel)


def _has_composite_order(lattice):
    orders = map(lattice.group.element_order, lattice.group.elements())
    return any(any(o % d == 0 for d in range(2, o)) for o in orders)


def _misses_a_kernel(system):
    least = set(oracles.least_topen_by_meet(system))
    return any(f.kernel not in least for f in enumerate_ultrafilters(system.lattice))


def _hausdorff_with_a_t_open_subgroup(system):
    subgroups = range(len(system.lattice))
    t_open = any(oracles.t_closed_by_incidence(system, i).t_closed_witness is not None for i in subgroups)
    return oracles.is_hausdorff_by_incidence(system)[0] and t_open


def _cell_rows(predicate):
    return lambda run, rows: [predicate(system) for _, system in run.cells]


def _with_a_non_normal_subgroup(run, rows):
    return [lattice.normal_bits != lattice.above[0] for lattice in run.lattices]


def _oracle_without_order_two(group):
    return tuple(m for m in brute_force_subgroup_masks(group) if m.bit_count() != 2)


def _is_cyclic(group):
    return any(group.element_order(x) == group.order for x in group.elements())


def _normal_without_the_whole_group(lattice, desc):
    system = family_members(lattice, desc)
    if desc != "normal":
        return system
    return TopoSystem(lattice, system.member_bits & ~(1 << lattice.top_index), desc)


_join_index = SubgroupLattice.join_index


def _join_at_the_lesser_index_in_the_factors(self, i, j):
    # the lower index, an upper bound of neither index in general, on every lattice but a product's
    return _join_index(self, i, j) if self.group.descriptor.startswith("product(") else min(i, j)


def _image_of_the_topens_above_n(parent, n):
    # the topens below N are dropped instead of joined with N, so N is lost unless it is a topen
    bits = parent.member_bits & parent.lattice.above[n]
    return QuotientToposys(bits, verify_toposys(parent.lattice, bits, n))


class Control(NamedTuple):
    """A seeded fault (where it goes, its name there, the faulty value) and the rows of a lone run it must move."""

    fault: tuple
    moves: Callable
    to: str = FAIL


# control -> the fault, which rows of a lone run of its suite must move, and the status they take;
# a control named <suite>/<what> is a second control of that suite
NEGATIVE_CONTROLS = {
    "lattice-completeness": Control(
        (suites, "brute_force_subgroup_masks", _oracle_without_order_two),
        # Cauchy: a group of even order has an element of order 2
        lambda run, rows: [build_group(r.group).order % 2 == 0 for r in rows],
    ),
    "toposys-axioms": Control(
        (suites, "family_members", _normal_without_the_whole_group),
        # a member set without G fails axiom (a) on every group
        lambda run, rows: [r.toposys == "normal" for r in rows],
    ),
    "interior-core": Control((suites, "interior_boundary", _interior_without_members), _with_a_non_normal_subgroup),
    # Core(H) = H exactly when H is normal
    "interior-core/core_index": Control(
        (SubgroupLattice, "core_index", lambda self, i: i),
        _with_a_non_normal_subgroup,
    ),
    "prime-order": Control(
        # no point is a limit, so every cyclic subgroup is T-closed
        (TopoSystem, "least_topen", property(_isolated_points)),
        _cell_rows(lambda system: _has_composite_order(system.lattice)),
    ),
    "weak-closed": Control(
        (suites, "t_closed_checks", _weak_without_its_hypothesis),
        _cell_rows(_hausdorff_with_a_t_open_subgroup),
    ),
    "ultrafilter-machinery": Control(
        # the filter itself comes back, and ↑K is an ultrafilter iff K is cyclic
        (suites, "extend_to_ultrafilter", lambda f: f),
        lambda run, rows: [not _is_cyclic(lattice.group) for lattice in run.lattices],
    ),
    "convergence-compactness": Control(
        (filters, "convergence_set", _convergence_at_the_kernel_only),
        _cell_rows(_misses_a_kernel),
    ),
    "hausdorff-equivalence": Control(
        (toposystems, "is_hausdorff", lambda system: (True, None)),
        _cell_rows(lambda system: not oracles.is_hausdorff_by_incidence(system)[0]),
    ),
    "tychonoff": Control(
        # every pushed ultrafilter converges to the identity, whose topens include the trivial one
        (TopoSystem, "least_topen", property(_least_topen_at_the_top)),
        lambda run, rows: [r.check == "tychonoff-certificate" for r in rows],
    ),
    "tychonoff/product-identities": Control(
        # the factorwise join breaks while the direct join on the product lattice stays sound
        (SubgroupLattice, "join_index", _join_at_the_lesser_index_in_the_factors),
        lambda run, rows: [r.check == "product-identities" for r in rows],
    ),
    "quotient-probe": Control(
        (toposystems, "quotient_toposys", _image_of_the_topens_above_n),
        # the suite reports a failing image as a FINDING: those that passed and lose N turn FINDING
        lambda run, rows: [
            oracles.quotient_by_verify(system, n).failure is None and n not in system
            for _, system in run.cells
            for n in bits_of(system.lattice.normal_bits)
        ],
        FINDING,
    ),
}


@pytest.mark.parametrize("control", NEGATIVE_CONTROLS)
def test_a_seeded_fault_moves_the_rows_its_suite_checks(monkeypatch, control):
    (target, name, fault), must_move, to = NEGATIVE_CONTROLS[control]
    suite = control.partition("/")[0]
    config = SuiteConfig(suites=(suite,))
    before = run_suite(config).reports
    assert not any(r.status == FAIL for r in before)
    monkeypatch.setattr(target, name, fault)
    run = SuiteRun(config)
    after = suites.SUITES[suite](run)
    expected = must_move(run, after)
    assert any(expected)
    assert [b.status != r.status == to for b, r in zip(before, after)] == expected
    # every other row keeps its status and witness
    kept = [(r.check, r.group, r.toposys, r.status, r.witness) for r, moved in zip(after, expected) if not moved]
    assert kept == [(r.check, r.group, r.toposys, r.status, r.witness) for r, moved in zip(before, expected) if not moved]
