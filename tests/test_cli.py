"""CLI subcommands, exit codes, JSON schema stability and determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

import topogroups

from topogroups import suites, toposystems
from topogroups.cli import run_command
from topogroups.groups import TopoGroupError, bits_of, build_group, mask_of
from topogroups.lattice import enumerate_subgroups
from topogroups.products import CertificateFailureError
from topogroups.report import CheckReport, ValidationFailure


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_lists_six_subgroups(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "sym:3")
    assert code == 0
    assert "6 subgroups" in out
    assert out.count("#") >= 6


def test_lattice_json_records(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "cyclic:4", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert records[0]["order"] == 1 and records[-1]["order"] == 4


def test_toposys_verify(capsys):
    code, out, _ = run(capsys, "toposys", "--group", "sym:3", "--sys", "generated:#1,#2", "--verify")
    assert code == 0
    assert "axioms: pass" in out


def test_toposys_verify_prints_a_failing_verdict(capsys, monkeypatch):
    failure = ValidationFailure("join-closure", (1, 2, 3), "forced")
    monkeypatch.setattr(toposystems, "verify_toposys", lambda lattice, bits, n=0: failure)
    code, out, err = run(capsys, "toposys", "--group", "sym:3", "--sys", "normal", "--verify")
    assert code == 1 and not err
    lines = out.splitlines()
    assert lines[0] == "sym:3 / normal: 3 topens"
    assert lines[-1] == f"axioms: fail {failure}"
    # without --verify a failing member set is still an error
    code, out, err = run(capsys, "toposys", "--group", "sym:3", "--sys", "normal")
    assert code == 2 and not out
    assert err.startswith("error: internal error: family 'normal' on sym:3 fails axioms: ")


def test_closure_subcommand(capsys):
    code, out, _ = run(capsys, "closure", "--group", "sym:3", "--sys", "normal", "--subgroup", "#1")
    assert code == 0
    assert "interior: #0" in out
    assert "boundary: [1]" in out


def test_hausdorff_exit_codes(capsys):
    code, out, _ = run(capsys, "hausdorff", "--group", "sym:3", "--sys", "discrete")
    assert code == 0 and "true" in out
    code, out, _ = run(capsys, "hausdorff", "--group", "sym:3", "--sys", "normal")
    assert code == 1 and "false" in out


def test_cover_subcommand(capsys):
    code, out, _ = run(capsys, "cover", "--group", "sym:3", "--sys", "discrete", "--cover", "#1,#2,#3,#4")
    assert code == 0
    assert "minimal subcover (exact)" in out
    code, out, _ = run(capsys, "cover", "--group", "sym:3", "--sys", "discrete", "--cover", "#4")
    assert code == 1
    # a gen{..} literal keeps its inner comma
    code, out, _ = run(capsys, "cover", "--group", "sym:3", "--sys", "discrete", "--cover", "gen{1,2},#1")
    assert code == 0
    assert out == "minimal subcover (exact): #5\n"


def test_filters_and_converge(capsys):
    code, out, _ = run(capsys, "filters", "--group", "sym:3")
    assert code == 0 and out.count("principal:") == 4
    code, out, _ = run(capsys, "converge", "--group", "sym:3", "--sys", "normal", "--filter", "principal:3")
    assert code == 0
    assert "converges to [1, 2, 3, 4, 5]" in out


GOLDEN_LINES = {
    ("converge", "--group", "sym:3", "--sys", "normal", "--filter", "principal:3"): (
        0,
        "principal:3 (kernel #4) on normal: converges to [1, 2, 3, 4, 5]\n"
        "  class [1] (cyclic subgroup #1)\n"
        "  class [2] (cyclic subgroup #2)\n"
        "  class [3, 4] (cyclic subgroup #4)\n"
        "  class [5] (cyclic subgroup #3)\n",
    ),
    ("hausdorff", "--group", "sym:3", "--sys", "normal"): (1, "hausdorff: false (inseparable pair x=1, y=2)\n"),
    ("cover", "--group", "sym:3", "--sys", "discrete", "--cover", "#1,#2,#3,#4,#5", "--target", "#4"): (
        0,
        "minimal subcover (exact): #4\n",
    ),
    ("product", "--groups", "cyclic:2;cyclic:3", "--sys", "discrete;trivial", "--tychonoff"): (
        0,
        "product group product(cyclic:2,cyclic:3): order 6\n"
        "product system: 4 topens\n"
        "  principal:1: converges at (1, 1) (1 topens replayed)\n"
        "  principal:3: converges at (1, 1) (1 topens replayed)\n"
        "  principal:4: converges at (1, 1) (1 topens replayed)\n",
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_LINES), ids=lambda argv: argv[0])
def test_result_record_commands_print_their_pinned_lines(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (*GOLDEN_LINES[argv], "")


def test_filter_generated_by_a_gen_literal_with_commas(capsys):
    code, out, _ = run(capsys, "filters", "--group", "sym:3", "--filter", "generated:gen{1,2}")
    assert code == 0
    assert out.startswith("filter generated:#5: kernel #5")


def test_readme_cli_examples_run(capsys):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as f:
        block = f.read().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    # a comment starts at a "#" that begins a word, as in the shell: the "#" in
    # generated:#1,#2 or '#1,#2' is part of its argument
    commands = [line for line in block.splitlines() if line.startswith("topogroups ")]
    lines = [shlex.split(re.sub(r"(?<!\S)#.*", "", line))[1:] for line in commands]
    assert len(lines) == 11
    assert lines[1][-2:] == ["generated:#1,#2", "--verify"]
    for argv in lines:
        code = run_command(argv)
        capsys.readouterr()
        # 1 is a documented failed check (hausdorff of sym:3 under normal); 2 would be a usage error
        assert code == (1 if argv[0] == "hausdorff" else 0), argv


def test_product_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "product",
        "--groups",
        "cyclic:2;cyclic:3",
        "--sys",
        "discrete;discrete",
        "--identities",
        "--tychonoff",
    )
    assert code == 0
    assert "component identities: pass" in out
    assert "converges at" in out


@pytest.mark.parametrize("kinds", ["discrete", "discrete;discrete;discrete"])
def test_product_needs_one_system_per_factor(capsys, kinds):
    code, _, err = run(capsys, "product", "--groups", "cyclic:2;cyclic:3", "--sys", kinds, "--tychonoff")
    assert code == 2
    assert err == "error: one topo-system per factor is required\n"


def test_theorems_single_cell(capsys):
    code, out, _ = run(
        capsys,
        "theorems",
        "--suite",
        "hausdorff-equivalence",
        "--groups",
        "sym:3",
        "--max-order",
        "12",
        "--format",
        "json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"]["fail"] == 0
    for line in lines[:-1]:
        record = json.loads(line)
        assert tuple(sorted(record)) == tuple(sorted(CheckReport._fields))
        assert record["elapsed_ms"] is None


def test_theorems_json_is_byte_identical_across_reruns(capsys):
    argv = ["theorems", "--suite", "lattice-completeness", "--max-order", "8", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# bad CLI inputs; CONFIG stands for a config file holding the given bytes,
# MISSING for a path that does not exist and DIR for a directory
BAD_INPUTS = {
    "unknown-kind": (["theorems", "--groups", "nonsense:9"], None),
    "config-not-utf8": (["theorems", "--config", "CONFIG"], b"max-order=\xff\n"),
    "product-nested-500-deep": (["lattice", "--group", "product(" * 500 + "cyclic:1" + ")" * 500], None),
    "abelian-trailing-x": (["lattice", "--group", "abelian:2x"], None),
    "abelian-double-x": (["lattice", "--group", "abelian:2xx3"], None),
    "abelian-leading-x": (["lattice", "--group", "abelian:x2"], None),
    "tychonoff-without-sys": (["product", "--groups", "cyclic:2;cyclic:3", "--tychonoff"], None),
    "groups-names-none": (["theorems", "--groups", ","], None),
    "config-groups-names-none": (["theorems", "--config", "CONFIG"], b"groups = ,\n"),
    **{
        f"groups-empty-part-{name}": (["theorems", "--groups", spec], None)
        for name, spec in (("middle", "sym:3,,cyclic:2"), ("trailing", "cyclic:2,"), ("leading", ",cyclic:2"))
    },
    "config-groups-empty-part": (["theorems", "--config", "CONFIG"], b"groups = cyclic:2,\n"),
    "config-suites-empty-part": (["theorems", "--config", "CONFIG"], b"suites = lattice-completeness,,prime-order\n"),
    "config-suites-names-none": (["theorems", "--config", "CONFIG"], b"suites = ,\n"),
    "group-above-max-order": (["theorems", "--groups", "dihedral:32"], None),
    "config-group-above-max-order": (["theorems", "--config", "CONFIG"], b"max-order = 8\ngroups = sym:4\n"),
    "config-bad-format": (["theorems", "--config", "CONFIG"], b"format = xml\n"),
    "product-sys-count": (["product", "--groups", "cyclic:2;cyclic:3", "--sys", "discrete", "--tychonoff"], None),
    "product-sys-kind": (["product", "--groups", "cyclic:2;cyclic:3", "--sys", "discrete;bogus"], None),
    "tychonoff-trivial-product": (
        ["product", "--groups", "cyclic:1;cyclic:1", "--sys", "discrete;discrete", "--tychonoff"],
        None,
    ),
    "tychonoff-trivial-factor": (["product", "--groups", "cyclic:1", "--sys", "discrete", "--tychonoff"], None),
    "config-line-without-equals": (["theorems", "--config", "CONFIG"], b"max-order 8\n"),
    "config-unknown-suite": (["theorems", "--config", "CONFIG"], b"suites = bogus\n"),
    "config-missing": (["theorems", "--config", "MISSING"], None),
    "config-is-a-directory": (["theorems", "--config", "DIR"], None),
    "cyclic-zero": (["lattice", "--group", "cyclic:0"], None),
    "abelian-zero-factor": (["lattice", "--group", "abelian:0x2"], None),
    "product-empty-factor": (["lattice", "--group", "product(cyclic:2,)"], None),
    "abelian-above-cap": (["lattice", "--group", "abelian:4x4x8"], None),
    "dihedral-above-cap": (["lattice", "--group", "dihedral:33"], None),
    **{
        f"sys-{value}": (["toposys", "--group", "sym:3", "--sys", value], None)
        for value in (
            "principal:#abc",
            "principal:gen{a}",
            "principal:gen{99}",
            "thk:#0",
            "variety:exponent-x",
            "thk:#0::#5",
            "generated:",
            "generated:,",
            "generated:#1,,#2",
        )
    },
    **{
        f"filter-{value}": (["filters", "--group", "sym:3", "--filter", value], None)
        for value in ("principal:x", "bogus", "generated:#0", "principal:99", "generated:")
    },
    **{
        f"product-empty-part-{name}": (["product", *args], None)
        for name, args in (
            ("groups", ["--groups", "cyclic:2;;cyclic:3", "--identities"]),
            ("groups-trailing", ["--groups", "cyclic:2;cyclic:3;", "--identities"]),
            ("product-factor", ["--groups", "product(cyclic:2,,cyclic:3)"]),
            ("sys", ["--groups", "cyclic:2;cyclic:3", "--sys", "discrete;;normal"]),
            ("sys-trailing", ["--groups", "cyclic:2;cyclic:3", "--sys", "discrete;normal;"]),
        )
    },
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_unknown_group_kind_exits_2(tmp_path, capsys, case):
    argv, config = BAD_INPUTS[case]
    cfg = tmp_path / "bad.cfg"
    if config is not None:
        cfg.write_bytes(config)
    paths = {"CONFIG": cfg, "MISSING": tmp_path / "missing.cfg", "DIR": tmp_path}
    code, out, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_named_group_above_max_order_exits_2(capsys):
    code, out, err = run(capsys, "theorems", "--max-order", "8", "--groups", "sym:3,sym:4")
    assert code == 2 and not out
    assert err == "error: group sym:4 has order 24, above max-order 8\n"


def test_a_max_order_below_every_catalog_group_names_that_cause(capsys):
    code, out, err = run(capsys, "theorems", "--max-order", "1")
    assert code == 2 and not out
    assert err == "error: no default-catalog group has order at most 1\n"


def test_config_file_bad_format_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("suites = lattice-completeness\nformat = xml\n")
    code, out, err = run(capsys, "theorems", "--config", str(cfg))
    assert code == 2 and not out
    assert err == f"error: {cfg}:2: format must be text or json, got 'xml'\n"


def test_a_group_named_twice_is_one_matrix_row(capsys):
    once = run(capsys, "theorems", "--groups", "sym:3")
    twice = run(capsys, "theorems", "--groups", "sym:3,sym:3")
    spelled = run(capsys, "theorems", "--groups", "sym:3, SYM:3")
    assert once[0] == 0 and twice == once and spelled == once
    # 100 sym:3 rows and 100 tychonoff rows, however often sym:3 is named
    rows = once[1].splitlines()
    assert sum("group=sym:3" in line for line in rows) == 100
    assert rows[-1] == "summary: 196 pass, 0 fail, 4 finding"


def test_suites_run_in_table_order_and_once_however_often_named(capsys):
    named = run(capsys, "theorems", "--suite", "star-topology", "--suite", "prime-order", "--suite", "prime-order")
    in_order = run(capsys, "theorems", "--suite", "prime-order", "--suite", "star-topology")
    assert named == in_order and named[0] == 0
    checks = [line.split()[1] for line in named[1].splitlines()[:-1]]
    assert checks == sorted(checks, key=list(suites.SUITES).index)
    assert checks.count("prime-order") == checks.count("star-topology") == 185


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("max-order = 6\ngroups = sym:3,cyclic:4\nsuites = lattice-completeness\nformat = json\n")
    code, out, _ = run(capsys, "theorems", "--config", str(cfg))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    groups = {r["group"] for r in lines[:-1]}
    assert groups == {"sym:3", "cyclic:4"}


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("surprise = 1\n")
    code, _, err = run(capsys, "theorems", "--config", str(cfg))
    assert code == 2


def test_config_file_bad_max_order_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max-order=abc\n")
    code, _, err = run(capsys, "theorems", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "max-order" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_order_below_one_exits_2(capsys, value):
    code, out, err = run(capsys, "theorems", f"--max-order={value}")
    assert code == 2 and not out
    assert err == f"error: max-order must be at least 1, got {value}\n"


def test_config_suites_with_spaces_run_as_the_same_flags(tmp_path, capsys):
    cfg = tmp_path / "spaced.cfg"
    cfg.write_text("groups = cyclic:2, sym:3\nsuites = prime-order, star-topology\n")
    flags = ("--groups", "cyclic:2,sym:3", "--suite", "prime-order", "--suite", "star-topology")
    spaced = run(capsys, "theorems", "--config", str(cfg))
    assert spaced[0] == 0 and spaced == run(capsys, "theorems", *flags)


def test_config_file_max_order_below_one_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max-order = 0\n")
    code, out, err = run(capsys, "theorems", "--config", str(cfg))
    assert code == 2 and not out
    assert err == "error: max-order must be at least 1, got 0\n"


@pytest.mark.parametrize("value,shown", [("yes", True), ("1", True), ("no", False), ("false", False)])
def test_config_file_timings_values(tmp_path, capsys, value, shown):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"max-order = 4\nsuites = lattice-completeness\nformat = json\ntimings = {value}\n")
    code, out, _ = run(capsys, "theorems", "--config", str(cfg))
    assert code == 0
    assert isinstance(json.loads(out.splitlines()[0])["elapsed_ms"], float) == shown


def test_config_file_bad_timings_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("suites = lattice-completeness\ntimings = maybe\n")
    code, out, err = run(capsys, "theorems", "--config", str(cfg))
    assert code == 2 and not out
    assert err == f"error: {cfg}:2: timings must be 1/true/yes or 0/false/no, got 'maybe'\n"


def test_theorems_groups_split_on_top_level_commas(capsys):
    code, out, _ = run(
        capsys, "theorems", "--suite", "lattice-completeness", "--format", "json",
        "--groups", "product(cyclic:2,cyclic:3),sym:3",
    )
    assert code == 0
    groups = {json.loads(line)["group"] for line in out.strip().splitlines()[:-1]}
    assert groups == {"product(cyclic:2,cyclic:3)", "sym:3"}


def test_theorems_order_1_group_does_not_abort_the_matrix(capsys):
    code, out, _ = run(capsys, "theorems", "--format", "json", "--groups", "cyclic:1,cyclic:2")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert {r["group"] for r in records} >= {"cyclic:1", "cyclic:2"}
    skipped = [r for r in records if r["group"] == "cyclic:1" and r["status"] == "finding"]
    assert {r["check"] for r in skipped} == {
        "ultrafilter-machinery", "convergence-compactness", "hausdorff-equivalence",
    }
    assert all(r["witness"].startswith("skipped:") for r in skipped)


def test_timings_flag_emits_numbers(capsys):
    code, out, _ = run(
        capsys, "theorems", "--suite", "lattice-completeness", "--max-order", "4",
        "--format", "json", "--timings",
    )
    assert code == 0
    first = json.loads(out.strip().splitlines()[0])
    assert isinstance(first["elapsed_ms"], float)


def test_family_sweeps_past_the_cap_are_findings(capsys):
    code, out, _ = run(
        capsys, "theorems", "--format", "json", "--max-order", "32",
        "--groups", "abelian:2x2x2x2x2", "--suite", "toposys-axioms",
    )
    assert code == 0
    records = {r["toposys"]: r for r in map(json.loads, out.strip().splitlines()[:-1])}
    for family in ("principal", "conj", "thk"):
        assert records[family]["status"] == "finding"
        assert records[family]["witness"] == "skipped: 374 subgroups exceed family sweep cap 128"
    assert records["discrete"]["status"] == "pass"


def test_check_family_reports_a_build_failure_as_a_fail_row(monkeypatch):
    def broken(lattice, desc):
        raise TopoGroupError("fails axioms")

    monkeypatch.setattr(suites, "family_members", broken)
    lattice = enumerate_subgroups(build_group("sym:3"))
    assert suites.check_family(lattice, "variety", {}) == ("fail", "variety:abelian:fails axioms")
    assert suites.check_family(lattice, "normal", {}) == ("fail", "normal:fails axioms")
    # the swept families are read off the lattice by index, with no descriptor to resolve
    assert suites.check_family(lattice, "principal", {}) == ("pass", None)


def test_check_family_verifies_each_distinct_member_set_once(monkeypatch):
    lattice = enumerate_subgroups(build_group("dihedral:4"))
    descs = [d for d, _ in suites.family_instances(lattice, "thk")]
    distinct = {toposystems.family_members(lattice, d).members for d in descs}
    assert len(distinct) < len(descs)
    verified = []
    monkeypatch.setattr(toposystems, "verify_toposys", lambda lat, bits: verified.append(frozenset(bits_of(bits))))
    assert suites.check_family(lattice, "thk", {}) == ("pass", None)
    assert sorted(map(sorted, verified)) == sorted(map(sorted, distinct))


def test_check_family_names_the_first_descriptor_of_a_failing_set(monkeypatch):
    lattice = enumerate_subgroups(build_group("dihedral:4"))
    descs = [d for d, _ in suites.family_instances(lattice, "thk")]
    systems = [toposystems.family_members(lattice, d) for d in descs]
    # fail the member set that the most descriptors share; it is verified once,
    # at its first descriptor, which the row must name
    bad = max({s.members for s in systems}, key=lambda m: sum(s.members == m for s in systems))
    first = next(d for d, s in zip(descs, systems) if s.members == bad)
    real = toposystems.verify_toposys

    def verify(lat, bits):
        if bits == mask_of(bad):
            return ValidationFailure("join-closure", (1, 2, 3), "forced")
        return real(lat, bits)

    monkeypatch.setattr(toposystems, "verify_toposys", verify)
    status, witness = suites.check_family(lattice, "thk", {})
    assert status == "fail"
    assert witness.startswith(f"{first}:internal error: family {first!r} on dihedral:4 fails axioms: ")
    with pytest.raises(TopoGroupError) as exc:
        toposystems.build_toposys(lattice, first)
    assert witness == f"{first}:{exc.value}"


def test_the_order_64_identity_check_finishes_within_budget(capsys):
    # 374 x 2 factor-subgroup tuples and every pair of them, joined on the
    # 2825-subgroup product lattice; about 1 s on 2 CPUs, and the budget may only be tightened
    start = time.perf_counter()
    code, out, err = run(capsys, "product", "--groups", "abelian:2x2x2x2x2;cyclic:2", "--identities")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "") and out.splitlines()[1] == "component identities: pass"
    assert elapsed < 5, f"{elapsed:.1f}s over the 5s budget"


def test_product_tychonoff_failure_is_reported_per_ultrafilter(capsys):
    code, out, err = run(
        capsys,
        "product",
        "--groups",
        "product(abelian:2x2,cyclic:2)",
        "--sys",
        "discrete;discrete",
        "--tychonoff",
    )
    assert code == 1 and not err
    lines = [line for line in out.splitlines() if line.startswith("  principal:")]
    assert len(lines) == 7
    failed = [line for line in lines if "step pushforward[0] failed" in line]
    assert failed and "witness ValidationFailure(kind='meet'" in failed[0]
    assert sum("converges at" in line for line in lines) == len(lines) - len(failed)


def test_a_failed_tychonoff_step_fails_every_row_of_its_product_system(capsys, monkeypatch):
    argv = ["theorems", "--suite", "tychonoff", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = [json.loads(line) for line in out.splitlines()[:-1]]
    real = suites.tychonoff_certificate
    seen = []

    def certificate(ptop, f):
        seen.append(f)
        if len(seen) == 1:
            raise CertificateFailureError("membership", (0,))
        return real(ptop, f)

    monkeypatch.setattr(suites, "tychonoff_certificate", certificate)
    code, out, err = run(capsys, *argv)
    assert code == 1 and not err
    lines = out.splitlines()
    got = [json.loads(line) for line in lines[:-1]]
    # the first certificate is of the one product system on cyclic:2 x cyclic:2,
    # where every kind names {1, C2}: all 9 of that product's rows share it
    witness = f"{seen[0].provenance}:membership"
    failed = [
        pos for pos, r in enumerate(want)
        if r["check"] == "tychonoff-certificate" and r["group"] == "product(cyclic:2,cyclic:2)"
    ]
    assert len(failed) == 9
    assert json.loads(lines[-1])["summary"]["fail"] == 9
    assert [pos for pos, r in enumerate(got) if r["status"] == "fail"] == failed
    # every other row is still there, unchanged
    for pos in failed:
        want[pos].update(status="fail", witness=witness)
    assert got == want


def _old_row_json(report, timings):
    """A row as the generic encoder writes it, from the dict the CLI once built."""
    elapsed = round(report.elapsed_ms, 3) if timings and report.elapsed_ms is not None else None
    record = {
        "check": report.check,
        "group": report.group,
        "toposys": report.toposys,
        "status": report.status,
        "witness": report.witness,
        "elapsed_ms": elapsed,
    }
    return json.dumps(record, sort_keys=True)


@pytest.mark.parametrize(
    "suites_run,timings", [(tuple(suites.SUITES), False), (tuple(suites.SUITES), True), (("tychonoff",), True)]
)
def test_json_line_writes_the_encoder_bytes(suites_run, timings):
    result = suites.run_suite(suites.SuiteConfig(suites=suites_run))
    assert result.reports
    for report in result.reports:
        assert report.json_line(timings) == _old_row_json(report, timings)


@pytest.mark.parametrize(
    "report",
    [
        CheckReport("c", "g", "", "pass"),
        CheckReport("c", "g", "s", "fail", "wit\u00e9ness \"q\"\n\u2192 \U0001d400", 1.23456),
        CheckReport("c\u00e9", "g\t", "s/\u0000", "finding", None, 0.0004),
        CheckReport("c", "g", "s", "pass", "", 12),
    ],
)
@pytest.mark.parametrize("timings", [False, True])
def test_json_line_writes_the_encoder_bytes_on_hand_built_rows(report, timings):
    assert report.json_line(timings) == _old_row_json(report, timings)


def test_record_reprs_in_the_output(capsys):
    code, out, err = run(capsys, "converge", "--group", "sym:3", "--sys", "discrete", "--filter", "cofinite")
    assert code == 2 and not out
    assert err == (
        "error: family is not a subgroup filter: "
        "ValidationFailure(kind='meet', witness=(1, 2, 0), detail='meet is trivial')\n"
    )
    code, out, err = run(
        capsys, "product", "--groups", "sym:3;cyclic:2", "--sys", "discrete;discrete", "--tychonoff"
    )
    assert code == 1 and not err
    assert out.splitlines()[2] == (
        "  principal:1: step pushforward[0] failed "
        "(witness ValidationFailure(kind='meet', witness=(1, 2, 0), detail='meet is trivial'))"
    )


def test_importing_the_cli_loads_no_dataclass_machinery():
    # a fresh interpreter without site, since pytest itself loads these modules
    src = os.path.dirname(os.path.dirname(os.path.abspath(topogroups.__file__)))
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    probe = f"import sys, topogroups.cli; print(sorted(set({heavy!r}) & sys.modules.keys()))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(topogroups.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "topogroups", "theorems", "--groups", "cyclic:2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "summary: 182 pass, 0 fail, 0 finding"
