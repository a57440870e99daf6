"""CLI subcommands, exit codes, JSON schema stability and determinism."""

import json
import os
import shlex
import subprocess
import sys

import pytest

import topogroups

from topogroups import suites, toposystems
from topogroups.cli import run_command
from topogroups.groups import TopoGroupError, build_group, mask_of
from topogroups.lattice import enumerate_subgroups
from topogroups.products import CertificateFailureError
from topogroups.report import CHECK_FIELDS, ValidationFailure, ValidationReport


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


def test_filters_and_converge(capsys):
    code, out, _ = run(capsys, "filters", "--group", "sym:3")
    assert code == 0 and out.count("principal:") == 4
    code, out, _ = run(capsys, "converge", "--group", "sym:3", "--sys", "normal", "--filter", "principal:3")
    assert code == 0
    assert "converges to [1, 2, 3, 4, 5]" in out


def test_filter_generated_by_a_gen_literal_with_commas(capsys):
    code, out, _ = run(capsys, "filters", "--group", "sym:3", "--filter", "generated:gen{1,2}")
    assert code == 0
    assert out.startswith("filter generated:#5: kernel #5")


def test_readme_cli_examples_run(capsys):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as f:
        block = f.read().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("topogroups ")]
    assert len(lines) == 10
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
        assert tuple(sorted(record)) == tuple(sorted(CHECK_FIELDS))
        assert record["elapsed_ms"] is None


def test_theorems_json_is_byte_identical_across_reruns(capsys):
    argv = ["theorems", "--suite", "lattice-completeness", "--max-order", "8", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_group_kind_exits_2(capsys):
    code, _, err = run(capsys, "theorems", "--groups", "nonsense:9")
    assert code == 2
    assert "error" in err


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
    assert suites.check_family(lattice, "principal", {}) == ("fail", "principal:#0:fails axioms")


def test_check_family_verifies_each_distinct_member_set_once(monkeypatch):
    lattice = enumerate_subgroups(build_group("dihedral:4"))
    descs = suites.family_instance_descriptors(lattice, "thk")
    distinct = {toposystems.family_members(lattice, d).members for d in descs}
    assert len(distinct) < len(descs)
    verified = []
    monkeypatch.setattr(suites, "require_axioms", lambda system: verified.append(system.members))
    assert suites.check_family(lattice, "thk", {}) == ("pass", None)
    assert sorted(map(sorted, verified)) == sorted(map(sorted, distinct))


def test_check_family_names_the_first_descriptor_of_a_failing_set(monkeypatch):
    lattice = enumerate_subgroups(build_group("dihedral:4"))
    descs = suites.family_instance_descriptors(lattice, "thk")
    systems = [toposystems.family_members(lattice, d) for d in descs]
    # fail the member set that the most descriptors share; it is verified once,
    # at its first descriptor, which the row must name
    bad = max({s.members for s in systems}, key=lambda m: sum(s.members == m for s in systems))
    first = next(d for d, s in zip(descs, systems) if s.members == bad)
    real = toposystems.verify_toposys

    def verify(lat, bits):
        if bits == mask_of(bad):
            return ValidationReport(False, (ValidationFailure("join-closure", (1, 2, 3), "forced"),))
        return real(lat, bits)

    monkeypatch.setattr(toposystems, "verify_toposys", verify)
    status, witness = suites.check_family(lattice, "thk", {})
    assert status == "fail"
    assert witness.startswith(f"{first}:internal error: family {first!r} on dihedral:4 fails axioms: ")
    with pytest.raises(TopoGroupError) as exc:
        toposystems.build_toposys(lattice, first)
    assert witness == f"{first}:{exc.value}"


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


def test_a_failed_tychonoff_step_is_one_fail_row(capsys, monkeypatch):
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
    assert json.loads(lines[-1])["summary"]["fail"] == 1
    got = [json.loads(line) for line in lines[:-1]]
    first = next(pos for pos, r in enumerate(want) if r["check"] == "tychonoff-certificate")
    assert got[first]["status"] == "fail"
    assert got[first]["witness"] == f"{seen[0].provenance}:membership"
    # every other row is still there, unchanged
    want[first].update(status="fail", witness=got[first]["witness"])
    assert got == want


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(topogroups.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "topogroups", "theorems", "--groups", "cyclic:2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "summary: 182 pass, 0 fail, 0 finding"
