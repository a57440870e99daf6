"""The benchmark's tracer wraps program functions by name, and its workloads pin the reports."""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_target_resolves():
    # run_path compiles the file in memory, so nothing is written beside it
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(f"topogroups.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_the_suite_table_holds_every_suite_function_the_tracer_names():
    # the tracer rebinds suites.suite_<name> and the module-level dicts that hold it,
    # so the table must hold those very functions, and nothing else may be named suite_*
    from topogroups import suites

    defined = {name: fn for name, fn in vars(suites).items() if name.startswith("suite_")}
    assert list(defined) == ["suite_" + name.replace("-", "_") for name in suites.SUITES]
    assert all(suites.SUITES[name] is fn for name, fn in zip(suites.SUITES, defined.values()))
    assert runpy.run_path(str(TRACER))["SUITES"] == tuple(name[len("suite_"):] for name in defined)


def test_theorem_workloads_match_their_pins():
    # the pins are the exit code, row count, summary and stdout sha256 of
    # `theorems --format json`, and the ladder's counts and sha256; read from
    # the benchmark, not copied here
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    assert workloads["run_and_check"]("matrix", 0) == []
    assert workloads["run_and_check"]("wide", 0) == []
    assert workloads["run_and_check"]("ladder", 0) == []


@pytest.mark.parametrize("workload", ["matrix", "wide", "ladder"])
def test_traced_pass_passes_its_self_checks(workload):
    # the tracer wraps program functions by name and reads each
    # build_toposys result's member set, so run one traced pass end to end;
    # the self-checks need a span for every function the workload calls:
    # the ultrafilter oracle's all_filters on wide, the cached lattice and
    # automorphism constructors on ladder
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
