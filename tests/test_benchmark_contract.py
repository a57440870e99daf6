"""The benchmark's tracer wraps program functions by name, and its workloads pin the reports."""

import importlib
import runpy
from pathlib import Path

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


def test_theorem_workloads_match_their_pins():
    # the pins are the exit code, row count, summary and stdout sha256 of
    # `theorems --format json`; read from the benchmark, not copied here
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    assert workloads["run_and_check"]("matrix", 0) == []
    assert workloads["run_and_check"]("wide", 0) == []
