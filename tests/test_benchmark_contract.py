"""The benchmark's tracer wraps program functions by name; they must exist."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
