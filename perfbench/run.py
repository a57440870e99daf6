"""Benchmark for topogroups: cold, verified theorem runs and lattice construction.

    python3 perfbench/run.py --workload matrix|wide|ladder|all --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  Every pass runs in a fresh interpreter, one at a time, because
the program's module-level memos would make a warm pass nearly free.

--trace 0 repeats cold passes for about S seconds and reports the end-to-end
metrics.  --trace 1 alternates two untraced and two traced passes and reports
the per-layer metrics; it takes as long as those four passes.  Per-metric lines
come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
operation succeeded and every output matched its pin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES_PER_PASS = 3
TRACED_PASSES = 2  # two, so that call counts can be compared
HARD_LIMIT_S = 165.0  # no child outlives this, so every run ends inside 180 s
SUM_TOLERANCE_S = 1e-6

LEFT_OUT = (
    "abelian:2x2x2x2x2x2 (order 64): its lattice does not finish at the seed code; "
    "it joins as a workload after generator-based subgroup algebra lands",
    "automorphisms(abelian:2x2x2x2): a single call takes 12-15 s and would dominate any run",
    "product(...) descriptors in theorem workloads: `theorems --groups` splits on every comma, "
    "so wide uses comma-free descriptors",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Tally:
    """Operations attempted and failed in one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems


def launch(tally: Tally, workload: str, seed: int, mode: str, timeout: float):
    """Start one child, wait for it, and return (record, setup seconds) or None."""
    what = f"{workload} seed={seed} mode={mode}"
    cmd = [sys.executable, "-s", CHILD, workload, str(seed), mode]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        tally.check(what, [f"timed out after {timeout:.0f} s"])
        return None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        tally.check(what, [f"exit code {proc.returncode}: {' | '.join(tail)}"])
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not tally.check(what, record.get("problems", [])):
        return None
    return record, record["setup_done"] - launched


def remaining(start: float) -> float:
    return HARD_LIMIT_S - (time.perf_counter() - start)


def timed_run(workload: str, seed: int, seconds: int, tally: Tally) -> dict[str, list[float]]:
    """Cold passes for about `seconds`; returns the samples of each end-to-end metric."""
    start = time.perf_counter()
    samples: dict[str, list[float]] = {"setup_s": [], "pass_s": [], "peak_rss_mb": []}
    # the first child compiles bytecode, which a user pays once, not per run
    if launch(tally, workload, seed, "setup", remaining(start)) is None:
        return samples
    while True:
        elapsed = time.perf_counter() - start
        if samples["pass_s"] and elapsed + statistics.median(samples["pass_s"]) > seconds:
            break
        # machine speed drifts over seconds, so spread the setup probes over the run
        for _ in range(SETUP_PROBES_PER_PASS):
            got = launch(tally, workload, seed, "setup", remaining(start))
            if got is None:
                return samples
            samples["setup_s"].append(got[1])
        got = launch(tally, workload, seed, "0", remaining(start))
        if got is None:
            break
        record, setup = got
        samples["setup_s"].append(setup)
        samples["pass_s"].append(record["pass_s"])
        samples["peak_rss_mb"].append(record["peak_rss_kib"] / 1024.0)
    return samples


def traced_run(workload: str, seed: int, tally: Tally) -> dict[str, list[float]]:
    """Untraced and traced passes, alternated; returns the samples of each per-layer metric."""
    start = time.perf_counter()
    if launch(tally, workload, seed, "setup", remaining(start)) is None:
        return {}
    # alternating keeps slow drift in machine speed out of the overhead
    untraced, traced = [], []
    for _ in range(TRACED_PASSES):
        for mode, records in (("0", untraced), ("1", traced)):
            got = launch(tally, workload, seed, mode, remaining(start))
            if got is None:
                return {}
            records.append(got[0])

    first, second = (r["layers"] for r in traced)
    tally.check(
        "call counts repeat across two traced passes",
        [f"{n}: {first[n]['calls']} then {second[n]['calls']}" for n in first if first[n]["calls"] != second[n]["calls"]],
    )
    expected = workloads.LADDER_FUNCTIONS if workload == "ladder" else tracer.NAMES
    tally.check("every named function the workload calls has a span", [n for n in expected if first[n]["calls"] < 1])
    tally.check(
        "self times plus the untraced remainder add up to the traced pass",
        [
            f"self times {s:.9f} s vs covered {r['covered_s']:.9f} s"
            for r in traced
            for s in [sum(layer["self_s"] for layer in r["layers"].values())]
            if abs(s - r["covered_s"]) > SUM_TOLERANCE_S
        ],
    )

    samples = {f"{name}.{stat}": [r["layers"][name][stat] for r in traced] for name in tracer.NAMES for stat in tracer.STATS}
    for r in traced:
        layers = r["layers"]
        joins, builds, reports = (
            layers[n]["calls"] for n in ("lattice.join_index", "toposystems.build_toposys", "suites.cell_theorem_report")
        )
        samples.setdefault("lattice.join_index.closure_ratio", []).append(
            layers["lattice.join_index"]["closure_spans"] / joins if joins else 0.0
        )
        samples.setdefault("toposystems.build_toposys.distinct_ratio", []).append(
            layers["toposystems.build_toposys"]["distinct"] / builds if builds else 0.0
        )
        samples.setdefault("suites.cell_theorem_report.hit_ratio", []).append(
            1.0 - layers["filters.theorem_checks"]["calls"] / reports if reports else 0.0
        )
    samples["trace.pass_s"] = [r["pass_s"] for r in traced]
    samples["trace.untraced_pass_s"] = [r["pass_s"] for r in untraced]
    samples["trace.overhead_s"] = [t["pass_s"] - u["pass_s"] for u, t in zip(untraced, traced)]
    samples["trace.remainder_s"] = [r["pass_s"] - r["covered_s"] for r in traced]
    return samples


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("calls"):
        return "count"
    return "ratio"


def summarize(workload: str, seed: int, trace: int, samples: dict[str, list[float]], tally: Tally) -> dict:
    """Print one line per metric and return the medians as result metrics."""
    print(f"# workload {workload} seed={seed} trace={trace}")
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        if unit_of(name) == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit_of(name)}
        spread = f"min={min(values):.6g} max={max(values):.6g}" if len(values) > 1 else ""
        print(f"{workload:7s} {name:48s} {value:>14.6g} {unit_of(name):6s} n={len(values)} {spread}")
    if not trace:
        failed = len(tally.problems)
        metrics["ok_frac"] = {"value": 1.0 - failed / max(tally.attempted, 1), "unit": "ratio"}
        print(f"{workload:7s} {'error_frac':48s} {failed / max(tally.attempted, 1):>14.6g} ratio  "
              f"n={tally.attempted} (failed operations / attempted)")
    for problem in tally.problems:
        print(f"{workload:7s} FAILED {problem}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "topogroups", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/topogroups is missing", file=sys.stderr)
        return 2

    environment = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in chosen:
        tally = Tally()
        if args.trace:
            samples = traced_run(workload, args.seed, tally)
        else:
            samples = timed_run(workload, args.seed, args.seconds, tally)
        got = summarize(workload, args.seed, args.trace, samples, tally)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in got.items()})
        attempted += tally.attempted
        failed += len(tally.problems)
    environment["loadavg_after"] = os.getloadavg()
    print("# environment " + json.dumps(environment))
    for note in LEFT_OUT:
        print(f"# left out: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
