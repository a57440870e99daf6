"""One cold pass of a workload in a fresh interpreter; started by run.py.

Usage: child.py WORKLOAD SEED TRACE   (TRACE is 0, 1, or "setup" to stop
after the import).  Prints one JSON record as its last stdout line.  The
setup clock stops once `topogroups` and its CLI are imported; the parent
subtracts its own launch time (both read the system-wide monotonic clock).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import topogroups  # noqa: E402
import topogroups.cli  # noqa: E402,F401

SETUP_DONE = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(workload: str, seed: int, trace: str) -> dict:
    record = {"setup_done": SETUP_DONE}
    if trace == "setup":
        return record
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        problems = workloads.run_and_check(workload, seed)
    except Exception as exc:  # a crash in the program is a failed operation
        traceback.print_exc()
        problems = [f"{type(exc).__name__}: {exc}"]
    record["pass_s"] = time.perf_counter() - start
    record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["problems"] = problems
    if tracer is not None:
        record["covered_s"] = tracer.covered_s()
        record["layers"] = tracer.layers()
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
