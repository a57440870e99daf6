"""Workload inputs, made from a seed, and the pinned outputs they must produce.

The seed only permutes the order in which groups and ladder entries are handed
to the program.  Reports are sorted by (group order, descriptor) and ladder
results are checked per entry, so every seed must give the pinned output:
the pins double as the cross-seed identity check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

# The default suite catalog, passed explicitly so the seed can permute it.
# It contains no product(...) descriptor, because `theorems --groups` splits
# on every comma.
MATRIX_GROUPS = (
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "abelian:2x2",
    "cyclic:6",
    "sym:3",
    "cyclic:8",
    "abelian:2x4",
    "abelian:2x2x2",
    "dihedral:4",
    "quaternion:8",
    "cyclic:9",
    "dihedral:5",
    "alt:4",
    "dihedral:6",
    "cyclic:16",
    "sym:4",
)
WIDE_GROUPS = ("dihedral:24", "abelian:2x4x4", "abelian:2x2x2x3")

# (descriptor, subgroups, normal members, automorphisms, characteristic members);
# the last two only for groups inside the automorphism cap (order <= 24).
LADDER = (
    ("dihedral:32", 69, 9, None, None),
    ("product(sym:4,cyclic:2)", 98, 9, None, None),
    ("abelian:2x2x2x2x2", 374, 374, None, None),
    ("product(abelian:2x2,sym:3)", 54, 21, 144, 5),
    ("abelian:2x2x2x3", 32, 32, 336, 4),
    ("abelian:2x2x4", 27, 27, 192, 4),
)

# Pinned at the seed code: exit code, report rows, summary counts, stdout digest.
THEOREM_PINS = {
    "matrix": (
        0,
        2148,
        {"pass": 2049, "fail": 0, "finding": 99},
        "b32fe98273fbae3ed498a501762489404a65543d25da66df252150a12cc272ea",
    ),
    "wide": (
        0,
        1290,
        {"pass": 1257, "fail": 0, "finding": 33},
        "1e7963ae2d402552d21ded9559c2c44ee3b65dd5c886beca7fa3bd762eebe1bc",
    ),
}
LADDER_SHA = "a316a9bc500f3c3c7097b525c759be7daaf0b1f997dd0142bc5f07df99a35ff9"

WORKLOADS = ("matrix", "wide", "ladder")

# Named functions each workload calls; the traced run requires a span for each.
LADDER_FUNCTIONS = (
    "groups.closure_mask",
    "groups.build_group",
    "lattice.enumerate_subgroups",
    "lattice.automorphisms",
    "lattice.join_index",
    "lattice.normalizer_index",
    "toposystems.build_toposys",
    "toposystems.verify_toposys",
)


def permuted(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def theorem_argv(workload: str, seed: int) -> list[str]:
    if workload == "matrix":
        return ["theorems", "--format", "json", "--groups", ",".join(permuted(MATRIX_GROUPS, seed))]
    return [
        "theorems",
        "--format",
        "json",
        "--max-order",
        "64",
        "--groups",
        ",".join(permuted(WIDE_GROUPS, seed)),
    ]


def run_theorems(argv: list[str]) -> tuple[int, str]:
    from topogroups import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_command(argv)
    return code, out.getvalue()


def check_theorems(workload: str, code: int, text: str) -> list[str]:
    want_code, want_rows, want_summary, want_sha = THEOREM_PINS[workload]
    problems = []
    lines = text.splitlines()
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if len(lines) - 1 != want_rows:
        problems.append(f"{len(lines) - 1} report rows, expected {want_rows}")
    try:
        summary = json.loads(lines[-1])["summary"] if lines else None
    except (ValueError, KeyError, TypeError):
        summary = None
    if summary != want_summary:
        problems.append(f"summary {summary}, expected {want_summary}")
    sha = hashlib.sha256(text.encode()).hexdigest()
    if sha != want_sha:
        problems.append(f"stdout sha256 {sha}, expected {want_sha}")
    return problems


def run_ladder(entries: list[str]) -> dict[str, dict]:
    from topogroups import automorphisms, build_group, build_toposys, enumerate_subgroups

    results = {}
    for desc in entries:
        group = build_group(desc)
        lattice = enumerate_subgroups(group)
        normal = build_toposys(lattice, "normal")
        record = {
            "masks": sorted(s.mask for s in lattice.subgroups),
            "normal": sorted(normal.members),
        }
        if group.order <= 24:
            record["automorphisms"] = sorted(tuple(phi(x) for x in group.elements()) for phi in automorphisms(group))
            record["characteristic"] = sorted(build_toposys(lattice, "characteristic").members)
        results[desc] = record
    return results


def check_ladder(results: dict[str, dict]) -> list[str]:
    problems = []
    for desc, subgroups, normal, autos, chars in LADDER:
        got = results.get(desc)
        if got is None:
            problems.append(f"{desc}: no result")
            continue
        want = {"masks": subgroups, "normal": normal, "automorphisms": autos, "characteristic": chars}
        for field, count in want.items():
            have = len(got[field]) if field in got else None
            if have != count:
                problems.append(f"{desc}: {have} {field}, expected {count}")
    canonical = json.dumps(results, sort_keys=True).encode()
    sha = hashlib.sha256(canonical).hexdigest()
    if sha != LADDER_SHA:
        problems.append(f"ladder sha256 {sha}, expected {LADDER_SHA}")
    return problems


def run_and_check(workload: str, seed: int) -> list[str]:
    """One pass: hand the seeded inputs to the program and check its output."""
    if workload == "ladder":
        return check_ladder(run_ladder(permuted((e[0] for e in LADDER), seed)))
    code, text = run_theorems(theorem_argv(workload, seed))
    return check_theorems(workload, code, text)
