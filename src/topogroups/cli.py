"""Command-line surface: inspect lattices and systems, run the theorem suites.

Exit codes: 0 all checks pass, 1 any check failed or raised (an `error` row),
2 usage or config error.
JSON output is schema-stable and byte-identical across reruns of the same
config; per-check timings are only emitted with --timings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .groups import TopoGroupError, build_group, split_top_level
from .lattice import enumerate_subgroups
from .toposystems import (
    BadParameterError,
    build_toposys,
    closure_and_limits,
    family_members,
    find_finite_subcover,
    interior_boundary,
    is_hausdorff,
    resolve_subgroup_literal,
    t_closed_checks,
)
from .filters import (
    convergence_set,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    is_ultrafilter,
    parse_filter,
)
from .products import CertificateFailureError, direct_product, product_identities_check
from .products import product_toposys, tychonoff_certificate
from .report import ERROR, FAIL, FINDING, PASS, CheckReport
from .suites import DEFAULT_CATALOG, SUITES, SuiteConfig, run_suite


# one encoder for the lattice records and the summary line (report rows write their own):
# json.dumps(..., sort_keys=True) builds a new one per call
_to_json = json.JSONEncoder(sort_keys=True).encode


def _emit(reports, fmt: str, timings: bool):
    line = CheckReport.json_line if fmt == "json" else CheckReport.text_line
    sys.stdout.writelines(line(r, timings) + "\n" for r in reports)


TIMINGS_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise TopoGroupError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TopoGroupError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("max-order", "groups", "suites", "format", "timings"):
            raise TopoGroupError(f"{path}:{lineno}: unknown config key {key!r}")
        value = value.strip()
        if key == "max-order":
            try:
                int(value)
            except ValueError:
                raise TopoGroupError(f"{path}:{lineno}: max-order must be an integer, got {value!r}") from None
        if key == "format" and value not in ("text", "json"):
            raise TopoGroupError(f"{path}:{lineno}: format must be text or json, got {value!r}")
        if key == "timings" and value not in TIMINGS_VALUES:
            raise TopoGroupError(f"{path}:{lineno}: timings must be 1/true/yes or 0/false/no, got {value!r}")
        values[key] = value
    return values


def _lattice_for(args) -> tuple:
    group = build_group(args.group)
    return group, enumerate_subgroups(group)


def _cmd_lattice(args) -> int:
    group, lattice = _lattice_for(args)
    if args.format == "json":
        for i in range(len(lattice)):
            sub = lattice.subgroup(i)
            record = {
                "index": i,
                "order": sub.order,
                "elements": list(sub.members),
                "names": [group.name(x) for x in sub.members],
                "normal": lattice.is_normal_index(i),
            }
            print(_to_json(record))
    else:
        print(f"{group.descriptor}: order {group.order}, {len(lattice)} subgroups")
        for i in range(len(lattice)):
            sub = lattice.subgroup(i)
            tag = " normal" if lattice.is_normal_index(i) else ""
            names = ",".join(group.name(x) for x in sub.members)
            print(f"  #{i} order={sub.order}{tag} {{{names}}}")
    return 0


def _cmd_toposys(args) -> int:
    group, lattice = _lattice_for(args)
    # with --verify a failing member set is listed and gets its verdict line
    system = family_members(lattice, args.sys) if args.verify else build_toposys(lattice, args.sys)
    print(f"{group.descriptor} / {system.provenance}: {system.member_bits.bit_count()} topens")
    for note in system.notes:
        print(f"  note: {note}")
    for i in system.member_indices:
        print(f"  {lattice.describe(i)}")
    if args.verify:
        failure = system.failure
        print(f"axioms: {'pass' if failure is None else f'fail {failure}'}")
        return 0 if failure is None else 1
    return 0


def _cmd_closure(args) -> int:
    group, lattice = _lattice_for(args)
    system = build_toposys(lattice, args.sys)
    x = resolve_subgroup_literal(lattice, args.subgroup)
    interior, boundary = interior_boundary(system, x)
    limits, closure = closure_and_limits(system, x)
    closed = t_closed_checks(system, x)
    print(f"subgroup: {lattice.describe(x)}")
    print(f"interior: {lattice.describe(interior)}")
    print(f"boundary: {sorted(boundary)}")
    print(f"limit points: {sorted(limits)}")
    print(f"closure: {lattice.describe(closure)}")
    print(f"t-closed: {closed.t_closed_witness is None} (witness {closed.t_closed_witness})")
    print(f"weak-t-closed: {closed.weak_witness is None} (witness {closed.weak_witness})")
    return 0


def _cmd_hausdorff(args) -> int:
    group, lattice = _lattice_for(args)
    system = build_toposys(lattice, args.sys)
    ok, witness = is_hausdorff(system)
    if ok:
        print("hausdorff: true")
        return 0
    x, y = witness
    print(f"hausdorff: false (inseparable pair x={x}, y={y})")
    return 1


def _cmd_cover(args) -> int:
    group, lattice = _lattice_for(args)
    system = build_toposys(lattice, args.sys)
    target = resolve_subgroup_literal(lattice, args.target) if args.target else lattice.top_index
    cover = [resolve_subgroup_literal(lattice, p) for p in split_top_level(args.cover, ":,")]
    certificate = find_finite_subcover(system, target, cover)
    if certificate is None:
        print("not a cover")
        return 1
    kind = "exact" if certificate.exact else "greedy"
    print(f"minimal subcover ({kind}): {' '.join(f'#{i}' for i in certificate.selected)}")
    return 0


def _cmd_filters(args) -> int:
    group, lattice = _lattice_for(args)
    if args.filter:
        f = parse_filter(lattice, args.filter)
        ultra = is_ultrafilter(f)
        print(f"filter {f.provenance}: kernel #{f.kernel}, members {[f'#{i}' for i in f.member_indices]}")
        print(f"ultrafilter: {ultra}" + ("" if ultra else f" (non-cyclic kernel #{f.kernel})"))
        ext = extend_to_ultrafilter(f)
        print(f"extension: {ext.provenance} with kernel #{ext.kernel}, members {[f'#{i}' for i in ext.member_indices]}")
    else:
        for f in enumerate_ultrafilters(lattice):
            print(f"{f.provenance}: kernel #{f.kernel}, members {[f'#{i}' for i in f.member_indices]}")
    return 0


def _cmd_converge(args) -> int:
    group, lattice = _lattice_for(args)
    system = build_toposys(lattice, args.sys)
    f = parse_filter(lattice, args.filter)
    points = convergence_set(f, system)
    print(f"{f.provenance} (kernel #{f.kernel}) on {system.provenance}: converges to {list(points)}")
    # the points ascend, so each class is sorted and the classes come in order of their least point
    classes: dict[int, list[int]] = {}
    for y in points:
        classes.setdefault(lattice.cyclic_index(y), []).append(y)
    for c, members in classes.items():
        print(f"  class {members} (cyclic subgroup #{c})")
    return 0


def _cmd_product(args) -> int:
    if args.tychonoff and not args.sys:
        raise BadParameterError("--tychonoff needs --sys, one topo-system per factor")
    spec = args.groups.replace(" ", "")
    if spec.startswith("product(") and spec.endswith(")"):
        factor_descs = split_top_level(spec[len("product(") : -1])
    else:
        factor_descs = spec.split(";")
    factors = [build_group(d) for d in factor_descs]
    product = direct_product(factors)
    # every input error is raised before the first line is printed
    ptop = None
    if args.sys:
        kinds = args.sys.split(";")
        if len(kinds) != len(factors):
            raise BadParameterError("one topo-system per factor is required")
        ptop = product_toposys(product, [build_toposys(enumerate_subgroups(f), k) for f, k in zip(factors, kinds)])
    ultrafilters = enumerate_ultrafilters(enumerate_subgroups(product.group)) if args.tychonoff else ()
    print(f"product group {product.group.descriptor}: order {product.group.order}")
    code = 0
    if args.identities:
        failure = product_identities_check(product)
        print(f"component identities: {'pass' if failure is None else 'fail'}")
        code = max(code, 0 if failure is None else 1)
    if ptop is not None:
        print(f"product system: {ptop.system.member_bits.bit_count()} topens")
        for f in ultrafilters:
            try:
                cert = tychonoff_certificate(ptop, f)
            except CertificateFailureError as exc:
                print(f"  {f.provenance}: step {exc.step} failed (witness {exc.witness})")
                code = 1
                continue
            print(
                f"  {f.provenance}: converges at {product.decode(cert.point)}"
                f" ({len(cert.replayed)} topens replayed)"
            )
    return code


def _cmd_theorems(args) -> int:
    values = _load_config_file(args.config) if args.config else {}
    max_order = args.max_order if args.max_order is not None else int(values.get("max-order", 24))
    group_spec = args.groups or values.get("groups", "")
    # a named group above max-order is an error; the default catalog is cut there
    if group_spec:
        groups = tuple(split_top_level(group_spec))
    else:
        groups = tuple(d for d in DEFAULT_CATALOG if build_group(d).order <= max_order)
        if not groups and max_order >= 1:
            raise BadParameterError(f"no default-catalog group has order at most {max_order}")
    if args.suite:
        suites = tuple(args.suite)
    elif values.get("suites"):
        suites = tuple(name.strip() for name in split_top_level(values["suites"]))
    else:
        suites = tuple(SUITES)
    fmt = args.format or values.get("format", "text")
    timings = args.timings or TIMINGS_VALUES.get(values.get("timings"), False)
    config = SuiteConfig(max_group_order=max_order, groups=groups, suites=suites)
    result = run_suite(config)
    _emit(result.reports, fmt, timings)
    summary = {status: result.counts.get(status, 0) for status in (PASS, FAIL, FINDING)}
    # the error count is written only when a check raised, so the other runs keep their bytes
    if result.counts.get(ERROR):
        summary[ERROR] = result.counts[ERROR]
    if fmt == "json":
        print(_to_json({"summary": summary}))
    else:
        print("summary: " + ", ".join(f"{n} {status}" for status, n in summary.items()))
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topogroups",
        description="Subgroup lattices, topo-systems, subgroup filters and the theorem suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="list all subgroups with canonical indices")
    p.add_argument("--group", required=True, help="group descriptor, e.g. sym:3")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("toposys", help="build a topo-system and list its topens")
    p.add_argument("--group", required=True)
    p.add_argument("--sys", required=True, help="system descriptor, e.g. normal or generated:#1,#2")
    p.add_argument("--verify", action="store_true", help="print the axiom verdict")
    p.set_defaults(fn=_cmd_toposys)

    p = sub.add_parser("closure", help="interior, boundary, limit points, closure, closedness")
    p.add_argument("--group", required=True)
    p.add_argument("--sys", required=True)
    p.add_argument("--subgroup", required=True, help="gen{e1,e2,...} or #k")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("hausdorff", help="separation check with witness")
    p.add_argument("--group", required=True)
    p.add_argument("--sys", required=True)
    p.set_defaults(fn=_cmd_hausdorff)

    p = sub.add_parser("cover", help="minimal topen subcover of a subgroup")
    p.add_argument("--group", required=True)
    p.add_argument("--sys", required=True)
    p.add_argument("--target", default="", help="subgroup literal; defaults to the whole group")
    p.add_argument("--cover", required=True, help="comma-separated topen literals")
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("filters", help="inspect a filter or list all ultrafilters")
    p.add_argument("--group", required=True)
    p.add_argument("--filter", default="", help="principal:x | generated:LIT,... | cofinite")
    p.set_defaults(fn=_cmd_filters)

    p = sub.add_parser("converge", help="convergence set of a filter in a system")
    p.add_argument("--group", required=True)
    p.add_argument("--sys", required=True)
    p.add_argument("--filter", required=True)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("product", help="direct products, identities, Tychonoff certificates")
    p.add_argument("--groups", required=True, help="semicolon-separated factor descriptors")
    p.add_argument("--sys", default="", help="semicolon-separated factor system descriptors")
    p.add_argument("--identities", action="store_true")
    p.add_argument("--tychonoff", action="store_true")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("theorems", help="run the theorem suites over the catalog")
    p.add_argument("--suite", action="append", choices=SUITES, help="repeatable; default all")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--groups", default="", help="comma-separated descriptors; default catalog")
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--config", default="", help="key=value config file")
    p.set_defaults(fn=_cmd_theorems)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (TopoGroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
