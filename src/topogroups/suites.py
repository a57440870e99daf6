"""Default catalog and the theorem-suite runner over the (group, system) matrix.

Everything here is deterministic: groups are ordered by (order, descriptor),
system descriptors are resolved with least-id tie-breaking, and no randomness
is used anywhere, so witnesses are reproducible across runs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product

from .groups import TopoGroupError, build_group
from .lattice import (
    AUTOMORPHISM_CAP,
    FAMILY_SWEEP_CAP,
    SubgroupLattice,
    brute_force_subgroup_masks,
    enumerate_subgroups,
)
from .report import FAIL, FINDING, PASS, CheckReport
from .toposystems import (
    BadParameterError,
    TopoSystem,
    build_toposys,
    family_members,
    interior_boundary,
    require_axioms,
    star_topology_checks,
    t_closed_checks,
)
from .filters import (
    ULTRAFILTER_ORACLE_LIMIT,
    OracleMismatchError,
    all_filters,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    filter_from_members,
    is_ultrafilter,
    theorem_checks,
)
from .products import (
    CertificateFailureError,
    direct_product,
    product_identities_check,
    product_toposys,
    tychonoff_certificate,
)

DEFAULT_CATALOG = (
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

# Tychonoff products use factors with a unique minimal subgroup so that every
# projection pushforward of every ultrafilter is itself a valid ultrafilter
# (see the pushforward notes); the identities catalog has no such constraint.
TYCHONOFF_PRODUCTS = (
    ("cyclic:2", "cyclic:2"),
    ("cyclic:2", "cyclic:3"),
    ("cyclic:2", "cyclic:2", "cyclic:2"),
    ("cyclic:4", "cyclic:2"),
    ("cyclic:3", "cyclic:3"),
    ("cyclic:4", "cyclic:3"),
    ("cyclic:4", "cyclic:4"),
    ("cyclic:5", "cyclic:5"),
)
IDENTITY_PRODUCTS = TYCHONOFF_PRODUCTS + (("cyclic:4", "cyclic:6"), ("sym:3", "cyclic:2"))
FACTOR_SYSTEM_KINDS = ("discrete", "trivial", "normal")

SUITE_NAMES = (
    "lattice-completeness",
    "toposys-axioms",
    "interior-core",
    "prime-order",
    "weak-closed",
    "ultrafilter-machinery",
    "convergence-compactness",
    "hausdorff-equivalence",
    "tychonoff",
    "quotient-probe",
    "star-topology",
)

# one system per subgroup (per nested pair for thk), so capped by FAMILY_SWEEP_CAP
SWEPT_FAMILIES = ("principal", "thk", "conj")

FAMILY_NAMES = (
    "discrete",
    "trivial",
    "principal",
    "cofinite",
    "normal",
    "characteristic",
    "variety",
    "thk",
    "conj",
)


@dataclass(frozen=True)
class SuiteConfig:
    max_group_order: int = 24
    groups: tuple[str, ...] = DEFAULT_CATALOG
    suites: tuple[str, ...] = SUITE_NAMES
    fmt: str = "text"


def cell_system_descriptors(lattice: SubgroupLattice) -> tuple[str, ...]:
    """Default per-group sample: one deterministic instance of each family."""
    descs = ["discrete", "trivial", "cofinite", "normal"]
    if lattice.group.order <= AUTOMORPHISM_CAP:
        descs.append("characteristic")
    descs += ["variety:abelian", "variety:exponent-2", "principal:gen{1}"]
    descs.append(f"thk:#0:#{lattice.top_index}")
    descs.append("conj:gen{1}")
    if lattice.group.order == 1:
        # gen{1} names element 1, which an order-1 group does not have
        descs = [d for d in descs if not d.endswith(":gen{1}")]
    if len(lattice) > 2:
        descs.append("generated:#1")
    return tuple(descs)


def verdict(verdicts: dict, system: TopoSystem) -> str | None:
    """None if the system's member set is a topo-system, else its FAIL witness.

    ``verdicts`` keeps the outcome per (group, member set), so each set is
    verified once; a failing set is named by the first descriptor that
    reached it, as ``<descriptor>:<message>``.
    """
    key = (system.lattice.group.descriptor, system.member_bits)
    if key not in verdicts:
        try:
            require_axioms(system)
            verdicts[key] = None
        except TopoGroupError as exc:
            verdicts[key] = f"{system.provenance}:{exc}"
    return verdicts[key]


class SuiteRun:
    """One theorem run: the catalog lattices and the matrix cells, built once.

    Results are kept per distinct (group, member set) and live as long as
    the run, so rows naming the same member set share one computation.
    """

    def __init__(self, config: SuiteConfig):
        for s in config.suites:
            if s not in SUITE_NAMES:
                raise BadParameterError(f"unknown suite {s!r}; known: {', '.join(SUITE_NAMES)}")
        if config.fmt not in ("text", "json"):
            raise BadParameterError(f"unknown format {config.fmt!r}")
        if config.max_group_order < 1:
            raise BadParameterError(f"max-order must be at least 1, got {config.max_group_order}")
        self.config = config
        # every descriptor is built, so a bad one is rejected even past the order cap
        groups = [build_group(d) for d in config.groups]
        self.groups = sorted(
            (g for g in groups if g.order <= config.max_group_order), key=lambda g: (g.order, g.descriptor)
        )
        self.verdicts: dict[tuple[str, int], str | None] = {}
        self.results: dict = {}

    @cached_property
    def lattices(self) -> tuple[SubgroupLattice, ...]:
        return tuple(enumerate_subgroups(g) for g in self.groups)

    @cached_property
    def cells(self) -> tuple[tuple[str, TopoSystem], ...]:
        """(descriptor, system) per matrix cell in row order; one system per distinct member set."""
        shared: dict[tuple[str, int], TopoSystem] = {}
        cells = []
        for lattice in self.lattices:
            for desc in cell_system_descriptors(lattice):
                system = family_members(lattice, desc)
                witness = verdict(self.verdicts, system)
                if witness is not None:
                    raise TopoGroupError(witness)
                cells.append((desc, shared.setdefault((lattice.group.descriptor, system.member_bits), system)))
        return tuple(cells)

    def once(self, fn, system: TopoSystem):
        """fn(lattice, system), computed once per distinct (group, member set)."""
        key = (fn, system.lattice.group.descriptor, system.member_bits)
        if key not in self.results:
            self.results[key] = fn(system.lattice, system)
        return self.results[key]


def _reports(check: str, group: str, toposys: str, fn, *args) -> list[CheckReport]:
    """Rows of fn(*args), which gives one (status, witness) or a list of them.

    Each row carries its share of the time fn took.
    """
    start = time.perf_counter()
    got = fn(*args)
    outcomes = got if isinstance(got, list) else [got]
    elapsed = (time.perf_counter() - start) * 1000.0 / max(len(outcomes), 1)
    return [CheckReport(check, group, toposys, status, witness, elapsed) for status, witness in outcomes]


def _group_reports(check: str, toposys: str, fn, lattices) -> list[CheckReport]:
    return [r for lattice in lattices for r in _reports(check, lattice.group.descriptor, toposys, fn, lattice)]


def _cell_reports(run: SuiteRun, check: str, row) -> list[CheckReport]:
    """Rows of row(run, system) for every matrix cell."""
    return [
        r for desc, system in run.cells for r in _reports(check, system.lattice.group.descriptor, desc, row, run, system)
    ]


def cell_theorem_report(run: SuiteRun, system: TopoSystem):
    return run.once(theorem_checks, system)


# --- per-criterion checks -----------------------------------------------------

def lattice_completeness_cell(lattice: SubgroupLattice) -> tuple[str, str | None]:
    enum = {s.mask for s in lattice.subgroups}
    oracle = set(brute_force_subgroup_masks(lattice.group))
    if enum != oracle:
        return FAIL, f"enumerated {len(enum)} vs brute-force {len(oracle)}"
    return PASS, None


def family_instance_descriptors(lattice: SubgroupLattice, family: str) -> tuple[str, ...]:
    """Full parameter sweep of one constructor family on one lattice."""
    n = len(lattice)
    if family in ("discrete", "trivial", "cofinite", "normal", "characteristic"):
        return (family,)
    if family == "principal":
        return tuple(f"principal:#{b}" for b in range(n))
    if family == "variety":
        return ("variety:abelian",) + tuple(f"variety:exponent-{k}" for k in (2, 3, 4, 6))
    if family == "thk":
        return tuple(
            f"thk:#{h}:#{k}" for h in range(n) for k in range(n) if lattice.leq(h, k)
        )
    if family == "conj":
        return tuple(f"conj:#{h}" for h in range(n))
    raise BadParameterError(f"unknown family {family!r}")


def check_family(lattice: SubgroupLattice, family: str, verdicts: dict) -> tuple[str, str | None]:
    """Verify every member set a family sweep names, recording each outcome in ``verdicts``."""
    # skips must surface as findings with a reason, never silently
    if family == "characteristic" and lattice.group.order > AUTOMORPHISM_CAP:
        return FINDING, f"skipped: order {lattice.group.order} exceeds automorphism cap {AUTOMORPHISM_CAP}"
    if family in SWEPT_FAMILIES and len(lattice) > FAMILY_SWEEP_CAP:
        return FINDING, f"skipped: {len(lattice)} subgroups exceed family sweep cap {FAMILY_SWEEP_CAP}"
    for desc in family_instance_descriptors(lattice, family):
        try:
            system = family_members(lattice, desc)
        except TopoGroupError as exc:
            return FAIL, f"{desc}:{exc}"
        witness = verdict(verdicts, system)
        if witness is not None:
            return FAIL, witness
    return PASS, None


def check_interior_core(lattice: SubgroupLattice) -> tuple[str, str | None]:
    system = build_toposys(lattice, "normal")
    for i in range(len(lattice)):
        interior, _ = interior_boundary(system, i)
        if interior != lattice.core_index(i):
            return FAIL, f"subgroup #{i}"
    return PASS, None


def prime_order_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[bool, bool, str | None]:
    """(implication holds, antecedent holds, witness element)."""
    group = lattice.group
    cyclic_indices = sorted({lattice.cyclic_index(x) for x in group.elements()})
    antecedent = all(t_closed_checks(system, c).is_t_closed for c in cyclic_indices)
    if not antecedent:
        return True, False, None
    for x in range(1, group.order):
        o = group.element_order(x)
        if any(o % d == 0 for d in range(2, o)) or o == 1:
            return False, True, f"element {x} has composite order {o}"
    return True, True, None


def prime_order_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    ok, _, witness = run.once(prime_order_cell, system)
    return (PASS, None) if ok else (FAIL, witness)


def weak_closed_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[str, str | None]:
    hausdorff, _ = system.hausdorff
    if not hausdorff:
        return PASS, None
    for i in range(len(lattice)):
        report = t_closed_checks(system, i)
        if not report.is_weak_t_closed:
            return FAIL, f"subgroup #{i} stuck at element {report.weak_witness}"
    return PASS, None


def weak_closed_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    return run.once(weak_closed_cell, system)


# an order-1 group has no non-trivial subgroup, hence no subgroup filter
NO_FILTERS = (FINDING, "skipped: order 1 group has no subgroup filters")


def ultrafilter_cell(lattice: SubgroupLattice) -> tuple[str, str | None]:
    if lattice.group.order == 1:
        return NO_FILTERS
    try:
        ultrafilters = enumerate_ultrafilters(lattice)
    except OracleMismatchError as exc:
        return FAIL, str(exc)
    # on small lattices every filter, not only the ultrafilters
    small = len(lattice) <= ULTRAFILTER_ORACLE_LIMIT
    filters = [filter_from_members(lattice, m) for m in all_filters(lattice)] if small else ultrafilters
    for f in filters:
        name = sorted(f.members) if small else f.provenance
        extended = extend_to_ultrafilter(f)
        if not f.members <= extended.members or not is_ultrafilter(extended)[0]:
            return FAIL, f"extension broken for {name}"
    return PASS, None


def compactness_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    if system.lattice.group.order == 1:
        return NO_FILTERS
    report = cell_theorem_report(run, system)
    if report.compactness_ok:
        return PASS, None
    return FAIL, report.compactness_witness


def hausdorff_equivalence_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    if system.lattice.group.order == 1:
        return NO_FILTERS
    report = cell_theorem_report(run, system)
    if not report.equivalence_ok:
        return FAIL, report.multi_point_witness or "hausdorff without unique convergence"
    if not report.continuity_ok:
        return FAIL, report.continuity_witness
    if report.findings:
        return FINDING, ";".join(report.findings)
    return PASS, None


def identities_cell(product) -> tuple[str, str | None]:
    report = product_identities_check(product)
    if report.passed:
        return PASS, None
    f = report.first_failure()
    return FAIL, f"{f.kind}@{f.witness}"


def certificate_cell(ptop, ultrafilters) -> tuple[str, str | None]:
    """FAIL with witness ``<ultrafilter>:<step>`` at the first failed replay step."""
    for f in ultrafilters:
        try:
            tychonoff_certificate(ptop, f)
        except CertificateFailureError as exc:
            return FAIL, f"{f.provenance}:{exc.step}"
    return PASS, None


def _products(catalog, budget: int) -> list:
    products = [direct_product([build_group(d) for d in descs]) for descs in catalog]
    return [p for p in products if p.group.order <= budget]


def quotient_probe_cell(lattice: SubgroupLattice, system: TopoSystem) -> list[tuple[str, str | None]]:
    out = []
    for n_index, quotient in system.quotients.items():
        if quotient.report.passed:
            out.append((PASS, None))
        else:
            failure = quotient.report.first_failure()
            out.append((FINDING, f"N=#{n_index}:{failure.kind}@{failure.witness}"))
    return out


def quotient_probe_row(run: SuiteRun, system: TopoSystem) -> list[tuple[str, str | None]]:
    return run.once(quotient_probe_cell, system)


def star_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[str, str | None]:
    report = star_topology_checks(system)
    if report.passed:
        return PASS, None
    f = report.failures[0]
    return FAIL, f"{f.kind}@{f.witness}"


def star_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    return run.once(star_cell, system)


# --- suites -------------------------------------------------------------------

def suite_lattice_completeness(run: SuiteRun) -> list[CheckReport]:
    small = [lattice for lattice in run.lattices if lattice.group.order <= 16]
    return _group_reports("lattice-completeness", "", lattice_completeness_cell, small)


def suite_toposys_axioms(run: SuiteRun) -> list[CheckReport]:
    reports = []
    for lattice in run.lattices:
        for family in FAMILY_NAMES:
            group = lattice.group.descriptor
            reports += _reports("toposys-axioms", group, family, check_family, lattice, family, run.verdicts)
    return reports


def suite_interior_core(run: SuiteRun) -> list[CheckReport]:
    return _group_reports("interior-core", "normal", check_interior_core, run.lattices)


def suite_prime_order(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "prime-order", prime_order_row)


def suite_weak_closed(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "weak-closed", weak_closed_row)


def suite_ultrafilter_machinery(run: SuiteRun) -> list[CheckReport]:
    return _group_reports("ultrafilter-machinery", "", ultrafilter_cell, run.lattices)


def suite_convergence_compactness(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "convergence-compactness", compactness_row)


def suite_hausdorff_equivalence(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "hausdorff-equivalence", hausdorff_equivalence_row)


def suite_tychonoff(run: SuiteRun) -> list[CheckReport]:
    budget = min(36, run.config.max_group_order + 12)
    reports = []
    for product in _products(IDENTITY_PRODUCTS, budget):
        reports += _reports("product-identities", product.group.descriptor, "", identities_cell, product)
    products = _products(TYCHONOFF_PRODUCTS, budget)
    # one system per (factor, kind) and one ultrafilter list per product, shared by every combination
    factors = {f.descriptor: f for product in products for f in product.factors}
    systems = {
        (d, kind): build_toposys(enumerate_subgroups(f), kind) for d, f in factors.items() for kind in FACTOR_SYSTEM_KINDS
    }
    for product in products:
        ultrafilters = enumerate_ultrafilters(enumerate_subgroups(product.group))
        for combo in iter_product(FACTOR_SYSTEM_KINDS, repeat=len(product.factors)):
            ptop = product_toposys(product, [systems[f.descriptor, kind] for f, kind in zip(product.factors, combo)])
            reports += _reports(
                "tychonoff-certificate", product.group.descriptor, "x".join(combo), certificate_cell, ptop, ultrafilters
            )
    return reports


def suite_quotient_probe(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "quotient-probe", quotient_probe_row)


def suite_star_topology(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "star-topology", star_row)


# suite name -> suite_<name>; a plain dict, whose values a tracer can rebind
_SUITE_FUNCTIONS = {name: globals()["suite_" + name.replace("-", "_")] for name in SUITE_NAMES}


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[CheckReport, ...]
    counts: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if self.counts.get(FAIL, 0) else 0


def run_suite(config: SuiteConfig) -> SuiteResult:
    run = SuiteRun(config)
    reports = [r for name in SUITE_NAMES if name in run.config.suites for r in _SUITE_FUNCTIONS[name](run)]
    return SuiteResult(tuple(reports), Counter(r.status for r in reports))
