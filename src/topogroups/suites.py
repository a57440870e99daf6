"""Default catalog and the theorem-suite runner over the (group, system) matrix.

Everything here is deterministic: groups are ordered by (order, descriptor),
system descriptors are resolved with least-id tie-breaking, and no randomness
is used anywhere, so witnesses are reproducible across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product as iter_product

from .groups import FiniteGroup, TopoGroupError, build_group
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
    interior_boundary,
    is_hausdorff,
    quotient_toposys,
    star_topology_checks,
    t_closed_checks,
)
from .filters import (
    OracleMismatchError,
    SubgroupFilter,
    all_filters,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    is_ultrafilter,
    is_ultrafilter_bruteforce,
    theorem_checks,
)
from .products import (
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
    systems: tuple[str, ...] | None = None
    suites: tuple[str, ...] = SUITE_NAMES
    fmt: str = "text"
    timings: bool = False

    def validated(self) -> "SuiteConfig":
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise BadParameterError(f"unknown suite {s!r}; known: {', '.join(SUITE_NAMES)}")
        if self.fmt not in ("text", "json"):
            raise BadParameterError(f"unknown format {self.fmt!r}")
        for g in self.groups:
            build_group(g)
        return self


def catalog_groups(config: SuiteConfig) -> list[FiniteGroup]:
    groups = [build_group(d) for d in config.groups]
    groups = [g for g in groups if g.order <= config.max_group_order]
    groups.sort(key=lambda g: (g.order, g.descriptor))
    return groups


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


def iter_cells(config: SuiteConfig):
    for group in catalog_groups(config):
        lattice = enumerate_subgroups(group)
        for desc in config.systems or cell_system_descriptors(lattice):
            yield lattice, build_toposys(lattice, desc)


_THEOREM_MEMO: dict[tuple[str, str], object] = {}


def cell_theorem_report(lattice: SubgroupLattice, system: TopoSystem):
    key = (lattice.group.descriptor, system.provenance)
    got = _THEOREM_MEMO.get(key)
    if got is None:
        got = theorem_checks(lattice, system)
        _THEOREM_MEMO[key] = got
    return got


def _timed(check: str, group: str, toposys: str, fn) -> CheckReport:
    start = time.perf_counter()
    status, witness = fn()
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(check, group, toposys, status, witness, elapsed)


# --- per-criterion cell checks ----------------------------------------------

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


def check_family(lattice: SubgroupLattice, family: str) -> tuple[str, str | None]:
    # skips must surface as findings with a reason, never silently
    if family == "characteristic" and lattice.group.order > AUTOMORPHISM_CAP:
        return FINDING, f"skipped: order {lattice.group.order} exceeds automorphism cap {AUTOMORPHISM_CAP}"
    if family in SWEPT_FAMILIES and len(lattice) > FAMILY_SWEEP_CAP:
        return FINDING, f"skipped: {len(lattice)} subgroups exceed family sweep cap {FAMILY_SWEEP_CAP}"
    for desc in family_instance_descriptors(lattice, family):
        # build_toposys verifies the axioms and raises on a failure
        try:
            build_toposys(lattice, desc)
        except TopoGroupError as exc:
            return FAIL, f"{desc}:{exc}"
    return PASS, None


def check_interior_core(lattice: SubgroupLattice) -> tuple[str, str | None]:
    system = build_toposys(lattice, "normal")
    for i in range(len(lattice)):
        x = lattice.subgroup(i)
        interior, _ = interior_boundary(system, x)
        if interior.mask != lattice.mask(lattice.core_index(i)):
            return FAIL, f"subgroup #{i}"
    return PASS, None


def prime_order_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[bool, bool, str | None]:
    """(implication holds, antecedent holds, witness element)."""
    group = lattice.group
    cyclic_indices = sorted({lattice.cyclic_index(x) for x in group.elements()})
    antecedent = all(
        t_closed_checks(system, lattice.subgroup(c)).is_t_closed for c in cyclic_indices
    )
    if not antecedent:
        return True, False, None
    for x in range(1, group.order):
        o = group.element_order(x)
        if any(o % d == 0 for d in range(2, o)) or o == 1:
            return False, True, f"element {x} has composite order {o}"
    return True, True, None


def weak_closed_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[str, str | None]:
    hausdorff, _ = is_hausdorff(system)
    if not hausdorff:
        return PASS, None
    for i in range(len(lattice)):
        report = t_closed_checks(system, lattice.subgroup(i))
        if not report.is_weak_t_closed:
            return FAIL, f"subgroup #{i} stuck at element {report.weak_witness}"
    return PASS, None


# an order-1 group has no non-trivial subgroup, hence no subgroup filter
NO_FILTERS = (FINDING, "skipped: order 1 group has no subgroup filters")


def ultrafilter_cell(lattice: SubgroupLattice) -> tuple[str, str | None]:
    if lattice.group.order == 1:
        return NO_FILTERS
    try:
        enumerate_ultrafilters(lattice)
    except OracleMismatchError as exc:
        return FAIL, str(exc)
    if len(lattice) <= 6:
        for members in all_filters(lattice):
            f = SubgroupFilter(lattice, members)
            fast = is_ultrafilter(f)[0]
            slow = is_ultrafilter_bruteforce(f)[0]
            if fast != slow:
                return FAIL, f"criterion/oracle disagree on {sorted(members)}"
            extended = extend_to_ultrafilter(f)
            if not members <= extended.members or not is_ultrafilter(extended)[0]:
                return FAIL, f"extension broken for {sorted(members)}"
    else:
        for f in enumerate_ultrafilters(lattice):
            extended = extend_to_ultrafilter(f)
            if not f.members <= extended.members or not is_ultrafilter(extended)[0]:
                return FAIL, f"extension broken for {f.provenance}"
    return PASS, None


def star_cell(system: TopoSystem) -> tuple[str, str | None]:
    report = star_topology_checks(system)
    if report.passed:
        return PASS, None
    f = report.failures[0]
    return FAIL, f"{f.kind}@{f.witness}"


def quotient_probe_cell(lattice: SubgroupLattice, system: TopoSystem) -> list[tuple[str, str | None]]:
    out = []
    for n_index in lattice.normal_indices():
        quotient = quotient_toposys(system, n_index)
        if quotient.report.passed:
            out.append((PASS, None))
        else:
            failure = quotient.report.first_failure()
            out.append((FINDING, f"N=#{n_index}:{failure.kind}@{failure.witness}"))
    return out


# --- suites -------------------------------------------------------------------

def suite_lattice_completeness(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    for group in catalog_groups(config):
        if group.order > 16:
            continue
        def run(group=group):
            enum = {s.mask for s in enumerate_subgroups(group).subgroups}
            oracle = set(brute_force_subgroup_masks(group))
            if enum != oracle:
                return FAIL, f"enumerated {len(enum)} vs brute-force {len(oracle)}"
            return PASS, None
        reports.append(_timed("lattice-completeness", group.descriptor, "", run))
    return reports


def suite_toposys_axioms(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    for group in catalog_groups(config):
        lattice = enumerate_subgroups(group)
        for family in FAMILY_NAMES:
            reports.append(
                _timed(
                    "toposys-axioms",
                    group.descriptor,
                    family,
                    lambda lattice=lattice, family=family: check_family(lattice, family),
                )
            )
    return reports


def suite_interior_core(config: SuiteConfig) -> list[CheckReport]:
    return [
        _timed("interior-core", g.descriptor, "normal", lambda g=g: check_interior_core(enumerate_subgroups(g)))
        for g in catalog_groups(config)
    ]


def suite_prime_order(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    for lattice, system in iter_cells(config):
        def run(lattice=lattice, system=system):
            ok, _, witness = prime_order_cell(lattice, system)
            return (PASS, None) if ok else (FAIL, witness)
        reports.append(_timed("prime-order", lattice.group.descriptor, system.provenance, run))
    return reports


def suite_weak_closed(config: SuiteConfig) -> list[CheckReport]:
    return [
        _timed(
            "weak-closed",
            lattice.group.descriptor,
            system.provenance,
            lambda lattice=lattice, system=system: weak_closed_cell(lattice, system),
        )
        for lattice, system in iter_cells(config)
    ]


def suite_ultrafilter_machinery(config: SuiteConfig) -> list[CheckReport]:
    return [
        _timed(
            "ultrafilter-machinery",
            g.descriptor,
            "",
            lambda g=g: ultrafilter_cell(enumerate_subgroups(g)),
        )
        for g in catalog_groups(config)
    ]


def suite_convergence_compactness(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    for lattice, system in iter_cells(config):
        def run(lattice=lattice, system=system):
            if lattice.group.order == 1:
                return NO_FILTERS
            report = cell_theorem_report(lattice, system)
            if report.compactness_ok:
                return PASS, None
            return FAIL, report.compactness_witness
        reports.append(_timed("convergence-compactness", lattice.group.descriptor, system.provenance, run))
    return reports


def suite_hausdorff_equivalence(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    for lattice, system in iter_cells(config):
        def run(lattice=lattice, system=system):
            if lattice.group.order == 1:
                return NO_FILTERS
            report = cell_theorem_report(lattice, system)
            if not report.equivalence_ok:
                return FAIL, report.multi_point_witness or "hausdorff without unique convergence"
            if not report.continuity_ok:
                return FAIL, report.continuity_witness
            if report.findings:
                return FINDING, ";".join(report.findings)
            return PASS, None
        reports.append(_timed("hausdorff-equivalence", lattice.group.descriptor, system.provenance, run))
    return reports


def suite_tychonoff(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    budget = min(36, config.max_group_order + 12)
    for descs in IDENTITY_PRODUCTS:
        product = direct_product([build_group(d) for d in descs])
        if product.group.order > budget:
            continue
        def run_ident(product=product):
            report = product_identities_check(product)
            if report.passed:
                return PASS, None
            f = report.first_failure()
            return FAIL, f"{f.kind}@{f.witness}"
        reports.append(_timed("product-identities", product.group.descriptor, "", run_ident))
    for descs in TYCHONOFF_PRODUCTS:
        product = direct_product([build_group(d) for d in descs])
        if product.group.order > budget:
            continue
        lattices = [enumerate_subgroups(f) for f in product.factors]
        plattice = enumerate_subgroups(product.group)
        for combo in iter_product(FACTOR_SYSTEM_KINDS, repeat=len(product.factors)):
            systems = [build_toposys(lat, kind) for lat, kind in zip(lattices, combo)]
            ptop = product_toposys(product, systems)
            def run_cert(ptop=ptop, plattice=plattice):
                for f in enumerate_ultrafilters(plattice):
                    cert = tychonoff_certificate(ptop, f)
                    if not cert.ok:
                        return FAIL, f.provenance
                return PASS, None
            reports.append(
                _timed("tychonoff-certificate", product.group.descriptor, "x".join(combo), run_cert)
            )
    return reports


def suite_quotient_probe(config: SuiteConfig) -> list[CheckReport]:
    reports = []
    for lattice, system in iter_cells(config):
        start = time.perf_counter()
        outcomes = quotient_probe_cell(lattice, system)
        elapsed = (time.perf_counter() - start) * 1000.0 / max(len(outcomes), 1)
        for status, witness in outcomes:
            reports.append(
                CheckReport("quotient-probe", lattice.group.descriptor, system.provenance, status, witness, elapsed)
            )
    return reports


def suite_star_topology(config: SuiteConfig) -> list[CheckReport]:
    return [
        _timed(
            "star-topology",
            lattice.group.descriptor,
            system.provenance,
            lambda system=system: star_cell(system),
        )
        for lattice, system in iter_cells(config)
    ]


_SUITE_FUNCTIONS = {
    "lattice-completeness": suite_lattice_completeness,
    "toposys-axioms": suite_toposys_axioms,
    "interior-core": suite_interior_core,
    "prime-order": suite_prime_order,
    "weak-closed": suite_weak_closed,
    "ultrafilter-machinery": suite_ultrafilter_machinery,
    "convergence-compactness": suite_convergence_compactness,
    "hausdorff-equivalence": suite_hausdorff_equivalence,
    "tychonoff": suite_tychonoff,
    "quotient-probe": suite_quotient_probe,
    "star-topology": suite_star_topology,
}


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[CheckReport, ...]
    counts: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if self.counts.get(FAIL, 0) else 0


def run_suite(config: SuiteConfig) -> SuiteResult:
    config = config.validated()
    reports: list[CheckReport] = []
    for name in SUITE_NAMES:
        if name in config.suites:
            reports.extend(_SUITE_FUNCTIONS[name](config))
    counts: dict[str, int] = {PASS: 0, FAIL: 0, FINDING: 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    return SuiteResult(tuple(reports), counts)
