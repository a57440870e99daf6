"""Default catalog and the theorem-suite runner over the (group, system) matrix.

Everything here is deterministic: groups are ordered by (order, descriptor),
system descriptors are resolved with least-id tie-breaking, and no randomness
is used anywhere, so witnesses are reproducible across runs.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cached_property
from itertools import product as iter_product
from typing import NamedTuple

from .groups import TopoGroupError, bits_of, build_group
from .lattice import (
    AUTOMORPHISM_CAP,
    FAMILY_SWEEP_CAP,
    SUPPORTED_EXPONENTS,
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
    thk_bits,
)
from .filters import (
    OracleMismatchError,
    SubgroupFilter,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
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


class SuiteConfig(NamedTuple):
    max_group_order: int = 24
    groups: tuple[str, ...] = DEFAULT_CATALOG
    suites: tuple[str, ...] = SUITE_NAMES


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


def shared_system(systems: dict, lattice: SubgroupLattice, bits: int, desc: str) -> TopoSystem:
    """The one system per (group, member set) in ``systems``, named by the first descriptor that reached it; see axioms_failure."""
    key = (lattice.group.descriptor, bits)
    system = systems.get(key)
    if system is None:
        system = systems[key] = TopoSystem(lattice, bits, desc)
    return system


def axioms_failure(system: TopoSystem) -> str | None:
    """``<first descriptor>:<require_axioms message>`` when the member set fails its axioms, else None."""
    try:
        require_axioms(system)
    except TopoGroupError as exc:
        return f"{system.provenance}:{exc}"
    return None


class SuiteRun:
    """One theorem run: the catalog lattices and the matrix cells, built once.

    Results are kept per distinct (group, member set) and live as long as
    the run, so rows naming the same member set share one computation;
    ``systems`` holds the one system per set that cells and sweeps share.
    """

    def __init__(self, config: SuiteConfig):
        for s in config.suites:
            if s not in SUITE_NAMES:
                raise BadParameterError(f"unknown suite {s!r}; known: {', '.join(SUITE_NAMES)}")
        if config.max_group_order < 1:
            raise BadParameterError(f"max-order must be at least 1, got {config.max_group_order}")
        if not config.groups:
            raise BadParameterError("no group named; give at least one group descriptor")
        self.config = config
        # every descriptor is built, so a bad one is rejected even past the
        # order cap; a group named twice is one matrix row
        groups = dict.fromkeys(build_group(d) for d in config.groups)
        for g in groups:
            if g.order > config.max_group_order:
                raise BadParameterError(
                    f"group {g.descriptor} has order {g.order}, above max-order {config.max_group_order}"
                )
        self.groups = sorted(groups, key=lambda g: (g.order, g.descriptor))
        self.systems: dict[tuple[str, int], TopoSystem] = {}
        self.results: dict = {}

    @cached_property
    def lattices(self) -> tuple[SubgroupLattice, ...]:
        return tuple(enumerate_subgroups(g) for g in self.groups)

    @cached_property
    def cells(self) -> tuple[tuple[str, TopoSystem], ...]:
        """(descriptor, system) per matrix cell in row order; one system per distinct member set, verified or not."""
        return tuple(
            (desc, shared_system(self.systems, lattice, family_members(lattice, desc).member_bits, desc))
            for lattice in self.lattices
            for desc in cell_system_descriptors(lattice)
        )

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


def _group_reports(check: str, toposys: str, fn, lattices, *args) -> list[CheckReport]:
    return [r for lattice in lattices for r in _reports(check, lattice.group.descriptor, toposys, fn, lattice, *args)]


def _cell_reports(run: SuiteRun, check: str, row) -> list[CheckReport]:
    """Rows of row(run, system) for every matrix cell; one FAIL row for a cell whose system fails its axioms."""
    reports = []
    for desc, system in run.cells:
        group, failure = system.lattice.group.descriptor, axioms_failure(system)
        if failure is None:
            reports += _reports(check, group, desc, row, run, system)
        else:
            reports.append(CheckReport(check, group, desc, FAIL, failure))
    return reports


def cell_theorem_report(run: SuiteRun, system: TopoSystem):
    return run.once(theorem_checks, system)


# --- per-criterion checks -----------------------------------------------------

def lattice_completeness_cell(lattice: SubgroupLattice) -> tuple[str, str | None]:
    enum = {s.mask for s in lattice.subgroups}
    oracle = set(brute_force_subgroup_masks(lattice.group))
    if enum != oracle:
        return FAIL, f"enumerated {len(enum)} vs brute-force {len(oracle)}"
    return PASS, None


def family_instances(lattice: SubgroupLattice, family: str):
    """(descriptor, member bits) for each instance of one family's sweep, in sweep order.

    The swept families are read off the lattice by index; the others go
    through family_members, and a build error names its descriptor.
    """
    n = len(lattice)
    if family == "principal":
        for b in range(n):
            yield f"principal:#{b}", lattice.above[b] | 1
    elif family == "conj":
        for h in range(n):
            yield f"conj:#{h}", lattice.normalized_by[h]
    elif family == "thk":
        for h in range(n):
            for k in bits_of(lattice.above[h]):
                yield f"thk:#{h}:#{k}", thk_bits(lattice, h, k)
    else:
        varieties = ("variety:abelian",) + tuple(f"variety:exponent-{k}" for k in SUPPORTED_EXPONENTS)
        for desc in varieties if family == "variety" else (family,):
            try:
                bits = family_members(lattice, desc).member_bits
            except TopoGroupError as exc:
                raise TopoGroupError(f"{desc}:{exc}") from exc
            yield desc, bits


def check_family(lattice: SubgroupLattice, family: str, systems: dict) -> tuple[str, str | None]:
    """Verify every member set a family sweep names, on its one system in ``systems`` (see shared_system)."""
    # skips must surface as findings with a reason, never silently
    if family == "characteristic" and lattice.group.order > AUTOMORPHISM_CAP:
        return FINDING, f"skipped: order {lattice.group.order} exceeds automorphism cap {AUTOMORPHISM_CAP}"
    if family in SWEPT_FAMILIES and len(lattice) > FAMILY_SWEEP_CAP:
        return FINDING, f"skipped: {len(lattice)} subgroups exceed family sweep cap {FAMILY_SWEEP_CAP}"
    try:
        for desc, bits in family_instances(lattice, family):
            if (failure := axioms_failure(shared_system(systems, lattice, bits, desc))) is not None:
                return FAIL, failure
    except TopoGroupError as exc:
        return FAIL, str(exc)
    return PASS, None


def check_interior_core(lattice: SubgroupLattice, systems: dict) -> tuple[str, str | None]:
    system = shared_system(systems, lattice, lattice.normal_bits, "normal")
    if (failure := axioms_failure(system)) is not None:
        return FAIL, failure
    for i in range(len(lattice)):
        interior, _ = interior_boundary(system, i)
        if interior != lattice.core_index(i):
            return FAIL, f"subgroup #{i}"
    return PASS, None


def prime_order_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[bool, bool, str | None]:
    """(implication holds, antecedent holds, witness element)."""
    group = lattice.group
    antecedent = all(t_closed_checks(system, c).t_closed_witness is None for c in bits_of(lattice.cyclic_bits))
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
    if not system.hausdorff:
        return PASS, None
    for i in range(len(lattice)):
        witness = t_closed_checks(system, i).weak_witness
        if witness is not None:
            return FAIL, f"subgroup #{i} stuck at element {witness}"
    return PASS, None


def weak_closed_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    return run.once(weak_closed_cell, system)


# an order-1 group has no non-trivial subgroup, hence no subgroup filter
NO_FILTERS = (FINDING, "skipped: order 1 group has no subgroup filters")


def ultrafilter_cell(lattice: SubgroupLattice) -> tuple[str, str | None]:
    if lattice.group.order == 1:
        return NO_FILTERS
    try:
        enumerate_ultrafilters(lattice)
    except OracleMismatchError as exc:
        return FAIL, str(exc)
    # every filter is ↑K for its kernel K
    for k in range(1, len(lattice)):
        extended = extend_to_ultrafilter(SubgroupFilter(lattice, k))
        if lattice.above[k] & ~extended.member_bits or not is_ultrafilter(extended):
            return FAIL, f"extension broken for kernel #{k}"
    return PASS, None


def compactness_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    if system.lattice.group.order == 1:
        return NO_FILTERS
    witness = cell_theorem_report(run, system).compactness_witness
    if witness is None:
        return PASS, None
    return FAIL, witness


def hausdorff_equivalence_row(run: SuiteRun, system: TopoSystem) -> tuple[str, str | None]:
    if system.lattice.group.order == 1:
        return NO_FILTERS
    report = cell_theorem_report(run, system)
    if not report.equivalence_ok:
        return FAIL, report.multi_point_witness or "hausdorff without unique convergence"
    if report.findings:
        return FINDING, ";".join(report.findings)
    return PASS, None


def identities_cell(product) -> tuple[str, str | None]:
    f = product_identities_check(product)
    if f is None:
        return PASS, None
    return FAIL, f"{f.kind}@{f.witness}"


def certificate_cell(outcomes: dict, product, factor_systems, ultrafilters) -> tuple[str, str | None]:
    """FAIL with witness ``<ultrafilter>:<step>`` at the first failed replay step.

    Factor systems with the same member sets give the same product system,
    so each (product, factor member sets) is certified once and its outcome
    kept in ``outcomes`` for every row that names it.
    """
    key = (product.group.descriptor, tuple(s.member_bits for s in factor_systems))
    if key not in outcomes:
        ptop = product_toposys(product, factor_systems)
        outcomes[key] = PASS, None
        for f in ultrafilters:
            try:
                tychonoff_certificate(ptop, f)
            except CertificateFailureError as exc:
                outcomes[key] = FAIL, f"{f.provenance}:{exc.step}"
                break
    return outcomes[key]


def _products(catalog, budget: int) -> list:
    products = [direct_product([build_group(d) for d in descs]) for descs in catalog]
    return [p for p in products if p.group.order <= budget]


def quotient_probe_cell(lattice: SubgroupLattice, system: TopoSystem) -> list[tuple[str, str | None]]:
    out = []
    for n_index, quotient in system.quotients.items():
        failure = quotient.failure
        if failure is None:
            out.append((PASS, None))
        else:
            out.append((FINDING, f"N=#{n_index}:{failure.kind}@{failure.witness}"))
    return out


def quotient_probe_row(run: SuiteRun, system: TopoSystem) -> list[tuple[str, str | None]]:
    return run.once(quotient_probe_cell, system)


def star_cell(lattice: SubgroupLattice, system: TopoSystem) -> tuple[str, str | None]:
    f = star_topology_checks(system)
    if f is None:
        return PASS, None
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
            reports += _reports("toposys-axioms", group, family, check_family, lattice, family, run.systems)
    return reports


def suite_interior_core(run: SuiteRun) -> list[CheckReport]:
    return _group_reports("interior-core", "normal", check_interior_core, run.lattices, run.systems)


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
    outcomes: dict = {}
    for product in products:
        ultrafilters = enumerate_ultrafilters(enumerate_subgroups(product.group))
        for combo in iter_product(FACTOR_SYSTEM_KINDS, repeat=len(product.factors)):
            factor_systems = [systems[f.descriptor, kind] for f, kind in zip(product.factors, combo)]
            cell = (certificate_cell, outcomes, product, factor_systems, ultrafilters)
            reports += _reports("tychonoff-certificate", product.group.descriptor, "x".join(combo), *cell)
    return reports


def suite_quotient_probe(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "quotient-probe", quotient_probe_row)


def suite_star_topology(run: SuiteRun) -> list[CheckReport]:
    return _cell_reports(run, "star-topology", star_row)


# suite name -> suite_<name>; a plain dict, whose values a tracer can rebind
_SUITE_FUNCTIONS = {name: globals()["suite_" + name.replace("-", "_")] for name in SUITE_NAMES}


class SuiteResult(NamedTuple):
    reports: tuple[CheckReport, ...]
    counts: dict

    @property
    def exit_code(self) -> int:
        return 1 if self.counts.get(FAIL, 0) else 0


def run_suite(config: SuiteConfig) -> SuiteResult:
    run = SuiteRun(config)
    reports = [r for name in SUITE_NAMES if name in run.config.suites for r in _SUITE_FUNCTIONS[name](run)]
    return SuiteResult(tuple(reports), Counter(r.status for r in reports))
