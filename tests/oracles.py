"""Reference constructions the runtime no longer uses, kept as differential oracles.

The runtime keeps induced and quotient systems on the parent lattice (↓H for
a subgroup H, the interval [N, G] for a quotient G/N).  The paths here build
the subgroup or quotient as a group of its own, enumerate its lattice and
work there, as the runtime once did; the tests compare the two.  The runtime
reads the family member sets off the lattice's bitsets; the set
comprehensions here test each subgroup against its definition instead.
"""

from topogroups.filters import (
    NotAFilterError,
    TheoremReport,
    _cyclically_distinct_pair,
    convergence_set,
    enumerate_ultrafilters,
    is_ultrafilter,
    pushforward,
)
from topogroups.groups import FiniteGroup, Homomorphism, bits_of, mask_of
from topogroups.lattice import enumerate_subgroups, is_characteristic, verbal_residual
from topogroups.report import ValidationFailure
from topogroups.toposystems import (
    TopoSystem,
    _split_literals,
    generate_toposys,
    is_hausdorff,
    is_star_open,
    is_topomorphism,
    resolve_subgroup_literal,
    verify_toposys,
)


def family_members_by_scan(lattice, descriptor: str) -> frozenset[int]:
    """The member set of a family descriptor (not ``generated``), one subgroup at a time."""
    kind, _, arg = descriptor.partition(":")
    top = lattice.top_index
    all_indices = range(len(lattice))
    normal = {i for i in all_indices if lattice.is_normal_index(i)}
    if kind in ("discrete", "cofinite"):
        members = set(all_indices)
    elif kind == "trivial":
        members = {0, top}
    elif kind == "normal":
        members = normal
    elif kind == "characteristic":
        members = {i for i in all_indices if is_characteristic(lattice.subgroup(i))}
    elif kind == "principal":
        bmask = lattice.mask(resolve_subgroup_literal(lattice, arg))
        members = {i for i in all_indices if bmask & lattice.mask(i) == bmask} | {0}
    elif kind == "variety":
        rmask = verbal_residual(lattice.group, arg).mask
        members = {i for i in normal if rmask & lattice.mask(i) == rmask} | {0}
    elif kind == "thk":
        h, k = (resolve_subgroup_literal(lattice, p) for p in _split_literals(arg))
        hmask = lattice.mask(h)
        members = {
            i
            for i in all_indices
            if lattice.mask(lattice.commutator_index(i, k)) & hmask == lattice.mask(lattice.commutator_index(i, k))
        } | {top}
    elif kind == "conj":
        hmask = lattice.mask(resolve_subgroup_literal(lattice, arg))
        members = {i for i in all_indices if hmask & lattice.mask(lattice.normalizer_index(i)) == hmask}
    else:
        raise ValueError(f"no oracle for {descriptor!r}")
    return frozenset(members)


def subgroup_group(group: FiniteGroup, mask: int, label: str = "") -> tuple[FiniteGroup, Homomorphism]:
    """Reindex a subgroup as a group of its own, plus the inclusion map.

    Local ids follow ascending parent ids, so the parent identity stays at 0.
    """
    elems = list(bits_of(mask))
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[group.table[a][b]] for b in elems] for a in elems]
    desc = f"{group.descriptor}{label or '|sub'}"
    sub = FiniteGroup(table, desc, tuple(group.name(e) for e in elems))
    embed = Homomorphism(sub, group, tuple(elems))
    return sub, embed


def quotient_group(group: FiniteGroup, normal_mask: int, label: str = "") -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup, plus the natural surjection.

    Cosets are numbered by their minimal element id, which keeps the identity
    coset at 0 and makes quotient tables deterministic.
    """
    n = group.order
    coset_of = [-1] * n
    reps: list[int] = []
    nm_elems = list(bits_of(normal_mask))
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for h in nm_elems:
            coset_of[group.table[x][h]] = idx
    table = [[coset_of[group.table[a][b]] for b in reps] for a in reps]
    names = tuple(f"[{group.name(r)}]" for r in reps)
    quot = FiniteGroup(table, f"{group.descriptor}{label or '|mod'}", names)
    natural = Homomorphism(group, quot, tuple(coset_of))
    return quot, natural


def quotient_lattice(lattice, n: int):
    """(L(G/N), natural map) with G/N built as a group of its own."""
    qgroup, natural = quotient_group(lattice.group, lattice.mask(n), f"|mod#{n}")
    return enumerate_subgroups(qgroup), natural


def induced_by_subgroup_group(parent: TopoSystem, h: int):
    """(members, traces) of the induced system on h, generated in L(h) and mapped to parent indices."""
    lattice = parent.lattice
    hmask = lattice.mask(h)
    hgroup, embed = subgroup_group(lattice.group, hmask, f"|sub#{h}")
    hlattice = enumerate_subgroups(hgroup)
    local_of = {parent_id: local for local, parent_id in enumerate(embed.mapping)}
    seed = {
        hlattice.index_of(mask_of(local_of[e] for e in bits_of(lattice.mask(a) & hmask)))
        for a in parent.member_indices
    }
    system = generate_toposys(hlattice, mask_of(seed))

    def to_parent(local: int) -> int:
        return lattice.index_of(embed.image_mask(hlattice.mask(local)))

    return frozenset(map(to_parent, system.members)), frozenset(map(to_parent, seed)), system, embed


def quotient_by_quotient_group(parent: TopoSystem, n: int):
    """(members as quotient indices, axiom report, quotient system, natural map) in L(G/N)."""
    lattice = parent.lattice
    qlattice, natural = quotient_lattice(lattice, n)
    members = frozenset(qlattice.index_of(natural.image_mask(lattice.mask(a))) for a in parent.member_indices)
    system = TopoSystem(qlattice, mask_of(members), f"quotient({parent.provenance})@#{n}")
    return members, verify_toposys(qlattice, system.member_bits), system, natural


def star_topology_failures(system: TopoSystem, union_sample_limit: int = 12) -> list[ValidationFailure]:
    """The subspace-compatibility failures, checked in L(h) for every subgroup h."""
    lattice = system.lattice
    member_list = system.member_indices
    failures = []
    for h in range(len(lattice)):
        _, _, induced, embed = induced_by_subgroup_group(system, h)
        hmask = lattice.mask(h)
        local_of = {parent_id: local for local, parent_id in enumerate(embed.mapping)}
        hlattice = induced.lattice

        def localize(parent_mask: int) -> int:
            return mask_of(local_of[e] for e in bits_of(parent_mask & hmask))

        if any(hlattice.index_of(localize(lattice.mask(a))) not in induced.members for a in member_list):
            failures.append(ValidationFailure("induced-trace", (h,), "a topen trace is not induced-topen"))
        if len(member_list) <= union_sample_limit:
            for pos, a in enumerate(member_list):
                for b in member_list[pos:]:
                    if not is_star_open(induced, localize(lattice.mask(a) | lattice.mask(b))):
                        failures.append(ValidationFailure("union-trace", (a, b, h), "union trace is not star-open"))
    return failures


def theorem_checks_by_quotient_groups(lattice, system: TopoSystem) -> TheoremReport:
    """The theorem battery with every quotient built as a group of its own."""
    ultrafilters = enumerate_ultrafilters(lattice)
    limits = [convergence_set(f, system).points for f in ultrafilters]
    compactness_witness = next((f.provenance for f, points in zip(ultrafilters, limits) if not points), None)
    hausdorff, _ = is_hausdorff(system)
    multi_witness = None
    for f, points in zip(ultrafilters, limits):
        pair = _cyclically_distinct_pair(lattice, points)
        if pair is not None:
            multi_witness = f"{f.provenance}->{pair}"
            break
    findings: list[str] = []
    continuity_witness = None
    for n in bits_of(lattice.normal_bits):
        if n == lattice.top_index:
            continue
        _, report, qsystem, natural = quotient_by_quotient_group(system, n)
        if not report.passed:
            findings.append(f"quotient-axioms@#{n}:{report.first_failure().kind}")
            continue
        topo_ok, offending = is_topomorphism(natural, system, qsystem)
        if not topo_ok:
            findings.append(f"quotient-not-topomorphism@#{n}:target#{offending}")
            continue
        qlattice = qsystem.lattice
        pulled_back = {b: lattice.index_of(natural.preimage_mask(qlattice.mask(b))) for b in qsystem.member_indices}
        for f, points in zip(ultrafilters, limits):
            try:
                ok, witness = is_ultrafilter(pushforward(natural, f))
                if not ok:
                    continuity_witness = f"pushforward({f.provenance})@#{n} not ultra at #{witness}"
                    break
            except NotAFilterError:
                findings.append(f"pushforward-degenerate({f.provenance})@#{n}")
            for x in points:
                for b in qsystem.topens_containing(natural(x)):
                    if pulled_back[b] not in f:
                        continuity_witness = f"{f.provenance}->x={x}@#{n}:target#{b}"
                        break
                if continuity_witness:
                    break
            if continuity_witness:
                break
        if continuity_witness:
            break
    return TheoremReport(
        compactness_ok=compactness_witness is None,
        compactness_witness=compactness_witness,
        hausdorff=hausdorff,
        equivalence_ok=hausdorff == (multi_witness is None),
        multi_point_witness=multi_witness,
        continuity_ok=continuity_witness is None,
        continuity_witness=continuity_witness,
        findings=tuple(findings),
    )
