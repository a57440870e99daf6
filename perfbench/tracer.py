"""Per-layer tracing from outside the program.

The layers are the modules of `topogroups`.  Each named function is wrapped
after import; a call opens a span whose parent is the innermost open span.
When the span closes, its duration, its self time (duration minus the time
covered by its child spans) and its counts are folded into per-function
totals.  Folding on close instead of keeping a span list keeps memory at the
stack depth: `wide` opens over two million `join_index` spans in one pass.
"""

from __future__ import annotations

import functools
import sys
import time

SUITES = (
    "lattice_completeness",
    "toposys_axioms",
    "interior_core",
    "prime_order",
    "weak_closed",
    "ultrafilter_machinery",
    "convergence_compactness",
    "hausdorff_equivalence",
    "tychonoff",
    "quotient_probe",
    "star_topology",
)

# (module, attribute); "Class.method" attributes are wrapped on the class.
TARGETS = (
    ("groups", "closure_mask"),
    ("groups", "build_group"),
    ("lattice", "enumerate_subgroups"),
    ("lattice", "automorphisms"),
    ("lattice", "SubgroupLattice.join_index"),
    ("lattice", "SubgroupLattice.normalizer_index"),
    ("lattice", "SubgroupLattice.core_index"),
    ("lattice", "SubgroupLattice.commutator_index"),
    ("toposystems", "build_toposys"),
    ("toposystems", "verify_toposys"),
    ("toposystems", "star_topology_checks"),
    ("toposystems", "quotient_toposys"),
    ("toposystems", "t_closed_checks"),
    ("toposystems", "is_hausdorff"),
    ("filters", "theorem_checks"),
    ("filters", "convergence_set"),
    ("filters", "enumerate_ultrafilters"),
    ("filters", "all_filters"),
    ("filters", "pushforward"),
    ("filters", "is_ultrafilter"),
    ("products", "direct_product"),
    ("products", "product_identities_check"),
    ("products", "tychonoff_certificate"),
    *(("suites", f"suite_{s}") for s in SUITES),
    ("suites", "cell_theorem_report"),
    ("cli", "run_command"),
)
NAMES = tuple(f"{module}.{attr.rpartition('.')[2]}" for module, attr in TARGETS)
STATS = ("calls", "self_s", "total_s")


class Tracer:
    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.active = [0] * n
        # under[p][c]: calls of c whose parent span is p; row n is "no span"
        self.under = [[0] * n for _ in range(n + 1)]
        self.systems = set()  # (group, member set) of every build_toposys result
        self.root = [0.0, n]  # [time covered by child spans, function id]
        self.stack = [self.root]

    def install(self):
        """Wrap every target and rebind it at every site that holds it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "topogroups"]
        for fid, (module, attr) in enumerate(TARGETS):
            owner = sys.modules[f"topogroups.{module}"]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, fn_name, self._wrap(fid, cls.__dict__[fn_name]))
                continue
            original = getattr(owner, fn_name)
            wrapped = self._wrap(fid, original)
            # `from .x import f` copies the name, and suites keeps its suite
            # functions in a module-level dict, so look in both places.
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapped
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapped

    def _wrap(self, fid, fn):
        stack, active, under = self.stack, self.active, self.under
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        systems = self.systems if NAMES[fid] == "toposystems.build_toposys" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, fid]
            stack.append(frame)
            active[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if systems is not None:
                    systems.add((result.lattice.group.descriptor, result.members))
                return result
            finally:
                duration = clock() - start
                stack.pop()
                active[fid] -= 1
                calls[fid] += 1
                self_s[fid] += duration - frame[0]
                if not active[fid]:
                    total_s[fid] += duration
                parent[0] += duration
                under[parent[1]][fid] += 1

        return traced

    def covered_s(self) -> float:
        """Time covered by outermost spans, equal to the sum of all self times."""
        return self.root[0]

    def layers(self) -> dict:
        out = {}
        for fid, name in enumerate(NAMES):
            out[name] = {"calls": self.calls[fid], "self_s": self.self_s[fid], "total_s": self.total_s[fid]}
        joins, closures = NAMES.index("lattice.join_index"), NAMES.index("groups.closure_mask")
        out["lattice.join_index"]["closure_spans"] = self.under[joins][closures]
        out["toposystems.build_toposys"]["distinct"] = len(self.systems)
        return out
