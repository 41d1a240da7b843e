"""In-memory span tracer that wraps seprat's layer entry points from outside.

Nothing in the package is edited: `Tracer.install()` replaces each traced
function wherever a seprat module holds a reference to it (modules import
each other's functions by name), patches the traced methods on their
classes, and `uninstall()` puts every original back.

A span is `[name, start, end, parent, op_id]`; a layer's self time is the
sum of its spans' durations minus the time their child spans cover.
Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, function) pairs timed as spans; the span name is "<layer>.<fn>".
SPANNED = (
    ("cli", "main"),
    ("cnf", "parse_dimacs"),
    ("reduction", "reduce_formula"),
    ("reduction", "build_clause_gadget"),
    ("reduction", "base_points"),
    ("reduction", "compute_epsilon_M"),
    ("reduction", "dataset_to_json"),
    ("reduction", "dataset_from_json"),
    ("rpcore", "build_grid"),
    ("rpcore", "revealed_relation"),
    ("rpcore", "topological_order"),
    ("rpcore", "find_cycle_in_adjacency"),
    ("septest", "decide"),
    ("septest", "decide_cegar"),
    ("septest", "decide_bruteforce"),
    ("septest", "verify_witness"),
)

# Per-layer metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "cnf.parse_s": ("cnf.parse_dimacs",),
    "reduction.reduce_s": ("reduction.reduce_formula",),
    "reduction.gadget_s": ("reduction.build_clause_gadget",),
    "reduction.constants_s": ("reduction.base_points",
                              "reduction.compute_epsilon_M"),
    "reduction.json_s": ("reduction.dataset_to_json",
                         "reduction.dataset_from_json"),
    "rpcore.grid_s": ("rpcore.build_grid",),
    "rpcore.revealed_s": ("rpcore.revealed_relation",),
    "rpcore.topo_s": ("rpcore.topological_order",),
    "rpcore.cycle_s": ("rpcore.find_cycle_in_adjacency",),
    "septest.decide_s": ("septest.decide", "septest.decide_cegar",
                         "septest.decide_bruteforce"),
    "septest.arena_s": ("septest.arena",),
    "septest.adjacency_s": ("septest.adjacency_under",),
    "septest.verify_s": ("septest.verify_witness",),
    "satcore.init_s": ("satcore.init",),
    "satcore.solve_s": ("satcore.solve",),
}

COUNT_METRICS = (
    "numerics.dot_calls",
    "rpcore.grid_points", "rpcore.z_parts", "rpcore.one_edges",
    "rpcore.topo_calls", "rpcore.cycle_calls",
    "septest.arena_edges", "septest.adjacency_calls",
    "septest.iterations", "septest.orders_explored",
    "septest.blocking_clauses", "septest.blocking_literals",
    "satcore.init_clauses", "satcore.solve_calls",
    "satcore.conflicts", "satcore.learned",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNT_METRICS, 0)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._clause_mark = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[idx]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Self time per metric of SELF_TIME_METRICS, then every count."""
        selfs = self.self_times()
        out = {metric: sum(selfs.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME_METRICS.items()}
        out.update(self.counts)
        return out

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, args)
            return result
        return traced

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _after_grid(self, grid, args):
        self.counts["rpcore.grid_points"] += len(grid.points)
        self.counts["rpcore.z_parts"] += len(grid.z_parts)

    def _after_revealed(self, graph, args):
        self.counts["rpcore.one_edges"] += len(graph.edges)

    def _after_decide(self, verdict, args):
        self.counts["septest.iterations"] += verdict.stats.get("iterations", 0)
        self.counts["septest.orders_explored"] += \
            verdict.stats.get("orders_explored", 0)

    def _after_arena(self, _, args):
        arena = args[0]
        self.counts["septest.arena_edges"] += \
            len(arena.always) + len(arena.dom_candidates)

    def _after_solver_init(self, _, args):
        solver, instance = args[:2]
        self.counts["satcore.init_clauses"] += len(instance.clauses)
        self._clause_mark[solver] = len(solver.clauses)

    def _call_counter(self, key):
        def after(result, args):
            self.counts[key] += 1
        return after

    def _solver_solve(self, fn):
        """Clauses added since the previous solve() are blocking clauses."""
        traced = self._spanned("satcore.solve", fn)
        counts = self.counts

        @functools.wraps(fn)
        def solve(solver):
            size = len(solver.clauses)
            added = solver.clauses[self._clause_mark.get(solver, size):size]
            counts["septest.blocking_clauses"] += len(added)
            counts["septest.blocking_literals"] += sum(len(c) for c in added)
            conflicts = solver.conflicts
            try:
                return traced(solver)
            finally:
                counts["satcore.solve_calls"] += 1
                counts["satcore.conflicts"] += solver.conflicts - conflicts
                counts["satcore.learned"] += len(solver.clauses) - size
                self._clause_mark[solver] = len(solver.clauses)
        return solve

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "seprat"
                                   or mod_name.startswith("seprat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _patch_method(self, cls, attr, make) -> None:
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        from seprat import numerics, satcore, septest
        after = {
            "rpcore.build_grid": self._after_grid,
            "rpcore.revealed_relation": self._after_revealed,
            "rpcore.topological_order": self._call_counter("rpcore.topo_calls"),
            "rpcore.find_cycle_in_adjacency":
                self._call_counter("rpcore.cycle_calls"),
            "septest.decide": self._after_decide,
        }
        for layer, fn_name in SPANNED:
            module = sys.modules[f"seprat.{layer}"]
            original = getattr(module, fn_name)
            name = f"{layer}.{fn_name}"
            self._replace_everywhere(
                original, self._spanned(name, original, after.get(name)))
        self._replace_everywhere(
            numerics.dot, self._counted("numerics.dot_calls", numerics.dot))
        methods = (
            (septest._Arena, "__init__", "septest.arena", self._after_arena),
            (septest._Arena, "adjacency_under", "septest.adjacency_under",
             self._call_counter("septest.adjacency_calls")),
            (satcore.Solver, "__init__", "satcore.init",
             self._after_solver_init),
        )
        for cls, attr, name, hook in methods:
            self._patch_method(
                cls, attr, lambda fn, n=name, h=hook: self._spanned(n, fn, h))
        self._patch_method(satcore.Solver, "solve", self._solver_solve)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
