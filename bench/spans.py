"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper
in every ``pebbling`` module namespace that holds it, the defining
module included, so calls between modules are seen too (for example
``canonical_counts`` as bound in ``solver``). A span records its name,
start, end and parent in flat arrays that stay in memory until the pass
ends. A function's self time is its spans' durations minus the time
their child spans cover.

Counts that live inside the solver are read from
``pebbling.solver.shared_solver(g)`` for every graph a traced call
received; the recursive ``Solver.decide`` itself is never wrapped. A
layer whose wrapper never fired is reported as unmeasured.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# public functions whose calls become spans, by defining module
TRACED = {
    "graphs": ("build_graph",),
    "fileformats": ("parse_graph", "serialize_graph"),
    "configurations": ("canonical_counts",),
    "solver": ("is_solvable",),
    "pebbling_number": ("pi_rooted", "max_unsolvable_weight"),
    "strategies": (
        "verify_validity_oracle",
        "certify_tree",
        "conic_combine",
        "certify_by_decomposition",
        "construction_certificate",
    ),
    "lp": ("lp_pebbling_bound", "solve_lp"),
}

# functions whose first argument is a graph that may own a shared solver
_SOLVER_ENTRY = {
    "solver.is_solvable",
    "pebbling_number.pi_rooted",
    "pebbling_number.max_unsolvable_weight",
    "strategies.verify_validity_oracle",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.graphs: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.point_bits: int | None = None
        # traced name -> (before, after): ``before`` gets the call's
        # arguments, ``after`` its state, result and exception
        self.hooks = {
            "pebbling_number.pi_rooted": (self._before_pi_rooted, self._after_pi_rooted),
            "solver.is_solvable": (None, self._after_is_solvable),
            "strategies.verify_validity_oracle": (None, self._after_oracle),
            "lp.solve_lp": (self._before_solve_lp, self._after_solve_lp),
        }

    # -- recording --------------------------------------------------------

    def _open(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def op(self, name: str, call):
        """Run one op of the workload inside a top-level span."""
        idx = self._open(self._sid("op." + name))
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        sid = self._sid(name)
        before, after = self.hooks.get(name, (None, None))
        register = name in _SOLVER_ENTRY

        def traced(*args, **kwargs):
            if register:
                g = args[0] if args else kwargs["g"]
                self.graphs[id(g)] = g
            state = before(*args, **kwargs) if before else None
            idx = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if after:
                    after(state, None, exc)
                raise
            self._close(idx)
            if after:
                after(state, result, None)
            return result

        return traced

    # -- counters read at span boundaries ----------------------------------

    def _solver_nodes(self, g) -> int:
        import pebbling.solver

        return pebbling.solver.shared_solver(g).stats.nodes

    def _before_pi_rooted(self, g, *args, **kwargs):
        return g, self._solver_nodes(g)

    def _after_pi_rooted(self, state, result, exc):
        g, nodes = state
        # a scan always runs the solver; a cached answer does not
        if result is not None and self._solver_nodes(g) > nodes:
            self.counts["sizes_scanned"] += len(result.exhaustiveness.sizes)

    def _after_is_solvable(self, state, result, exc):
        if isinstance(exc, RecursionError):
            self.counts["recursion_errors"] += 1
        if result is not None and result.witness is not None:
            self.counts["witness_moves"] += len(result.witness)

    def _after_oracle(self, state, result, exc):
        if result is not None:
            self.counts["oracle_valid" if result.valid else "oracle_invalid"] += 1

    def _before_solve_lp(self, lp, *args, **kwargs):
        self.counts["lp_rows"] += len(lp.rows)
        self.counts["lp_cols"] += len(lp.objective)

    def _after_solve_lp(self, state, result, exc):
        if result is None:
            return
        if result.point is not None:
            bits = max(
                (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in result.point),
                default=0,
            )
            self.point_bits = max(self.point_bits or 0, bits)
            if result.dual is None:
                self.counts["dual_missing"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever a pebbling module binds it."""
        import pebbling.cli  # noqa: F401  (load every module that binds a traced name)

        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules.get(f"pebbling.{module}")
            for fn_name in functions:
                fn = getattr(mod, fn_name, None)
                if callable(fn):
                    wrappers[fn] = self._wrap(f"{module}.{fn_name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pebbling" and not mod_name.startswith("pebbling."):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    # -- results -----------------------------------------------------------

    def layer_metrics(
        self, setup_slowdown: float, op_slowdowns: list[float]
    ) -> dict[str, float | int | None]:
        """Per-layer figures of this pass; None marks an unmeasured layer.

        Self times are in reference seconds: each span's time is divided
        by the slowdown measured around the op that holds it, or right
        after set-up for a span of set-up.
        """
        if self._stack != [-1]:
            raise RuntimeError(f"{len(self._stack) - 1} spans were never closed")
        n = len(self.span_name)
        covered = [0.0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                covered[p] += self.span_end[i] - self.span_start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        ops = iter(op_slowdowns)
        slowdown = setup_slowdown
        for i, sid in enumerate(self.span_name):
            name = self.names[sid]
            if self.span_parent[i] < 0:  # a top-level span is an op or a call of set-up
                slowdown = next(ops) if name.startswith("op.") else setup_slowdown
            calls[name] += 1
            self_s[name] += (self.span_end[i] - self.span_start[i] - covered[i]) / slowdown

        out: dict[str, float | int | None] = {}
        for module, functions in TRACED.items():
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                fired = calls.get(name, 0) > 0
                out[f"{name}.calls"] = calls[name] if fired else None
                out[f"{name}.self_s"] = self_s[name] if fired else None

        import pebbling.solver

        solvers = [pebbling.solver.shared_solver(g) for g in self.graphs.values()]
        nodes = sum(s.stats.nodes for s in solvers)
        hits = sum(s.stats.memo_hits for s in solvers)
        has_solver = bool(solvers)
        out["solver.nodes"] = nodes if has_solver else None
        out["solver.memo_hits"] = hits if has_solver else None
        out["solver.memo_hit_ratio"] = hits / nodes if has_solver and nodes else None
        out["solver.memo_entries"] = sum(len(s.memo) for s in solvers) if has_solver else None

        fired = {name for name in calls}
        c = self.counts
        out["solver.witness_moves"] = c["witness_moves"] if "solver.is_solvable" in fired else None
        out["solver.recursion_errors"] = c["recursion_errors"] if "solver.is_solvable" in fired else None
        pi_fired = "pebbling_number.pi_rooted" in fired
        out["pebbling_number.sizes_scanned"] = c["sizes_scanned"] if pi_fired else None
        oracle_fired = "strategies.verify_validity_oracle" in fired
        out["strategies.oracle_valid"] = c["oracle_valid"] if oracle_fired else None
        out["strategies.oracle_invalid"] = c["oracle_invalid"] if oracle_fired else None
        lp_fired = "lp.solve_lp" in fired
        out["lp.rows"] = c["lp_rows"] if lp_fired else None
        out["lp.cols"] = c["lp_cols"] if lp_fired else None
        out["lp.point_bits"] = self.point_bits if lp_fired else None
        out["lp.dual_missing"] = c["dual_missing"] if lp_fired else None
        return out
