"""Span tracing of itergelfand from outside the package.

The tracer rebinds public functions in the module namespaces where their
callers look them up (for example ``itergelfand.singular.picard_solve``,
which ``build_singular`` calls through its module globals) and restores the
originals afterwards.  Every wrapper records one span: name, start, end and
the index of the enclosing span.  Spans live in flat arrays so that a few
hundred thousand tower and right-hand-side calls cost megabytes, not
hundreds of megabytes.  A layer's self time is its span's duration minus
the durations of its direct child spans.

Solver counts (RHS evaluations, accepted steps, log-variable segments,
Picard iterations) are read from the values the wrapped functions return.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans kept in memory plus exact solver counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._shot_solves = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span called name; after(args, kwargs, result) runs outside it."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _traced_solve_ivp(self, layer_of_call, solve_ivp):
        """solve_ivp with its RHS timed as a child span and its counts recorded."""

        def traced(fun, *args, **kwargs):
            layer = layer_of_call()
            sol = self.wrap(f"{layer}.solve_ivp", solve_ivp)(
                self.wrap(f"{layer}.rhs", fun), *args, **kwargs)
            self.counts[f"{layer}.calls"] += 1
            self.counts[f"{layer}.nfev"] += int(sol.nfev)
            self.counts[f"{layer}.steps"] += len(sol.t) - 1
            return sol

        return traced

    def _branch_layer(self):
        # the first solve_ivp call of a shot is the inner phase, later calls
        # are log-variable segments
        layer = "branch.inner" if self._shot_solves == 0 else "branch.outer"
        self._shot_solves += 1
        return layer

    def _start_shot(self, fn):
        def shot(*args, **kwargs):
            self._shot_solves = 0
            return fn(*args, **kwargs)
        return shot

    def _after_picard(self, args, kwargs, sol):
        from itergelfand.corrector import EtaSpaceConfig
        m = args[1] if len(args) > 1 else kwargs["m"]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        T_requested = (cfg if cfg is not None else EtaSpaceConfig()).resolved(m)[0]
        self.counts["corrector.picard.iterations"] += int(sol.iterations)
        # each escalation doubles T
        self.counts["corrector.picard.escalations"] += round(math.log2(sol.T / T_requested))

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        import itergelfand.branch as br
        import itergelfand.cli as cli
        import itergelfand.equivalence as eq
        import itergelfand.expansions as ex
        import itergelfand.singular as sg

        plan = [
            (cli, "main", lambda f: self.wrap("cli.main", f)),
            (cli, "build_singular", lambda f: self.wrap("singular.build_singular", f)),
            (cli, "ode_residual", lambda f: self.wrap("singular.ode_residual", f)),
            (cli, "write_profile_csv", lambda f: self.wrap("transform.write_profile_csv", f)),
            (cli, "write_csv", lambda f: self.wrap("numerics.write_csv", f)),
            (sg, "picard_solve",
             lambda f: self.wrap("corrector.picard_solve", f, after=self._after_picard)),
            (sg, "integrate_down", lambda f: self.wrap("singular.integrate_down", f)),
            (sg, "differentiate", lambda f: self.wrap("numerics.differentiate", f)),
            (sg, "g_tower", lambda f: self.wrap("towers.g_tower", f)),
            (sg, "solve_ivp", lambda f: self._traced_solve_ivp(lambda: "singular", f)),
            (br, "g_tower", lambda f: self.wrap("towers.g_tower", f)),
            (br, "solve_ivp", lambda f: self._traced_solve_ivp(self._branch_layer, f)),
            (br, "shoot_regular",
             lambda f: self.wrap("branch.shoot_regular", self._start_shot(f))),
            (br, "trace_curve", lambda f: self.wrap("branch.trace_curve", f)),
            (br, "turning_points", lambda f: self.wrap("branch.turning_points", f)),
            (br, "intersection_count", lambda f: self.wrap("branch.intersection_count", f)),
            (eq, "equivalence_report", lambda f: self.wrap("equivalence.equivalence_report", f)),
            (ex, "residual_order", lambda f: self.wrap("expansions.residual_order", f)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in plan]
        try:
            for mod, attr, make in plan:
                setattr(mod, attr, make(getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_times(self):
        """{span name: (calls, total seconds, self seconds)}."""
        if not self.start:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}


def _calls(span):
    return lambda lt, c, f: lt.get(span, (0, 0.0, 0.0))[0]


def _total(span):
    return lambda lt, c, f: lt.get(span, (0, 0.0, 0.0))[1]


def _self(span):
    return lambda lt, c, f: lt.get(span, (0, 0.0, 0.0))[2]


def _count(key):
    return lambda lt, c, f: c.get(key, 0)


def _fact(key):
    return lambda lt, c, f: f[key]


def _segments_per_shot(lt, c, f):
    shots = lt.get("branch.shoot_regular", (0, 0.0, 0.0))[0]
    return c.get("branch.outer.calls", 0) / shots if shots else 0.0


# per-layer metrics: name -> (unit, value from layer times, counts and run facts)
PER_LAYER = {
    "setup.import_s": ("s", _fact("import_s")),
    "cli.self_s": ("s", _self("cli.main")),
    "corrector.picard_solve.total_s": ("s", _total("corrector.picard_solve")),
    "corrector.picard.iterations": ("count", _count("corrector.picard.iterations")),
    "corrector.picard.escalations": ("count", _count("corrector.picard.escalations")),
    "singular.build_singular.total_s": ("s", _total("singular.build_singular")),
    "singular.integrate_down.self_s": ("s", _self("singular.integrate_down")),
    "singular.solve_ivp.calls": ("count", _count("singular.calls")),
    "singular.solve_ivp.nfev": ("count", _count("singular.nfev")),
    "singular.solve_ivp.steps": ("count", _count("singular.steps")),
    "singular.solve_ivp.self_s": ("s", _self("singular.solve_ivp")),
    "singular.rhs.self_s": ("s", _self("singular.rhs")),
    "singular.ode_residual.total_s": ("s", _total("singular.ode_residual")),
    "numerics.differentiate.total_s": ("s", _total("numerics.differentiate")),
    "towers.g_tower.calls": ("count", _calls("towers.g_tower")),
    "towers.g_tower.self_s": ("s", _self("towers.g_tower")),
    "branch.trace_curve.total_s": ("s", _total("branch.trace_curve")),
    "branch.turning_points.total_s": ("s", _total("branch.turning_points")),
    "branch.shoot_regular.calls": ("count", _calls("branch.shoot_regular")),
    "branch.shoot_regular.total_s": ("s", _total("branch.shoot_regular")),
    "branch.shoot_regular.self_s": ("s", _self("branch.shoot_regular")),
    "branch.inner.calls": ("count", _count("branch.inner.calls")),
    "branch.inner.nfev": ("count", _count("branch.inner.nfev")),
    "branch.inner.steps": ("count", _count("branch.inner.steps")),
    "branch.inner.rhs_self_s": ("s", _self("branch.inner.rhs")),
    "branch.inner.solve_ivp.self_s": ("s", _self("branch.inner.solve_ivp")),
    "branch.outer.calls": ("count", _count("branch.outer.calls")),
    "branch.outer.nfev": ("count", _count("branch.outer.nfev")),
    "branch.outer.steps": ("count", _count("branch.outer.steps")),
    "branch.outer.rhs_self_s": ("s", _self("branch.outer.rhs")),
    "branch.outer.solve_ivp.self_s": ("s", _self("branch.outer.solve_ivp")),
    "branch.outer.segments_per_shot": ("ratio", _segments_per_shot),
    "branch.intersection_count.total_s": ("s", _total("branch.intersection_count")),
    "equivalence.equivalence_report.total_s": ("s", _total("equivalence.equivalence_report")),
    "expansions.residual_order.total_s": ("s", _total("expansions.residual_order")),
    "transform.write_profile_csv.total_s": ("s", _total("transform.write_profile_csv")),
    "numerics.write_csv.total_s": ("s", _total("numerics.write_csv")),
    "io.bytes_written": ("bytes", _fact("bytes_written")),
    "numeric_warnings": ("count", _fact("numeric_warnings")),
    "fail_frac": ("ratio", _fact("fail_frac")),
    "host.kernel_s": ("s", _fact("kernel_s")),
    "trace.spans": ("count", lambda lt, c, f: sum(v[0] for v in lt.values())),
    "trace.wall_s": ("s", _fact("traced_wall_s")),
    "trace.untraced_wall_s": ("s", _fact("wall_s")),
    "trace.overhead_s": ("s", lambda lt, c, f: f["traced_wall_s"] - f["wall_s"]),
}

# counts that must repeat exactly between two traced runs of the same inputs
EXACT_COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"] + [
    "branch.outer.segments_per_shot"]


def per_layer_metrics(tracer, facts):
    lt = tracer.layer_times()
    return {name: (get(lt, tracer.counts, facts), unit)
            for name, (unit, get) in PER_LAYER.items()}
