"""Spans recorded around calls into fluidq's public functions, from outside.

The tracer rebinds each traced function in every loaded ``fluidq`` module
that holds it, under any name (``from .linprog import solve_lp`` leaves an
alias in each importing module, and the alias is what the caller looks up),
and puts the originals back on ``restore``. The library itself is never
edited. Each span records its name, start, end, parent span and operation
id; spans stay in memory in flat arrays, since a traced simulation makes one
per event, and ``summary`` turns them into per-layer figures.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, defining module, attribute). Span names drop the package prefix.
TRACED = (
    ("linprog.solve_lp", "fluidq.linprog", "solve_lp"),
    ("static_fluid.solve_static_allocation", "fluidq.static_fluid", "solve_static_allocation"),
    ("static_fluid.check_assumptions", "fluidq.static_fluid", "check_assumptions"),
    ("static_fluid.generate_critical_instance", "fluidq.static_fluid", "generate_critical_instance"),
    ("paths.enumerate_simple_paths", "fluidq.paths", "enumerate_simple_paths"),
    ("optimality.nc_verdict", "fluidq.optimality", "nc_verdict"),
    ("cli.run_analysis", "fluidq.cli", "run_analysis"),
    ("model.load_model", "fluidq.model", "load_model"),
    ("simulator.build_system", "fluidq.simulator", "build_system"),
    ("simulator.simulate", "fluidq.simulator", "simulate"),
)

# Sizes taken from a return value: simple paths enumerated, events simulated.
MEASURES = {
    "paths.enumerate_simple_paths": len,
    "simulator.simulate": lambda res: res.events,
}


class Tracer:
    """Span recorder: parallel arrays indexed by span, parents by index."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.ok = array("b")
        self.size = array("q")
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        measure = MEASURES.get(name)
        stack = self._stack
        name_, start, end, parent, op_id, ok, size = (
            self.name, self.start, self.end, self.parent, self.op_id, self.ok, self.size)

        def traced(*args, **kwargs):
            idx = len(start)
            name_.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            ok.append(0)
            size.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                ok[idx] = 1
                if measure is not None:
                    size[idx] = measure(result)
                return result
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one top-level operation of the benchmark under its own span."""
        self.op += 1
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, policies=()) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fluidq"]
        for name, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for policy in policies:
            # an instance attribute shadows the class method for this object only
            policy.assign = self.wrap("simulator.policy_assign", policy.assign)
            self._saved.append((policy, "assign", None))

    def restore(self) -> None:
        for obj, key, original in reversed(self._saved):
            if original is None:
                delattr(obj, key)
            else:
                setattr(obj, key, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self, policies=()):
        self.install(policies)
        try:
            yield self
        finally:
            self.restore()

    def summary(self, clock) -> dict[str, float]:
        """Per-layer figures over every span recorded so far.

        Span times leave out the calibration samples ``clock`` took inside them.
        """
        names = np.array(self.name, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        cal_starts = np.array(clock.starts)
        cal_done = np.concatenate(([0.0], np.cumsum(clock.durations[:cal_starts.size])))
        inside = (cal_done[np.searchsorted(cal_starts, end)]
                  - cal_done[np.searchsorted(cal_starts, start)])
        dur = end - start - inside
        parent = np.array(self.parent, dtype=np.int64)
        ok = np.array(self.ok, dtype=bool)
        size = np.array(self.size, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered

        def named(name):
            nid = self.name_ids.get(name)
            return names == nid if nid is not None else np.zeros(dur.size, dtype=bool)

        def under(name):
            """Spans with an ancestor of this name."""
            target = self.name_ids.get(name, -1)
            found = np.zeros(dur.size, dtype=bool)
            anc = parent.copy()
            while (anc >= 0).any():
                live = anc >= 0
                found[live] |= names[anc[live]] == target
                anc[live] = parent[anc[live]]
            return found

        def ms(mask, values=dur):
            return 1e3 * float(values[mask].sum())

        def p50_us(mask):
            return 1e6 * float(np.median(dur[mask])) if mask.any() else 0.0

        lp = named("linprog.solve_lp")
        gen = named("static_fluid.generate_critical_instance")
        draws = named("static_fluid.solve_static_allocation") & under(
            "static_fluid.generate_critical_instance")
        paths = named("paths.enumerate_simple_paths")
        sims = named("simulator.simulate")
        assign = named("simulator.policy_assign")
        sim_s = float(dur[sims].sum())
        assign_in_sim_s = float(dur[assign & under("simulator.simulate")].sum())
        events = int(size[sims].sum())
        return {
            "linprog.solve_lp.calls": int(lp.sum()),
            "linprog.solve_lp.self_ms": ms(lp, self_time),
            "linprog.solve_lp.us_p50": p50_us(lp),
            "static_fluid.check_assumptions.self_ms": ms(
                named("static_fluid.check_assumptions"), self_time),
            "static_fluid.check_assumptions.lp_calls": int(
                (lp & under("static_fluid.check_assumptions")).sum()),
            "static_fluid.generate.accept_ratio": (
                int((gen & ok).sum()) / int(draws.sum()) if draws.any() else 0.0),
            "static_fluid.generate_critical_instance.ms": ms(gen),
            "paths.enumerate_simple_paths.ms": ms(paths),
            "paths.count": int(size[paths].sum()),
            "optimality.nc_verdict.self_ms": ms(named("optimality.nc_verdict"), self_time),
            "optimality.lp_calls": int((lp & under("optimality.nc_verdict")).sum()),
            "cli.run_analysis.ms": ms(named("cli.run_analysis")),
            "cli.io_ms": ms(named("cli.main"), self_time),
            "simulator.policy_assign.calls": int(assign.sum()),
            "simulator.policy_assign.us_p50": p50_us(assign),
            "simulator.policy_share": assign_in_sim_s / sim_s if sim_s else 0.0,
            "simulator.us_per_event": (
                1e6 * (sim_s - assign_in_sim_s) / events if events else 0.0),
            "simulator.events": events,
            "simulator.build_system.ms": ms(named("simulator.build_system")),
            "simulator.simulate.calls": int(sims.sum()),
            "model.load_model.ms": ms(named("model.load_model")),
        }
