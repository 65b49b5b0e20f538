"""Span recording for the traced run, from outside the program.

``Tracer.patched()`` replaces layer functions of nonholo at the module
attribute each caller looks the name up in, and restores them on exit.
Names bound at import (``action.diff1``, ``hamiltonian.diff1``,
``cli.parse_expression``) are patched in the importing module.

Each span stores name, start, end, parent span and task id in flat arrays;
spans stay in memory until ``save``.  A span's self time is its duration
minus the durations of its direct children (children of one span never
overlap: the program is single-threaded).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

from nonholo import action, cli, engine, expr, hamiltonian, integrate, paths, scenarios
from nonholo.dual import Dual

# (module, attribute, span name) for the wrappers without special handling
_PLAIN = (
    (expr, "parse_expression", "expr.parse"),
    (cli, "parse_expression", "expr.parse"),
    (expr, "grad_raw", "expr.grad_raw"),
    (engine, "project_initial_state", "engine.project"),
    (integrate, "_rk4_step", "integrate.step"),
    (integrate, "_rkf45_step", "integrate.step"),
    (integrate, "_bisect_event", "integrate.bisect"),
    (hamiltonian, "hamiltonian_vector_field", "hamiltonian.field"),
    (hamiltonian, "force_jacobians", "hamiltonian.jacobians"),
    (hamiltonian, "unpack", "hamiltonian.unpack"),
    (action, "diff1", "paths.diff"),
    (action, "diff2", "paths.diff"),
    (hamiltonian, "diff1", "paths.diff"),
    (paths, "diff1_at", "paths.diff"),
    (scenarios, "build_sleigh_spec", "scenarios.build"),
    (cli, "load_run", "cli.load_run"),
    (cli, "run_check", "cli.run_check"),
)
# action functionals: (attribute, span name); the outermost call counts path samples
_ACTION = (
    ("universal_action", "action.universal"),
    ("first_order_action", "action.first_order"),
    ("stationarity_check", "action.stationarity"),
    ("gauge_invariance_check", "action.gauge"),
)
_WRITERS = ("write_trajectory_csv", "write_extended_csv", "write_reports")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.task_m: dict[int, int] = {}
        self._stack = [-1]
        self._task = [-1]
        self._action_depth = 0

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn, pick):
        """fn wrapped in a span whose name id pick(args) returns."""
        names, parents, tasks = self.name, self.parent, self.task
        starts, ends, stack, task = self.start, self.end, self._stack, self._task
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(pick(args))
            parents.append(stack[-1])
            tasks.append(task[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return wrapper

    def _fixed(self, fn, name: str):
        nid = self._nid(name)
        return self._spanned(fn, lambda args: nid)

    def run(self, task: int, m: int, call, name: str = "task"):
        """call() with the layers patched, under a root span of the given task.

        Task id -1 is the set-up; m is the constraint count of the task's system.
        """
        self._task[0] = task
        self.task_m[task] = m
        with self.patched():
            return self._fixed(call, name)()

    @contextlib.contextmanager
    def patched(self):
        saved = []

        def put(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        try:
            for module, attr, name in _PLAIN:
                put(module, attr, self._fixed(getattr(module, attr), name))
            self._patch_engine(put)
            self._patch_driver(put)
            for attr, name in _ACTION:
                put(action, attr, self._action(getattr(action, attr), name))
            integrand = action._integrand_at
            counts = self.counts

            def counted(*args):
                counts["action.integrand.calls"] += 1
                return integrand(*args)
            put(action, "_integrand_at", counted)
            for attr in _WRITERS:
                put(cli, attr, self._writer(getattr(cli, attr)))
            yield
        finally:
            for module, attr, old in reversed(saved):
                setattr(module, attr, old)

    def _patch_engine(self, put):
        accel_f, accel_d = self._nid("engine.accel"), self._nid("dual.seeded_accel")

        def pick_accel(args):
            _, q, v = args[:3]
            for x in (*q, *v):
                if isinstance(x, Dual):
                    return accel_d
            return accel_f
        put(engine, "acceleration_raw", self._spanned(engine.acceleration_raw, pick_accel))
        put(engine, "_constraint_solve",
            self._spanned(engine._constraint_solve,
                          lambda args: self._nid(f"engine.solve.m{len(args[0].constraints)}")))

    def _patch_driver(self, put):
        drive = integrate._drive
        by_method = {m: self._nid(f"integrate.driver.{m}") for m in ("rk4", "rkf45")}
        spanned = self._spanned(drive, lambda args: by_method[args[2].method])
        rhs_span = self._nid("integrate.rhs")
        accept_span = self._nid("integrate.accept")

        def driver(f, y0, cfg, accept, guards, t0=0.0):
            return spanned(self._spanned(f, lambda args: rhs_span), y0, cfg,
                           self._spanned(accept, lambda args: accept_span), guards, t0)
        put(integrate, "_drive", driver)

    def _action(self, fn, name):
        spanned = self._fixed(fn, name)

        def wrapper(spec, path, *args, **kwargs):
            if self._action_depth == 0:
                self.counts["action.samples"] += len(path.times)
            self._action_depth += 1
            try:
                return spanned(spec, path, *args, **kwargs)
            finally:
                self._action_depth -= 1
        return wrapper

    def _writer(self, fn):
        spanned = self._fixed(fn, "cli.write")

        def wrapper(path, *args):
            try:
                return spanned(path, *args)
            finally:
                self.counts["cli.write.bytes"] += os.path.getsize(path)
        return wrapper

    def save(self, path: str):
        """Write every span, the name table and the counters to an .npz file."""
        np.savez(path, name=np.asarray(self.name), parent=np.asarray(self.parent),
                 task=np.asarray(self.task), start=np.asarray(self.start),
                 end=np.asarray(self.end), names=np.array(self.names),
                 counters=np.array(json.dumps(self.counts)))


# per-layer metric name -> unit, in the order they are printed
LAYER_UNITS = {
    "expr.parse.calls": "count", "expr.parse.s": "s",
    "expr.grad_raw.calls": "count", "expr.grad_raw.self_s": "s",
    "dual.seeded_accel.calls": "count", "dual.seeded_accel.s": "s",
    "engine.accel.calls": "count", "engine.accel.self_s": "s", "engine.accel.us": "us",
    "engine.solve.m1.calls": "count", "engine.solve.m1.self_s": "s",
    "engine.solve.m2.calls": "count", "engine.solve.m2.self_s": "s",
    "engine.multipliers.per_step": "count",
    "engine.project.calls": "count", "engine.project.s": "s",
    "integrate.steps.accepted": "count", "integrate.steps.attempted": "count",
    "integrate.accept_ratio": "ratio", "integrate.rhs_per_step": "count",
    "integrate.rk4.rhs_per_step": "count", "integrate.rkf45.rhs_per_step": "count",
    "integrate.step.m1.us": "us", "integrate.step.m2.us": "us",
    "integrate.bisect.calls": "count", "integrate.bisect.s": "s",
    "integrate.driver.self_s": "s",
    "hamiltonian.field.calls": "count", "hamiltonian.field.self_s": "s",
    "hamiltonian.jacobians.calls": "count", "hamiltonian.jacobians.self_s": "s",
    "hamiltonian.unpack.calls": "count", "hamiltonian.unpack.s": "s",
    "action.universal.calls": "count", "action.universal.s": "s",
    "action.first_order.calls": "count", "action.first_order.s": "s",
    "action.stationarity.s": "s", "action.gauge.s": "s",
    "action.integrand.calls": "count", "action.accel_per_sample": "count",
    "paths.diff.calls": "count", "paths.diff.s": "s",
    "scenarios.build.calls": "count", "scenarios.build.s": "s",
    "cli.load_run.s": "s", "cli.run_check.s": "s", "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, overhead_frac: float) -> dict:
    """Per-layer metrics (LAYER_UNITS order) from the recorded spans."""
    name = np.asarray(tr.name, dtype=np.int64)
    parent = np.asarray(tr.parent, dtype=np.int64)
    task = np.asarray(tr.task, dtype=np.int64)
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    n = len(name)
    # parent index with -1 redirected to a sentinel slot n
    up = np.where(parent >= 0, parent, n)
    self_t = dur - np.bincount(up, weights=dur, minlength=n + 1)[:n]

    def sel(*names):
        ids = [tr._ids[x] for x in names if x in tr._ids]
        return np.isin(name, ids)

    def parent_in(mask):
        return np.append(mask, False)[up]

    def under(mask):
        """Spans in mask or with an ancestor in it."""
        inside = mask.copy()
        while True:
            grown = inside | parent_in(inside)
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def calls(mask):
        return int(np.count_nonzero(mask))

    task_m = np.array([tr.task_m.get(t, -1) for t in range(-1, int(task.max(initial=0)) + 1)])
    m_of = task_m[task + 1]

    drivers = {m: sel(f"integrate.driver.{m}") for m in ("rk4", "rkf45")}
    any_driver = drivers["rk4"] | drivers["rkf45"]
    steps = sel("integrate.step")
    rhs = sel("integrate.rhs")
    step_of = {m: steps & parent_in(d) for m, d in drivers.items()}
    rhs_of = {m: rhs & parent_in(s) for m, s in step_of.items()}
    attempted = calls(step_of["rk4"]) + calls(step_of["rkf45"])
    accepted = calls(sel("integrate.accept") & parent_in(any_driver))
    driver_steps = step_of["rk4"] | step_of["rkf45"]
    solves = sel(*(x for x in tr.names if x.startswith("engine.solve.")))
    accels = sel("engine.accel", "dual.seeded_accel")
    action_spans = sel("action.universal", "action.first_order", "action.stationarity",
                       "action.gauge")

    def step_us(m):
        mask = driver_steps & (m_of == m)
        return 1e6 * _ratio(float(dur[mask].sum()), calls(mask))

    c = tr.counts
    layers = {
        "expr.parse": sel("expr.parse"), "expr.grad_raw": sel("expr.grad_raw"),
        "dual.seeded_accel": sel("dual.seeded_accel"), "engine.accel": sel("engine.accel"),
        "engine.solve.m1": sel("engine.solve.m1"), "engine.solve.m2": sel("engine.solve.m2"),
        "engine.project": sel("engine.project"), "integrate.bisect": sel("integrate.bisect"),
        "hamiltonian.field": sel("hamiltonian.field"),
        "hamiltonian.jacobians": sel("hamiltonian.jacobians"),
        "hamiltonian.unpack": sel("hamiltonian.unpack"),
        "action.universal": sel("action.universal"),
        "action.first_order": sel("action.first_order"),
        "paths.diff": sel("paths.diff"), "scenarios.build": sel("scenarios.build"),
    }
    out = {}
    for key, mask in layers.items():
        out[f"{key}.calls"] = calls(mask)
        out[f"{key}.s"] = float(dur[mask].sum())
        out[f"{key}.self_s"] = float(self_t[mask].sum())
    out.update({
        "engine.accel.us": 1e6 * _ratio(out["engine.accel.s"], out["engine.accel.calls"]),
        "engine.multipliers.per_step": _ratio(calls(solves & under(any_driver)), accepted),
        "integrate.steps.accepted": accepted,
        "integrate.steps.attempted": attempted,
        "integrate.accept_ratio": _ratio(accepted, attempted),
        "integrate.rhs_per_step": _ratio(calls(rhs_of["rk4"] | rhs_of["rkf45"]), attempted),
        "integrate.rk4.rhs_per_step": _ratio(calls(rhs_of["rk4"]), calls(step_of["rk4"])),
        "integrate.rkf45.rhs_per_step": _ratio(calls(rhs_of["rkf45"]), calls(step_of["rkf45"])),
        "integrate.step.m1.us": step_us(1),
        "integrate.step.m2.us": step_us(2),
        "integrate.driver.self_s": float(self_t[any_driver].sum()),
        "action.stationarity.s": float(dur[sel("action.stationarity")].sum()),
        "action.gauge.s": float(dur[sel("action.gauge")].sum()),
        "action.integrand.calls": c["action.integrand.calls"],
        "action.accel_per_sample": _ratio(calls(accels & under(action_spans)),
                                          c["action.samples"]),
        "cli.load_run.s": float(dur[sel("cli.load_run")].sum()),
        "cli.run_check.s": float(dur[sel("cli.run_check")].sum()),
        "cli.write.s": float(dur[sel("cli.write")].sum()),
        "cli.write.bytes": c["cli.write.bytes"],
        "trace.overhead_frac": overhead_frac,
    })
    return {key: {"value": out[key], "unit": unit} for key, unit in LAYER_UNITS.items()}
