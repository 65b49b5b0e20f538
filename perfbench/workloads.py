"""Seeded task lists for the three workloads, and the output check of each task.

A workload is a pool of tasks made of blocks.  Every block holds the same
fixed mix of task kinds; only the continuous parameters come from the seed,
drawn stratified across the blocks of the pool, so two seeds give pools of
the same composition and nearly the same cost.  The timed loop cycles the
pool and stops only at a block boundary.

* ``rollout``  -- second-order runs (``integrate_second_order``).  The cost is
  per-step Python overhead in integrate, engine and expr on floats; each RHS
  depends on the previous step, so batching over samples cannot help here.
* ``extended`` -- off-surface ``integrate_hamiltonian`` runs (pi != 0).  Every
  RHS calls ``force_jacobians``, i.e. 2n dual-seeded accelerations through
  the multiplier solve; ``rollout`` never takes this path.
* ``verify``   -- ``cli.main(["verify", cfg])`` on seeded JSON configs with the
  five checks of the README example.  Independent per-sample evaluations of
  the action functionals dominate; this is where batching over samples acts.

Checks raise ``CheckFailed`` and are called outside every timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from nonholo import cli, engine, expr, hamiltonian, integrate, scenarios
from nonholo.hamiltonian import ExtendedPhasePoint
from nonholo.integrate import IntegratorConfig
from nonholo.scenarios import SleighParams

WORKLOADS = ("rollout", "extended", "verify")

# pool size in blocks, and blocks in the traced pass
POOL_BLOCKS = {"rollout": 20, "extended": 20, "verify": 4}
TRACE_BLOCKS = {"rollout": 2, "extended": 2, "verify": 1}

# knife edge plus a rolling wheel: m = 2, Gram matrix diag(1, 2) everywhere
WHEEL_CONSTRAINTS = ("v1*sin(q3) - v2*cos(q3)", "v4 - v1*cos(q3) - v2*sin(q3)")

CIRCLE_TOL = 1e-9
DRIFT_TOL = 1e-9
ENERGY_TOL = 1e-9
HAMILTONIAN_TOL = 1e-10
CONSTRAINT_RATE_TOL = 1e-7
# verify configs: one in REPORT_EVERY writes a JSONL report as well
REPORT_EVERY = 4
VERIFY_SCENARIOS = ("lda_linear", "lda_nonlinear", "friction")


class CheckFailed(Exception):
    """A task's output is wrong."""


@dataclass
class Task:
    kind: str
    m: int                               # number of constraints of the system
    call: Callable[[], object]           # the timed call into nonholo
    check: Callable[[object], None]      # raises CheckFailed on a wrong output
    known_defect: str = ""               # exception type a known defect raises here


def _strata(rng: random.Random, count: int, lo: float, hi: float, log: bool = False):
    """One uniform draw in each of count equal slices of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    out = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(out)
    return [math.exp(x) for x in out] if log else out


def _signed(rng: random.Random, count: int, lo: float, hi: float):
    """Magnitudes stratified in [lo, hi] with random signs (never zero)."""
    return [x if rng.random() < 0.5 else -x for x in _strata(rng, count, lo, hi)]


# --- shared output checks -------------------------------------------------------

def _finite(*arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise CheckFailed("non-finite state")


def _termination(traj, kind: str, names=("",)):
    term = traj.termination
    if term.kind != kind or term.name not in names:
        raise CheckFailed(f"termination {term.kind}/{term.name}, expected {kind}/{names}")


def _bounded(label: str, value: float, tol: float):
    if not value <= tol:
        raise CheckFailed(f"{label} {value:.3e} above {tol:.1e}")


def _circle_deviation(params: SleighParams, traj) -> float:
    ref = np.array([scenarios.sleigh_circle(params, t) for t in traj.times])
    return float(np.max(np.abs(traj.q - ref)))


# --- rollout ----------------------------------------------------------------------

def _check_sleigh(params, drift_tol, expect, traj):
    _finite(traj.q, traj.v)
    kind, names = expect
    _termination(traj, kind, names)
    _bounded("circle deviation", _circle_deviation(params, traj), CIRCLE_TOL)
    _bounded("constraint drift", float(np.max(np.abs(traj.constraint_values))), drift_tol)


def _check_friction(traj):
    _finite(traj.q, traj.v)
    _termination(traj, "completed")
    # lateral friction only removes translational kinetic energy
    ke = 0.5 * np.sum(traj.v[:, :2] ** 2, axis=1)
    _bounded("kinetic energy rise", float(np.max(np.diff(ke))), ENERGY_TOL)


def _check_wheel(traj):
    _finite(traj.q, traj.v)
    _termination(traj, "completed")
    ke = 0.5 * np.sum(traj.v ** 2, axis=1)
    _bounded("kinetic energy spread", float(ke.max() - ke.min()), ENERGY_TOL)
    _bounded("constraint drift", float(np.max(np.abs(traj.constraint_values))), DRIFT_TOL)


def _wheel_state(theta: float, u: float, w: float):
    return (0.0, 0.0, theta, 0.0), (u * math.cos(theta), u * math.sin(theta), w, u)


def rollout_tasks(seed: int, blocks: int, workdir: str):
    rng = random.Random(seed)
    v0s = {k: _strata(rng, blocks, 0.5, 1.5) for k in ("lin", "non", "proj", "fric")}
    omegas = {k: _strata(rng, blocks, 0.8, 1.25) for k in ("lin", "non", "proj", "fric")}
    lin_t = _strata(rng, blocks, 0.5, 0.8)
    proj_t = _strata(rng, blocks, 0.5, 0.8)
    ks = _strata(rng, blocks, 10.0, 1000.0, log=True)
    wheel_t = _strata(rng, blocks, 0.15, 0.3)
    wheel_theta = _strata(rng, blocks, -math.pi, math.pi)
    wheel_u = _strata(rng, blocks, 0.5, 1.5)
    wheel_w = _signed(rng, blocks, 0.3, 1.2)
    tasks = []
    for b in range(blocks):
        p = SleighParams(v0=v0s["lin"][b], omega=omegas["lin"][b])
        spec = scenarios.build_sleigh_spec("lda_linear", p)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=lin_t[b])
        tasks.append(Task("lda_linear/rk4", 1,
                          partial(integrate.integrate_second_order, spec,
                                  *scenarios.initial_state(p), cfg),
                          partial(_check_sleigh, p, DRIFT_TOL, ("completed", ("",)))))

        # runs into the chart singularity yd1 = 0 at t = pi/(2 omega) and stops there
        p = SleighParams(v0=v0s["non"][b], omega=omegas["non"][b])
        spec = scenarios.build_sleigh_spec("lda_nonlinear", p)
        cfg = IntegratorConfig(method="rk4", dt=2e-3, t_end=3.0 / p.omega)
        expect = ("event", ("constraint_drift", "yd1_sign"))
        tasks.append(Task("lda_nonlinear/rk4", 1,
                          partial(integrate.integrate_second_order, spec,
                                  *scenarios.initial_state(p), cfg,
                                  guards=scenarios.nonlinear_sleigh_guards()),
                          # the drift guard stops the run at the sample past its tolerance
                          partial(_check_sleigh, p, 2.0 * cfg.drift_tolerance, expect)))

        p = SleighParams(v0=v0s["fric"][b], omega=omegas["fric"][b], k=ks[b])
        spec = scenarios.build_sleigh_spec("friction", p)
        cfg = IntegratorConfig(method="rkf45", dt=1e-3, t_end=3.0)
        tasks.append(Task("friction/rkf45", 0,
                          partial(integrate.integrate_second_order, spec,
                                  *scenarios.initial_state(p), cfg),
                          _check_friction))

        p = SleighParams(v0=v0s["proj"][b], omega=omegas["proj"][b])
        spec = scenarios.build_sleigh_spec("lda_linear", p)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=proj_t[b], projection=True)
        tasks.append(Task("lda_linear/rk4+projection", 1,
                          partial(integrate.integrate_second_order, spec,
                                  *scenarios.initial_state(p), cfg),
                          partial(_check_sleigh, p, DRIFT_TOL, ("completed", ("",)))))

        spec = engine.make_system(4, (1, 1, 1, 1), constraints=WHEEL_CONSTRAINTS)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=wheel_t[b])
        tasks.append(Task("wheel/rk4", 2,
                          partial(integrate.integrate_second_order, spec,
                                  *_wheel_state(wheel_theta[b], wheel_u[b], wheel_w[b]), cfg),
                          _check_wheel))
    return tasks


# --- extended ---------------------------------------------------------------------

def _constraint_rate_gap(spec, ext) -> float:
    """max |D(t) - D(0) - integral of (dD/dv . pi/e) dt| along an extended run.

    The multipliers cancel the F part of dD/dt also off the surface, so D
    moves only with the pi/e part of vd; a wrong multiplier shows here.
    """
    cons = spec.constraints.exprs
    d = np.array([engine.constraint_values(spec, q, v) for q, v in zip(ext.q, ext.v)])
    rate = np.array([[np.dot(expr.grad_raw(c, q, v, t)[1], pi) / e for c in cons]
                     for q, v, pi, e, t in zip(ext.q, ext.v, ext.pi, ext.e, ext.times)])
    steps = np.diff(ext.times)[:, None] * 0.5 * (rate[1:] + rate[:-1])
    return float(np.max(np.abs(d[1:] - d[0] - np.cumsum(steps, axis=0))))


def _check_extended(spec, mu_e, ext):
    _finite(ext.q, ext.p, ext.v, ext.pi, ext.e, ext.pi_e)
    _termination(ext, "completed")
    _bounded("constraint rate gap", _constraint_rate_gap(spec, ext), CONSTRAINT_RATE_TOL)
    h = [hamiltonian.hamiltonian_value(
            spec, ExtendedPhasePoint(q=tuple(ext.q[k]), p=tuple(ext.p[k]), v=tuple(ext.v[k]),
                                     pi=tuple(ext.pi[k]), e=float(ext.e[k]),
                                     pi_e=float(ext.pi_e[k])), mu_e)
         for k in range(len(ext.times))]
    # H is conserved: the systems are autonomous and mu_e is constant
    _bounded("|H(t) - H(0)|", max(abs(x - h[0]) for x in h), HAMILTONIAN_TOL)


def extended_tasks(seed: int, blocks: int, workdir: str):
    rng = random.Random(seed)
    kinds = ("lda_linear", "lda_nonlinear", "wheel")
    t_ends = {"lda_linear": _strata(rng, blocks, 0.06, 0.1),
              "lda_nonlinear": _strata(rng, blocks, 0.06, 0.1),
              "wheel": _strata(rng, blocks, 0.012, 0.02)}
    draws = {k: dict(e0=_strata(rng, blocks, 0.5, 2.0),
                     mu_e=_strata(rng, blocks, -0.2, 0.2),
                     pi_e=_signed(rng, blocks, 0.01, 0.05),
                     heading=_strata(rng, blocks, -0.5, 0.5),
                     speed=_strata(rng, blocks, 0.5, 1.5),
                     omega=_signed(rng, blocks, 0.3, 1.2),
                     p=[_signed(rng, blocks, 0.01, 0.05) for _ in range(4)],
                     pi=[_signed(rng, blocks, 0.01, 0.05) for _ in range(4)])
             for k in kinds}
    tasks = []
    for b in range(blocks):
        for kind in kinds:
            d = draws[kind]
            if kind == "wheel":
                spec = engine.make_system(4, (1, 1, 1, 1), constraints=WHEEL_CONSTRAINTS)
                q0, v0 = _wheel_state(d["heading"][b], d["speed"][b], d["omega"][b])
                guards = ()
            else:
                spec = scenarios.build_sleigh_spec(kind, SleighParams())
                th, u = d["heading"][b], d["speed"][b]
                q0, v0 = (0.0, 0.0, th), (u * math.cos(th), u * math.sin(th), d["omega"][b])
                guards = (scenarios.nonlinear_sleigh_guards(extended=True)
                          if kind == "lda_nonlinear" else ())
            n = spec.n
            z0 = ExtendedPhasePoint(q=q0, p=tuple(x[b] for x in d["p"][:n]), v=v0,
                                    pi=tuple(x[b] for x in d["pi"][:n]), e=d["e0"][b],
                                    pi_e=d["pi_e"][b])
            mu_e = d["mu_e"][b]
            cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=t_ends[kind][b])
            tasks.append(Task(f"{kind}/offsurface", len(spec.constraints),
                              partial(integrate.integrate_hamiltonian, spec, z0,
                                      partial(_constant, mu_e), cfg, guards=guards),
                              partial(_check_extended, spec, mu_e)))
    return tasks


def _constant(value: float, t: float) -> float:
    return value


# --- verify -----------------------------------------------------------------------

README_CHECKS = (
    {"type": "drift", "tolerance": 1e-9},
    {"type": "analytic-compare", "tolerance": 1e-6},
    {"type": "hamiltonian-equivalence"},
    {"type": "action-stationarity"},
    {"type": "gauge-invariance", "alpha_amplitude": 0.01},
)
# at finite friction the sleigh only approaches the circle; this bounds the
# gap over the short runs generated here
FRICTION_CIRCLE_TOL = 0.1


def _run_verify(path: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", path])


def _check_verify(csv_path: str, report_path: str | None, code):
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    if not os.path.getsize(csv_path):
        raise CheckFailed("empty trajectory CSV")
    if report_path is not None:
        with open(report_path) as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != len(README_CHECKS) or not all(r.get("passed") is True
                                                         for r in records):
            raise CheckFailed("report record missing or not passed")


def verify_tasks(seed: int, blocks: int, workdir: str):
    rng = random.Random(seed)
    per_scenario = blocks * REPORT_EVERY
    # k*dt <= 1 keeps RK4 at dt = 0.01 accurate on the stiff friction force
    draws = {s: dict(t_end=_strata(rng, per_scenario, 0.12, 0.2),
                     v0=_strata(rng, per_scenario, 0.5, 1.5),
                     omega=_strata(rng, per_scenario, 0.8, 1.25),
                     k=_strata(rng, per_scenario, 10.0, 100.0, log=True),
                     e0=_strata(rng, per_scenario, 0.5, 2.0))
             for s in VERIFY_SCENARIOS}
    used = dict.fromkeys(VERIFY_SCENARIOS, 0)
    tasks = []
    for _ in range(blocks):
        order = [(s, r == 0) for s in VERIFY_SCENARIOS for r in range(REPORT_EVERY)]
        rng.shuffle(order)
        for scenario, report in order:
            d = {key: vals[used[scenario]] for key, vals in draws[scenario].items()}
            used[scenario] += 1
            i = len(tasks)
            params = {"v0": d["v0"], "omega": d["omega"]}
            checks = [dict(c) for c in README_CHECKS]
            if scenario == "friction":
                params["k"] = d["k"]
                checks[1]["tolerance"] = FRICTION_CIRCLE_TOL
            csv_path = os.path.join(workdir, f"traj{i}.csv")
            outputs = {"trajectory_csv": csv_path}
            report_path = None
            if report:
                report_path = outputs["report_json"] = os.path.join(workdir, f"report{i}.jsonl")
            config = {
                "system": {"scenario": scenario, "params": params},
                "integrator": {"method": "rk4", "dt": 0.01, "t_end": d["t_end"]},
                "initial": {"e0": d["e0"], "mu_e": "sin(t)"},
                "outputs": outputs,
                "checks": checks,
            }
            path = os.path.join(workdir, f"config{i}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(config))
            # validated as the CLI will load it, so a bad config fails set-up, not a task
            cli.Run(config, path)
            # a stationarity record in a JSONL report raises TypeError at the
            # seed commit (StationarityReport.passed is a numpy.bool_)
            tasks.append(Task(f"{scenario}/verify" + ("+report" if report else ""),
                              0 if scenario == "friction" else 1,
                              partial(_run_verify, path),
                              partial(_check_verify, csv_path, report_path),
                              known_defect="TypeError" if report else ""))
    return tasks


BUILDERS = {"rollout": rollout_tasks, "extended": extended_tasks, "verify": verify_tasks}
BLOCK_SIZE = {"rollout": 5, "extended": 3, "verify": len(VERIFY_SCENARIOS) * REPORT_EVERY}
