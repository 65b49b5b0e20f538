"""Fixed-step RK4 and adaptive RKF45 drivers for the second-order system and
the extended-phase-space flow, with per-sample constraint diagnostics and
sign-change event location by bisection.

A run steps with the system's generated step (module ``kernels``), not with
a right-hand side: ``spec.kernel.rk4_step`` or ``rkf45_step`` for the flow
[q, v], which call the compiled ``accel``, and for the extended flow
``spec.kernel.extended_step``, built per run around the generated
``flow(y, mu_e, t)`` and the run's mu_e.
They unroll ``_rk4_step`` and ``_rkf45_step`` below, which stay as the
reference the tests hold them to, bit for bit (as ``engine`` is for the
kernels).  ``_drive`` gets the step, and event bisection uses the same step.
Every run accepts a new state through ``_advance``: the finite test, the
guards' crossing test with bisection, and the record.

A user guard is a pair (name, g(q, v, t)) on the physical state, the signature
of an ``Expr``'s ``_fn``, so one guard serves both flows.  Only this module
knows the layouts: ``_row_guards`` turns each into the driver's g(t, row) once
per run, reading v at offset n of [q, v] and at 2n of [q, p, v, pi, e, pi_e].
The built-in guards (Gram floor, drift, e = 0) read the row, and the first two
share the per-sample ``diag``.

A second-order RK4 run with constraints steps in ``spec.kernel.rk4_run``, the
generated run loop: per step the generated step, the finite test, ``diag``,
the Gram and drift margins, the user guards, the projection and the record,
with the float operations and calls of ``_drive`` and none of its Python per
step.  The loop records every new sample whose margins all read > 0.0, which
``_advance`` would accept as it is.  At the first sample that is not finite,
reads a margin that is not > 0.0 (NaN included), or makes ``accel``,
``diag``, a guard or the projection raise, it returns that step with the row
and ``diag`` it made, and ``_advance`` takes it, with the guards armed as the
driver would have them; the loop then resumes after it.  So bisection, event
records and error terminations stay in one place.  RKF45, runs without
constraints and the extended flow step in ``_drive``.
The second-order run calls ``diag`` once per sample: its guards and its
record read one result per state, and so does the RK4 step that starts
there, whose first stage is ``diag``'s F (a run with m = 0 has no ``diag``
and hands the step ``accel`` there).  With projection on, a state that
result puts on the surface (``max |D| <= PROJECTION_TOL``) is kept without
calling ``engine.project_initial_state``, which would return its v
unchanged.  Where ``diag`` certified the smallest Gram eigenvalue above the
guard floor, it returns the Gram matrix instead, which the Gram guard reads
as a positive margin; when the run ends, whatever its termination, the
eigenvalues of all such samples are filled in by one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, hamiltonian
from .engine import SystemSpec
from .errors import RUN_ERRORS, InitialStateError, RegularityError
from .kernels import _RKF_A, _RKF_B, _RKF_C4, _RKF_C5

EVENT_TIME_TOL = 1e-10
INITIAL_CONSTRAINT_TOL = 1e-10
PROJECTION_TOL = 1e-12  # |D| a projected run leaves at each accepted sample


@dataclass
class IntegratorConfig:
    method: str = "rk4"  # "rk4" | "rkf45"
    dt: float = 1e-3
    t_end: float = 1.0
    atol: float = 1e-8
    rtol: float = 1e-8
    dt_min: float = 1e-12
    dt_max: float = 0.1
    drift_tolerance: float = 1e-6
    projection: bool = False

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("dt", "t_end", "atol", "rtol", "dt_min", "dt_max", "drift_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("atol and rtol must be positive")
        if self.dt_min <= 0 or self.dt_max <= 0:
            raise ValueError("dt_min and dt_max must be positive")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min {self.dt_min!r} exceeds dt_max {self.dt_max!r}")


@dataclass(frozen=True)
class Termination:
    kind: str  # "completed" | "event" | "error"
    name: str = ""
    t: float = 0.0


@dataclass
class Trajectory:
    """Second-order run: states plus constraint diagnostics per sample."""

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    constraint_values: np.ndarray  # (N, m)
    multipliers: np.ndarray        # (N, m)
    gram_min_eig: np.ndarray       # (N,)
    termination: Termination


@dataclass
class ExtendedTrajectory:
    """Extended-phase-space run with the surface residual per sample."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    v: np.ndarray
    pi: np.ndarray
    e: np.ndarray
    pi_e: np.ndarray
    surface_residual: np.ndarray
    termination: Termination


# --- generic drivers ----------------------------------------------------------

# The reference steps on a right-hand side f(t, y) -> list; runs take the
# generated steps, which repeat these float operations in this order.

def _rk4_step(f, t, y, dt):
    k1 = f(t, y)
    half = 0.5 * dt
    dim = len(y)
    y2 = [y[i] + half * k1[i] for i in range(dim)]
    k2 = f(t + half, y2)
    y3 = [y[i] + half * k2[i] for i in range(dim)]
    k3 = f(t + half, y3)
    y4 = [y[i] + dt * k3[i] for i in range(dim)]
    k4 = f(t + dt, y4)
    sixth = dt / 6.0
    return [y[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(dim)]


def _rkf45_step(f, t, y, dt):
    """One Fehlberg step; returns (y5, error_inf) propagating the 5th order."""
    dim = len(y)
    k = []
    for s in range(6):
        ys = list(y)
        for j, b in enumerate(_RKF_B[s]):
            bj = dt * b
            kj = k[j]
            for i in range(dim):
                ys[i] += bj * kj[i]
        k.append(f(t + _RKF_A[s] * dt, ys))
    y5 = list(y)
    y4 = list(y)
    for s in range(6):
        c5 = dt * _RKF_C5[s]
        c4 = dt * _RKF_C4[s]
        ks = k[s]
        for i in range(dim):
            y5[i] += c5 * ks[i]
            y4[i] += c4 * ks[i]
    err = max(abs(y5[i] - y4[i]) for i in range(dim))
    return y5, err


def _bisect_event(step, guard, t_prev, y_prev, dt):
    """Locate the guard's downward crossing in [t_prev, t_prev + dt].

    step(t, y, h) is the run's own method, so an event state has the order of
    the states around it.
    """
    lo, hi = 0.0, dt
    y_hi = step(t_prev, y_prev, dt)
    while hi - lo > EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = step(t_prev, y_prev, mid)
        if guard(t_prev + mid, y_mid) <= 0.0:
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    return t_prev + hi, y_hi


def _arm(guards, t, y):
    """(armed, termination) at the first state: a guard that reads <= 0 there ends the
    run at once as an event; armed[i] is whether guard i reads > 0.0."""
    values = [g(t, y) for _, g in guards]
    for (name, _), gv in zip(guards, values):
        if gv <= 0.0:
            return None, Termination("event", name, t)
    return [gv > 0.0 for gv in values], None


def _advance(step, guards, armed, accept, t_prev, y_prev, t_new, y_new):
    """Guard check and acceptance of the state y_new that step(t, y, dt), which returns
    the new state, made from the last accepted one; returns (t, y, termination or None).

    armed[i] is whether guard i read > 0.0 at the last accepted state: a guard crosses
    where it reads <= 0.0 and was armed (a NaN reading disarms it until it reads > 0.0
    again).  The first crossing is located by bisection with the same step, the event
    sample is accepted, and the run terminates; otherwise the new readings rearm the
    guards in place and accept(t, y) records the state, and may return it adjusted.
    """
    if not all(map(math.isfinite, y_new)):
        return t_prev, y_prev, Termination("error", "non-finite state", t_prev)
    g_new = [g(t_new, y_new) for _, g in guards]
    for idx, gv in enumerate(g_new):
        if gv <= 0.0 and armed[idx]:
            name, guard = guards[idx]
            t_event, y_event = _bisect_event(step, guard, t_prev, y_prev, t_new - t_prev)
            accept(t_event, y_event)
            return t_event, y_event, Termination("event", name, t_event)
        armed[idx] = gv > 0.0
    adjusted = accept(t_new, y_new)
    if adjusted is not None:
        y_new = adjusted
    return t_new, y_new, None


def _row_guards(guards, n: int, v_at: int):
    """The driver's (name, g(t, row)) of each user guard (name, g(q, v, t)), q at 0 and v
    at v_at in the row; each g is bound in its own call, not late in the comprehension."""
    def on_row(g):
        return lambda t, y: g(y[:n], y[v_at:v_at + n], t)
    return [(name, on_row(g)) for name, g in guards]


def _grid(cfg: IntegratorConfig):
    """(steps, dt) of a fixed-step run: t_end in equal steps near cfg.dt."""
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    return n_steps, cfg.t_end / n_steps


def _failure(exc: Exception, t: float) -> Termination:
    cause = "regularity" if isinstance(exc, RegularityError) else type(exc).__name__
    return Termination("error", f"{cause}: {exc}", t)


def _drive(step, y0, cfg: IntegratorConfig, accept, guards, t0: float = 0.0):
    """Advance with the run's step; returns a Termination.

    step(t, y, dt) is the configured method: the new state for rk4, (y5, err)
    for rkf45.  accept(t, y) records an accepted sample and may return an
    adjusted state (velocity projection).  Guards are (name, g(t, y)) pairs;
    when g crosses from positive to <= 0 the crossing is located by bisection
    with the same step, the event sample is recorded, and the run terminates
    (``_advance``).  Every state reaches the guards and accept at one time
    only, and y0 itself is the first.  Non-finite values, an RKF45 step over
    tolerance at dt_min, or one of ``RUN_ERRORS`` end the run as "error" at
    the last accepted time.
    """
    t = t0
    y = y0
    t_end = t0 + cfg.t_end

    if cfg.method == "rk4":
        substep = step
    else:
        def substep(t_prev, y_prev, dt):
            return step(t_prev, y_prev, dt)[0]

    try:
        armed, stop = _arm(guards, t, y)
        if stop is not None:
            return stop

        if cfg.method == "rk4":
            n_steps, dt = _grid(cfg)
            for i in range(n_steps):
                t, y, stop = _advance(substep, guards, armed, accept, t, y,
                                      t0 + (i + 1) * dt, step(t, y, dt))
                if stop is not None:
                    return stop
            return Termination("completed", t=t)

        # rkf45
        dt = min(cfg.dt, cfg.dt_max)
        while t < t_end - 1e-14:
            dt = min(dt, t_end - t)
            y_new, err = step(t, y, dt)
            scale = cfg.atol + cfg.rtol * max(map(abs, y))
            if not math.isfinite(err):
                return Termination("error", "non-finite error estimate", t)
            if err <= scale:
                t, y, stop = _advance(substep, guards, armed, accept, t, y, t + dt, y_new)
                if stop is not None:
                    return stop
            elif dt <= cfg.dt_min * (1 + 1e-12):
                return Termination("error", f"step-size collapse: error {err:.3e} at dt_min", t)
            if err > 0.0:
                dt = dt * min(4.0, max(0.1, 0.9 * (scale / err) ** 0.2))
            else:
                dt = dt * 4.0
            dt = min(max(dt, cfg.dt_min), cfg.dt_max)
        return Termination("completed", t=t)
    except RUN_ERRORS as exc:
        return _failure(exc, t)


# --- second-order system --------------------------------------------------------

def integrate_second_order(spec: SystemSpec, q0, v0, cfg: IntegratorConfig,
                           guards=(), t0: float = 0.0) -> Trajectory:
    """Integrate qdd = total acceleration, recording constraint diagnostics.

    Initial data must be finite and satisfy the constraints to INITIAL_CONSTRAINT_TOL
    (use project_initial_state to repair user data first).  Guards are (name,
    g(q, v, t)) pairs, checked before the built-in ones: Gram-eigenvalue margin
    (always) and constraint drift (projection off).  Where ``diag`` raises at the
    initial state, the run ends in error with that one sample, its D from the
    initial check and its h and min_eig NaN (not computed).
    """
    n = spec.n
    m = len(spec.constraints.exprs)
    q0 = [float(x) for x in q0]
    v0 = [float(x) for x in v0]
    if len(q0) != n or len(v0) != n:
        raise ValueError("initial data dimension mismatch")
    if not all(map(math.isfinite, [*q0, *v0, t0])):
        raise InitialStateError("non-finite initial state")
    if m:
        d0 = engine.constraint_values(spec, q0, v0, t0)
        # each value on its own: max() drops a NaN that is not first
        violation = [x for x in map(abs, d0) if not x <= INITIAL_CONSTRAINT_TOL]
        if violation:
            raise InitialStateError(f"initial constraint violation {max(violation):.3e}")

    kernel = spec.kernel
    diag = kernel.diag
    times, rows, ds, hs, eigs = [], [], [], [], []
    # the state diag last ran on, and its (D, h, min_eig, F): the driver hands each
    # state to the guards and to accept at one time only, so diag runs once per sample
    last_y = last_d = None
    f_recorded = None  # F at the last recorded sample

    def diagnostics(t, y):
        nonlocal last_y, last_d
        if y is not last_y:
            last_d = diag(y[:n], y[n:], t)
            last_y = y
        return last_d

    def record(t, y):
        nonlocal f_recorded
        if m:  # diag first: where it raises, nothing of the sample is recorded
            d, h, min_eig, f_recorded = diagnostics(t, y)
            ds.append(d)
            hs.append(h)
            eigs.append(min_eig)
        times.append(t)
        rows.append(y)

    def project(q, v, t):
        return list(engine.project_initial_state(spec, q, v, t, tol=PROJECTION_TOL))

    if cfg.projection and m:
        def accept(t, y):
            # the projection returns v as it is where max |D| <= PROJECTION_TOL, its first
            # test, so a state on the surface keeps its diag; where diag raises, the
            # projection and then record raise as before
            try:
                on_surface = max(map(abs, diagnostics(t, y)[0])) <= PROJECTION_TOL
            except RUN_ERRORS:
                on_surface = False
            if not on_surface:
                y = y[:n] + project(y[:n], y[n:], t)
            record(t, y)
            return y
    else:
        accept = record

    if cfg.method == "rkf45":
        step = kernel.rkf45_step
    elif m:
        rk4 = kernel.rk4_step

        def step(t, y, dt):
            # every step, bisection's included, starts on the last recorded sample:
            # its first stage is that sample's F
            return rk4(t, y, dt, f_recorded)
    else:
        rk4, accel = kernel.rk4_step, kernel.accel

        def step(t, y, dt):
            return rk4(t, y, dt, accel(y[:n], y[n:], t))

    y0 = q0 + v0
    run_guards = _row_guards(guards, n, n)
    if m:
        floor = 10.0 * spec.constraints.eps_reg

        def gram_margin(t, y):
            try:
                min_eig = diagnostics(t, y)[2]
            except RegularityError:
                return -1.0
            # a Gram matrix in its place certifies min_eig > floor
            return 1.0 if min_eig.__class__ is list else min_eig - floor

        run_guards.append(("gram_eigenvalue_floor", gram_margin))
        if not cfg.projection:
            def drift_margin(t, y):
                return cfg.drift_tolerance - max(map(abs, diagnostics(t, y)[0]))

            run_guards.append(("constraint_drift", drift_margin))

    def drive_run():
        """``_drive``'s RK4 loop, run by ``kernel.rk4_run`` from the last recorded sample
        up to the first step that needs the driver; ``_advance`` takes that step, with
        its row and diag where the loop made them, and the loop goes on after it."""
        nonlocal last_y, last_d, f_recorded
        run = kernel.rk4_run
        user = [g for _, g in guards]
        projection = project if cfg.projection else None
        t = t0
        try:
            armed, stop = _arm(run_guards, t, y0)
            if stop is not None:
                return stop
            n_steps, dt = _grid(cfg)
            i = 0
            while True:
                start = i
                i, f_recorded, y_new, d_new = run(t0, dt, i, n_steps, f_recorded, times, rows,
                                                  ds, hs, eigs, user, floor,
                                                  cfg.drift_tolerance, projection, PROJECTION_TOL)
                t = times[-1]
                if i == n_steps:
                    return Termination("completed", t=t)
                if i > start:  # the loop recorded a state, every margin > 0.0 there
                    armed = [True] * len(run_guards)
                if y_new is None:  # the step raised
                    y_new = step(t, rows[-1], dt)
                elif d_new is not None:
                    last_y, last_d = y_new, d_new
                t, _, stop = _advance(step, run_guards, armed, accept, t, rows[-1],
                                      t0 + (i + 1) * dt, y_new)
                if stop is not None:
                    return stop
                i += 1
        except RUN_ERRORS as exc:
            return _failure(exc, t)

    try:
        record(t0, y0)
    except RUN_ERRORS as exc:
        # the initial sample, with the initial check's D; h and min_eig not computed
        times.append(t0)
        rows.append(y0)
        ds.append(d0)
        hs.append([math.nan] * m)
        eigs.append(math.nan)
        termination = _failure(exc, t0)
    else:
        if cfg.method == "rk4" and m:
            termination = drive_run()
        else:
            termination = _drive(step, y0, cfg, accept, run_guards, t0)
    arr = np.array(rows)
    # only m >= 2 certifies: the certified samples' eigenvalues, in one call
    deferred = [i for i, x in enumerate(eigs) if x.__class__ is list] if m > 1 else []
    if deferred:
        for i, x in zip(deferred, engine._gram_min_eigs([eigs[i] for i in deferred])):
            eigs[i] = x
    return Trajectory(
        times=np.array(times),
        q=arr[:, :n],
        v=arr[:, n:],
        constraint_values=np.array(ds) if m else np.zeros((len(times), 0)),
        multipliers=np.array(hs) if m else np.zeros((len(times), 0)),
        gram_min_eig=np.array(eigs) if m else np.full(len(times), math.inf),
        termination=termination,
    )


# --- extended-phase-space system -------------------------------------------------

def integrate_hamiltonian(spec: SystemSpec, y0, mu_e, cfg: IntegratorConfig, guards=(),
                          t0: float = 0.0) -> ExtendedTrajectory:
    """Integrate the 4n+2 flow from the flat row y0 = [q, p, v, pi, e, pi_e], finite
    with e != 0; mu_e is a time function (None means 0).  Guards are (name, g(q, v, t))
    pairs, as for ``integrate_second_order``, checked after the e = 0 guard."""
    n = spec.n
    y0 = [float(x) for x in y0]
    if len(y0) != 4 * n + 2:
        raise ValueError("initial data dimension mismatch")
    if not all(map(math.isfinite, [*y0, t0])):
        raise InitialStateError("non-finite initial state")
    if y0[4 * n] == 0.0:
        raise InitialStateError("e(0) must be nonzero")
    if mu_e is None:
        mu_e = lambda t: 0.0

    step = spec.kernel.extended_step(cfg.method, mu_e)
    times, rows = [], []

    def accept(t, y):
        times.append(t)
        rows.append(y)
        return None

    accept(t0, y0)
    e_sign = 1.0 if y0[4 * n] > 0 else -1.0
    run_guards = [("e_zero_crossing", lambda t, y: e_sign * y[4 * n]),
                  *_row_guards(guards, n, 2 * n)]
    termination = _drive(step, y0, cfg, accept, run_guards, t0)
    arr = np.array(rows)
    return ExtendedTrajectory(
        times=np.array(times),
        q=arr[:, 0:n], p=arr[:, n:2 * n], v=arr[:, 2 * n:3 * n], pi=arr[:, 3 * n:4 * n],
        e=arr[:, 4 * n], pi_e=arr[:, 4 * n + 1],
        surface_residual=hamiltonian.constraint_surface_residual(arr, n),
        termination=termination,
    )
