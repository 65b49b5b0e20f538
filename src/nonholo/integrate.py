"""Fixed-step RK4 and adaptive RKF45 drivers for the second-order system and
the extended-phase-space flow, with per-sample constraint diagnostics and
sign-change event location by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, hamiltonian
from .engine import SystemSpec
from .errors import InitialStateError, NonholoError, RegularityError
from .hamiltonian import ExtendedPhasePoint

EVENT_TIME_TOL = 1e-10
INITIAL_CONSTRAINT_TOL = 1e-10


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


# Fehlberg 4(5) tableau
_RKF_A = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_B = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_C4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)


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


def _drive(f, y0, cfg: IntegratorConfig, accept, guards, t0: float = 0.0):
    """Advance with the configured method; returns a Termination.

    accept(t, y) records an accepted sample and may return an adjusted state
    (velocity projection).  Guards are (name, g(t, y)) pairs; when g crosses
    from positive to <= 0 the crossing is located by bisection, the event
    sample is recorded, and the run terminates.  Non-finite values, an RKF45
    step over tolerance at dt_min, or a NonholoError, ArithmeticError or
    ValueError (math domain) end the run as "error" at the last accepted time.
    """
    t = t0
    y = list(y0)
    t_end = t0 + cfg.t_end

    # the steppers are looked up at call time, so replacing them by module
    # attribute reaches event location as well
    if cfg.method == "rk4":
        def substep(t_prev, y_prev, dt):
            return _rk4_step(f, t_prev, y_prev, dt)
    else:
        def substep(t_prev, y_prev, dt):
            return _rkf45_step(f, t_prev, y_prev, dt)[0]

    def advance(t_prev, y_prev, t_new, y_new):
        """Guard check + acceptance; returns (t, y, termination_or_None)."""
        nonlocal g_prev
        if not all(map(math.isfinite, y_new)):
            return t_prev, y_prev, Termination("error", "non-finite state", t_prev)
        g_new = [g(t_new, y_new) for _, g in guards]
        for idx, gv in enumerate(g_new):
            if gv <= 0.0 < g_prev[idx]:
                name, guard = guards[idx]
                t_event, y_event = _bisect_event(substep, guard, t_prev, y_prev, t_new - t_prev)
                accept(t_event, y_event)
                return t_event, y_event, Termination("event", name, t_event)
        g_prev = g_new
        adjusted = accept(t_new, y_new)
        if adjusted is not None:
            y_new = adjusted
        return t_new, y_new, None

    try:
        g_prev = [g(t, y) for _, g in guards]
        for (name, _), gv in zip(guards, g_prev):
            if gv <= 0.0:
                return Termination("event", name, t)

        if cfg.method == "rk4":
            n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
            dt = cfg.t_end / n_steps
            for step in range(n_steps):
                t_new = t0 + (step + 1) * dt
                y_new = _rk4_step(f, t, y, dt)
                t, y, stop = advance(t, y, t_new, y_new)
                if stop is not None:
                    return stop
            return Termination("completed", t=t)

        # rkf45
        dt = min(cfg.dt, cfg.dt_max)
        while t < t_end - 1e-14:
            dt = min(dt, t_end - t)
            y_new, err = _rkf45_step(f, t, y, dt)
            scale = cfg.atol + cfg.rtol * max(abs(x) for x in y)
            if not math.isfinite(err):
                return Termination("error", "non-finite error estimate", t)
            if err <= scale:
                t, y, stop = advance(t, y, t + dt, y_new)
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
    except (NonholoError, ArithmeticError, ValueError) as exc:
        cause = "regularity" if isinstance(exc, RegularityError) else type(exc).__name__
        return Termination("error", f"{cause}: {exc}", t)


# --- second-order system --------------------------------------------------------

def integrate_second_order(spec: SystemSpec, q0, v0, cfg: IntegratorConfig,
                           guards=(), t0: float = 0.0) -> Trajectory:
    """Integrate qdd = total acceleration, recording constraint diagnostics.

    Initial data must satisfy the constraints to INITIAL_CONSTRAINT_TOL
    (use project_initial_state to repair user data first).  Built-in guards:
    Gram-eigenvalue margin (always) and constraint drift (projection off).
    """
    n = spec.n
    m = len(spec.constraints.exprs)
    q0 = [float(x) for x in q0]
    v0 = [float(x) for x in v0]
    if len(q0) != n or len(v0) != n:
        raise ValueError("initial data dimension mismatch")
    if m:
        d0 = engine.constraint_values(spec, q0, v0, t0)
        if max(abs(x) for x in d0) > INITIAL_CONSTRAINT_TOL:
            raise InitialStateError(
                f"initial constraint violation {max(abs(x) for x in d0):.3e}"
            )

    def f(t, y):
        a = engine.acceleration_raw(spec, y[:n], y[n:], t)
        return y[n:] + a

    # one shared diagnostics computation per (t, state)
    memo: dict = {}

    def diagnostics(t, y):
        key = (t, tuple(y))
        hit = memo.get(key)
        if hit is None:
            q, v = y[:n], y[n:]
            d = engine.constraint_values(spec, q, v, t)
            h, _, _, min_eig = engine.multipliers_raw(spec, q, v, t)
            hit = (d, h, min_eig)
            memo.clear()
            memo[key] = hit
        return hit

    times, qs, vs, ds, hs, eigs = [], [], [], [], [], []

    def record(t, y):
        times.append(t)
        qs.append(y[:n])
        vs.append(y[n:])
        if m:
            d, h, min_eig = diagnostics(t, y)
            ds.append(d)
            hs.append(h)
            eigs.append(min_eig)
        else:
            eigs.append(math.inf)

    def accept(t, y):
        if cfg.projection and m:
            v_proj = list(engine.project_initial_state(spec, y[:n], y[n:], t))
            y = y[:n] + v_proj
        record(t, y)
        return y if cfg.projection and m else None

    record(t0, q0 + v0)

    run_guards = list(guards)
    if m:
        floor = 10.0 * spec.constraints.eps_reg

        def gram_margin(t, y):
            try:
                _, _, min_eig = diagnostics(t, y)
            except RegularityError:
                return -1.0
            return min_eig - floor

        run_guards.append(("gram_eigenvalue_floor", gram_margin))
        if not cfg.projection:
            def drift_margin(t, y):
                d, _, _ = diagnostics(t, y)
                return cfg.drift_tolerance - max(abs(x) for x in d)

            run_guards.append(("constraint_drift", drift_margin))

    termination = _drive(f, q0 + v0, cfg, accept, run_guards, t0)
    return Trajectory(
        times=np.array(times),
        q=np.array(qs),
        v=np.array(vs),
        constraint_values=np.array(ds) if m else np.zeros((len(times), 0)),
        multipliers=np.array(hs) if m else np.zeros((len(times), 0)),
        gram_min_eig=np.array(eigs),
        termination=termination,
    )


# --- extended-phase-space system -------------------------------------------------

def integrate_hamiltonian(spec: SystemSpec, z0: ExtendedPhasePoint, mu_e,
                          cfg: IntegratorConfig, guards=(), t0: float = 0.0) -> ExtendedTrajectory:
    """Integrate the 4n+2 flow; mu_e is a time function (None means 0)."""
    n = spec.n
    if z0.e == 0.0:
        raise InitialStateError("e(0) must be nonzero")
    if mu_e is None:
        mu_e = lambda t: 0.0

    def f(t, y):
        return hamiltonian.hamiltonian_vector_field(spec, y, mu_e(t), t)

    times, rows, residuals = [], [], []

    def accept(t, y):
        times.append(t)
        rows.append(list(y))
        residuals.append(hamiltonian.constraint_surface_residual(y, n))
        return None

    y0 = hamiltonian.pack(z0)
    accept(t0, y0)
    e_sign = 1.0 if z0.e > 0 else -1.0
    run_guards = [("e_zero_crossing", lambda t, y: e_sign * y[4 * n])] + list(guards)
    termination = _drive(f, y0, cfg, accept, run_guards, t0)
    arr = np.array(rows)
    return ExtendedTrajectory(
        times=np.array(times),
        q=arr[:, 0:n], p=arr[:, n:2 * n], v=arr[:, 2 * n:3 * n], pi=arr[:, 3 * n:4 * n],
        e=arr[:, 4 * n], pi_e=arr[:, 4 * n + 1],
        surface_residual=np.array(residuals),
        termination=termination,
    )
