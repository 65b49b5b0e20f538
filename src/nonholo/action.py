"""Action functionals on discrete paths, with stationarity and gauge checks.

Two functionals are evaluated with matched second-order discretizations
(trapezoid quadrature, central differences):

* the squared-residual functional  integral (e/2) ||qdd - F(q, qd)||^2 dt,
  non-negative and zero exactly on solutions;
* its first-order phase-space form
  integral p.qd + pi.vd + pi_e*ed - pi^2/2e - pi.F - v.p - mu_e*pi_e dt.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import engine
from .engine import SystemSpec
from .errors import ExprDomainError
from .hamiltonian import GaugeInput, gauge_transform
from .paths import ConfigPath, PhasePath, diff1, diff2, trapezoid_weights

_BLOCKS = ("q", "p", "v", "pi", "e", "pi_e", "mu_e")


def universal_action(spec: SystemSpec, path: ConfigPath, e_profile: np.ndarray) -> float:
    """Quadrature of (e/2)*||qdd - F(q, qd)||^2; >= 0 whenever e_profile > 0."""
    e_profile = np.asarray(e_profile, dtype=float)
    if e_profile.shape != path.times.shape:
        raise ValueError("e_profile must be sampled on the path grid")
    if np.any(e_profile <= 0):
        raise ValueError("e_profile must be positive")
    if len(path.times) < 5:
        raise ValueError("need at least 5 samples")
    qd = diff1(path.q, path.dt)
    qdd = diff2(path.q, path.dt)
    N = len(path.times)
    density = np.empty(N)
    for k in range(N):
        f = engine.acceleration_raw(spec, path.q[k], qd[k], float(path.times[k]))
        r = qdd[k] - np.asarray(f)
        density[k] = 0.5 * e_profile[k] * float(r @ r)
    return float(trapezoid_weights(N, path.dt) @ density)


def _phase_arrays(path: PhasePath) -> dict:
    return {name: np.array(getattr(path, name), dtype=float) for name in _BLOCKS}


def _integrand_at(spec: SystemSpec, arrays: dict, times: np.ndarray, dt: float, k: int) -> float:
    """First-order action integrand at sample k (local stencil evaluation)."""
    from .paths import diff1_at

    q, p, v, pi = arrays["q"], arrays["p"], arrays["v"], arrays["pi"]
    e, pi_e, mu_e = arrays["e"], arrays["pi_e"], arrays["mu_e"]
    if e[k] == 0.0:
        raise ExprDomainError("auxiliary variable e is zero along the path")
    qd = diff1_at(q, k, dt)
    vd = diff1_at(v, k, dt)
    ed = diff1_at(e, k, dt)
    f = np.asarray(engine.acceleration_raw(spec, q[k], v[k], float(times[k])))
    pi2 = float(pi[k] @ pi[k])
    return float(
        p[k] @ qd + pi[k] @ vd + pi_e[k] * ed
        - pi2 / (2.0 * e[k]) - pi[k] @ f - v[k] @ p[k] - mu_e[k] * pi_e[k]
    )


def first_order_action(spec: SystemSpec, path: PhasePath) -> float:
    if len(path.times) < 5:
        raise ValueError("need at least 5 samples")
    arrays = _phase_arrays(path)
    N = len(path.times)
    density = np.array([_integrand_at(spec, arrays, path.times, path.dt, k)
                        for k in range(N)])
    return float(trapezoid_weights(N, path.dt) @ density)


@dataclass
class StationarityReport:
    dt: float
    perturbation_scale: float
    max_gradient: float
    threshold: float
    passed: bool
    worst_block: str = ""
    worst_sample: int = -1

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def stationarity_check(spec: SystemSpec, path: PhasePath, perturbation_scale: float,
                       C: float = 50.0) -> StationarityReport:
    """Central-difference gradient of the first-order action over every
    interior sample coordinate; near-solutions score at the discretization
    floor C*(dt^2 + perturbation_scale^2), generic paths at O(1).
    """
    arrays = _phase_arrays(path)
    N = len(path.times)
    dt = path.dt
    weights = trapezoid_weights(N, dt)
    eps = perturbation_scale

    def window_sum(j: int) -> float:
        lo, hi = max(0, j - 3), min(N, j + 4)
        return sum(weights[k] * _integrand_at(spec, arrays, path.times, dt, k)
                   for k in range(lo, hi))

    # (N, width) views: perturbing a view entry perturbs the arrays the integrand reads
    views = [(block, arrays[block].reshape(N, -1)) for block in _BLOCKS]
    max_grad = 0.0
    worst = ("", -1)
    for j in range(1, N - 1):
        for block, arr in views:
            for i in range(arr.shape[1]):
                orig = arr[j, i]
                arr[j, i] = orig + eps
                plus = window_sum(j)
                arr[j, i] = orig - eps
                minus = window_sum(j)
                arr[j, i] = orig
                g = abs(plus - minus) / (2.0 * eps)
                if g > max_grad:
                    max_grad, worst = g, (block, j)
    threshold = C * (dt * dt + eps * eps)
    return StationarityReport(
        dt=dt, perturbation_scale=eps, max_gradient=float(max_grad), threshold=threshold,
        passed=bool(max_grad <= threshold), worst_block=worst[0], worst_sample=worst[1],
    )


@dataclass
class GaugeReport:
    dt: float
    amplitudes: list[float]
    deltas: list[float]
    first_order: float  # fitted coefficient A in dS = A*a + B*a^2
    second_order: float
    threshold: float
    passed: bool
    boundary_note: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def gauge_invariance_check(spec: SystemSpec, path: PhasePath, alpha_profile: np.ndarray,
                           alpha_amplitude: float, C: float = 10.0) -> GaugeReport:
    """Measure dS = S_H(transformed) - S_H for amplitudes a*{1, 1/2, 1/4} and
    fit dS = A*a + B*a^2; first-order invariance means |A| at the
    discretization floor C*dt^2.
    """
    alpha_profile = np.asarray(alpha_profile, dtype=float)
    base = first_order_action(spec, path)
    amplitudes = [alpha_amplitude, alpha_amplitude / 2.0, alpha_amplitude / 4.0]
    deltas = []
    for a in amplitudes:
        transformed = gauge_transform(path, GaugeInput(alpha=a * alpha_profile))
        deltas.append(first_order_action(spec, transformed) - base)
    design = np.column_stack([amplitudes, np.square(amplitudes)])
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(deltas), rcond=None)
    A, B = float(coeffs[0]), float(coeffs[1])
    threshold = C * path.dt ** 2
    note = ""
    scale = float(np.max(np.abs(alpha_profile))) or 1.0
    if abs(alpha_profile[0]) > 1e-14 * scale or abs(alpha_profile[-1]) > 1e-14 * scale:
        note = "alpha does not vanish at the endpoints; boundary terms may enter A"
    return GaugeReport(
        dt=path.dt, amplitudes=amplitudes, deltas=deltas, first_order=A,
        second_order=B, threshold=threshold, passed=abs(A) <= threshold,
        boundary_note=note,
    )
