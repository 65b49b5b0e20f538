"""Action functionals on discrete paths, with stationarity and gauge checks.

Two functionals are evaluated with matched second-order discretizations
(trapezoid quadrature, central differences):

* the squared-residual functional  integral (e/2) ||qdd - F(q, qd)||^2 dt,
  non-negative and zero exactly on solutions;
* its first-order phase-space form
  integral p.qd + pi.vd + pi_e*ed - pi^2/2e - pi.F - v.p - mu_e*pi_e dt.

Both evaluate over the whole path, F(q, v, t) once per sample; the stationarity
check perturbs samples 7 apart together and re-evaluates F only where q or v moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import SystemSpec
from .errors import ExprDomainError
from .hamiltonian import GaugeInput, gauge_transform
from .paths import ConfigPath, PhasePath, diff1, diff2, trapezoid_weights

_BLOCKS = ("q", "p", "v", "pi", "e", "pi_e", "mu_e")
# A perturbation at sample j changes the integrand only at j-1..j+1 and at sample 0
# (j <= 2) or N-1 (j >= N-3), so samples _STRIDE apart are perturbed together; each
# is read off over its own window j-3..j+3, which fixes the rounding of the sum.
_STRIDE = 7


def _forces(spec: SystemSpec, q: np.ndarray, v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """F(q, v, t) at every sample, (N, n): the one loop over samples into the engine."""
    return np.array([engine.acceleration_raw(spec, q[k], v[k], float(times[k]))
                     for k in range(len(times))])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ki->k", a, b)


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
    r = diff2(path.q, path.dt) - _forces(spec, path.q, qd, path.times)
    density = 0.5 * e_profile * _rowdot(r, r)
    return float(trapezoid_weights(len(path.times), path.dt) @ density)


def _phase_arrays(path: PhasePath) -> dict:
    return {name: np.array(getattr(path, name), dtype=float) for name in _BLOCKS}


def _integrand_at(arrays: dict, forces: np.ndarray, dt: float) -> np.ndarray:
    """First-order action integrand at every sample, given F there."""
    p, v, pi = (arrays[name] for name in ("p", "v", "pi"))
    e, pi_e, mu_e = (arrays[name] for name in ("e", "pi_e", "mu_e"))
    if np.any(e == 0.0):
        raise ExprDomainError("auxiliary variable e is zero along the path")
    qd = diff1(arrays["q"], dt)
    vd = diff1(arrays["v"], dt)
    ed = diff1(arrays["e"], dt)
    return (_rowdot(p, qd) + _rowdot(pi, vd) + pi_e * ed - _rowdot(pi, pi) / (2.0 * e)
            - _rowdot(pi, forces) - _rowdot(v, p) - mu_e * pi_e)


def first_order_action(spec: SystemSpec, path: PhasePath) -> float:
    if len(path.times) < 5:
        raise ValueError("need at least 5 samples")
    arrays = _phase_arrays(path)
    forces = _forces(spec, arrays["q"], arrays["v"], path.times)
    density = _integrand_at(arrays, forces, path.dt)
    return float(trapezoid_weights(len(path.times), path.dt) @ density)


@dataclass
class StationarityReport:
    dt: float
    perturbation_scale: float
    max_gradient: float
    threshold: float
    passed: bool
    worst_block: str = ""
    worst_sample: int = -1


def stationarity_check(spec: SystemSpec, path: PhasePath, perturbation_scale: float,
                       C: float = 50.0) -> StationarityReport:
    """Central-difference gradient of the first-order action over every
    interior sample coordinate; near-solutions score at the discretization
    floor C*(dt^2 + perturbation_scale^2), generic paths at O(1).
    """
    arrays = _phase_arrays(path)
    q, v, times = arrays["q"], arrays["v"], path.times
    N = len(times)
    dt = path.dt
    weights = trapezoid_weights(N, dt)
    eps = perturbation_scale
    forces = _forces(spec, q, v, times)
    # (N, width) views: perturbing a view entry perturbs the arrays the integrand reads
    columns = [(block, view, i) for block in _BLOCKS
               for view in [arrays[block].reshape(N, -1)] for i in range(view.shape[1])]
    grads = np.zeros((N, len(columns)))
    for first in range(1, min(_STRIDE + 1, N - 1)):
        js = np.arange(first, N - 1, _STRIDE)
        windows = [slice(max(0, j - 3), min(N, j + 4)) for j in js]
        f_js = forces[js]
        for c, (block, view, i) in enumerate(columns):
            orig = view[js, i]
            for sign in (1.0, -1.0):
                view[js, i] = orig + sign * eps
                if block in ("q", "v"):
                    forces[js] = _forces(spec, q[js], v[js], times[js])
                density = _integrand_at(arrays, forces, dt)
                grads[js, c] += sign * np.array([weights[w] @ density[w] for w in windows])
            view[js, i] = orig
            forces[js] = f_js
    grads = np.abs(grads) / (2.0 * eps)
    # first maximum in (sample, block, component) order; a NaN wins and fails the check
    k = int(np.argmax(grads))
    max_grad = float(grads.flat[k])
    worst = ("", -1) if max_grad == 0.0 else (columns[k % len(columns)][0], k // len(columns))
    threshold = C * (dt * dt + eps * eps)
    return StationarityReport(
        dt=dt, perturbation_scale=eps, max_gradient=max_grad, threshold=threshold,
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
