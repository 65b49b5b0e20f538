"""Action functionals on discrete paths, with stationarity and gauge checks.

Two functionals are evaluated with matched second-order discretizations
(trapezoid quadrature, central differences):

* the squared-residual functional  integral (e/2) ||qdd - F(q, qd)||^2 dt,
  non-negative and zero exactly on solutions;
* its first-order phase-space form
  integral p.qd + pi.vd + pi_e*ed - pi^2/2e - pi.F - v.p - mu_e*pi_e dt.

Both evaluate over the whole path, F(q, v, t) once per sample.  The
stationarity check takes the gradient of the discrete first-order action in
closed form: the discrete Hamilton equations, read off the flow of H
(``hamiltonian.hamiltonian_vector_field``) at each sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hamiltonian
from .engine import SystemSpec
from .errors import ExprDomainError
from .paths import ConfigPath, PhasePath, diff1, diff1_adjoint, diff2, trapezoid_weights


def _forces(spec: SystemSpec, q: np.ndarray, v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """F(q, v, t) at every sample, (N, n): the one loop over samples into the system's
    compiled kernel."""
    accel = spec.kernel.accel
    return np.array([accel(qk, vk, tk)
                     for qk, vk, tk in zip(q.tolist(), v.tolist(), times.tolist())])


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


def _integrand_at(path: PhasePath, forces: np.ndarray) -> np.ndarray:
    """First-order action integrand at every sample, given F there."""
    p, v, pi, e, pi_e = path.p, path.v, path.pi, path.e, path.pi_e
    if np.any(e == 0.0):
        raise ExprDomainError("auxiliary variable e is zero along the path")
    qd = diff1(path.q, path.dt)
    vd = diff1(v, path.dt)
    ed = diff1(e, path.dt)
    return (_rowdot(p, qd) + _rowdot(pi, vd) + pi_e * ed - _rowdot(pi, pi) / (2.0 * e)
            - _rowdot(pi, forces) - _rowdot(v, p) - path.mu_e * pi_e)


def _first_order_sum(path: PhasePath, forces: np.ndarray) -> float:
    """The first-order action, given F at every sample."""
    if len(path.times) < 5:
        raise ValueError("need at least 5 samples")
    return float(trapezoid_weights(len(path.times), path.dt) @ _integrand_at(path, forces))


def first_order_action(spec: SystemSpec, path: PhasePath) -> float:
    return _first_order_sum(path, _forces(spec, path.q, path.v, path.times))


@dataclass
class StationarityReport:
    dt: float
    max_gradient: float
    threshold: float
    passed: bool
    worst_block: str = ""
    worst_sample: int = -1


def stationarity_check(spec: SystemSpec, path: PhasePath, C: float = 50.0) -> StationarityReport:
    """Largest |dS/dx| of the discrete first-order action S = sum_k w_k L_k over
    every interior sample coordinate x; near-solutions score at the
    discretization floor C*dt^2, generic paths at O(1).

    The gradient is the discrete Hamilton equations of the flow of H (D = diff1,
    D^T = diff1_adjoint), the eps -> 0 limit of central differences of S with
    step eps: for each canonical pair (x, y), dS/dx = D^T(w y) + w yd_H and
    dS/dy = w (D x - xd_H), plus dS/dmu_e = -w pi_e.
    """
    n, dt = path.n, path.dt
    state = np.column_stack([path.q, path.p, path.v, path.pi, path.e, path.pi_e])
    flow = np.array([hamiltonian.hamiltonian_vector_field(spec, y, mu_e, t)
                     for y, mu_e, t in zip(state.tolist(), path.mu_e.tolist(),
                                           path.times.tolist())])
    w = trapezoid_weights(len(path.times), dt)[:, None]
    blocks = {}
    for x_name, y_name, a, size in (("q", "p", 0, n), ("v", "pi", 2 * n, n),
                                    ("e", "pi_e", 4 * n, 1)):
        x, y = slice(a, a + size), slice(a + size, a + 2 * size)
        blocks[x_name] = diff1_adjoint(w * state[:, y], dt) + w * flow[:, y]
        blocks[y_name] = w * (diff1(state[:, x], dt) - flow[:, x])
    blocks["mu_e"] = -w * path.pi_e[:, None]
    columns = [name for name, g in blocks.items() for _ in range(g.shape[1])]
    grads = np.abs(np.hstack(list(blocks.values()))[1:-1])  # interior samples
    # first maximum in (sample, block, component) order; a NaN wins and fails the check
    k = int(np.argmax(grads))
    max_grad = float(grads.flat[k])
    worst = ("", -1) if max_grad == 0.0 else (columns[k % len(columns)], 1 + k // len(columns))
    threshold = C * dt * dt
    return StationarityReport(
        dt=dt, max_gradient=max_grad, threshold=threshold,
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
    discretization floor C*dt^2.  The transformation leaves q, v and the grid
    alone, so F is evaluated once for all four actions.
    """
    alpha_profile = np.asarray(alpha_profile, dtype=float)
    forces = _forces(spec, path.q, path.v, path.times)
    base = _first_order_sum(path, forces)
    amplitudes = [alpha_amplitude, alpha_amplitude / 2.0, alpha_amplitude / 4.0]
    deltas = []
    for a in amplitudes:
        transformed = hamiltonian.gauge_transform(path, a * alpha_profile)
        deltas.append(_first_order_sum(transformed, forces) - base)
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
