"""Extended-phase-space formulation.

The second-order system qdd = F(q, v) is lifted to the 4n+2-dimensional
phase space (q, p, v, pi, e, pi_e) with Hamiltonian

    H = pi^2/(2e) + pi.F(q, v) + p.v + mu_e*pi_e.

On the constraint surface pi_e = 0, p = 0, pi = 0 the flow reduces to
qd = v, vd = F (the original dynamics) plus ed = mu_e, and H vanishes.

A point of the phase space is the flat row y = [q, p, v, pi, e, pi_e]:
H, the Poisson brackets, the flow and the surface residual take it, the
integrator steps it, and ``ExtendedPhasePoint`` builds one from its blocks.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .dual import Dual, value
from .engine import SystemSpec
from .errors import ExprDomainError, VanishingVelocity
from .paths import PhasePath, diff1

VELOCITY_NORM_FLOOR = 1e-12


def ExtendedPhasePoint(q, p, v, pi, e, pi_e) -> list:
    """The flat row [q, p, v, pi, e, pi_e] of a point of the phase space."""
    if not (len(p) == len(v) == len(pi) == len(q)):
        raise ValueError("q, p, v, pi must have equal length")
    return [*q, *p, *v, *pi, e, pi_e]


# No caller left: kept only because perfbench/spans.py patches this name.
def unpack(y, n: int) -> tuple:
    """The blocks (q, p, v, pi, e, pi_e) of the flat row y."""
    return (tuple(y[0:n]), tuple(y[n:2 * n]), tuple(y[2 * n:3 * n]),
            tuple(y[3 * n:4 * n]), y[4 * n], y[4 * n + 1])


def hamiltonian_value(spec: SystemSpec, y, mu_e: float = 0.0, t: float = 0.0):
    """H = pi^2/(2e) + pi.F + p.v + mu_e*pi_e at the flat row y; e must be nonzero."""
    n = spec.n
    q, p, v, pi, e = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:4 * n], y[4 * n]
    if value(e) == 0.0:
        raise ExprDomainError("auxiliary variable e is zero")
    f = engine.acceleration_raw(spec, q, v, t)
    acc = mu_e * y[4 * n + 1]
    pi2 = 0.0
    for i in range(n):
        pi2 = pi2 + pi[i] * pi[i]
        acc = acc + pi[i] * f[i] + p[i] * v[i]
    return acc + pi2 / (2.0 * e)


# No caller left: kept only because perfbench/spans.py patches this name.
def force_jacobians(spec: SystemSpec, q, v, t: float = 0.0):
    """(dF/dq, dF/dv) of ``engine.acceleration_jacobian_raw``."""
    _, dfdq, dfdv = engine.acceleration_jacobian_raw(spec, q, v, t)
    return dfdq, dfdv


def hamiltonian_vector_field(spec: SystemSpec, y, mu_e: float = 0.0, t: float = 0.0) -> list:
    """Flow of H at the flat row y = [q, p, v, pi, e, pi_e], in the same layout.

    qd = v; vd = pi/e + F; ed = mu_e;
    pd_i = -sum_j pi_j dF_j/dq_i; pid_i = -p_i - sum_j pi_j dF_j/dv_i;
    pi_ed = pi^2/(2 e^2).

    Runs step the generated ``kernels`` flow, which equals this bit for bit,
    errors included; this is its reference, and the stationarity check's flow.
    """
    n = spec.n
    q, p, v, pi, e = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:4 * n], y[4 * n]
    if e == 0.0:
        raise ExprDomainError("auxiliary variable e is zero")
    if all(x == 0.0 for x in pi):
        # momentum rates vanish identically with pi = 0; skip the Jacobians
        f = spec.kernel.accel(q, v, t)
        pd = [0.0] * n
        pid = [-x for x in p]
    else:
        # F and its Jacobians from one multiplier solve
        f, dfdq, dfdv = spec.kernel.jac(q, v, t)
        pd = [0.0] * n
        pid = [0.0] * n
        for i in range(n):
            acc_q = 0.0
            acc_v = 0.0
            for j in range(n):
                acc_q = acc_q + pi[j] * dfdq[j][i]
                acc_v = acc_v + pi[j] * dfdv[j][i]
            pd[i] = -acc_q
            pid[i] = -p[i] - acc_v
    vd = [pi[i] / e + f[i] for i in range(n)]
    pi2 = 0.0
    for x in pi:
        pi2 = pi2 + x * x
    pi_ed = pi2 / (2.0 * e * e)
    return [*v, *pd, *vd, *pid, mu_e, pi_ed]


def constraint_surface_residual(y, n: int):
    """max(|pi_e|, ||p||_inf, ||pi||_inf) at the flat row y, or per row of an array of
    rows; zero exactly on the surface, NaN where any of them is NaN."""
    y = np.asarray(y, dtype=float)
    columns = [4 * n + 1, *range(n, 2 * n), *range(3 * n, 4 * n)]
    return np.max(np.abs(y[..., columns]), axis=-1)


def _coordinate_gradient(f, y) -> list:
    """Exact partials of a scalar function of the row by dual seeding each entry."""
    out = []
    for i in range(len(y)):
        seeded = list(y)
        seeded[i] = Dual(y[i], 1.0)
        val = f(seeded)
        out.append(val.du if isinstance(val, Dual) else 0.0)
    return out


def poisson_bracket(f, g, y, n: int) -> float:
    """Canonical bracket {f, g} at the flat row y over the pairs (q, p), (v, pi), (e, pi_e)."""
    gf = _coordinate_gradient(f, y)
    gg = _coordinate_gradient(g, y)
    acc = gf[4 * n] * gg[4 * n + 1] - gf[4 * n + 1] * gg[4 * n]
    for i in range(n):
        acc += gf[i] * gg[n + i] - gf[n + i] * gg[i]
        acc += gf[2 * n + i] * gg[3 * n + i] - gf[3 * n + i] * gg[2 * n + i]
    return acc


def gauge_transform(path: PhasePath, alpha: np.ndarray) -> PhasePath:
    """Apply the local symmetry with gauge parameter alpha(t) on the path grid:
    shift e, p and mu_e; q, v, pi, pi_e unchanged.

    de = alpha*(1 - v.qd/v^2), dp = alpha * pi^2/(2 e^2 v^2) * v,
    dmu_e = d(de)/dt with the same stencil used for time derivatives elsewhere.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != path.times.shape:
        raise ValueError("alpha must be sampled on the path grid")
    v2 = np.sum(path.v * path.v, axis=1)
    if np.any(v2 < VELOCITY_NORM_FLOOR):
        raise VanishingVelocity("velocity norm below floor along the path")
    qd = diff1(path.q, path.dt)
    pi2 = np.sum(path.pi * path.pi, axis=1)
    de = alpha * (1.0 - np.sum(path.v * qd, axis=1) / v2)
    dp = (alpha * pi2 / (2.0 * path.e ** 2 * v2))[:, None] * path.v
    dmu = diff1(de, path.dt)
    return path.replace(e=path.e + de, p=path.p + dp, mu_e=path.mu_e + dmu)
