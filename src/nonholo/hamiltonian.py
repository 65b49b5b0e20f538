"""Extended-phase-space formulation.

The second-order system qdd = F(q, v) is lifted to the 4n+2-dimensional
phase space (q, p, v, pi, e, pi_e) with Hamiltonian

    H = pi^2/(2e) + pi.F(q, v) + p.v + mu_e*pi_e.

On the constraint surface pi_e = 0, p = 0, pi = 0 the flow reduces to
qd = v, vd = F (the original dynamics) plus ed = mu_e, and H vanishes.

The flow and the surface residual take the flat row y = [q, p, v, pi, e, pi_e]
that the integrator steps and the stationarity check assembles; ``pack`` and
``unpack`` convert between that row and an ``ExtendedPhasePoint``, which
``hamiltonian_value`` and the Poisson brackets take.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .dual import Dual, value
from .engine import SystemSpec
from .errors import ExprDomainError, VanishingVelocity
from .paths import PhasePath, diff1

VELOCITY_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class ExtendedPhasePoint:
    """Point of the 4n+2-dimensional phase space."""

    q: tuple
    p: tuple
    v: tuple
    pi: tuple
    e: float
    pi_e: float

    def __post_init__(self):
        n = len(self.q)
        if not (len(self.p) == len(self.v) == len(self.pi) == n):
            raise ValueError("q, p, v, pi must have equal length")

    @property
    def n(self) -> int:
        return len(self.q)


def pack(z: ExtendedPhasePoint) -> list:
    """Flat layout [q, p, v, pi, e, pi_e]."""
    return [*z.q, *z.p, *z.v, *z.pi, z.e, z.pi_e]


def unpack(y, n: int) -> ExtendedPhasePoint:
    return ExtendedPhasePoint(
        q=tuple(y[0:n]), p=tuple(y[n:2 * n]), v=tuple(y[2 * n:3 * n]),
        pi=tuple(y[3 * n:4 * n]), e=y[4 * n], pi_e=y[4 * n + 1],
    )


def hamiltonian_value(spec: SystemSpec, z: ExtendedPhasePoint, mu_e: float = 0.0,
                      t: float = 0.0):
    """H = pi^2/(2e) + pi.F + p.v + mu_e*pi_e; e must be nonzero."""
    if value(z.e) == 0.0:
        raise ExprDomainError("auxiliary variable e is zero")
    f = engine.acceleration_raw(spec, z.q, z.v, t)
    n = z.n
    acc = mu_e * z.pi_e
    pi2 = 0.0
    for i in range(n):
        pi2 = pi2 + z.pi[i] * z.pi[i]
        acc = acc + z.pi[i] * f[i] + z.p[i] * z.v[i]
    return acc + pi2 / (2.0 * z.e)


def force_jacobians(spec: SystemSpec, q, v, t: float = 0.0):
    """(dF/dq, dF/dv) with dfdq[j][i] = dF_j/dq_i, through the multiplier solve.

    Closed form from second partials (``engine.acceleration_jacobian_raw``);
    no dual numbers are involved.
    """
    _, dfdq, dfdv = engine.acceleration_jacobian_raw(spec, q, v, t)
    return dfdq, dfdv


def hamiltonian_vector_field(spec: SystemSpec, y, mu_e: float = 0.0, t: float = 0.0) -> list:
    """Flow of H at the flat row y = [q, p, v, pi, e, pi_e], in the same layout.

    qd = v; vd = pi/e + F; ed = mu_e;
    pd_i = -sum_j pi_j dF_j/dq_i; pid_i = -p_i - sum_j pi_j dF_j/dv_i;
    pi_ed = pi^2/(2 e^2).
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
        f, dfdq, dfdv = engine.acceleration_jacobian_raw(spec, q, v, t)
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


def constraint_surface_residual(y, n: int) -> float:
    """max(|pi_e|, ||p||_inf, ||pi||_inf) at the flat row y; zero exactly on the surface."""
    return max(map(abs, [y[4 * n + 1], *y[n:2 * n], *y[3 * n:4 * n]]))


def _coordinate_gradient(f, z: ExtendedPhasePoint) -> dict:
    """Exact partials of a scalar phase function by dual seeding each coordinate."""
    n = z.n
    out = {"q": [0.0] * n, "p": [0.0] * n, "v": [0.0] * n, "pi": [0.0] * n,
           "e": 0.0, "pi_e": 0.0}

    def du(val):
        return val.du if isinstance(val, Dual) else 0.0

    for block in ("q", "p", "v", "pi"):
        base = getattr(z, block)
        for i in range(n):
            seeded = list(base)
            seeded[i] = Dual(base[i], 1.0)
            out[block][i] = du(f(replace(z, **{block: tuple(seeded)})))
    out["e"] = du(f(replace(z, e=Dual(z.e, 1.0))))
    out["pi_e"] = du(f(replace(z, pi_e=Dual(z.pi_e, 1.0))))
    return out


def poisson_bracket(f, g, z: ExtendedPhasePoint) -> float:
    """Canonical bracket {f, g} over the pairs (q, p), (v, pi), (e, pi_e)."""
    gf = _coordinate_gradient(f, z)
    gg = _coordinate_gradient(g, z)
    acc = gf["e"] * gg["pi_e"] - gf["pi_e"] * gg["e"]
    for i in range(z.n):
        acc += gf["q"][i] * gg["p"][i] - gf["p"][i] * gg["q"][i]
        acc += gf["v"][i] * gg["pi"][i] - gf["pi"][i] * gg["v"][i]
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
