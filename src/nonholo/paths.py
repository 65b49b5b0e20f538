"""Time-sampled discrete paths and the finite-difference stencils used on them.

All stencils are second-order: central differences in the interior, one-sided
three/four-point formulas at the endpoints, so quadrature and differentiation
errors shrink at matched O(dt^2).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

_UNIFORMITY_RTOL = 1e-12


def _check_grid(times: np.ndarray, min_samples: int):
    if times.ndim != 1 or len(times) < min_samples:
        raise ValueError(f"need at least {min_samples} samples")
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise ValueError("time grid must be strictly increasing")
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > _UNIFORMITY_RTOL * max(abs(dt), 1.0):
        raise ValueError("time grid must be uniform")
    return float(dt)


@dataclass(frozen=True)
class ConfigPath:
    """Configuration-space path: uniform grid plus q samples (N, n)."""

    times: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        dt = _check_grid(self.times, 4)
        if self.q.shape[0] != len(self.times):
            raise ValueError("q must have one row per time sample")
        object.__setattr__(self, "_dt", dt)

    @property
    def dt(self) -> float:
        return self._dt

    @property
    def n(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class PhasePath:
    """Extended-phase-space path: (q, p, v, pi) blocks plus e, pi_e, mu_e samples."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    v: np.ndarray
    pi: np.ndarray
    e: np.ndarray
    pi_e: np.ndarray
    mu_e: np.ndarray

    def __post_init__(self):
        dt = _check_grid(self.times, 4)
        N = len(self.times)
        for name in ("q", "p", "v", "pi"):
            arr = getattr(self, name)
            if arr.shape != (N, self.q.shape[1]):
                raise ValueError(f"{name} must have shape (N, n)")
        for name in ("e", "pi_e", "mu_e"):
            arr = getattr(self, name)
            if arr.shape != (N,):
                raise ValueError(f"{name} must have shape (N,)")
        object.__setattr__(self, "_dt", dt)

    @property
    def dt(self) -> float:
        return self._dt

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def replace(self, **kwargs) -> "PhasePath":
        return dataclasses.replace(self, **kwargs)


def diff1(y: np.ndarray, dt: float) -> np.ndarray:
    """First time derivative along axis 0; O(dt^2) everywhere."""
    out = np.empty_like(y, dtype=float)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def diff2(y: np.ndarray, dt: float) -> np.ndarray:
    """Second time derivative along axis 0; O(dt^2) everywhere."""
    out = np.empty_like(y, dtype=float)
    h2 = dt * dt
    out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h2
    out[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / h2
    out[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / h2
    return out


# No caller left: kept only because perfbench/spans.py patches this name.
def diff1_at(y: np.ndarray, k: slice, dt: float) -> np.ndarray:
    """diff1(y, dt)[k]."""
    return diff1(y, dt)[k]


def lift_on_shell(traj, e0: float = 1.0) -> PhasePath:
    """All-momenta-zero phase path over a second-order trajectory, with e = e0."""
    N = len(traj.times)
    zeros = np.zeros_like(traj.q)
    return PhasePath(times=traj.times, q=traj.q.copy(), p=zeros.copy(), v=traj.v.copy(),
                     pi=zeros.copy(), e=np.full(N, e0), pi_e=np.zeros(N), mu_e=np.zeros(N))


def bump(times: np.ndarray) -> np.ndarray:
    """C^2 window vanishing with zero slope at both endpoints."""
    span = times[-1] - times[0]
    return np.sin(np.pi * (times - times[0]) / span) ** 2


def trapezoid_weights(N: int, dt: float) -> np.ndarray:
    w = np.full(N, dt)
    w[0] = w[-1] = 0.5 * dt
    return w
