"""Ready-to-run Chaplygin-sleigh models and the damped oscillator.

Four sleigh variants share the initial data y = 0, yd = (v0, 0), phi = 0,
phid = omega:

* ``friction``      -- lateral friction force with coefficient k (explicit forces);
* ``lda_linear``    -- knife-edge constraint yd1*sin(phi) - yd2*cos(phi) = 0,
                       dynamics produced by the generic multiplier engine;
* ``lda_nonlinear`` -- the nonlinear variant yd2/yd1 - tan(phi) = 0
                       (singular where yd1 = 0 or cos(phi) = 0);
* ``vakonomic_phi`` -- the reduced one-dimensional angle equation of the
                       multiplier-adjoined (vakonomic) dynamics, with a free
                       integration constant c.

For the two constrained variants the exact reference trajectory is uniform
circular motion of radius v0/omega; the friction variant approaches it as
k -> infinity.

``SCENARIOS`` maps each scenario name to its :class:`Scenario` entry; the
CLI and the tests look scenarios up there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import SystemSpec, make_system

# yd1 = 0 guard threshold for the nonlinear constraint chart
NONLINEAR_V1_FLOOR = 1e-6


@dataclass(frozen=True)
class SleighParams:
    m: float = 1.0
    I: float = 1.0
    k: float = 0.0
    v0: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("m", "I", "k", "v0", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.m <= 0 or self.I <= 0:
            raise ValueError("mass and moment of inertia must be positive")
        if self.k < 0:
            raise ValueError("friction coefficient must be non-negative")
        if self.omega == 0:
            raise ValueError("omega must be nonzero: every preset turns at rate omega")


def initial_state(params: SleighParams):
    """(q0, v0) for the shared initial data, coordinates (y1, y2, phi)."""
    return (0.0, 0.0, 0.0), (params.v0, 0.0, params.omega)


def sleigh_friction_rhs(params: SleighParams, state):
    """Accelerations (ydd1, ydd2, phidd) of the friction model.

    state = (y1, y2, phi, yd1, yd2, phid); the lateral body-frame velocity
    v2 = -yd1*sin(phi) + yd2*cos(phi) sets the friction force.
    """
    _, _, phi, yd1, yd2, _ = state
    v2 = -yd1 * math.sin(phi) + yd2 * math.cos(phi)
    km = params.k / params.m
    return (km * v2 * math.sin(phi), -km * v2 * math.cos(phi), 0.0)


def sleigh_friction_analytic(params: SleighParams, t: float):
    """Strong-friction closed form, evaluated exactly as printed.

    Soft reference only: the phase constants are dimensionally suspect, so
    numeric comparisons against this are reported, never gating.  Requires
    k > 2*m*omega (real decay rates).
    """
    m, k, w, v0 = params.m, params.k, params.omega, params.v0
    disc = k * k - 4.0 * w * w * m * m
    if disc < 0:
        raise ValueError("analytic form needs k > 2*m*omega (real roots)")
    root = math.sqrt(disc)
    d2 = (k + root) / (2.0 * m)
    d1 = (k - root) / (2.0 * m)
    y1_inf = 2.0 * v0 * m / (w * k)
    y2_inf = v0 / w
    phi1 = math.asin(max(-1.0, min(1.0, -2.0 * d1 / (w * w + d1 * d1))))
    phi2 = math.asin(max(-1.0, min(1.0, -2.0 * d2 / (w * w + d2 * d2))))
    amp = v0 / (w * (d2 - d1))
    y1 = y1_inf + amp * (d2 * math.exp(-d1 * t) * math.sin(w * t + phi1)
                         - d1 * math.exp(-d2 * t) * math.sin(w * t + phi2))
    y2 = y2_inf - amp * (d2 * math.exp(-d1 * t) * math.cos(w * t + phi1)
                         - d1 * math.exp(-d2 * t) * math.cos(w * t + phi2))
    return y1, y2, w * t


def sleigh_circle(params: SleighParams, t: float):
    """Infinite-friction limit: circle of radius v0/omega, phi = omega*t."""
    w, v0 = params.omega, params.v0
    r = v0 / w
    return r * math.sin(w * t), r * (1.0 - math.cos(w * t)), w * t


def curve_deviation(traj, curve: Callable, params) -> float:
    """max |q - curve(params, t)| over the samples of a run (``sleigh_circle``,
    ``sleigh_friction_analytic``, ...)."""
    ref = np.array([curve(params, t) for t in traj.times])
    return float(np.max(np.abs(traj.q - ref)))


def final_position(params: SleighParams):
    """Limit point of the friction model as t -> infinity."""
    return (2.0 * params.v0 * params.m / (params.omega * params.k),
            params.v0 / params.omega)


def build_sleigh_spec(variant: str, params: SleighParams, c: float = 0.0) -> SystemSpec:
    """SystemSpec for a sleigh variant.

    The constrained variants carry the constraint expression only; the
    dynamics comes out of the generic multiplier solve.  The friction and
    vakonomic variants are explicit-force systems.  For ``vakonomic_phi``
    the single coordinate q1 is the angle and c is the free integration
    constant of the reduced equation
    2*I*m*phidd = (c^2 - (m*v0)^2)*sin(2*phi) + c*m*v0*cos(2*phi).
    """
    m, I = params.m, params.I
    if variant == "lda_linear":
        return make_system(3, (m, m, I), constraints=("v1*sin(q3) - v2*cos(q3)",))
    if variant == "lda_nonlinear":
        return make_system(3, (m, m, I), constraints=("v2/v1 - tan(q3)",))
    if variant == "friction":
        k = params.k
        lateral = "(v2*cos(q3) - v1*sin(q3))"
        return make_system(3, (m, m, I), forces=(
            f"{k!r}*{lateral}*sin(q3)",
            f"-{k!r}*{lateral}*cos(q3)",
            "0",
        ))
    if variant == "vakonomic_phi":
        mv0 = m * params.v0
        return make_system(1, (2.0 * I * m,), forces=(
            f"({c * c - mv0 * mv0!r})*sin(2*q1) + ({c * mv0!r})*cos(2*q1)",
        ))
    raise ValueError(f"unknown sleigh variant {variant!r}")


def vakonomic_phi_rhs(params: SleighParams, c: float, phi: float) -> float:
    """Angular acceleration of the reduced vakonomic equation."""
    mv0 = params.m * params.v0
    return ((c * c - mv0 * mv0) * math.sin(2.0 * phi)
            + c * mv0 * math.cos(2.0 * phi)) / (2.0 * params.I * params.m)


def nonlinear_sleigh_guards(extended: bool = False):
    """Guard on yd1 for the nonlinear constraint chart (singular at yd1 = 0).

    yd1 sits at index 3 in the second-order state [q, v] and at index 6 in
    the extended flat state [q, p, v, pi, e, pi_e].
    """
    idx = 6 if extended else 3
    return (("yd1_sign", lambda t, y: abs(y[idx]) - NONLINEAR_V1_FLOOR),)


def damped_oscillator_spec(omega: float, k: float, sign: int = -1) -> SystemSpec:
    """One-dimensional oscillator with velocity friction: xdd = s*omega^2*x - k^2*xd.

    sign = -1 is the standard damped oscillator; sign = +1 selects the
    growing-mode variant.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    return make_system(1, (1.0,), forces=(f"({sign * omega * omega!r})*q1 - ({k * k!r})*v1",))


def _sleigh_builder(variant: str) -> Callable:
    def build(c=0.0, **params):
        sleigh = SleighParams(**{k: float(v) for k, v in params.items()})
        c = float(c)
        if not math.isfinite(c):
            raise ValueError("c must be finite")
        return build_sleigh_spec(variant, sleigh, c=c), sleigh
    return build


def _damped_oscillator(omega=1.0, k=0.0, sign=-1):
    return damped_oscillator_spec(omega=float(omega), k=float(k), sign=int(sign)), None


def _vakonomic_initial_state(params: SleighParams):
    """(q0, v0) of the reduced angle equation: phi = 0, phid = omega."""
    return (0.0,), (params.omega,)


def _no_guards(extended: bool = False):
    return ()


@dataclass(frozen=True)
class Scenario:
    """Everything the CLI and the tests need to know about one named scenario.

    ``build(**params)`` turns config params into ``(spec, sleigh_params)``
    and raises TypeError/ValueError on bad input; ``sleigh_params`` is None for
    the damped oscillator.  ``initial`` gives the default ``(q0, v0)``;
    without it q0 and v0 must come from the config.  The default run length
    ``half_turns*pi/|omega|`` turns the heading by ``half_turns*pi``.
    ``reference`` is the circular reference and ``closed_form`` the printed
    strong-friction solution.
    """

    build: Callable
    initial: Callable | None = None
    half_turns: float = 2.0
    guards: Callable = _no_guards
    reference: Callable | None = None
    closed_form: Callable | None = None

    def t_end(self, params: SleighParams) -> float:
        return self.half_turns * math.pi / abs(params.omega)


SCENARIOS = {
    "friction": Scenario(_sleigh_builder("friction"), initial_state, reference=sleigh_circle,
                         closed_form=sleigh_friction_analytic),
    "lda_linear": Scenario(_sleigh_builder("lda_linear"), initial_state,
                           reference=sleigh_circle),
    "lda_nonlinear": Scenario(_sleigh_builder("lda_nonlinear"), initial_state, half_turns=0.4,
                              guards=nonlinear_sleigh_guards, reference=sleigh_circle),
    "vakonomic_phi": Scenario(_sleigh_builder("vakonomic_phi"), _vakonomic_initial_state),
    "damped_oscillator": Scenario(_damped_oscillator),
}

SCENARIO_NAMES = tuple(SCENARIOS)

# the sleigh variants are the scenarios with built-in initial data
SLEIGH_VARIANTS = tuple(name for name, s in SCENARIOS.items() if s.initial is not None)
