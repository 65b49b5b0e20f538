"""Shared helpers for building sleigh runs, on-shell phase paths, the
two-constraint knife edge with a rolling wheel and a system with a
time-dependent constraint."""

import math

import pytest

from nonholo import IntegratorConfig, SleighParams, build_sleigh_spec, integrate_second_order
from nonholo.engine import make_system
from nonholo.paths import lift_on_shell
from nonholo.scenarios import SCENARIOS


def sleigh_run(variant="lda_linear", dt=1e-3, t_end=None, params=None, **cfg_kwargs):
    """Integrate a sleigh variant from its default initial data."""
    params = params or SleighParams()
    scenario = SCENARIOS[variant]
    spec = build_sleigh_spec(variant, params)
    q0, v0 = scenario.initial(params)
    if t_end is None:
        t_end = scenario.t_end(params)
    cfg = IntegratorConfig(method="rk4", dt=dt, t_end=t_end, **cfg_kwargs)
    return spec, integrate_second_order(spec, q0, v0, cfg, guards=scenario.guards())


@pytest.fixture(scope="session")
def linear_sleigh_path():
    """On-shell phase path for the linear-constraint sleigh, dt=0.01, t in [0,1]."""
    spec, traj = sleigh_run(dt=0.01, t_end=1.0)
    return spec, lift_on_shell(traj)


# knife edge plus a wheel rolling along the heading q3: m = 2 linear constraints
WHEEL_CONSTRAINTS = ("v1*sin(q3) - v2*cos(q3)", "v4 - v1*cos(q3) - v2*sin(q3)")


def wheel_system():
    return make_system(4, (1.0, 1.0, 1.0, 1.0), constraints=WHEEL_CONSTRAINTS)


def wheel_state(heading, speed, turn_rate):
    """(q0, v0) on both wheel constraints: moving at speed along the heading."""
    q0 = (0.0, 0.0, heading, 0.0)
    v0 = (speed * math.cos(heading), speed * math.sin(heading), turn_rate, speed)
    return q0, v0


def potential_t_system():
    """A potential with one constraint that is nonlinear in v and depends on t."""
    return make_system(3, (1.0, 2.0, 0.5), potential="q1^2/2 + cos(q2)*q3 + q1*q2^3",
                       constraints=("v1*cos(t) + v2*sin(q1*t) - 0.3*v3^2*q2",))
