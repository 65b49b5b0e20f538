"""Shared helpers for building sleigh runs and on-shell phase paths."""

import pytest

from nonholo import IntegratorConfig, SleighParams, build_sleigh_spec, integrate_second_order
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
