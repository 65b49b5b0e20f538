"""Time integration: accuracy, drift guards, events, projection, failed runs."""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sleigh_run, wheel_state, wheel_system
from nonholo.engine import make_system
from nonholo.errors import InitialStateError
from nonholo.hamiltonian import ExtendedPhasePoint, hamiltonian_value
from nonholo.integrate import (
    IntegratorConfig,
    integrate_hamiltonian,
    integrate_second_order,
)


def oscillator():
    return make_system(1, (1.0,), potential="q1^2/2")


# inf*q1 - inf*q1: the force is NaN at every state
NAN_FORCE = "exp(700)*exp(700)*q1 - exp(700)*exp(700)*q1"


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for the given seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSecondOrder:
    def test_free_motion_exact(self):
        spec = make_system(2, (1.0, 1.0))
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=1.0)
        traj = integrate_second_order(spec, (0.0, 1.0), (2.0, -1.0), cfg)
        assert traj.termination.kind == "completed"
        assert traj.q[-1] == pytest.approx((2.0, 0.0), abs=1e-13)
        assert traj.v[-1] == pytest.approx((2.0, -1.0), abs=1e-14)

    def test_harmonic_oscillator_accuracy(self):
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=2 * math.pi)
        traj = integrate_second_order(oscillator(), (1.0,), (0.0,), cfg)
        exact_q = np.cos(traj.times)
        assert np.max(np.abs(traj.q[:, 0] - exact_q)) <= 1e-8

    def test_rk4_fourth_order_convergence(self):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=1.0)
            traj = integrate_second_order(oscillator(), (1.0,), (0.0,), cfg)
            errs.append(abs(traj.q[-1, 0] - math.cos(1.0)))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 3.7 and order2 > 3.7

    def test_rkf45_matches_rk4_solution(self):
        cfg = IntegratorConfig(method="rkf45", dt=0.01, t_end=2.0,
                               atol=1e-10, rtol=1e-10, dt_max=0.05)
        traj = integrate_second_order(oscillator(), (1.0,), (0.0,), cfg)
        assert traj.termination.kind == "completed"
        assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert traj.q[-1, 0] == pytest.approx(math.cos(2.0), abs=1e-8)

    def test_times_strictly_increasing(self):
        _, traj = sleigh_run(dt=0.01, t_end=0.5)
        assert np.all(np.diff(traj.times) > 0)

    def test_sleigh_constraint_drift_small(self):
        _, traj = sleigh_run(dt=1e-3, t_end=2 * math.pi)
        assert traj.termination.kind == "completed"
        assert np.max(np.abs(traj.constraint_values)) <= 1e-9

    def test_initial_violation_rejected(self):
        spec = make_system(2, (1.0, 1.0), constraints=("v2 - 1",))
        cfg = IntegratorConfig(dt=0.01, t_end=0.1)
        with pytest.raises(InitialStateError):
            integrate_second_order(spec, (0.0, 0.0), (1.0, 0.5), cfg)

    def test_drift_guard_fires_at_tight_tolerance(self):
        _, traj = sleigh_run(dt=0.05, t_end=2 * math.pi, drift_tolerance=1e-15)
        assert traj.termination.kind == "event"
        assert traj.termination.name == "constraint_drift"
        assert traj.times[-1] < 2 * math.pi

    def test_projection_mode_keeps_surface_exactly(self):
        _, traj = sleigh_run(dt=0.05, t_end=2 * math.pi, projection=True)
        assert traj.termination.kind == "completed"
        assert np.max(np.abs(traj.constraint_values)) <= 1e-11

    def test_user_guard_bisected_to_tolerance(self):
        # free fall from rest under a = -1: q(t) = 1 - t^2/2 crosses 0.5 at t = 1
        spec = make_system(1, (1.0,), forces=("0 - 1",))
        cfg = IntegratorConfig(method="rk4", dt=0.07, t_end=3.0)
        guard = ("halfway", lambda t, y: y[0] - 0.5)
        traj = integrate_second_order(spec, (1.0,), (0.0,), cfg, guards=(guard,))
        assert traj.termination.kind == "event"
        assert traj.termination.name == "halfway"
        assert traj.termination.t == pytest.approx(1.0, abs=1e-6)
        assert traj.q[-1, 0] == pytest.approx(0.5, abs=1e-8)

    def test_rkf45_event_located_with_rkf45(self):
        # x(t) = cos t crosses 0 at pi/2; bisecting with RK4 sub-steps lands 2e-8 off
        cfg = IntegratorConfig(method="rkf45", dt=0.1, t_end=3.0, atol=1e-8, rtol=1e-8,
                               dt_max=0.5)
        guard = ("zero", lambda t, y: y[0])
        traj = integrate_second_order(oscillator(), (1.0,), (0.0,), cfg, guards=(guard,))
        assert traj.termination.kind == "event"
        assert abs(traj.termination.t - math.pi / 2) <= cfg.atol

    def test_two_constraint_wheel_keeps_energy_and_constraints(self):
        # both constraints are linear in v, so the multiplier forces do no work
        q0, v0 = wheel_state(0.3, 1.2, 0.8)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=2.0)
        traj = integrate_second_order(wheel_system(), q0, v0, cfg)
        assert traj.termination.kind == "completed"
        assert traj.multipliers.shape == (len(traj.times), 2)
        kinetic = 0.5 * np.sum(traj.v ** 2, axis=1)
        assert np.max(np.abs(kinetic - kinetic[0])) <= 1e-9
        assert np.max(np.abs(traj.constraint_values)) <= 1e-9

    def test_multipliers_recorded(self):
        spec, traj = sleigh_run(dt=0.01, t_end=0.3)
        assert traj.multipliers.shape == (len(traj.times), 1)
        assert traj.gram_min_eig.min() > 0


class TestHamiltonianFlow:
    def on_surface_start(self, n, q0, v0, e0=1.0):
        zeros = tuple(0.0 for _ in range(n))
        return ExtendedPhasePoint(q=tuple(q0), p=zeros, v=tuple(v0),
                                  pi=zeros, e=e0, pi_e=0.0)

    def test_on_surface_matches_second_order_flow(self):
        spec = oscillator()
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=3.0)
        z0 = self.on_surface_start(1, (1.0,), (0.0,))
        ext = integrate_hamiltonian(spec, z0, None, cfg)
        ref = integrate_second_order(spec, (1.0,), (0.0,), cfg)
        assert np.max(np.abs(ext.q - ref.q)) <= 1e-12
        assert np.max(np.abs(ext.v - ref.v)) <= 1e-12
        assert np.max(ext.surface_residual) == 0.0

    def test_mu_e_integrates_e_linearly(self):
        spec = make_system(1, (1.0,))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=2.0)
        z0 = self.on_surface_start(1, (0.0,), (1.0,), e0=0.5)
        ext = integrate_hamiltonian(spec, z0, lambda t: 1.0, cfg)
        assert np.max(np.abs(ext.e - (0.5 + ext.times))) <= 1e-12

    def test_off_surface_pi_e_rate(self):
        # free particle, p(0) = 0, pi(0) = 1: the momentum rates vanish,
        # pi stays constant and pi_e(t) = t * pi^2/(2 e^2) = t/2
        spec = make_system(1, (1.0,))
        z0 = ExtendedPhasePoint(q=(0.0,), p=(0.0,), v=(0.0,), pi=(1.0,),
                                e=1.0, pi_e=0.0)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0)
        ext = integrate_hamiltonian(spec, z0, None, cfg)
        assert np.max(np.abs(ext.pi_e - ext.times / 2.0)) <= 1e-10
        assert np.max(np.abs(ext.pi - 1.0)) <= 1e-12

    def test_off_surface_two_constraint_wheel_conserves_h(self):
        # autonomous system and constant mu_e: H is a first integral of the flow
        spec = wheel_system()
        q0, v0 = wheel_state(0.3, 1.2, 0.8)
        z0 = ExtendedPhasePoint(q=q0, p=(0.03, -0.02, 0.01, 0.04), v=v0,
                                pi=(0.02, 0.04, -0.03, 0.01), e=1.3, pi_e=0.02)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.3)
        ext = integrate_hamiltonian(spec, z0, lambda t: 0.1, cfg)
        assert ext.termination.kind == "completed"
        h = [hamiltonian_value(spec, ExtendedPhasePoint(
                q=tuple(ext.q[k]), p=tuple(ext.p[k]), v=tuple(ext.v[k]), pi=tuple(ext.pi[k]),
                e=float(ext.e[k]), pi_e=float(ext.pi_e[k])), 0.1)
             for k in range(len(ext.times))]
        assert h[0] != 0.0
        assert max(abs(x - h[0]) for x in h) <= 1e-10

    def test_zero_e_start_rejected(self):
        spec = make_system(1, (1.0,))
        z0 = ExtendedPhasePoint(q=(0.0,), p=(0.0,), v=(0.0,), pi=(0.0,),
                                e=0.0, pi_e=0.0)
        with pytest.raises(InitialStateError):
            integrate_hamiltonian(spec, z0, None, IntegratorConfig())

    def test_e_zero_crossing_event(self):
        spec = make_system(1, (1.0,))
        z0 = self.on_surface_start(1, (0.0,), (1.0,), e0=1.0)
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=5.0)
        ext = integrate_hamiltonian(spec, z0, lambda t: -1.0, cfg)
        assert ext.termination.kind == "event"
        assert ext.termination.name == "e_zero_crossing"
        assert ext.termination.t == pytest.approx(1.0, abs=1e-3)


# one-dimensional force expressions, with overflowing exponentials and log
_LEAVES = st.sampled_from(["q1", "v1", "t", "1", "0.5", "-3", "700", "exp(700)"])
_FORCES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("{}({})".format, st.sampled_from(["exp", "log", "sin", "sqrt"]), sub),
    ),
    max_leaves=6,
)


class TestConfig:
    @pytest.mark.parametrize("limits", [dict(dt_min=0.0), dict(dt_min=-1e-3),
                                        dict(dt_max=0.0), dict(dt_max=-0.1),
                                        dict(dt_min=0.5), dict(dt_min=0.2, dt_max=0.1)])
    def test_bad_step_limits_rejected(self, limits):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rkf45", **limits)

    def test_equal_step_limits_accepted(self):
        cfg = IntegratorConfig(method="rkf45", dt=0.1, dt_min=0.1, dt_max=0.1)
        assert cfg.dt_min == cfg.dt_max


class TestFailedRuns:
    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_nan_force_ends_run_as_error(self, method):
        # under RKF45 the error estimate is NaN as well, which no step size can fix
        spec = make_system(1, (1.0,), forces=(NAN_FORCE,))
        cfg = IntegratorConfig(method=method, dt=0.01, t_end=0.1)
        with deadline(20):
            traj = integrate_second_order(spec, (1.0,), (0.0,), cfg)
        assert traj.termination.kind == "error"
        assert "non-finite" in traj.termination.name
        assert traj.times.tolist() == [0.0]

    def test_domain_error_keeps_recorded_samples(self):
        # q1 falls from 0.5 through 0 before t = 0.5, where log(q1) leaves its domain
        spec = make_system(1, (1.0,), forces=("log(q1)",))
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=1.0)
        traj = integrate_second_order(spec, (0.5,), (-1.0,), cfg)
        assert traj.termination.kind == "error"
        assert "ExprDomainError" in traj.termination.name
        assert len(traj.times) > 10 and traj.termination.t == traj.times[-1] < 0.5
        assert np.all(traj.q > 0.0)

    def test_math_domain_error_ends_run(self):
        # the first RK4 stage carries v1 = inf into sin, which raises ValueError
        spec = make_system(1, (1.0,), forces=("sin(v1) + exp(700)*exp(700)",))
        traj = integrate_second_order(spec, (0.0,), (0.0,), IntegratorConfig(dt=0.01, t_end=0.1))
        assert traj.termination.kind == "error"
        assert traj.times.tolist() == [0.0]

    def test_forced_step_at_dt_min_ends_run(self):
        # RKF45 cannot meet 1e-12 at the smallest allowed step of 0.2
        cfg = IntegratorConfig(method="rkf45", dt=0.2, t_end=2.0, atol=1e-12, rtol=1e-12,
                               dt_min=0.2, dt_max=0.5)
        traj = integrate_second_order(oscillator(), (1.0,), (0.0,), cfg)
        assert traj.termination.kind == "error"
        assert "step-size collapse" in traj.termination.name
        assert traj.times.tolist() == [0.0]

    @settings(max_examples=40, deadline=None)
    @given(force=_FORCES)
    def test_random_forces_end_finite_or_in_error(self, force):
        spec = make_system(1, (1.0,), forces=(force,))
        for method in ("rk4", "rkf45"):
            cfg = IntegratorConfig(method=method, dt=0.01, t_end=0.2, dt_min=1e-4)
            with deadline(20):
                traj = integrate_second_order(spec, (0.5,), (-1.0,), cfg)
            finite = np.all(np.isfinite(traj.q)) and np.all(np.isfinite(traj.v))
            assert traj.termination.kind == "error" or finite
