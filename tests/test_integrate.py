"""Time integration: accuracy, drift guards, events, projection, failed runs."""

import contextlib
import hashlib
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sleigh_run, wheel_state, wheel_system
from nonholo import engine, integrate
from nonholo.engine import make_system
from nonholo.errors import InitialStateError, NoConvergence
from nonholo.hamiltonian import ExtendedPhasePoint, hamiltonian_value
from nonholo.integrate import (
    EVENT_TIME_TOL,
    PROJECTION_TOL,
    IntegratorConfig,
    Termination,
    integrate_hamiltonian,
    integrate_second_order,
)
from nonholo.scenarios import SCENARIOS, SleighParams, build_sleigh_spec, initial_state


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

    @pytest.mark.parametrize("variant, q0, v0", [
        # lda_linear (m = 1): a NaN velocity passed the constraint test, as NaN > tol is false
        ("lda_linear", (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0)),
        # friction (m = 0) has no constraint test at all
        ("friction", (math.inf, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ])
    def test_non_finite_initial_state_rejected(self, variant, q0, v0):
        spec = build_sleigh_spec(variant, SleighParams())
        with pytest.raises(InitialStateError, match="non-finite"):
            integrate_second_order(spec, q0, v0, IntegratorConfig(dt=0.01, t_end=0.1))

    def test_initial_violation_rejected(self):
        spec = make_system(2, (1.0, 1.0), constraints=("v2 - 1",))
        cfg = IntegratorConfig(dt=0.01, t_end=0.1)
        with pytest.raises(InitialStateError):
            integrate_second_order(spec, (0.0, 0.0), (1.0, 0.5), cfg)

    def test_nan_initial_constraint_value_rejected(self):
        # D = (0.0, NaN): a max over |D| drops a NaN that is not first
        spec = make_system(2, (1.0, 1.0), constraints=("v2 - 1", f"v1 + {NAN_FORCE}"))
        with pytest.raises(InitialStateError, match="nan"):
            integrate_second_order(spec, (1.0, 0.0), (0.0, 1.0),
                                   IntegratorConfig(dt=0.01, t_end=0.1))

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("system, q0, cause", [
        (lambda: make_system(2, (1.0, 1.0), forces=("log(q1)", "0"), constraints=("v2 - 1",)),
         (-1.0, 0.0), "ExprDomainError: log"),
        # the Gram matrix q1^2 is 0 at q1 = 0
        (lambda: make_system(2, (1.0, 1.0), constraints=("q1*v1",)), (0.0, 0.0), "regularity"),
    ], ids=["log domain", "zero Gram"])
    def test_diag_error_at_the_initial_state_ends_in_error(self, method, system, q0, cause):
        # the initial sample is recorded with the initial check's D; h and min_eig are NaN
        traj = integrate_second_order(system(), q0, (0.0, 1.0),
                                      IntegratorConfig(method=method, dt=0.01, t_end=0.1))
        assert traj.termination.kind == "error" and traj.termination.t == 0.0
        assert traj.termination.name.startswith(cause)
        assert traj.times.tolist() == [0.0]
        assert traj.q.tolist() == [list(q0)] and traj.v.tolist() == [[0.0, 1.0]]
        assert traj.constraint_values.tolist() == [[0.0]]
        assert np.isnan(traj.multipliers).all() and traj.multipliers.shape == (1, 1)
        assert np.isnan(traj.gram_min_eig).all() and traj.gram_min_eig.shape == (1,)

    def test_drift_guard_fires_at_tight_tolerance(self):
        _, traj = sleigh_run(dt=0.05, t_end=2 * math.pi, drift_tolerance=1e-15)
        assert traj.termination.kind == "event"
        assert traj.termination.name == "constraint_drift"
        assert traj.times[-1] < 2 * math.pi

    def test_projection_mode_keeps_surface_exactly(self):
        _, traj = sleigh_run(dt=0.05, t_end=2 * math.pi, projection=True)
        assert traj.termination.kind == "completed"
        assert np.max(np.abs(traj.constraint_values)) <= 1e-11

    @pytest.mark.parametrize("dt", [0.002, 0.05])
    def test_projection_reuses_the_guards_diag(self, monkeypatch, dt):
        # a state on the surface keeps the diag its guards ran (N + 1 calls, no
        # projection); each state off it is projected and its new row gets its own diag
        projections = []
        project = engine.project_initial_state

        def counted_project(*args, **kwargs):
            projections.append(args)
            return project(*args, **kwargs)
        monkeypatch.setattr(engine, "project_initial_state", counted_project)
        diags = []
        params = SleighParams()
        spec = build_sleigh_spec("lda_linear", params)
        diag = spec.kernel.diag
        spec.kernel.diag = lambda *args: diags.append(args) or diag(*args)
        traj = integrate_second_order(spec, *initial_state(params),
                                      IntegratorConfig(method="rk4", dt=dt, t_end=0.5,
                                                       projection=True))
        assert traj.termination.kind == "completed"
        assert len(traj.times) == round(0.5 / dt) + 1
        assert (len(projections) == 0) == (dt == 0.002)
        assert len(diags) == len(traj.times) + len(projections)
        assert np.max(np.abs(traj.constraint_values)) <= PROJECTION_TOL

    def test_user_guard_bisected_to_tolerance(self):
        # free fall from rest under a = -1: q(t) = 1 - t^2/2 crosses 0.5 at t = 1
        spec = make_system(1, (1.0,), forces=("0 - 1",))
        cfg = IntegratorConfig(method="rk4", dt=0.07, t_end=3.0)
        guard = ("halfway", lambda q, v, t: q[0] - 0.5)
        traj = integrate_second_order(spec, (1.0,), (0.0,), cfg, guards=(guard,))
        assert traj.termination.kind == "event"
        assert traj.termination.name == "halfway"
        assert traj.termination.t == pytest.approx(1.0, abs=1e-6)
        assert traj.q[-1, 0] == pytest.approx(0.5, abs=1e-8)

    def test_rkf45_event_located_with_rkf45(self):
        # x(t) = cos t crosses 0 at pi/2; bisecting with RK4 sub-steps lands 2e-8 off
        cfg = IntegratorConfig(method="rkf45", dt=0.1, t_end=3.0, atol=1e-8, rtol=1e-8,
                               dt_max=0.5)
        guard = ("zero", lambda q, v, t: q[0])
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


class TestUserGuards:
    """A user guard (name, g(q, v, t)) reads the physical state, so one guard serves the
    second-order flow and the extended one alike."""

    # free fall from rest under a = -1: q1 = 1 - t^2/2 crosses 0.5 at t = 1 and
    # v1 = -t crosses -0.5 at t = 0.5
    HALFWAY = ("halfway", lambda q, v, t: q[0] - 0.5)
    FAST = ("fast", lambda q, v, t: v[0] + 0.5)

    @staticmethod
    def terminations(guards, constraints):
        """(second-order, on-surface extended) terminations of one guarded free fall; with
        a constraint the second-order run steps in the generated run loop."""
        spec = make_system(2, (1.0, 1.0), forces=("0 - 1", "0"), constraints=constraints)
        cfg = IntegratorConfig(method="rk4", dt=0.07, t_end=3.0)
        z0 = ExtendedPhasePoint(q=(1.0, 0.0), p=(0.0, 0.0), v=(0.0, 0.0), pi=(0.0, 0.0),
                                e=1.0, pi_e=0.0)
        return (integrate_second_order(spec, (1.0, 0.0), (0.0, 0.0), cfg,
                                       guards=guards).termination,
                integrate_hamiltonian(spec, z0, None, cfg, guards=guards).termination)

    @pytest.mark.parametrize("constraints", [(), ("v2",)], ids=["m = 0", "m = 1"])
    @pytest.mark.parametrize("guard, t_event", [(HALFWAY, 1.0), (FAST, 0.5)],
                             ids=["halfway", "fast"])
    def test_one_guard_ends_both_flows_at_one_time(self, guard, t_event, constraints):
        second, extended = self.terminations((guard,), constraints)
        assert (second.kind, second.name) == (extended.kind, extended.name) == ("event", guard[0])
        assert abs(second.t - extended.t) <= EVENT_TIME_TOL
        assert second.t == pytest.approx(t_event, abs=1e-6)

    @pytest.mark.parametrize("constraints", [(), ("v2",)], ids=["m = 0", "m = 1"])
    def test_the_event_is_named_after_the_guard_that_crossed(self, constraints):
        # the second guard crosses first: each guard reads its own g
        for term in self.terminations((self.HALFWAY, self.FAST), constraints):
            assert (term.kind, term.name) == ("event", "fast")
            assert term.t == pytest.approx(0.5, abs=1e-6)


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

    def test_non_finite_initial_row_rejected(self):
        # pi_1 = NaN: the row was recorded, with a surface residual that read 0.0
        spec = make_system(1, (1.0,))
        with pytest.raises(InitialStateError, match="non-finite"):
            integrate_hamiltonian(spec, [0.0, 0.0, 1.0, math.nan, 1.0, 0.0], None,
                                  IntegratorConfig(dt=0.01, t_end=0.1))

    @pytest.mark.parametrize("length", [5, 7])
    def test_row_of_wrong_length_rejected(self, length):
        # n = 1 takes rows of 4n + 2 = 6 entries
        with pytest.raises(ValueError, match="dimension"):
            integrate_hamiltonian(make_system(1, (1.0,)), [1.0] * length, None,
                                  IntegratorConfig())

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
        # the first RK4 stage carries v1 = inf into sin, which raises ExprDomainError
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


def _column_digest(column) -> str:
    return hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest()


class TestDegenerateGram:
    """G = [[1, 1], [1, 1 + (1 - t)^2]] from q = v = 0: its smallest eigenvalue, about
    (1 - t)^2 / 2, reaches the guard floor 10 eps_reg = 1e-9 near t = 1 - 4.47e-5 and
    zero at t = 1."""

    @staticmethod
    def run(method, t_end, projection=False):
        spec = make_system(2, (1, 1), constraints=("v1", "v1 + (1 - t)*v2"))
        cfg = IntegratorConfig(method=method, dt=1e-3, t_end=t_end, projection=projection)
        return integrate_second_order(spec, (0.0, 0.0), (0.0, 0.0), cfg)

    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("method, t_event, samples, digest", [
        ("rk4", 0.9999552786931549, 1001,
         "b48e63b89bd9cbbd50819c6ca462b574f8b7d62c75b073733cdc75909429fc32"),
        ("rkf45", 0.9999552786752581, 15,
         "3e12bc2abafc5e9feb0daba58d0ba338ae83742936129a47c1ed957ca228b6e1"),
    ])
    def test_floor_event_before_the_singularity(self, method, t_event, samples, digest,
                                                projection):
        traj = self.run(method, 0.99998, projection)
        assert traj.termination == Termination("event", "gram_eigenvalue_floor", t_event)
        assert len(traj.times) == samples
        assert traj.gram_min_eig[-1] < 1e-9 < traj.gram_min_eig[-2]
        assert _column_digest(traj.gram_min_eig) == digest
        if method == "rk4":
            assert traj.gram_min_eig[-1] == 9.999976402497168e-10

    @pytest.mark.parametrize("projection", [False, True])
    def test_rk4_stage_on_the_singularity_is_a_regularity_error(self, projection):
        # the step from t = 0.999 evaluates F at t = 1, where G is singular
        traj = self.run("rk4", 2.0, projection)
        assert traj.termination.kind == "error"
        assert traj.termination.name.startswith("regularity: ")
        assert traj.termination.t == 0.999 == traj.times[-1]
        assert _column_digest(traj.gram_min_eig) == (
            "e1cf408abc6eda523f8b6d2cfdc7e29e13190cef27041aa21067bd8b241674df")


def _through_the_driver(spec):
    """spec with a run loop that returns at once: every step of its RK4 runs goes through
    the driver's ``_advance`` (the instance attribute overrides the cached property)."""
    spec.kernel.rk4_run = lambda t0, dt, i, n_steps, a1, *rest: (i, a1, None, None)
    return spec


def _fields(traj):
    """Every field of a Trajectory, the arrays as bytes (NaN and signed zeros kept)."""
    return [traj.termination] + [np.ascontiguousarray(getattr(traj, name)).tobytes()
                                 for name in ("times", "q", "v", "constraint_values",
                                              "multipliers", "gram_min_eig")]


def _sleigh(variant):
    params = SleighParams()
    return lambda: build_sleigh_spec(variant, params), initial_state(params)


def _degenerate_gram():
    return make_system(2, (1, 1), constraints=("v1", "v1 + (1 - t)*v2"))


def _blinded(until):
    """A guard reading 0.5 - t, NaN for 0.2 < t < until."""
    return lambda q, v, t: math.nan if 0.2 < t < until else 0.5 - t


_ADVANCE = integrate._advance
_WHEEL_START = wheel_state(0.4, 1.1, 0.7)
_NONLINEAR_GUARDS = SCENARIOS["lda_nonlinear"].guards(v0=initial_state(SleighParams())[1])

# (system factory, (q0, v0), config, guards, t0)
_RUNS = {
    "completed m = 1": (*_sleigh("lda_linear"), dict(dt=0.01, t_end=1.0), (), 0.0),
    "completed m = 2": (wheel_system, _WHEEL_START, dict(dt=0.01, t_end=0.5), (), 0.0),
    "drift event": (*_sleigh("lda_linear"), dict(dt=0.05, t_end=2.0, drift_tolerance=1e-15),
                    (), 0.0),
    "yd1_sign event": (*_sleigh("lda_nonlinear"), dict(dt=0.01, t_end=2.0, projection=True),
                       _NONLINEAR_GUARDS, 0.0),
    "degenerate Gram event": (_degenerate_gram, ((0.0, 0.0), (0.0, 0.0)),
                              dict(dt=1e-3, t_end=0.99998), (), 0.0),
    "degenerate Gram error": (_degenerate_gram, ((0.0, 0.0), (0.0, 0.0)),
                              dict(dt=1e-3, t_end=2.0), (), 0.0),
    "non-finite state": (lambda: make_system(2, (1.0, 1.0), forces=(NAN_FORCE, "0"),
                                             constraints=("v2 - 1",)),
                         ((1.0, 0.0), (0.0, 1.0)), dict(dt=0.01, t_end=0.1), (), 0.0),
    "projection dt 0.05": (*_sleigh("lda_linear"), dict(dt=0.05, t_end=2.0, projection=True),
                           (), 0.0),
    "projection dt 0.002": (*_sleigh("lda_linear"),
                            dict(dt=0.002, t_end=0.5, projection=True), (), 0.0),
    "t0 = 0.7": (wheel_system, _WHEEL_START, dict(dt=0.01, t_end=0.5), (), 0.7),
    # a NaN reading disarms a guard until it reads > 0 again: this one crosses at t = 0.5,
    # rearmed by the samples from t = 0.3 on, and the next one crosses unseen
    "rearmed guard event": (*_sleigh("lda_linear"), dict(dt=0.01, t_end=1.0),
                            (("window", _blinded(0.3)),), 0.0),
    "blinded guard completed": (*_sleigh("lda_linear"), dict(dt=0.01, t_end=1.0),
                                (("window", _blinded(0.55)),), 0.0),
}


class TestRunLoop:
    """The generated RK4 run loop (``kernel.rk4_run``) records what the driver records,
    bit for bit, and ends the run as it does."""

    @staticmethod
    def run(case, through_the_driver=False):
        system, (q0, v0), cfg, guards, t0 = _RUNS[case]
        spec = system()
        if through_the_driver:
            _through_the_driver(spec)
        return integrate_second_order(spec, q0, v0, IntegratorConfig(method="rk4", **cfg),
                                      guards=guards, t0=t0)

    @pytest.mark.parametrize("case", list(_RUNS))
    def test_equals_the_driver_bit_for_bit(self, case):
        loop, driver = self.run(case), self.run(case, through_the_driver=True)
        assert _fields(loop) == _fields(driver)
        kind = loop.termination.kind
        assert kind == ("event" if "event" in case else "error" if "error" in case
                        or "non-finite" in case else "completed")

    @staticmethod
    def counted_run(monkeypatch, case, through_the_driver):
        """(accel calls, diag calls, steps handed to the driver's ``_advance``, fields)."""
        system, (q0, v0), cfg, guards, t0 = _RUNS[case]
        spec = system()
        calls = {"accel": 0, "diag": 0, "advance": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        kernel = spec.kernel  # the loop, built on the first run, binds the counted ones
        kernel.accel, kernel.diag = counted("accel", kernel.accel), counted("diag", kernel.diag)
        monkeypatch.setattr(integrate, "_advance", counted("advance", _ADVANCE))
        if through_the_driver:
            _through_the_driver(spec)
        traj = integrate_second_order(spec, q0, v0, IntegratorConfig(method="rk4", **cfg),
                                      guards=guards, t0=t0)
        return calls, _fields(traj)

    @pytest.mark.parametrize("case, hand_offs", [
        ("completed m = 1", 0), ("projection dt 0.05", 0),  # every state projected inline
        ("drift event", 1), ("yd1_sign event", 1), ("degenerate Gram event", 1),
    ])
    def test_a_hand_off_evaluates_its_step_once(self, monkeypatch, case, hand_offs):
        # the loop returns the row and the diag it made, so the driver takes the step from
        # there: accel and diag run exactly as often as where the driver takes every step
        (loop, fields), (driver, driver_fields) = (
            self.counted_run(monkeypatch, case, through) for through in (False, True))
        assert loop.pop("advance") == hand_offs
        assert driver.pop("advance") == len(np.frombuffer(fields[1])) - 1
        assert loop == driver and fields == driver_fields

    def test_a_failed_projection_evaluates_its_step_once(self, monkeypatch):
        project = engine.project_initial_state

        def failing(spec, q, v, t, **kwargs):
            if t >= 0.2:
                raise NoConvergence("no projection past t = 0.2")
            return project(spec, q, v, t, **kwargs)
        monkeypatch.setattr(engine, "project_initial_state", failing)
        (loop, fields), (driver, driver_fields) = (
            self.counted_run(monkeypatch, "projection dt 0.05", through) for through in
            (False, True))
        assert fields[0] == Termination("error", "NoConvergence: no projection past t = 0.2",
                                        0.15000000000000002)
        assert (loop.pop("advance"), driver.pop("advance")) == (1, 4)
        assert loop == driver and fields == driver_fields
