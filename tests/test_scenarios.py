"""Sleigh variants and the damped oscillator."""

import math

import numpy as np
import pytest

from conftest import sleigh_run
from nonholo.engine import acceleration_raw
from nonholo.integrate import IntegratorConfig, integrate_second_order
from nonholo.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    SLEIGH_VARIANTS,
    SleighParams,
    build_sleigh_spec,
    damped_oscillator_spec,
    final_position,
    initial_state,
    sleigh_circle,
    sleigh_friction_analytic,
    sleigh_friction_rhs,
    vakonomic_phi_rhs,
)


class TestFrictionModel:
    def test_rhs_on_initial_data(self):
        # at phi = 0 with velocity (v0, 0) the lateral body velocity is zero
        p = SleighParams(k=5.0)
        q0, v0 = initial_state(p)
        acc = sleigh_friction_rhs(p, (*q0, *v0))
        assert acc == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_rhs_lateral_velocity_example(self):
        # phi = pi/2, velocity (1, 0): lateral velocity -1, force k*(sin, -cos)
        p = SleighParams(m=2.0, k=3.0)
        acc = sleigh_friction_rhs(p, (0.0, 0.0, math.pi / 2, 1.0, 0.0, 0.5))
        assert acc[0] == pytest.approx(-1.5, abs=1e-12)
        assert acc[1] == pytest.approx(0.0, abs=1e-12)
        assert acc[2] == 0.0

    def test_engine_spec_matches_rhs(self):
        p = SleighParams(m=1.3, k=4.0)
        spec = build_sleigh_spec("friction", p)
        state = (0.2, -0.1, 0.7, 0.9, 0.4, 1.1)
        expected = sleigh_friction_rhs(p, state)
        got = acceleration_raw(spec, state[:3], state[3:], 0.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_final_position_formula(self):
        p = SleighParams(m=2.0, k=4.0, v0=3.0, omega=1.5)
        assert final_position(p) == pytest.approx((2 * 3.0 * 2.0 / (1.5 * 4.0),
                                                   3.0 / 1.5), abs=1e-15)

    def test_analytic_rejects_weak_friction(self):
        with pytest.raises(ValueError):
            sleigh_friction_analytic(SleighParams(k=1.0), 1.0)

    def test_analytic_decays_towards_limit_point(self):
        # slowest decay rate is ~omega^2/k, so evaluate deep into the tail
        p = SleighParams(k=50.0)
        x_inf, y_inf = final_position(p)
        t = 2000.0
        x, y, phi = sleigh_friction_analytic(p, t)
        assert x == pytest.approx(x_inf, abs=1e-8)
        assert y == pytest.approx(y_inf, abs=1e-8)
        assert phi == pytest.approx(t * p.omega, abs=1e-12)


class TestCircleReference:
    def test_values_at_quarter_and_half_turn(self):
        p = SleighParams(v0=2.0, omega=0.5)  # radius 4
        assert sleigh_circle(p, 0.0) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
        t_quarter = (math.pi / 2) / p.omega
        assert sleigh_circle(p, t_quarter) == pytest.approx(
            (4.0, 4.0, math.pi / 2), abs=1e-12)
        t_half = math.pi / p.omega
        assert sleigh_circle(p, t_half) == pytest.approx(
            (0.0, 8.0, math.pi), abs=1e-12)

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError):
            sleigh_circle(SleighParams(omega=0.0), 1.0)


class TestConstrainedVariants:
    def test_linear_variant_initial_acceleration(self):
        # the knife edge turns the body: a = (0, v0*omega, 0) at t = 0
        p = SleighParams()
        spec = build_sleigh_spec("lda_linear", p)
        q0, v0 = initial_state(p)
        a = acceleration_raw(spec, q0, v0, 0.0)
        assert a == pytest.approx((0.0, p.v0 * p.omega, 0.0), abs=1e-12)

    def test_linear_variant_tracks_circle(self):
        p = SleighParams()
        _, traj = sleigh_run("lda_linear", dt=1e-3)
        ref = np.array([sleigh_circle(p, t)[:2] for t in traj.times])
        assert np.max(np.abs(traj.q[:, :2] - ref)) <= 1e-8

    def test_nonlinear_variant_matches_linear(self):
        # the two constraint charts describe the same motion away from the
        # singular headings; compare on [0, 0.4*pi/omega]
        _, lin = sleigh_run("lda_linear", dt=1e-3, t_end=0.4 * math.pi)
        _, non = sleigh_run("lda_nonlinear", dt=1e-3, t_end=0.4 * math.pi)
        assert non.termination.kind == "completed"
        assert np.max(np.abs(lin.q - non.q)) <= 1e-7

    def test_nonlinear_guard_indexes_both_layouts(self):
        from nonholo.scenarios import nonlinear_sleigh_guards
        (_, g2), = nonlinear_sleigh_guards()
        # second-order state [q1,q2,q3, v1,v2,v3]: v1 at index 3
        assert g2(0.0, [0, 0, 0, 0.5, 0, 0]) > 0
        assert g2(0.0, [0, 0, 0, 0.0, 9, 9]) < 0
        (_, ge), = nonlinear_sleigh_guards(extended=True)
        # extended state [q(3), p(3), v(3), pi(3), e, pi_e]: v1 at index 6
        assert ge(0.0, [0] * 6 + [0.5] + [0] * 7) > 0
        assert ge(0.0, [0] * 6 + [0.0] + [9] * 7) < 0

    def test_heading_rate_is_constant(self):
        _, traj = sleigh_run("lda_linear", dt=1e-3)
        p = SleighParams()
        assert np.max(np.abs(traj.v[:, 2] - p.omega)) <= 1e-9


class TestVakonomic:
    def test_rhs_matches_spec_forces(self):
        p = SleighParams(m=1.5, v0=0.8)
        c = 0.7
        spec = build_sleigh_spec("vakonomic_phi", p, c=c)
        for phi in (0.0, 0.3, 1.2, -0.5):
            a = acceleration_raw(spec, (phi,), (0.0,), 0.0)
            assert a[0] == pytest.approx(vakonomic_phi_rhs(p, c, phi), abs=1e-12)

    def test_rhs_example(self):
        # m = I = v0 = 1, c = 0: phidd = -sin(2*phi)/2
        p = SleighParams()
        assert vakonomic_phi_rhs(p, 0.0, math.pi / 4) == pytest.approx(-0.5, abs=1e-14)

    def test_angle_deviates_from_uniform_rotation(self):
        # unlike the d'Alembert sleigh the vakonomic angle is not phi = omega*t
        p = SleighParams()
        spec = build_sleigh_spec("vakonomic_phi", p, c=1.0)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=2 * math.pi)
        traj = integrate_second_order(spec, (0.0,), (p.omega,), cfg)
        dev = np.max(np.abs(traj.q[:, 0] - p.omega * traj.times))
        assert dev >= 0.01


class TestDampedOscillator:
    def test_decaying_solution(self):
        # xdd = -x - xd with x(0) = 1, xd(0) = 0; compare to the closed form
        spec = damped_oscillator_spec(omega=1.0, k=1.0, sign=-1)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0)
        traj = integrate_second_order(spec, (1.0,), (0.0,), cfg)
        wd = math.sqrt(3.0) / 2.0
        exact = np.exp(-traj.times / 2) * (np.cos(wd * traj.times)
                                           + np.sin(wd * traj.times) / (2 * wd))
        assert np.max(np.abs(traj.q[:, 0] - exact)) <= 1e-9

    def test_growing_mode_variant(self):
        spec = damped_oscillator_spec(omega=1.0, k=0.0, sign=1)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=2.0)
        traj = integrate_second_order(spec, (1.0,), (0.0,), cfg)
        assert traj.q[-1, 0] == pytest.approx(math.cosh(2.0), abs=1e-8)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            damped_oscillator_spec(1.0, 1.0, sign=2)


class TestCatalog:
    def test_names(self):
        assert SCENARIO_NAMES == ("friction", "lda_linear", "lda_nonlinear",
                                  "vakonomic_phi", "damped_oscillator")

    def test_sleigh_variants_follow_table_order(self):
        assert SLEIGH_VARIANTS == SCENARIO_NAMES[:4]
        assert SCENARIOS["damped_oscillator"].initial is None

    def test_default_run_lengths(self):
        # a negative omega turns the other way over the same time
        for p in (SleighParams(omega=2.0), SleighParams(omega=-2.0)):
            assert SCENARIOS["lda_nonlinear"].t_end(p) == 0.4 * math.pi / 2.0
            for name in ("friction", "lda_linear", "vakonomic_phi"):
                assert SCENARIOS[name].t_end(p) == 2.0 * math.pi / 2.0

    def test_guards_only_on_nonlinear_chart(self):
        for name in SCENARIO_NAMES:
            for extended in (False, True):
                guards = SCENARIOS[name].guards(extended)
                assert [g[0] for g in guards] == (["yd1_sign"] if name == "lda_nonlinear" else [])

    def test_circular_reference_only_for_lda_and_friction(self):
        with_reference = [name for name in SCENARIO_NAMES if SCENARIOS[name].reference]
        assert with_reference == ["friction", "lda_linear", "lda_nonlinear"]
        assert [name for name in SCENARIO_NAMES if SCENARIOS[name].closed_form] == ["friction"]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_sleigh_spec("unknown", SleighParams())

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            SleighParams(m=-1.0)
        with pytest.raises(ValueError):
            SleighParams(k=-0.1)
