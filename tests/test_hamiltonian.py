"""Extended phase space: Hamiltonian, vector field, brackets, gauge map."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import WHEEL_CONSTRAINTS, potential_t_system, wheel_state, wheel_system
from nonholo import action, engine, hamiltonian, integrate
from nonholo.dual import Dual
from nonholo.engine import make_system
from nonholo.errors import ExprDomainError, RegularityError, VanishingVelocity
from nonholo.hamiltonian import (
    ExtendedPhasePoint,
    constraint_surface_residual,
    gauge_transform,
    hamiltonian_value,
    hamiltonian_vector_field,
    poisson_bracket,
    unpack,
)
from nonholo.integrate import IntegratorConfig, integrate_hamiltonian
from nonholo.paths import PhasePath
from nonholo.scenarios import SleighParams, build_sleigh_spec
from test_kernels import _coordinate, _systems


def free_particle(n=2):
    return make_system(n, tuple(1.0 for _ in range(n)))


def point(n=2, **kw):
    base = dict(q=tuple(0.0 for _ in range(n)), p=tuple(0.0 for _ in range(n)),
                v=tuple(0.0 for _ in range(n)), pi=tuple(0.0 for _ in range(n)),
                e=1.0, pi_e=0.0)
    base.update(kw)
    return ExtendedPhasePoint(**base)


class TestHamiltonianValue:
    def test_on_surface_value_is_zero(self):
        spec = make_system(2, (1.0, 1.0), forces=("q2", "-q1"))
        z = point(q=(1.0, 2.0), v=(0.5, -0.5))
        assert hamiltonian_value(spec, z) == 0.0

    def test_off_surface_example(self):
        # H = pi^2/(2e) + pi.F + p.v + mu_e*pi_e for a free particle (F = 0)
        spec = free_particle()
        z = point(q=(0.0, 0.0), p=(1.0, 2.0), v=(3.0, 4.0), pi=(1.0, 1.0),
                  e=2.0, pi_e=0.5)
        expected = 2.0 / 4.0 + 0.0 + (3.0 + 8.0) + 0.7 * 0.5
        assert hamiltonian_value(spec, z, mu_e=0.7) == pytest.approx(expected, abs=1e-14)

    def test_zero_e_rejected(self):
        spec = free_particle()
        with pytest.raises(ExprDomainError):
            hamiltonian_value(spec, point(e=0.0))
        with pytest.raises(ExprDomainError):
            hamiltonian_vector_field(spec, point(e=0.0))


class TestRow:
    def test_layout(self):
        y = point(q=(1.0, 2.0), p=(3.0, 4.0), v=(5.0, 6.0), pi=(7.0, 8.0),
                  e=9.0, pi_e=10.0)
        assert y == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert unpack(y, 2) == ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0), 9.0, 10.0)

    @pytest.mark.parametrize("block", ["p", "v", "pi"])
    def test_unequal_blocks_rejected(self, block):
        with pytest.raises(ValueError, match="equal length"):
            point(**{block: (0.0,)})


class TestVectorField:
    def test_on_surface_reduces_to_second_order_flow(self):
        spec = make_system(2, (1.0, 1.0), forces=("0-q1", "0-q2"))
        z = point(q=(1.0, 0.5), v=(0.2, -0.3))
        qd, pd, vd, pid, ed, pi_ed = unpack(hamiltonian_vector_field(spec, z, mu_e=0.4), 2)
        assert qd == pytest.approx((0.2, -0.3), abs=1e-15)
        assert vd == pytest.approx((-1.0, -0.5), abs=1e-15)
        assert pd == (0.0, 0.0)
        assert pid == (0.0, 0.0)
        assert ed == 0.4
        assert pi_ed == 0.0

    def test_off_surface_momentum_rates(self):
        # F = (q2*v1, 0): dF1/dq2 = v1, dF1/dv1 = q2
        spec = make_system(2, (1.0, 1.0), forces=("q2*v1", "0"))
        z = point(q=(0.0, 2.0), p=(0.1, 0.2), v=(3.0, 0.0), pi=(1.0, 0.0), e=1.0)
        _, pd, vd, pid, _, pi_ed = unpack(hamiltonian_vector_field(spec, z), 2)
        assert pd[0] == pytest.approx(0.0, abs=1e-14)       # dF1/dq1 = 0
        assert pd[1] == pytest.approx(-3.0, abs=1e-14)      # -pi1*dF1/dq2
        assert pid[0] == pytest.approx(-0.1 - 2.0, abs=1e-14)
        assert pid[1] == pytest.approx(-0.2, abs=1e-14)
        assert vd[0] == pytest.approx(1.0 + 6.0, abs=1e-14)  # pi1/e + F1
        assert pi_ed == pytest.approx(0.5, abs=1e-14)

    def test_field_matches_bracket_with_hamiltonian(self):
        # yd_k = {y_k, H} for each entry y_k of the row
        spec = make_system(1, (2.0,), potential="q1^2")
        y = ExtendedPhasePoint(q=(0.7,), p=(0.3,), v=(1.1,), pi=(0.4,), e=1.3, pi_e=0.2)
        mu = 0.6
        H = lambda w: hamiltonian_value(spec, w, mu_e=mu)
        yd = hamiltonian_vector_field(spec, y, mu_e=mu)
        for k in range(6):
            assert poisson_bracket(lambda w: w[k], H, y, 1) == pytest.approx(yd[k], rel=1e-10)


class TestFlatRow:
    def test_integrator_and_stationarity_pass_rows(self, monkeypatch):
        # the driver hands the run's generated step the flat rows, once per RK4 step,
        # and the field itself is not called; the stationarity check runs the field
        # on the flat rows once per sample
        calls = {"field": 0, "step": 0}
        field = hamiltonian.hamiltonian_vector_field

        def counting_field(*args):
            calls["field"] += 1
            return field(*args)
        monkeypatch.setattr(hamiltonian, "hamiltonian_vector_field", counting_field)
        drive = integrate._drive

        def counting_drive(step, *args):
            def counted(t, y, dt):
                assert type(y) is list and len(y) == 18
                calls["step"] += 1
                return step(t, y, dt)
            return drive(counted, *args)
        monkeypatch.setattr(integrate, "_drive", counting_drive)
        spec = wheel_system()
        q0, v0 = wheel_state(0.3, 1.2, 0.8)
        z0 = ExtendedPhasePoint(q=q0, p=(0.03, -0.02, 0.01, 0.04), v=v0,
                                pi=(0.02, 0.04, -0.03, 0.01), e=1.3, pi_e=0.02)
        ext = integrate_hamiltonian(spec, z0, lambda t: 0.1,
                                    IntegratorConfig(method="rk4", dt=0.01, t_end=0.1))
        assert ext.termination.kind == "completed"
        assert calls == {"field": 0, "step": 10}
        rkf = integrate_hamiltonian(spec, z0, lambda t: 0.1,
                                    IntegratorConfig(method="rkf45", dt=0.01, t_end=0.1))
        assert rkf.termination.kind == "completed"
        assert calls["field"] == 0 and calls["step"] >= 10 + len(rkf.times) - 1
        path = PhasePath(times=ext.times, q=ext.q, p=ext.p, v=ext.v, pi=ext.pi, e=ext.e,
                         pi_e=ext.pi_e, mu_e=np.full(len(ext.times), 0.1))
        action.stationarity_check(spec, path)
        assert calls["field"] == len(path.times) == 11


def dual_seeded_jacobians(spec, q, v, t):
    """Reference (dF/dq, dF/dv): one dual-seeded acceleration per direction."""
    n = spec.n
    dfdq = [[0.0] * n for _ in range(n)]
    dfdv = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for base, jac, seed_q in ((q, dfdq, True), (v, dfdv, False)):
            seeded = list(base)
            seeded[i] = Dual(base[i], 1.0)
            col = (engine.acceleration_raw(spec, seeded, list(v), t) if seed_q
                   else engine.acceleration_raw(spec, list(q), seeded, t))
            for j in range(n):
                jac[j][i] = col[j].du if isinstance(col[j], Dual) else 0.0
    return dfdq, dfdv


JACOBIAN_SYSTEMS = {
    "lda_linear": lambda: build_sleigh_spec("lda_linear", SleighParams()),
    "lda_nonlinear": lambda: build_sleigh_spec("lda_nonlinear", SleighParams(m=1.5, I=0.7)),
    "friction": lambda: build_sleigh_spec("friction", SleighParams(k=20.0)),
    "wheel": lambda: make_system(4, (1.0, 2.0, 0.5, 1.5), constraints=WHEEL_CONSTRAINTS),
    "potential_t": potential_t_system,
    "abs": lambda: make_system(
        2, (1.0, 1.5), forces=("abs(q1 - v2)*q2", "-abs(v1)*q1"),
        constraints=("abs(v1)*v2 + q1*v1 - 1",)),
}


def assert_jacobians_close(spec, q, v, t):
    got = engine.acceleration_jacobian_raw(spec, q, v, t)[1:]
    want = dual_seeded_jacobians(spec, q, v, t)
    for got_m, want_m in zip(got, want):
        for got_row, want_row in zip(got_m, want_m):
            for x, y in zip(got_row, want_row):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


class TestForceJacobians:
    def test_against_central_differences(self):
        spec = make_system(3, (1.0, 1.0, 0.5),
                           constraints=("v1*sin(q3) - v2*cos(q3)",))
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = rng.uniform(-1, 1, 3)
            v = rng.uniform(0.5, 1.5, 3)
            _, dfdq, dfdv = engine.acceleration_jacobian_raw(spec, list(q), list(v), 0.0)
            h = 1e-6
            for i in range(3):
                for arrs, jac in ((q, dfdq), (v, dfdv)):
                    hi = list(arrs); lo = list(arrs)
                    hi[i] += h; lo[i] -= h
                    if arrs is q:
                        fp = engine.acceleration_raw(spec, hi, list(v), 0.0)
                        fm = engine.acceleration_raw(spec, lo, list(v), 0.0)
                    else:
                        fp = engine.acceleration_raw(spec, list(q), hi, 0.0)
                        fm = engine.acceleration_raw(spec, list(q), lo, 0.0)
                    for j in range(3):
                        fd = (fp[j] - fm[j]) / (2 * h)
                        assert jac[j][i] == pytest.approx(fd, abs=1e-5, rel=1e-5)

    @pytest.mark.parametrize("name", sorted(JACOBIAN_SYSTEMS))
    def test_matches_dual_seeding(self, name):
        spec = JACOBIAN_SYSTEMS[name]()
        rng = random.Random(name)
        for _ in range(50):
            q = [rng.uniform(-1.0, 1.0) for _ in range(spec.n)]
            v = [rng.uniform(0.5, 1.5) for _ in range(spec.n)]
            assert_jacobians_close(spec, q, v, rng.uniform(0.0, 2.0))

    def test_abs_kinks_take_the_dual_sign(self):
        # q1 = v2 and v1 = 0 put both abs arguments at 0, where both paths use sign +1
        spec = JACOBIAN_SYSTEMS["abs"]()
        assert_jacobians_close(spec, [0.7, -0.4], [0.0, 0.7], 0.0)

    @pytest.mark.parametrize("forces, constraints, q, v, error", [
        # zero Gram matrix, m = 1
        (None, ("v1^2 + v2^2 - 1",), [0.0, 0.0], [0.0, 0.0], RegularityError),
        # rank-one Gram matrix, m = 2
        (None, ("v1 - v2", "2*v1 - 2*v2"), [0.0, 0.0], [1.0, 1.0], RegularityError),
        # dF1/dq1 = 1/(2 sqrt(q1)) is unbounded at q1 = 0, where F itself is finite
        (("sqrt(q1)", "v1"), (), [0.0, 0.3], [1.0, 0.5], ExprDomainError),
        # F is finite at v2 = 4.96e-300, dF2/dv2 is not: v2^2 underflows to 0 in the
        # integer power, exp(-1.5 log(v2)) overflows in the real one
        (("q1", "v2^-1.0"), (), [0.1, 0.2], [0.3, 4.96e-300], ExprDomainError),
        (("q1", "v2^-0.5"), (), [0.1, 0.2], [0.3, 4.96e-300], ExprDomainError),
    ])
    def test_degenerate_points_raise_as_dual_seeding(self, forces, constraints, q, v, error):
        spec = make_system(2, (1.0, 1.0), forces=forces, constraints=constraints)
        with pytest.raises(error):
            dual_seeded_jacobians(spec, q, v, 0.0)
        with pytest.raises(error):
            engine.acceleration_jacobian_raw(spec, q, v, 0.0)


# the row entries of the n = 2 points below
Q1, Q2, P1, P2, V1, V2, PI1, PI2, E, PI_E = range(10)


class TestBrackets:
    def y(self):
        return ExtendedPhasePoint(q=(0.3, -0.2), p=(0.7, 0.1), v=(1.2, 0.5),
                                  pi=(0.4, -0.6), e=1.5, pi_e=0.9)

    def test_canonical_pairs(self):
        y = self.y()
        for a, b, want in ((Q1, P1, 1.0), (V2, PI2, 1.0), (E, PI_E, 1.0), (Q1, P2, 0.0),
                           (Q1, PI1, 0.0)):
            got = poisson_bracket(lambda w: w[a], lambda w: w[b], y, 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_antisymmetry(self):
        y = self.y()
        f = lambda w: w[Q1] * w[PI2] + w[E] ** 2
        g = lambda w: w[P1] * w[V1] + w[PI_E] * w[Q2]
        assert poisson_bracket(f, g, y, 2) == pytest.approx(-poisson_bracket(g, f, y, 2),
                                                            abs=1e-8)

    def test_leibniz_rule(self):
        y = self.y()
        f = lambda w: w[Q1] + w[V2] * w[E]
        g = lambda w: w[P1] * w[P1] + w[PI_E]
        h = lambda w: w[PI1] * w[Q2] + w[V1]
        lhs = poisson_bracket(f, lambda w: g(w) * h(w), y, 2)
        rhs = poisson_bracket(f, g, y, 2) * h(y) + g(y) * poisson_bracket(f, h, y, 2)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("force", ["v2^-1.0", "v2^-0.5"])
    def test_overflowing_derivative_is_a_domain_error(self, force):
        # {pi_2, H} needs dF2/dv2, which overflows at v2 = 4.96e-300 where F is finite
        spec = make_system(2, (1.0, 1.0), forces=("q1", force))
        y = ExtendedPhasePoint(q=(0.1, 0.2), p=(0.0, 0.0), v=(0.3, 4.96e-300),
                               pi=(0.0, 1.0), e=1.0, pi_e=0.0)
        with pytest.raises(ExprDomainError):
            poisson_bracket(lambda w: w[PI2], lambda w: hamiltonian_value(spec, w), y, 2)

    def test_surface_functions_pairwise_involutive(self):
        # pi_e, p_i, pi_i all commute with each other
        y = self.y()
        for a in (PI_E, P1, P2, PI1, PI2):
            for b in (PI_E, P1, P2, PI1, PI2):
                assert abs(poisson_bracket(lambda w: w[a], lambda w: w[b], y, 2)) <= 1e-12


def _close(got, want):
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), spec=_systems())
def test_brackets_with_h_on_generated_systems(data, spec):
    # Dirac consistency of the surface functions: {p_i, H} = -sum_j pi_j dF_j/dq_i,
    # {pi_i, H} = -p_i - sum_j pi_j dF_j/dv_i, {pi_e, H} = pi^2/(2 e^2) off the surface
    n = spec.n
    q, p, v, pi = (data.draw(st.lists(_coordinate, min_size=n, max_size=n)) for _ in range(4))
    e = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(0.5, 2.0))
    pi_e, mu, t = data.draw(_coordinate), data.draw(_coordinate), data.draw(_coordinate)
    y = ExtendedPhasePoint(q, p, v, pi, e, pi_e)
    H = lambda w: hamiltonian_value(spec, w, mu, t)
    try:
        _, dfdq, dfdv = engine.acceleration_jacobian_raw(spec, q, v, t)
        brackets = [poisson_bracket(lambda w: w[k], H, y, n) for k in range(len(y))]
    except (ExprDomainError, RegularityError):
        assume(False)
    for i in range(n):
        _close(brackets[n + i], -sum(pi[j] * dfdq[j][i] for j in range(n)))
        _close(brackets[3 * n + i], -p[i] - sum(pi[j] * dfdv[j][i] for j in range(n)))
    _close(brackets[4 * n + 1], sum(x * x for x in pi) / (2.0 * e * e))


class TestSurfaceResidual:
    def test_zero_on_surface(self):
        assert constraint_surface_residual(point(q=(1.0, 2.0), v=(3.0, 4.0)), 2) == 0.0

    def test_max_norm(self):
        y = point(p=(0.1, -0.3), pi=(0.2, 0.0), pi_e=0.05)
        assert constraint_surface_residual(y, 2) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("field, value", [("p", (0.1, float("nan"))),
                                              ("pi", (float("nan"), 0.2)), ("pi_e", float("nan"))])
    def test_nan_anywhere_reads_nan(self, field, value):
        # max alone keeps a NaN only in first place: max(0.1, nan) is 0.1
        y = point(**{**dict(p=(0.3, 0.1), pi=(0.2, 0.0), pi_e=0.05), field: value})
        assert math.isnan(constraint_surface_residual(y, 2))


def straight_line_path(n_steps=200, dt=0.01, v=(1.0, 0.5)):
    times = np.arange(n_steps + 1) * dt
    q = np.outer(times, np.array(v))
    vel = np.tile(np.array(v), (n_steps + 1, 1))
    zeros = np.zeros_like(q)
    return PhasePath(times=times, q=q, p=zeros.copy(), v=vel,
                     pi=zeros.copy(), e=np.ones_like(times),
                     pi_e=np.zeros_like(times), mu_e=np.zeros_like(times))


class TestGaugeTransform:
    def test_identity_when_alpha_zero(self):
        path = straight_line_path()
        out = gauge_transform(path, np.zeros_like(path.times))
        assert np.array_equal(out.e, path.e)
        assert np.array_equal(out.p, path.p)
        assert np.array_equal(out.mu_e, path.mu_e)

    def test_qd_equals_v_gives_invariant_e(self):
        # on a path with qd = v the factor (1 - v.qd/v^2) vanishes
        path = straight_line_path()
        alpha = np.sin(path.times)
        out = gauge_transform(path, alpha)
        assert np.max(np.abs(out.e - path.e)) <= 1e-10
        # pi = 0 on this path, so dp = 0 as well
        assert np.max(np.abs(out.p - path.p)) == 0.0

    def test_untouched_blocks(self):
        path = straight_line_path()
        # bend the velocities so the shift is nontrivial
        path = path.replace(v=path.v + 0.3 * np.cos(path.times)[:, None],
                            pi=path.pi + 0.2)
        out = gauge_transform(path, np.cos(path.times))
        assert np.array_equal(out.q, path.q)
        assert np.array_equal(out.v, path.v)
        assert np.array_equal(out.pi, path.pi)
        assert np.array_equal(out.pi_e, path.pi_e)
        assert not np.array_equal(out.e, path.e)
        assert not np.array_equal(out.p, path.p)

    def test_vanishing_velocity_rejected(self):
        path = straight_line_path(v=(0.0, 0.0))
        with pytest.raises(VanishingVelocity):
            gauge_transform(path, np.ones_like(path.times))

    def test_alpha_grid_mismatch(self):
        path = straight_line_path()
        with pytest.raises(ValueError):
            gauge_transform(path, np.zeros(3))
