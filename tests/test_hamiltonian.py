"""Extended phase space: Hamiltonian, vector field, brackets, gauge map."""

import random

import numpy as np
import pytest

from conftest import WHEEL_CONSTRAINTS, potential_t_system, wheel_state, wheel_system
from nonholo import action, engine, hamiltonian, integrate
from nonholo.dual import Dual
from nonholo.engine import make_system
from nonholo.errors import ExprDomainError, RegularityError, VanishingVelocity
from nonholo.hamiltonian import (
    ExtendedPhasePoint,
    constraint_surface_residual,
    force_jacobians,
    gauge_transform,
    hamiltonian_value,
    hamiltonian_vector_field,
    pack,
    poisson_bracket,
    unpack,
)
from nonholo.integrate import IntegratorConfig, integrate_hamiltonian
from nonholo.paths import PhasePath
from nonholo.scenarios import SleighParams, build_sleigh_spec


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
            hamiltonian_vector_field(spec, pack(point(e=0.0)))

    def test_pack_unpack_roundtrip(self):
        z = point(q=(1.0, 2.0), p=(3.0, 4.0), v=(5.0, 6.0), pi=(7.0, 8.0),
                  e=9.0, pi_e=10.0)
        assert unpack(pack(z), 2) == z


class TestVectorField:
    def test_on_surface_reduces_to_second_order_flow(self):
        spec = make_system(2, (1.0, 1.0), forces=("0-q1", "0-q2"))
        z = point(q=(1.0, 0.5), v=(0.2, -0.3))
        field = hamiltonian_vector_field(spec, pack(z), mu_e=0.4)
        zd = unpack(field, 2)
        assert zd.q == pytest.approx((0.2, -0.3), abs=1e-15)
        assert zd.v == pytest.approx((-1.0, -0.5), abs=1e-15)
        assert zd.p == (0.0, 0.0)
        assert zd.pi == (0.0, 0.0)
        assert zd.e == 0.4
        assert zd.pi_e == 0.0

    def test_off_surface_momentum_rates(self):
        # F = (q2*v1, 0): dF1/dq2 = v1, dF1/dv1 = q2
        spec = make_system(2, (1.0, 1.0), forces=("q2*v1", "0"))
        z = point(q=(0.0, 2.0), p=(0.1, 0.2), v=(3.0, 0.0), pi=(1.0, 0.0), e=1.0)
        zd = unpack(hamiltonian_vector_field(spec, pack(z)), 2)
        assert zd.p[0] == pytest.approx(0.0, abs=1e-14)       # dF1/dq1 = 0
        assert zd.p[1] == pytest.approx(-3.0, abs=1e-14)      # -pi1*dF1/dq2
        assert zd.pi[0] == pytest.approx(-0.1 - 2.0, abs=1e-14)
        assert zd.pi[1] == pytest.approx(-0.2, abs=1e-14)
        assert zd.v[0] == pytest.approx(1.0 + 6.0, abs=1e-14)  # pi1/e + F1
        assert zd.pi_e == pytest.approx(0.5, abs=1e-14)

    def test_field_matches_bracket_with_hamiltonian(self):
        # zd_x = {x, H} for each coordinate function x
        spec = make_system(1, (2.0,), potential="q1^2")
        z = ExtendedPhasePoint(q=(0.7,), p=(0.3,), v=(1.1,), pi=(0.4,),
                               e=1.3, pi_e=0.2)
        mu = 0.6
        H = lambda w: hamiltonian_value(spec, w, mu_e=mu)
        zd = unpack(hamiltonian_vector_field(spec, pack(z), mu_e=mu), 1)
        assert poisson_bracket(lambda w: w.q[0], H, z) == pytest.approx(zd.q[0], rel=1e-10)
        assert poisson_bracket(lambda w: w.p[0], H, z) == pytest.approx(zd.p[0], rel=1e-10)
        assert poisson_bracket(lambda w: w.v[0], H, z) == pytest.approx(zd.v[0], rel=1e-10)
        assert poisson_bracket(lambda w: w.pi[0], H, z) == pytest.approx(zd.pi[0], rel=1e-10)
        assert poisson_bracket(lambda w: w.e, H, z) == pytest.approx(zd.e, rel=1e-10)
        assert poisson_bracket(lambda w: w.pi_e, H, z) == pytest.approx(zd.pi_e, rel=1e-10)


class TestFlatRow:
    def test_integrator_and_stationarity_pass_rows(self, monkeypatch):
        # the RK stages and the stationarity check hand the flow their flat rows: no
        # ExtendedPhasePoint is built, and the flow runs once per RHS and once per sample
        calls = {"unpack": 0, "field": 0, "rhs": 0}

        def counted(name, key):
            fn = getattr(hamiltonian, name)

            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            monkeypatch.setattr(hamiltonian, name, wrapper)
        counted("unpack", "unpack")
        counted("hamiltonian_vector_field", "field")
        drive = integrate._drive

        def counting_drive(f, *args):
            def rhs(t, y):
                calls["rhs"] += 1
                return f(t, y)
            return drive(rhs, *args)
        monkeypatch.setattr(integrate, "_drive", counting_drive)
        spec = wheel_system()
        q0, v0 = wheel_state(0.3, 1.2, 0.8)
        z0 = ExtendedPhasePoint(q=q0, p=(0.03, -0.02, 0.01, 0.04), v=v0,
                                pi=(0.02, 0.04, -0.03, 0.01), e=1.3, pi_e=0.02)
        ext = integrate_hamiltonian(spec, z0, lambda t: 0.1,
                                    IntegratorConfig(method="rk4", dt=0.01, t_end=0.1))
        assert ext.termination.kind == "completed"
        assert calls == {"unpack": 0, "field": 40, "rhs": 40}
        rkf = integrate_hamiltonian(spec, z0, lambda t: 0.1,
                                    IntegratorConfig(method="rkf45", dt=0.01, t_end=0.1))
        assert rkf.termination.kind == "completed"
        assert calls["unpack"] == 0 and calls["field"] == calls["rhs"] > 40
        path = PhasePath(times=ext.times, q=ext.q, p=ext.p, v=ext.v, pi=ext.pi, e=ext.e,
                         pi_e=ext.pi_e, mu_e=np.full(len(ext.times), 0.1))
        before = calls["field"]
        action.stationarity_check(spec, path)
        assert calls["unpack"] == 0 and calls["field"] == before + len(path.times) == before + 11


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
    got = force_jacobians(spec, q, v, t)
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
            dfdq, dfdv = force_jacobians(spec, list(q), list(v))
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
    ])
    def test_degenerate_points_raise_as_dual_seeding(self, forces, constraints, q, v, error):
        spec = make_system(2, (1.0, 1.0), forces=forces, constraints=constraints)
        with pytest.raises(error):
            dual_seeded_jacobians(spec, q, v, 0.0)
        with pytest.raises(error):
            force_jacobians(spec, q, v, 0.0)


class TestBrackets:
    def z(self):
        return ExtendedPhasePoint(q=(0.3, -0.2), p=(0.7, 0.1), v=(1.2, 0.5),
                                  pi=(0.4, -0.6), e=1.5, pi_e=0.9)

    def test_canonical_pairs(self):
        z = self.z()
        assert poisson_bracket(lambda w: w.q[0], lambda w: w.p[0], z) == pytest.approx(1.0, abs=1e-12)
        assert poisson_bracket(lambda w: w.v[1], lambda w: w.pi[1], z) == pytest.approx(1.0, abs=1e-12)
        assert poisson_bracket(lambda w: w.e, lambda w: w.pi_e, z) == pytest.approx(1.0, abs=1e-12)
        assert poisson_bracket(lambda w: w.q[0], lambda w: w.p[1], z) == pytest.approx(0.0, abs=1e-12)
        assert poisson_bracket(lambda w: w.q[0], lambda w: w.pi[0], z) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry(self):
        z = self.z()
        f = lambda w: w.q[0] * w.pi[1] + w.e ** 2
        g = lambda w: w.p[0] * w.v[0] + w.pi_e * w.q[1]
        assert poisson_bracket(f, g, z) == pytest.approx(-poisson_bracket(g, f, z), abs=1e-8)

    def test_leibniz_rule(self):
        z = self.z()
        f = lambda w: w.q[0] + w.v[1] * w.e
        g = lambda w: w.p[0] * w.p[0] + w.pi_e
        h = lambda w: w.pi[0] * w.q[1] + w.v[0]
        lhs = poisson_bracket(f, lambda w: g(w) * h(w), z)
        rhs = poisson_bracket(f, g, z) * h(z) + g(z) * poisson_bracket(f, h, z)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_surface_functions_pairwise_involutive(self):
        # pi_e, p_i, pi_i all commute with each other
        z = self.z()
        fns = [lambda w: w.pi_e,
               lambda w: w.p[0], lambda w: w.p[1],
               lambda w: w.pi[0], lambda w: w.pi[1]]
        for a in fns:
            for b in fns:
                assert abs(poisson_bracket(a, b, z)) <= 1e-12


class TestSurfaceResidual:
    def test_zero_on_surface(self):
        assert constraint_surface_residual(pack(point(q=(1.0, 2.0), v=(3.0, 4.0))), 2) == 0.0

    def test_max_norm(self):
        z = point(p=(0.1, -0.3), pi=(0.2, 0.0), pi_e=0.05)
        assert constraint_surface_residual(pack(z), 2) == pytest.approx(0.3, abs=1e-15)


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
