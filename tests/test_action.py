"""Action functionals: values, positivity, stationarity, gauge invariance."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from conftest import potential_t_system, sleigh_run, wheel_state, wheel_system
from nonholo import action, hamiltonian
from nonholo.action import (
    first_order_action,
    gauge_invariance_check,
    stationarity_check,
    universal_action,
)
from nonholo.engine import make_system
from nonholo.errors import ExprDomainError, VanishingVelocity
from nonholo.integrate import IntegratorConfig, integrate_second_order
from nonholo.paths import (
    ConfigPath, PhasePath, bump, diff1, diff1_adjoint, diff1_at, lift_on_shell,
)
from nonholo.scenarios import SleighParams, build_sleigh_spec, initial_state


FORCE_SETS = {"mild": ("-q1*v2", "sin(q1) - v1"),
              "dF_dominated": ("-50*q1*v2", "50*sin(q1) - v1"),
              "F_dominated": ("40 - q1*v2", "40 + sin(q1) - v1")}
CONSTRAINED_SYSTEMS = {"lda_nonlinear": lambda: build_sleigh_spec("lda_nonlinear", SleighParams()),
                       "wheel": wheel_system,
                       "potential_t": potential_t_system}
_BLOCKS = ("q", "p", "v", "pi", "e", "pi_e", "mu_e")


def constant_phase_path(n=1, T=1.0, dt=0.01, **vals):
    times = np.arange(int(round(T / dt)) + 1) * dt
    N = len(times)
    fill = lambda key, default: np.full((N, n), vals.get(key, default))
    sfill = lambda key, default: np.full(N, vals.get(key, default))
    return PhasePath(times=times, q=fill("q", 0.0), p=fill("p", 0.0),
                     v=fill("v", 0.0), pi=fill("pi", 0.0), e=sfill("e", 1.0),
                     pi_e=sfill("pi_e", 0.0), mu_e=sfill("mu_e", 0.0))


def smooth_phase_path(rng, N, n, dt):
    """p = pi_e = mu_e = 0; q and v smooth, v1 and cos(q3) away from 0; pi a bump."""
    times = np.arange(N) * dt

    def smooth(lo, hi):
        base, freq, phase = rng.uniform(lo, hi, n), rng.uniform(0.5, 2.0, n), rng.uniform(0, 6, n)
        return base + 0.3 * np.sin(np.outer(times, freq) + phase)
    return PhasePath(times=times, q=smooth(-0.7, 0.7), p=np.zeros((N, n)), v=smooth(0.7, 1.3),
                     pi=3.0 * bump(times)[:, None] * rng.normal(size=n),
                     e=5.0 + 0.5 * np.sin(times), pi_e=np.zeros(N), mu_e=np.zeros(N))


def central_differences(spec, path, eps):
    """Signed central differences of first_order_action over every interior coordinate,
    (N - 2, 4n + 3) in (sample, block, component) order, and the block of each column."""
    N = len(path.times)
    rows = []
    for j in range(1, N - 1):
        row = []
        for block in _BLOCKS:
            base = getattr(path, block)
            for i in range(base[j].size):
                sides = []
                for x in (eps, -eps):
                    arr = base.copy()
                    arr.reshape(N, -1)[j, i] += x
                    sides.append(first_order_action(spec, path.replace(**{block: arr})))
                row.append((sides[0] - sides[1]) / (2.0 * eps))
        rows.append(row)
    columns = [block for block in _BLOCKS for _ in range(getattr(path, block)[0].size)]
    return np.array(rows), columns


class TestUniversalAction:
    def test_parabola_free_particle(self):
        # q = t^2, F = 0: integrand (1/2)*qdd^2 = 2 exactly (the stencils are
        # exact on quadratics), so the quadrature gives 2*T
        spec = make_system(1, (1.0,))
        times = np.linspace(0.0, 1.0, 101)
        path = ConfigPath(times=times, q=(times ** 2)[:, None])
        s = universal_action(spec, path, np.ones_like(times))
        assert s == pytest.approx(2.0, abs=1e-12)

    def test_linear_in_e_profile(self):
        spec = make_system(1, (1.0,))
        times = np.linspace(0.0, 1.0, 101)
        path = ConfigPath(times=times, q=np.sin(times)[:, None])
        e1 = np.ones_like(times)
        s1 = universal_action(spec, path, e1)
        s2 = universal_action(spec, path, 2.0 * e1)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-14)

    def test_nonnegative_and_zero_only_on_solutions(self):
        spec = make_system(1, (1.0,), potential="q1^2/2")  # qdd = -q
        times = np.linspace(0.0, 2.0, 401)
        sol = ConfigPath(times=times, q=np.cos(times)[:, None])
        off = ConfigPath(times=times, q=np.cos(1.3 * times)[:, None])
        e = np.ones_like(times)
        s_sol = universal_action(spec, sol, e)
        s_off = universal_action(spec, off, e)
        assert 0.0 <= s_sol <= 1e-6
        assert s_off > 1e-2

    def test_converges_to_zero_on_solution_with_refinement(self):
        spec = make_system(1, (1.0,), potential="q1^2/2")
        vals = []
        for N in (51, 101, 201):
            times = np.linspace(0.0, 1.0, N)
            path = ConfigPath(times=times, q=np.cos(times)[:, None])
            vals.append(universal_action(spec, path, np.ones_like(times)))
        assert vals[0] > vals[1] > vals[2] >= 0.0

    def test_rejects_nonpositive_e(self):
        spec = make_system(1, (1.0,))
        times = np.linspace(0.0, 1.0, 11)
        path = ConfigPath(times=times, q=times[:, None])
        with pytest.raises(ValueError):
            universal_action(spec, path, np.zeros_like(times))


class TestFirstOrderAction:
    def test_constant_path_value(self):
        # all time derivatives vanish, leaving
        # -integral (pi^2/2e + pi.F + v.p + mu_e*pi_e) dt with F = 0
        spec = make_system(1, (1.0,))
        path = constant_phase_path(pi=2.0, e=1.0, v=3.0, p=1.0,
                                   mu_e=1.5, pi_e=1.0)
        s = first_order_action(spec, path)
        assert s == pytest.approx(-(2.0 + 3.0 + 1.5), abs=1e-12)

    def test_on_shell_path_time_independent_of_e(self):
        # with p = pi = pi_e = 0 every term with a momentum factor drops
        spec, traj = sleigh_run(dt=0.01, t_end=0.5)
        s1 = first_order_action(spec, lift_on_shell(traj, e0=1.0))
        s2 = first_order_action(spec, lift_on_shell(traj, e0=2.0))
        assert s1 == pytest.approx(0.0, abs=1e-12)
        assert s2 == pytest.approx(0.0, abs=1e-12)


class TestStationarity:
    def test_solution_path_is_stationary(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        rep = stationarity_check(spec, path)
        assert rep.passed
        assert rep.max_gradient <= rep.threshold

    def test_generic_path_is_not_stationary(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        skew = path.replace(q=path.q + 0.5 * np.sin(3.0 * path.times)[:, None])
        rep = stationarity_check(spec, skew)
        assert not rep.passed
        on = stationarity_check(spec, path)
        assert rep.max_gradient >= 100.0 * max(on.max_gradient, 1e-12)

    def test_gradient_shrinks_with_dt(self):
        reports = []
        for dt in (0.02, 0.01):
            spec, traj = sleigh_run(dt=dt, t_end=0.5)
            rep = stationarity_check(spec, lift_on_shell(traj))
            reports.append(rep)
        assert reports[1].max_gradient < reports[0].max_gradient


class TestSampleSpans:
    @pytest.mark.parametrize("N", [4, 5, 9])
    def test_diff1_adjoint_is_the_transpose(self, N):
        dt = 0.1
        dense = diff1(np.eye(N), dt).T
        rng = np.random.default_rng(N)
        for x in (rng.normal(size=N), rng.normal(size=(N, 3))):
            want = dense @ x
            assert np.allclose(diff1_adjoint(x, dt), want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))

    def test_diff1_at_is_diff1_on_every_slice(self):
        y = np.random.default_rng(0).normal(size=(6, 2))
        for arr in (y, y[:, 0]):
            full = diff1(arr, 0.1)
            for a in range(6):
                for b in range(a + 1, 7):
                    assert np.array_equal(diff1_at(arr, slice(a, b), 0.1), full[a:b])

    @pytest.mark.parametrize("system, N", [
        pytest.param("mild", 9, id="mild"),
        pytest.param("dF_dominated", 9, id="dF_dominated"),
        pytest.param("F_dominated", 9, id="F_dominated"),
        *(pytest.param(name, 23, id=f"{name}-N23") for name in FORCE_SETS),
        *(pytest.param(name, N, id=f"{name}-N{N}") for name, N in (
            ("lda_nonlinear", 9), ("lda_nonlinear", 23), ("wheel", 9),
            ("potential_t", 9), ("potential_t", 23))),
    ])
    def test_stationarity_matches_brute_force_differences(self, system, N):
        # differences of the whole action over every interior coordinate.  Explicit
        # forces, on random paths: the largest entry is a p entry (mild), a q or v
        # entry through dF (dF_dominated) or a pi entry through F itself (F_dominated);
        # plain central differences match to 1e-9.  Constraints, on smooth paths with
        # p = 0: the largest entry is a v entry of which dF through the multiplier
        # solve makes 2-15 %, or a q entry that is all dF; plain central differences
        # carry O(eps^2) truncation there (up to 3e-6 relative at eps = 1e-3), the
        # Richardson-extrapolated ones match to 1e-10 (at most 4e-12 seen)
        rng = np.random.default_rng(3)
        eps = 1e-4
        if system in FORCE_SETS:
            n = 2
            spec = make_system(n, (1.0, 2.0), forces=FORCE_SETS[system])
            path = PhasePath(times=np.arange(N) * 0.1, q=rng.normal(size=(N, n)),
                             p=rng.normal(size=(N, n)), v=rng.normal(size=(N, n)),
                             pi=rng.normal(size=(N, n)), e=1.0 + rng.random(N),
                             pi_e=rng.normal(size=N), mu_e=rng.normal(size=N))
            grad, columns = central_differences(spec, path, eps)
            rel = 1e-9
        else:
            spec = CONSTRAINED_SYSTEMS[system]()
            path = smooth_phase_path(rng, N, spec.n, dt=0.2)
            cd_eps, columns = central_differences(spec, path, 1e-3)
            cd_half, _ = central_differences(spec, path, 0.5e-3)
            grad = (4.0 * cd_half - cd_eps) / 3.0
            rel = 1e-10
        # first maximum in (sample, block, component) order, as the check reports it
        k = int(np.argmax(np.abs(grad)))
        rep = stationarity_check(spec, path)
        assert rep.max_gradient == pytest.approx(abs(grad.flat[k]), rel=rel)
        assert (rep.worst_block, rep.worst_sample) == (columns[k % len(columns)],
                                                       1 + k // len(columns))

    @pytest.mark.parametrize("N", [5, 9, 23])
    def test_one_flow_call_per_sample(self, monkeypatch, N):
        # the gradient is one pass over the flow of H, no action integrand; the flow
        # takes the force Jacobians (spec.kernel.jac) only where pi != 0
        calls = {"field": 0, "jacobian": 0, "integrand": 0}

        def counting(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        def counted(module, name, key):
            monkeypatch.setattr(module, name, counting(getattr(module, name), key))
        counted(hamiltonian, "hamiltonian_vector_field", "field")
        counted(action, "_integrand_at", "integrand")
        n = 2
        spec = make_system(n, (1.0, 2.0), forces=FORCE_SETS["mild"])
        spec.kernel.jac = counting(spec.kernel.jac, "jacobian")
        path = constant_phase_path(n=n, T=(N - 1) * 0.1, dt=0.1)
        stationarity_check(spec, path)
        assert calls == {"field": N, "jacobian": 0, "integrand": 0}
        stationarity_check(spec, path.replace(pi=np.ones_like(path.pi)))
        assert calls == {"field": 2 * N, "jacobian": N, "integrand": 0}

    def test_zero_pi_path_needs_no_force_jacobian(self):
        # dF/dq does not exist at q1 = 0, but with pi = 0 the flow never asks for it
        spec = make_system(1, (1.0,), forces=("sqrt(abs(q1))",))
        path = constant_phase_path(n=1, T=1.0, dt=0.1, v=1.0, e=1.0)
        rep = stationarity_check(spec, path.replace(q=(path.times - 0.5)[:, None]))
        # |dS/dpi| = w*|Dv - F| = 0.1*sqrt(|q1|), first largest at |q1| = 0.4
        assert (rep.worst_block, rep.worst_sample) == ("pi", 1)
        assert rep.max_gradient == pytest.approx(0.1 * math.sqrt(0.4), rel=1e-15)

    def test_nan_entry_fails_the_check(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        p = path.p.copy()
        p[40, 0] = np.nan
        rep = stationarity_check(spec, path.replace(p=p))
        assert rep.passed is False
        assert math.isnan(rep.max_gradient)


class TestGaugeInvariance:
    def test_zero_alpha_gives_zero_delta(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        rep = gauge_invariance_check(spec, path, np.zeros_like(path.times), 0.1)
        assert rep.deltas == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
        assert rep.passed

    def test_on_shell_delta_is_numerically_zero(self, linear_sleigh_path):
        # on the momentum-zero surface the transformation shifts only e and
        # mu_e, whose coefficients in the integrand vanish there
        spec, path = linear_sleigh_path
        rep = gauge_invariance_check(spec, path, bump(path.times), 0.2)
        assert max(abs(d) for d in rep.deltas) <= 1e-12
        assert rep.passed
        assert rep.boundary_note == ""

    def test_off_shell_first_order_term_within_floor(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        off = path.replace(pi=path.pi + 0.1 * bump(path.times)[:, None])
        rep = gauge_invariance_check(spec, off, bump(path.times), 0.1)
        assert rep.passed
        assert abs(rep.first_order) <= rep.threshold

    def test_boundary_note_when_alpha_nonzero_at_ends(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        rep = gauge_invariance_check(spec, path, np.ones_like(path.times), 0.1)
        assert "endpoint" in rep.boundary_note

    def test_forces_evaluated_once(self, monkeypatch, linear_sleigh_path):
        # the transformation leaves q, v and the grid alone: one F pass serves all
        # four actions
        spec, path = linear_sleigh_path
        forces = action._forces
        calls = []

        def counted(*args):
            calls.append(1)
            return forces(*args)
        monkeypatch.setattr(action, "_forces", counted)
        off = path.replace(pi=path.pi + 0.1 * bump(path.times)[:, None])
        gauge_invariance_check(spec, off, bump(path.times), 0.1)
        assert len(calls) == 1

    @pytest.mark.parametrize("system", ["friction", "lda_linear", "wheel"])
    def test_deltas_are_the_transformed_actions_bit_for_bit(self, system):
        # m = 0, 1 and 2 on a path off the surface (p, pi, pi_e and mu_e nonzero, e not
        # constant): the array evaluation gives first_order_action on gauge_transform's
        # path, to the bit
        if system == "wheel":
            spec, (q0, v0) = wheel_system(), wheel_state(0.4, 1.1, 0.7)
        else:
            params = SleighParams(k=20.0)
            spec, (q0, v0) = build_sleigh_spec(system, params), initial_state(params)
        traj = integrate_second_order(spec, q0, v0,
                                      IntegratorConfig(method="rk4", dt=0.01, t_end=0.3))
        path = lift_on_shell(traj, 1.5)
        times, n = path.times, path.n
        profile = bump(times)
        ramp = profile[:, None] * np.linspace(0.5, 1.5, n)
        off = path.replace(p=path.p + 0.03 * ramp, pi=path.pi - 0.05 * ramp,
                           e=path.e + 0.2 * np.sin(times), pi_e=0.04 * np.cos(times),
                           mu_e=np.sin(3.0 * times))
        rep = gauge_invariance_check(spec, off, profile, 0.02)
        base = first_order_action(spec, off)
        expected = [first_order_action(spec, hamiltonian.gauge_transform(off, a * profile))
                    - base for a in rep.amplitudes]
        assert rep.amplitudes == [0.02, 0.01, 0.005]
        assert [d.hex() for d in rep.deltas] == [d.hex() for d in expected]
        assert all(d != 0.0 for d in rep.deltas)

    def test_vanishing_velocity_raises_as_the_transform_does(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        v = path.v.copy()
        v[10] = 0.0
        stopped = path.replace(v=v)
        message = "^velocity norm below floor along the path$"
        with pytest.raises(VanishingVelocity, match=message):
            hamiltonian.gauge_transform(stopped, bump(path.times))
        with pytest.raises(VanishingVelocity, match=message):
            gauge_invariance_check(spec, stopped, bump(path.times), 0.1)

    def test_zero_e_raises_on_the_path_and_on_a_transformed_path(self, linear_sleigh_path):
        message = "^auxiliary variable e is zero along the path$"
        spec, path = linear_sleigh_path
        e = path.e.copy()
        e[3] = 0.0
        with pytest.raises(ExprDomainError, match=message):
            gauge_invariance_check(spec, path.replace(e=e), bump(path.times), 0.1)
        # q constant and v = 1: the shift of e is a*alpha itself, which cancels e at k
        free = make_system(1, (1.0,))
        still = constant_phase_path(v=1.0)
        alpha, k, a = bump(still.times), 40, 0.1
        e = still.e.copy()
        e[k] = -(a * alpha[k])
        still = still.replace(e=e)
        with pytest.raises(ExprDomainError, match=message):
            first_order_action(free, hamiltonian.gauge_transform(still, a * alpha))
        with pytest.raises(ExprDomainError, match=message):
            gauge_invariance_check(free, still, alpha, a)

    def test_report_serializes(self, linear_sleigh_path):
        spec, path = linear_sleigh_path
        rep = gauge_invariance_check(spec, path, bump(path.times), 0.1)
        data = json.loads(json.dumps(asdict(rep)))
        assert set(data) >= {"dt", "amplitudes", "deltas", "first_order",
                             "second_order", "threshold", "passed"}
