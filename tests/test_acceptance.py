"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(with the measured numbers) straight to the terminal, then asserts.
"""

import math
import time

import numpy as np

from conftest import sleigh_run
from nonholo.action import (
    first_order_action,
    gauge_invariance_check,
    stationarity_check,
    universal_action,
)
from nonholo.hamiltonian import ExtendedPhasePoint, hamiltonian_value, poisson_bracket
from nonholo.integrate import (
    IntegratorConfig,
    integrate_hamiltonian,
    integrate_second_order,
)
from nonholo.paths import ConfigPath, bump, lift_on_shell
from nonholo.scenarios import (
    SleighParams,
    build_sleigh_spec,
    curve_deviation,
    final_position,
    initial_state,
    nonlinear_sleigh_guards,
    sleigh_circle,
    sleigh_friction_analytic,
)

PARAMS = SleighParams()  # m = I = v0 = omega = 1


def emit(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_linear_constraint_circle(capsys):
    t0 = time.perf_counter()
    spec, traj = sleigh_run("lda_linear", dt=1e-3, t_end=2 * math.pi)
    runtime = time.perf_counter() - t0
    dev = curve_deviation(traj, sleigh_circle, PARAMS)
    drift = float(np.max(np.abs(traj.constraint_values)))
    ok = dev <= 1e-8 and drift <= 1e-9 and runtime < 1.0
    emit(capsys, 1, ok, f"circle deviation {dev:.2e} (<=1e-8), "
                        f"drift {drift:.2e} (<=1e-9), runtime {runtime:.2f}s (<1s)")
    assert dev <= 1e-8
    assert drift <= 1e-9
    assert runtime < 1.0


def test_criterion_02_nonlinear_constraint_circle(capsys):
    spec, traj = sleigh_run("lda_nonlinear", dt=1e-3, t_end=0.4 * math.pi)
    dev = curve_deviation(traj, sleigh_circle, PARAMS)
    completed = traj.termination.kind == "completed"
    ok = dev <= 1e-7 and completed
    emit(capsys, 2, ok, f"circle deviation {dev:.2e} (<=1e-7), "
                        f"termination {traj.termination.kind}")
    assert completed
    assert dev <= 1e-7


def test_criterion_03_infinite_friction_limit(capsys):
    period = 2 * math.pi / PARAMS.omega
    radius = PARAMS.v0 / PARAMS.omega
    distances = []
    rel_errs = []
    for k in (10.0, 100.0, 1000.0):
        params = SleighParams(k=k)
        spec = build_sleigh_spec("friction", params)
        q0, v0 = initial_state(params)
        cfg = IntegratorConfig(method="rkf45", dt=0.01, t_end=period,
                               atol=1e-10, rtol=1e-10, dt_max=0.01)
        traj = integrate_second_order(spec, q0, v0, cfg)
        distances.append(curve_deviation(traj, sleigh_circle, params))
        # the trajectory spirals towards the limit point; estimate it by the
        # time average of the position over the period
        w = np.diff(traj.times)
        mids = 0.5 * (traj.q[:-1, :2] + traj.q[1:, :2])
        est = (w[:, None] * mids).sum(axis=0) / w.sum()
        target = np.array(final_position(params))
        rel_errs.append(float(np.linalg.norm(est - target) / np.linalg.norm(target)))
        # closed-form comparison, reported only
        printed_dev = curve_deviation(traj, sleigh_friction_analytic, params)
        with capsys.disabled():
            print(f"\n  [non-gating] k={k:g}: closed-form deviation {printed_dev:.3e}")
    monotone = distances[0] > distances[1] > distances[2]
    ok = monotone and distances[2] <= 0.05 * radius and rel_errs[2] <= 0.10
    emit(capsys, 3, ok,
         f"circle distances {['%.3e' % d for d in distances]} (monotone={monotone}), "
         f"at k=1e3: {distances[2]:.2e} (<= {0.05 * radius:.2e}), "
         f"final-position rel err {rel_errs[2]:.2e} (<=0.1)")
    assert monotone
    assert distances[2] <= 0.05 * radius
    assert rel_errs[2] <= 0.10


def test_criterion_04_hamiltonian_equivalence(capsys):
    cases = [
        ("friction", dict(variant="friction", params=SleighParams(k=10.0),
                          t_end=2 * math.pi)),
        ("lda_linear", dict(variant="lda_linear", t_end=2 * math.pi)),
        ("lda_nonlinear", dict(variant="lda_nonlinear", t_end=0.4 * math.pi)),
    ]
    results = []
    for label, kw in cases:
        spec, traj = sleigh_run(dt=2e-3, **kw)
        results.append((label, spec, traj, kw.get("params", PARAMS),
                        nonlinear_sleigh_guards()
                        if label == "lda_nonlinear" else ()))
    from nonholo.scenarios import damped_oscillator_spec
    osc = damped_oscillator_spec(omega=1.0, k=1.0)
    cfg = IntegratorConfig(method="rk4", dt=2e-3, t_end=2 * math.pi)
    osc_traj = integrate_second_order(osc, (1.0,), (0.0,), cfg)
    results.append(("damped_oscillator", osc, osc_traj, None, ()))

    worst_dev = worst_res = worst_sweep = 0.0
    for label, spec, traj, params, guards in results:
        n = spec.n
        q0, v0 = tuple(traj.q[0]), tuple(traj.v[0])
        cfg = IntegratorConfig(method="rk4", dt=2e-3,
                               t_end=float(traj.times[-1]))
        baseline = None
        for e0 in (0.5, 1.0, 2.0):
            for mu in (None, math.sin):
                z0 = ExtendedPhasePoint(q=q0, p=(0.0,) * n, v=v0,
                                        pi=(0.0,) * n, e=e0, pi_e=0.0)
                ext = integrate_hamiltonian(spec, z0, mu, cfg, guards=guards)
                dev = max(float(np.max(np.abs(ext.q - traj.q))),
                          float(np.max(np.abs(ext.v - traj.v))))
                worst_dev = max(worst_dev, dev)
                worst_res = max(worst_res, float(np.max(ext.surface_residual)))
                if baseline is None:
                    baseline = (ext.q, ext.v)
                else:
                    sweep = max(float(np.max(np.abs(ext.q - baseline[0]))),
                                float(np.max(np.abs(ext.v - baseline[1]))))
                    worst_sweep = max(worst_sweep, sweep)
    ok = worst_dev <= 1e-8 and worst_res <= 1e-9 and worst_sweep <= 1e-9
    emit(capsys, 4, ok, f"max (q,v) deviation {worst_dev:.2e} (<=1e-8), "
                        f"surface residual {worst_res:.2e} (<=1e-9), "
                        f"e0/mu_e sweep spread {worst_sweep:.2e} (<=1e-9)")
    assert worst_dev <= 1e-8
    assert worst_res <= 1e-9
    assert worst_sweep <= 1e-9


def test_criterion_05_universal_action_minimality(capsys):
    spec = build_sleigh_spec("lda_linear", PARAMS)
    q0, v0 = initial_state(PARAMS)

    def action_at(dt):
        cfg = IntegratorConfig(method="rk4", dt=dt, t_end=2 * math.pi)
        traj = integrate_second_order(spec, q0, v0, cfg)
        path = ConfigPath(times=traj.times, q=traj.q)
        return universal_action(spec, path, np.ones_like(traj.times)), traj

    s_coarse, _ = action_at(8e-3)
    s_half, _ = action_at(4e-3)
    order = math.log2(s_coarse / s_half) if s_half > 0 else math.inf
    s_fine, traj = action_at(1e-3)

    profile = bump(traj.times)
    amps = np.linspace(1e-3, 1e-1, 100)
    values = []
    for a in amps:
        q = traj.q.copy()
        q[:, 1] += a * profile
        values.append(universal_action(spec, ConfigPath(times=traj.times, q=q),
                                       np.ones_like(traj.times)))
    values = np.array(values)
    above = bool(np.all(values > s_fine))
    monotone = bool(np.all(np.diff(values) > 0))
    ok = s_fine <= 1e-8 and order >= 3 and above and monotone
    emit(capsys, 5, ok, f"S(solution, dt=1e-3) = {s_fine:.2e} (<=1e-8), "
                        f"refinement order {order:.2f} (>=3), "
                        f"100 perturbed paths larger={above}, monotone={monotone}")
    assert s_fine <= 1e-8
    assert order >= 3
    assert above and monotone


def test_criterion_06_action_stationarity(capsys):
    grads = {}
    for dt in (0.02, 0.01):
        spec, traj = sleigh_run(dt=dt, t_end=1.0)
        path = lift_on_shell(traj)
        grads[dt] = stationarity_check(spec, path).max_gradient
    order = math.log2(grads[0.02] / grads[0.01])

    spec, traj = sleigh_run(dt=0.02, t_end=1.0)
    path = lift_on_shell(traj)
    off = path.replace(q=path.q + 0.5 * np.sin(3.0 * path.times)[:, None])
    g_off = stationarity_check(spec, off).max_gradient
    ratio = g_off / grads[0.02]
    ok = order >= 2 and ratio >= 1e3
    emit(capsys, 6, ok, f"on-shell gradient {grads[0.02]:.2e} -> {grads[0.01]:.2e}, "
                        f"order {order:.2f} (>=2), off-shell ratio {ratio:.1e} (>=1e3)")
    assert order >= 2
    assert ratio >= 1e3


def test_criterion_07_gauge_invariance(capsys):
    NOISE_FLOOR = 1e-10
    firsts = {}
    for dt in (0.02, 0.01):
        spec, traj = sleigh_run(dt=dt, t_end=1.0)
        path = lift_on_shell(traj)
        profile = bump(path.times)
        off = path.replace(pi=path.pi + 0.1 * profile[:, None],
                           p=path.p + 0.1 * profile[:, None])
        rep = gauge_invariance_check(spec, off, profile, 0.05)
        firsts[dt] = abs(rep.first_order)
        assert rep.passed, f"|A| = {firsts[dt]:.2e} above C*dt^2 = {rep.threshold:.2e}"
    at_floor = max(firsts.values()) <= NOISE_FLOOR
    order = math.log2(firsts[0.02] / firsts[0.01]) if firsts[0.01] > 0 else math.inf
    order_ok = at_floor or order >= 2

    spec, traj = sleigh_run(dt=0.01, t_end=1.0)
    path = lift_on_shell(traj)
    profile = bump(path.times)
    base = first_order_action(spec, path)
    from nonholo.hamiltonian import gauge_transform
    max_delta = 0.0
    for a in (0.01, 0.05, 0.1, 0.2):
        delta = first_order_action(spec, gauge_transform(path, a * profile)) - base
        max_delta = max(max_delta, abs(delta))
    ok = order_ok and max_delta <= 1e-12
    emit(capsys, 7, ok, f"off-shell |A| = {firsts[0.02]:.2e} -> {firsts[0.01]:.2e} "
                        f"({'at noise floor' if at_floor else f'order {order:.2f}'}), "
                        f"on-shell max |dS| = {max_delta:.2e} (<=1e-12)")
    assert order_ok
    assert max_delta <= 1e-12


def test_criterion_08_vakonomic_non_equivalence(capsys):
    deviations = {}
    for c in (0.5, 1.0, 2.0):
        spec = build_sleigh_spec("vakonomic_phi", PARAMS, c=c)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=2 * math.pi)
        traj = integrate_second_order(spec, (0.0,), (PARAMS.omega,), cfg)
        deviations[c] = float(np.max(np.abs(traj.q[:, 0] - PARAMS.omega * traj.times)))
    ok = all(d >= 0.01 for d in deviations.values())
    emit(capsys, 8, ok, "max |phi - omega*t| = "
         + ", ".join(f"{d:.3f} rad (c={c:g})" for c, d in deviations.items())
         + " (each >=0.01)")
    assert ok, deviations


def test_criterion_09_derivative_correctness(capsys):
    import nonholo.engine as engine

    systems = [
        ("friction", build_sleigh_spec("friction", SleighParams(k=3.0))),
        ("lda_linear", build_sleigh_spec("lda_linear", PARAMS)),
        ("lda_nonlinear", build_sleigh_spec("lda_nonlinear", PARAMS)),
        ("vakonomic_phi", build_sleigh_spec("vakonomic_phi", PARAMS, c=1.0)),
        ("damped_oscillator", __import__("nonholo.scenarios", fromlist=["x"])
            .damped_oscillator_spec(omega=1.0, k=1.0)),
    ]
    rng = np.random.default_rng(2024)
    n_states = 10_000
    per_system = n_states // len(systems)
    checked = 0
    worst = 0.0
    fd_h = 1e-6

    def sample_state(label, spec):
        q = rng.uniform(-1.5, 1.5, spec.n)
        v = rng.uniform(0.5, 2.0, spec.n) * rng.choice([-1.0, 1.0], spec.n)
        if label == "lda_nonlinear":
            q[2] = rng.uniform(-1.0, 1.0)  # keep cos(q3) away from 0
        return list(q), list(v)

    for label, spec in systems:
        n = spec.n
        # the central differences take the compiled F, bit for bit engine.acceleration_raw
        # (tests/test_kernels.py) at a fraction of its cost
        accel = spec.kernel.accel
        for _ in range(per_system):
            q, v = sample_state(label, spec)
            _, dfdq, dfdv = engine.acceleration_jacobian_raw(spec, q, v, 0.0)
            for i in range(n):
                for arrs, jac, is_q in ((q, dfdq, True), (v, dfdv, False)):
                    hi = list(arrs); lo = list(arrs)
                    hi[i] += fd_h; lo[i] -= fd_h
                    if is_q:
                        fp, fm = accel(hi, v, 0.0), accel(lo, v, 0.0)
                    else:
                        fp, fm = accel(q, hi, 0.0), accel(q, lo, 0.0)
                    for j in range(n):
                        fd = (fp[j] - fm[j]) / (2 * fd_h)
                        err = abs(jac[j][i] - fd) / max(1.0, abs(fd))
                        worst = max(worst, err)
            checked += 1
    ok = worst <= 1e-5 and checked == per_system * len(systems)
    emit(capsys, 9, ok, f"{checked} random states across {len(systems)} systems, "
                        f"worst dual-vs-FD relative error {worst:.2e} (<=1e-5)")
    assert checked >= 10_000 - len(systems)
    assert worst <= 1e-5


def test_criterion_10_first_class_constraint_algebra(capsys):
    spec = build_sleigh_spec("lda_linear", PARAMS)
    rng = np.random.default_rng(99)
    n = spec.n
    # the row entries of pi_e, p_i and pi_i
    surface = [4 * n + 1, *range(n, 2 * n), *range(3 * n, 4 * n)]
    worst_bracket = 0.0
    worst_h = 0.0
    for _ in range(100):
        q = tuple(rng.uniform(-2, 2, n))
        p = tuple(rng.uniform(-1, 1, n))
        v = tuple(rng.uniform(0.5, 2, n))
        pi = tuple(rng.uniform(-1, 1, n))
        e = float(rng.uniform(0.5, 2))
        y = ExtendedPhasePoint(q, p, v, pi, e, float(rng.uniform(-1, 1)))
        for a in surface:
            for b in surface:
                bracket = poisson_bracket(lambda w: w[a], lambda w: w[b], y, n)
                worst_bracket = max(worst_bracket, abs(bracket))
        on_surface = ExtendedPhasePoint(q, (0.0,) * n, v, (0.0,) * n, e, 0.0)
        worst_h = max(worst_h, abs(hamiltonian_value(spec, on_surface, mu_e=0.7)))
    ok = worst_bracket <= 1e-12 and worst_h <= 1e-12
    emit(capsys, 10, ok, f"max pairwise bracket {worst_bracket:.2e} (<=1e-12), "
                         f"max |H| on surface {worst_h:.2e} (<=1e-12) at 100 points")
    assert worst_bracket <= 1e-12
    assert worst_h <= 1e-12
