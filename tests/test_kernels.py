"""Compiled per-system kernels: bit for bit the generic engine, built once per
spec (``jac``, the steps and the flow apart, on first use), shared across
parameter variants, and gone with their spec."""

import gc
import math
import random
import struct
import sys
import weakref
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WHEEL_CONSTRAINTS, potential_t_system, wheel_state, wheel_system
from nonholo import (IntegratorConfig, dual, engine, hamiltonian, integrate,
                     integrate_second_order, kernels)
from nonholo.engine import ConstraintSet, SystemSpec
from nonholo.errors import ExprDomainError, NonholoError, RegularityError
from nonholo.expr import Binary, Const, Expr, Unary, Var, parse_expression, partial_exprs
from nonholo.scenarios import SleighParams, build_sleigh_spec, initial_state
from test_expr import _trees


def _in_dim(node, n: int, kinds=("q", "v")):
    """The tree with each q_i and v_i mapped into 1..n; a v_i becomes q_i unless
    "v" is in kinds."""
    if isinstance(node, Var):
        if node.kind == "t":
            return node
        return Var(node.kind if node.kind in kinds else "q", (node.index - 1) % n + 1)
    if isinstance(node, Unary):
        return Unary(node.op, _in_dim(node.arg, n, kinds))
    if isinstance(node, Binary):
        return Binary(node.op, _in_dim(node.lhs, n, kinds), _in_dim(node.rhs, n, kinds))
    return node


_FORCE_TREES, _TREES, _COEFFICIENTS = _trees(3), _trees(2), _trees(1)


@st.composite
def _constraint(draw, n: int):
    """D = c(q, t) + sum_i a_i(q, t)*v_i, linear in v, or the nonlinear
    D = v_i*v_j - c(q, v, t) + sum_i a_i(q, t)*v_i; every v_i enters the Gram sums."""
    if draw(st.booleans()):
        root = _in_dim(draw(_TREES), n, kinds=())
    else:
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        root = Binary("-", Binary("*", Var("v", i), Var("v", j)), _in_dim(draw(_TREES), n))
    for i in range(1, n + 1):
        coef = _in_dim(draw(_COEFFICIENTS), n, kinds=())
        root = Binary("+", root, Binary("*", coef, Var("v", i)))
    return root


@st.composite
def _systems(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    mass = tuple(draw(st.floats(0.5, 2.0)) for _ in range(n))
    forces = None
    if draw(st.booleans()):
        forces = tuple(Expr(_in_dim(draw(_FORCE_TREES), n), n) for _ in range(n))
    cons = tuple(Expr(draw(_constraint(n)), n) for _ in range(draw(st.integers(0, 2))))
    eps_reg = draw(st.sampled_from([1e-10, 0.05]))
    return SystemSpec(n, mass, forces, ConstraintSet(cons, eps_reg))


_coordinate = st.floats(-2.0, 2.0)


def _bits(x):
    """Exact identity of a nested result: float bits (signed zeros apart) and types,
    list structure.  Every NaN counts as one value: CPython itself gives ``nan * -nan``
    either sign, depending on whether the multiply has been specialised yet."""
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(_bits(y) for y in x)
    return type(x).__name__, "nan" if x != x else struct.pack("<d", x)


def _outcome(fn, *args):
    try:
        return "returned", _bits(fn(*args))
    except Exception as exc:  # the kernel must raise what the generic path raises
        return type(exc), str(exc)


def _generic_diag(spec, q, v, t):
    d = engine.constraint_values(spec, q, v, t)
    h, _, _, min_eig = engine.multipliers_raw(spec, q, v, t)
    return d, h, min_eig


def _filled_diag(spec, q, v, t):
    """``diag`` without its F, a deferred eigenvalue filled in by the stacked call as a
    run fills it; the Gram matrix stands in only where its eigenvalue clears the run's
    guard floor 10 eps_reg."""
    d, h, min_eig, _ = spec.kernel.diag(q, v, t)
    if isinstance(min_eig, list):
        min_eig = float(engine._gram_min_eigs([min_eig])[0])
        assert min_eig > 10.0 * spec.constraints.eps_reg
    return d, h, min_eig


def _assert_kernel_matches(spec, states):
    accel, diag, jac = spec.kernel.accel, spec.kernel.diag, spec.kernel.jac
    for q, v, t in states:
        f = _outcome(accel, q, v, t)
        assert f == _outcome(engine.acceleration_raw, spec, q, v, t)
        assert _outcome(_filled_diag, spec, q, v, t) == _outcome(_generic_diag, spec, q, v, t)
        # diag's F is accel's where diag returns, so diag raises wherever accel does
        f_diag = _outcome(lambda: diag(q, v, t)[3])
        if f_diag[0] == "returned":
            assert f_diag == f
        assert (_outcome(jac, q, v, t)
                == _outcome(engine.acceleration_jacobian_raw, spec, q, v, t))


class TestMatchesGeneric:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(data=st.data(), spec=_systems())
    def test_generated_systems(self, data, spec):
        states = [(data.draw(st.lists(_coordinate, min_size=spec.n, max_size=spec.n)),
                   data.draw(st.lists(_coordinate, min_size=spec.n, max_size=spec.n)),
                   data.draw(_coordinate))
                  for _ in range(3)]
        _assert_kernel_matches(spec, states)

    def test_named_systems_along_the_way(self):
        # the sleigh variants, the m = 2 wheel, a t-dependent constraint and a tan/abs/^
        # system, including the nonlinear chart's singular yd1 = 0, a degenerate wheel
        # Gram matrix, and random states where every rounding shows
        specs = [build_sleigh_spec(variant, SleighParams(k=30.0)) for variant in
                 ("friction", "lda_linear", "lda_nonlinear", "vakonomic_phi")]
        specs += [wheel_system(), potential_t_system(),
                  engine.make_system(2, (1.0, 1.0), constraints=("v1", "2*v1")),
                  engine.make_system(2, (1.0, 1.5), forces=("tan(q1)*abs(v2)", "q2^3 - v1^-2"),
                                     constraints=("abs(v1)*v2 + tan(q2)*v1^2 - q1^0.5",))]
        rng = random.Random(5)
        for spec in specs:
            n = spec.n
            q0, v0 = wheel_state(0.4, 1.1, 0.7)
            states = [((0.1,) * n, (0.0,) * n, 0.0), (q0[:n], v0[:n], 0.3),
                      ((-0.0,) * n, (float("inf"),) * n, 1.0),
                      ((0.5,) * n, (float("nan"),) * n, 2.0)]
            states += [([rng.uniform(-2.0, 2.0) for _ in range(n)],
                        [rng.uniform(-2.0, 2.0) for _ in range(n)], rng.uniform(0.0, 2.0))
                       for _ in range(20)]
            _assert_kernel_matches(spec, states)

    def test_first_error_follows_the_partial_order(self):
        # at q = (-1, -1) the v2 partial log(q2) raises a log error and the q1 and v1
        # partials a sqrt error: the partial that partial_exprs puts first decides
        seen = set()
        for log_first in (True, False):
            spec = engine.make_system(2, (1.0, 1.0), constraints=("sqrt(q1)*v1 + log(q2)*v2",))
            (con,) = spec.constraints.exprs
            con._partials = tuple(sorted(partial_exprs(con), reverse=log_first,
                                         key=lambda p: p[:2] == ("v", 2)))
            state = ((-1.0, -1.0), (0.5, 0.5), 0.0)
            _assert_kernel_matches(spec, [state])
            seen.add(_outcome(spec.kernel.accel, *state))
        assert len(seen) == 2

    @pytest.mark.parametrize("force", ["v2^-1.0", "v2^-0.5"])
    def test_overflowing_derivative_is_a_domain_error(self, force):
        # F is finite at v2 = 4.96e-300, its v2 partial is not: v2^2 underflows to 0 in
        # the integer power, exp(-1.5 log(v2)) overflows in the real one
        spec = engine.make_system(2, (1.0, 1.0), forces=("q1", force))
        q, v = (0.1, 0.2), (0.3, 4.96e-300)
        assert math.isfinite(spec.kernel.accel(q, v, 0.0)[1])
        for jacobian in (partial(engine.acceleration_jacobian_raw, spec), spec.kernel.jac):
            with pytest.raises(ExprDomainError):
                jacobian(q, v, 0.0)


_INF, _NAN = math.inf, math.nan
_POLE = math.pi / 2
# q1 on both sides of tan's pole test |cos(q1)| < 1e-12, on both sides of the pole
_NEAR_POLE = [_POLE + side * (1e-12 + k * 2e-17) for side in (-1.0, 1.0) for k in range(-4, 5)]


def _power(exponent):
    return Binary("^", Var("q", 1), Const(exponent))


# (tree of q1 and q2, the (q1, q2) states, the messages some state must raise)
_OPERATOR_CASES = {
    "sin": ("sin(q1)", [(_INF, 0.3), (-_INF, 0.3), (_NAN, 0.3), (-0.0, 0.3), (1e300, 0.3)],
            {"sin of an infinite value"}),
    "cos": ("cos(q1)", [(_INF, 0.3), (-_INF, 0.3), (_NAN, 0.3), (-0.0, 0.3), (1e300, 0.3)],
            {"cos of an infinite value"}),
    "sin and cos of two arguments": ("sin(q1)*cos(q2)", [(0.3, _INF), (_INF, 0.3), (_NAN, -_INF)],
                                     {"sin of an infinite value", "cos of an infinite value"}),
    "tan": ("tan(q1)", [(x, 0.3) for x in [_POLE, -_POLE, _INF, _NAN, -0.0, *_NEAR_POLE]],
            {"tan evaluated at a pole", "cos of an infinite value"}),
    "division": ("q2/q1", [(x, y) for x in (0.0, -0.0, _NAN, _INF, 1e-200, 1e-310)
                           for y in (0.3, _NAN, 0.0)], {"division by zero"}),
    "log": ("log(q1)", [(x, 0.3) for x in (0.0, -0.0, -1.0, _NAN, _INF, 5e-324, 2.0)],
            {"log of non-positive value"}),
    "sqrt": ("sqrt(q1)", [(x, 0.3) for x in (0.0, -0.0, -1.0, _NAN, _INF, 5e-324, 2.0)],
             {"sqrt of negative value", "division by zero"}),
    "exp": ("exp(q1)", [(x, 0.3) for x in (709.0, 709.78, 709.79, 710.0, 1e300, _INF, -_INF,
                                           _NAN)],
            {"exp overflows the float range"}),
    "abs and sgn": ("abs(q1)*q2", [(x, 0.3) for x in (-0.0, 0.0, _NAN, -_INF, -2.0)], set()),
    "real power": ("q1^0.5 + q1^2.5", [(x, 0.3) for x in (0.0, -0.0, -1.0, 4.0, _NAN, _INF,
                                                          1e-300)],
                   {"non-integer power of a non-positive base", "exp overflows the float range"}),
    "non-constant power": ("q1^q2", [(2.0, 3.0), (-2.0, 3.0), (-2.0, -3.0), (-2.0, 0.5), (0.0, 0.0),
                                     (0.0, -1.0), (0.0, 0.5), (2.0, _NAN), (2.0, _INF),
                                     (1e-200, -2.0), (1.5, 1e20)],
                           {"non-integer power of a non-positive base",
                            "zero raised to a negative power",
                            "negative power overflows: the positive power underflows to zero"}),
    "negated literal power": ("q1^-3 + q1^-(2)", [(x, 0.3) for x in (0.0, -0.0, 1e-200, -2.0)],
                              {"zero raised to a negative power",
                               "negative power overflows: the positive power underflows to "
                               "zero"}),
}
_BASES = (0.0, -0.0, 1.5, -1.5, 1e-200, 1e200, _NAN, _INF, -_INF, 1.0000001, -1.0)
for _exponent in (0, -0.0, 1, -1, 2, -2, 3, -3, 2 ** 40, -2 ** 40, 2 ** 70, 1e300):
    _OPERATOR_CASES[f"^{_exponent!r}"] = (
        _power(float(_exponent)), [(x, 0.3) for x in _BASES],
        {"zero raised to a negative power",
         "negative power overflows: the positive power underflows to zero"}
        if _exponent < 0 else set())


class TestFloatOperators:
    """Each operator the kernels emit inline or through a float-only helper, at its edge
    and error states: the generic path's floats and errors."""

    @pytest.mark.parametrize("case", list(_OPERATOR_CASES))
    def test_edges_and_errors(self, case):
        tree, values, raised = _OPERATOR_CASES[case]
        # the tree as a force and inside a constraint, whose partials enter every function
        node = tree if isinstance(tree, Binary) else parse_expression(tree, 2).root
        spec = SystemSpec(2, (1.0, 1.5), (Expr(node, 2), Expr(Const(0.0), 2)),
                          ConstraintSet((Expr(Binary("-", Var("v", 2), node), 2),)))
        states = [((x, y), (0.5, 0.2), 0.0) for x, y in values]
        _assert_kernel_matches(spec, states)
        seen = {str(exc) for kind, exc in (_outcome(fn, *state) for state in states
                                           for fn in (spec.kernel.accel, spec.kernel.jac))
                if kind is ExprDomainError}
        assert raised <= seen

    def test_tan_states_straddle_the_pole_test(self):
        for side in (-1.0, 1.0):
            cosines = [abs(math.cos(x)) for x in _NEAR_POLE if (x - _POLE) * side > 0]
            assert min(cosines) < 1e-12 <= max(cosines)

    def test_no_dual_function_in_the_namespace(self):
        spec = build_sleigh_spec("lda_nonlinear", SleighParams())
        kernel = spec.kernel
        for fn in (kernel.accel, kernel.diag, kernel.jac, kernel.rk4_step, kernel.rkf45_step,
                   kernel.flow, kernel.extended_step("rk4", _mu)):
            assert fn.__globals__.keys() >= {"_sin", "_cos", "_exp", "_pow"}
            for value in fn.__globals__.values():
                assert getattr(value, "__module__", None) != dual.__name__


def _m3_system(eps_reg):
    """n = 4, a constraint nonlinear in v ahead of the two wheel constraints.  At q3 = 0
    the Gram matrix is [[v1^2 + v2^2 + q4^2, -v2, -v1], [-v2, 1, 0], [-v1, 0, 2]], so the
    state picks each pivot row of the 3x3 elimination."""
    return engine.make_system(4, (1.0,) * 4, constraints=("v1^2/2 + v2^2/2 + q4*v3",
                                                          *WHEEL_CONSTRAINTS), eps_reg=eps_reg)


def _m3_state(v1, v2, q4, q3=0.0):
    return (0.0, 0.0, q3, q4), (v1, v2, 0.0, 0.0), 0.0


def _lines_run(fn, q, v, t):
    """Line numbers of fn's generated source that one call runs."""
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code is not fn.__code__:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer
    sys.settrace(tracer)
    try:
        _outcome(fn, q, v, t)
    finally:
        sys.settrace(None)
    return ran


@lru_cache
def _unrolled_solve(m: int):
    """The unrolled elimination as a function of the Gram entries g_ab (a <= b) and b_a."""
    args = [f"g{a}_{b}" for a in range(m) for b in range(a, m)] + [f"b{a}" for a in range(m)]
    source = (f"def solve({', '.join(args)}):\n"
              + "".join(f"    {line}\n" for line in kernels._eliminate(m))
              + f"    return [{', '.join(f'h{a}' for a in range(m))}]\n")
    namespace = {"abs": abs, "RegularityError": RegularityError, "__builtins__": {}}
    exec(source, namespace)
    return namespace["solve"]


_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e-300,
                                      math.inf, -math.inf, math.nan]),
                     st.floats(-4.0, 4.0))


class TestGramSolve:
    """The m >= 2 prefix: the certified skip of eigvalsh and the unrolled elimination."""

    def test_every_branch_of_the_m3_prefix(self):
        # one spec per floor; all three share one compiled source, so line numbers agree
        specs = {eps: _m3_system(eps) for eps in (1e-10, 0.05, 5e-324)}
        states = {
            1e-10: [_m3_state(0.1, 0.1, 1.0),  # diagonally dominant: no eigvalsh
                    _m3_state(0.1, 0.5, 0.1),  # |g10| > |g00|: rows 0 and 1 swap
                    _m3_state(0.5, 0.1, 0.1),  # |g20| > |g00|, |g10|: rows 0 and 2 swap
                    _m3_state(0.3, 0.9, 0.1),  # rows 1 and 2 swap at the second column
                    _m3_state(0.0, 0.0, 0.0),  # certificate fails and eigvalsh raises
                    _m3_state(0.2, -0.3, 1e75, 0.4),  # g00 near 1e150: LAPACK rescales
                    _m3_state(1e-76, 1e-76, 1e-76, 0.4),
                    _m3_state(0.0, 0.0, math.inf), _m3_state(0.0, 0.0, 0.0, math.nan),
                    _m3_state(math.nan, 0.1, 0.1), _m3_state(0.1, -math.inf, 0.1),
                    _m3_state(0.1, 0.1, 0.1, math.inf)],  # sin(q3) raises
            # an exactly singular matrix whose computed eigenvalues clear the floor: the
            # zero pivot of the second column raises
            5e-324: [_m3_state(0.0, 3.0, 0.0)],
            0.05: self._near_floor(0.05, specs[5e-324]),
        }
        accel = specs[1e-10].kernel.accel
        assert all(spec.kernel.accel.__code__ is accel.__code__ for spec in specs.values())
        ran = {}
        for eps, spec_states in states.items():
            _assert_kernel_matches(specs[eps], spec_states)
            for state in spec_states:
                ran[eps, state] = _lines_run(specs[eps].kernel.accel, *state)

        lines = kernels._source(specs[0.05], {"accel": kernels._accel,
                                              "diag": kernels._diag})[0].splitlines()
        body = range(lines.index("    def accel(q, v, t):") + 2,
                     lines.index("    def diag(q, v, t):"))
        fallback = next(i + 1 for i in body if "_gram_min_eig" in lines[i])
        missed = [lines[i].strip() for i in body if i + 1 not in set().union(*ran.values())]
        # the zero pivots of the first and last columns need an exactly singular matrix
        # whose computed smallest eigenvalue is positive; test_elimination reaches them
        assert missed == ['raise RegularityError("singular constraint Gram matrix")'] * 2
        assert fallback not in ran[1e-10, states[1e-10][0]]
        assert fallback in ran[1e-10, states[1e-10][1]]

    @staticmethod
    def _near_floor(eps, unguarded):
        """States whose smallest Gram eigenvalue, as the spec unguarded (floor 5e-324)
        computes it, lies within 1e-13 relative of eps, on both sides: a diagonal Gram
        matrix and a full one (q4 by bisection)."""
        def min_eig(state):
            return engine.multipliers_raw(unguarded, *state)[3]
        states = [_m3_state(0.0, 0.0, math.sqrt(eps * (1.0 + k * 1e-14))) for k in range(-5, 6)]
        lo, hi = 0.0, 1.0  # min_eig(q4 = 0) < eps < min_eig(q4 = 1)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if min_eig(_m3_state(0.2, 0.3, mid, 0.4)) < eps else (lo, mid)
        states += [_m3_state(0.2, 0.3, hi * (1.0 + k * 1e-15), 0.4) for k in range(-10, 11)]
        near = [min_eig(state) for state in states]
        assert all(abs(x - eps) <= 1e-13 * eps for x in near)
        assert min(near) < eps <= max(near)
        return states

    def test_gram_entries_near_the_float_limits(self, monkeypatch):
        # G = [[q1^2 + q2^2, 2 q1 q2], [2 q1 q2, q1^2 + q2^2]], eigenvalues (q1 -+ q2)^2
        certified = [(1e75, 5e74), (1e-75, 5e-76)]  # entries near 1e150 and 1e-150
        uncertified = [(1e75, 1e75), (1e75, 1e75 * (1.0 + 1e-8)), (1e-75, 1e-75),
                       (1e200, 1e-200),  # inf on the diagonal, 2.0 off it
                       (1e200, 1e200), (math.nan, 1.0), (math.inf, 1.0), (1.0, -1.0)]
        states = [((q1, q2), (0.3, -0.2), 0.0) for q1, q2 in certified + uncertified]
        specs = [engine.make_system(2, (1.0, 1.0), eps_reg=eps,
                                    constraints=("q1*v1 + q2*v2", "q2*v1 + q1*v2"))
                 for eps in (1e-10, 1e-300)]
        for spec in specs:
            _assert_kernel_matches(spec, states)
        calls = []
        accel = specs[1].kernel.accel  # floor 1e-300: every certified state clears it
        monkeypatch.setitem(accel.__globals__, "_gram_min_eig",
                            lambda gram: calls.append(gram) or engine._gram_min_eig(gram))
        for state in states:
            _outcome(accel, *state)
        assert len(calls) == len(uncertified)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data(), m=st.integers(2, 4))
    def test_elimination(self, data, m):
        """The unrolled elimination is ``engine._solve_linear`` on any symmetric matrix,
        ties, zero pivots, NaN and inf included."""
        upper = {(a, b): data.draw(_entries) for a in range(m) for b in range(a, m)}
        gram = [[upper[min(a, b), max(a, b)] for b in range(m)] for a in range(m)]
        rhs = [data.draw(_entries) for _ in range(m)]
        assert (_outcome(_unrolled_solve(m), *upper.values(), *rhs)
                == _outcome(engine._solve_linear, gram, rhs))

    def test_wheel_rk4_fills_every_eigenvalue_in_one_stacked_call(self, monkeypatch):
        # the wheel's Gram matrix diag(1, 2) is certified above the guard floor at every
        # sample, so no sample calls eigvalsh; the run fills the column in one stacked
        # call, with the floats of one call per sample (the generic path makes 5N + 1)
        calls, stacked = [], []
        min_eig, min_eigs = engine._gram_min_eig, engine._gram_min_eigs
        monkeypatch.setattr(engine, "_gram_min_eig", lambda gram: calls.append(gram)
                            or min_eig(gram))
        monkeypatch.setattr(engine, "_gram_min_eigs", lambda grams: stacked.append(grams)
                            or min_eigs(grams))
        kernels._compile.cache_clear()  # compile afresh, over the counter
        try:
            spec = wheel_system()
            q0, v0 = wheel_state(0.4, 1.1, 0.7)
            traj = integrate_second_order(spec, q0, v0,
                                          IntegratorConfig(method="rk4", dt=0.01, t_end=0.5))
        finally:
            kernels._compile.cache_clear()  # no later spec gets the counter
        assert len(traj.times) == 51
        assert calls == []
        assert [len(grams) for grams in stacked] == [51]
        per_sample = [engine.multipliers_raw(spec, q, v, t)[3]
                      for q, v, t in zip(traj.q.tolist(), traj.v.tolist(), traj.times)]
        assert _bits(traj.gram_min_eig.tolist()) == _bits(per_sample)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data(), m=st.integers(2, 4), count=st.integers(1, 6),
           scale=st.sampled_from([1e-150, 1e-75, 1e-10, 1.0, 1e10, 1e75, 1e150]))
    def test_stacked_fill_is_the_per_matrix_eigenvalue(self, data, m, count, scale):
        """The stacked ``eigvalsh`` of a run's fill is ``_gram_min_eig`` of each matrix,
        bit for bit: Gram matrices A A^T of random A, ties (c I, repeated rows) and
        diag(1, 2), over scales from 1e-150 to 1e150."""
        def matrix():
            kind = data.draw(st.sampled_from(["random", "identity", "repeated"]
                                             + ["wheel"] * (m == 2)))
            if kind == "wheel":
                return [[scale, 0.0], [0.0, 2.0 * scale]]
            if kind == "identity":
                c = scale * data.draw(st.floats(0.5, 2.0))
                return [[c if i == j else 0.0 for j in range(m)] for i in range(m)]
            a = [data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
                 for _ in range(m)]
            if kind == "repeated":
                a[-1] = list(a[0])
            return [[scale * sum(x * y for x, y in zip(a[i], a[j])) for j in range(m)]
                    for i in range(m)]
        grams = [matrix() for _ in range(count)]
        assert (_bits(engine._gram_min_eigs(grams).tolist())
                == _bits([engine._gram_min_eig(gram) for gram in grams]))


# e = 0 raises; 1e-170 makes 2 e^2 underflow, so pi_e's rate divides by zero
_E = st.one_of(st.sampled_from([0.0, -0.0, 1e-170, -1.3, math.nan, math.inf]),
               st.floats(0.2, 2.0))


@st.composite
def _rows(draw, n: int):
    """A flat row [q, p, v, pi, e, pi_e]; pi is zero (either sign) in about half."""
    block = st.lists(_coordinate, min_size=n, max_size=n)
    q, p, v = draw(block), draw(block), draw(block)
    pi = draw(st.one_of(block, st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                                        max_size=n)))
    return [*q, *p, *v, *pi, draw(_E), draw(_coordinate)]


def _mu(t):
    return 0.3 - 0.5 * t


def _second_order_rhs(spec):
    """The flow [q, v] -> [v, F] on ``accel``: what the generated step unrolls."""
    n, accel = spec.n, spec.kernel.accel
    return lambda t, y: y[n:] + accel(y[:n], y[n:], t)


def _extended_rhs(spec):
    return lambda t, y: hamiltonian.hamiltonian_vector_field(spec, y, _mu(t), t)


_REFERENCE = {"rk4": integrate._rk4_step, "rkf45": integrate._rkf45_step}
_DT = st.one_of(st.sampled_from([1e-3, 0.01, 0.5, -0.01, 0.0, math.inf]), st.floats(1e-4, 1.0))


def _assert_steps_match(spec, rows, t, dt):
    """Both generated steps of both flows are the reference steps, errors included."""
    n = spec.n
    for method, reference in _REFERENCE.items():
        step = getattr(spec.kernel, f"{method}_step")
        extended = spec.kernel.extended_step(method, _mu)
        for row in rows:
            y = row[:n] + row[2 * n:3 * n]
            if method == "rk4":  # the run hands the RK4 step its first F (diag's, or accel)
                generated = partial(lambda y: step(t, y, dt, spec.kernel.accel(y[:n], y[n:], t)), y)
            else:
                generated = partial(step, t, y, dt)
            assert _outcome(generated) == _outcome(reference, _second_order_rhs(spec), t, y, dt)
            assert (_outcome(extended, t, row, dt)
                    == _outcome(reference, _extended_rhs(spec), t, row, dt))


def _assert_flow_matches(spec, rows, t):
    flow = spec.kernel.flow
    for row in rows:
        assert (_outcome(flow, row, _mu(t), t)
                == _outcome(hamiltonian.hamiltonian_vector_field, spec, row, _mu(t), t))


# 700 for |t - 0.4025| < 0.0005, else 0
_WINDOW = "350*(1 + (0.0005 - abs(t - 0.4025))/abs(0.0005 - abs(t - 0.4025)))"


class TestGeneratedSteps:
    """The generated RK4/RKF45 steps and the extended flow: bit for bit the reference
    ``integrate._rk4_step``, ``integrate._rkf45_step`` and
    ``hamiltonian.hamiltonian_vector_field``, errors included."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data(), spec=_systems())
    def test_generated_systems(self, data, spec):
        rows = [data.draw(_rows(spec.n)) for _ in range(3)]
        t, dt = data.draw(_coordinate), data.draw(_DT)
        _assert_flow_matches(spec, rows, t)
        _assert_steps_match(spec, rows, t, dt)

    def test_named_systems_and_every_error(self):
        # the flow's errors: e == 0 (ExprDomainError), the chart's yd1 = 0 (division by
        # zero), a degenerate Gram matrix (RegularityError) and 2 e^2 underflowing to 0
        # (ZeroDivisionError), each on and off the surface; an F that is inf only at
        # the second RKF45 stage (t + dt/4, for t = 0.4 and dt = 0.01) makes that
        # stage's zero weights count (0.0 * inf is NaN); with n = 0 the RKF45 error
        # is the max of nothing, a ValueError
        specs = [build_sleigh_spec(variant, SleighParams(k=30.0)) for variant in
                 ("friction", "lda_linear", "lda_nonlinear", "vakonomic_phi")]
        specs += [wheel_system(), potential_t_system(),
                  engine.make_system(2, (1.0, 1.0), constraints=("v1", "2*v1")),
                  engine.make_system(1, (1.0,), forces=(f"exp({_WINDOW})*exp({_WINDOW})",)),
                  engine.make_system(0, ())]
        rng = random.Random(11)
        seen = set()
        for spec in specs:
            n = spec.n
            rows = []
            for pi in ([0.0] * n, [0.03] * n):
                for e in (1.2, 0.0, 1e-170):
                    rows.append([0.1] * n + [0.0] * n + [0.0] * n + pi + [e, 0.0])
                    rows.append([0.1] * n + [0.02] * n + [0.0] * n + pi + [e, 0.01])
                    rows.append([rng.uniform(-1, 1) for _ in range(3 * n)] + pi + [e, -0.01])
            _assert_flow_matches(spec, rows, 0.4)
            _assert_steps_match(spec, rows, 0.4, 0.01)
            _assert_steps_match(spec, rows, -0.0, 0.01)
            flow = spec.kernel.flow
            seen |= {_outcome(flow, row, 0.1, 0.4)[0] for row in rows}
        assert seen == {"returned", ExprDomainError, RegularityError, ZeroDivisionError}

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data(), spec=_systems())
    def test_on_surface_extended_run_is_the_second_order_run(self, data, spec):
        """On the surface the extended RK4 run steps (q, v) as the second-order run does.
        The floats are equal, not always their bits: the flow's v rate is pi/e + F with
        pi = 0.0, so a F of -0.0 enters as 0.0."""
        n = spec.n
        q0 = data.draw(st.lists(_coordinate, min_size=n, max_size=n))
        v0 = data.draw(st.lists(_coordinate, min_size=n, max_size=n))
        cfg = IntegratorConfig(method="rk4", dt=0.02, t_end=0.3)
        try:
            v0 = list(engine.project_initial_state(spec, q0, v0))
            ref = integrate_second_order(spec, q0, v0, cfg)
        except (NonholoError, ArithmeticError, ValueError):
            return  # no admissible start near this one
        zeros = [0.0] * n
        ext = integrate.integrate_hamiltonian(spec, [*q0, *zeros, *v0, *zeros, 1.0, 0.0],
                                              None, cfg)
        grid = len(ref.times) - (ref.termination.kind == "event")
        assert len(ext.times) >= grid
        for a, b in ((ext.q, ref.q), (ext.v, ref.v), (ext.times, ref.times)):
            assert np.array_equal(a[:grid], b[:grid])
        assert np.all(ext.surface_residual == 0.0)
        if ref.termination.kind != "event":
            assert ext.termination == ref.termination

    @pytest.mark.parametrize("variant, accel_per_step, diags", [
        ("lda_linear", 3, 1),  # m = 1: the first stage is the F of the sample's diag
        ("friction", 4, 0),  # m = 0: no diag; the run calls accel for the first stage
    ])
    def test_rk4_run_calls_accel_three_times_and_diag_once_per_step(self, variant,
                                                                     accel_per_step, diags):
        calls = {"accel": 0, "diag": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        params = SleighParams()
        spec = build_sleigh_spec(variant, params)
        kernel = spec.kernel  # the step, built on the first run, binds the counted accel
        kernel.accel, kernel.diag = counted("accel", kernel.accel), counted("diag", kernel.diag)
        traj = integrate_second_order(spec, *initial_state(params),
                                      IntegratorConfig(method="rk4", dt=0.01, t_end=1.0))
        assert traj.termination.kind == "completed"
        steps = len(traj.times) - 1
        assert steps == 100
        assert calls == {"accel": accel_per_step * steps, "diag": diags * (steps + 1)}


def _extended_row(q0, v0, pi):
    n = len(q0)
    return [*q0, *[0.0] * n, *v0, *[pi] * n, 1.0, 0.0]


class TestLifetime:
    def test_built_once_and_kept_on_the_spec(self):
        spec = build_sleigh_spec("lda_linear", SleighParams())
        assert spec.kernel is spec.kernel
        assert spec == build_sleigh_spec("lda_linear", SleighParams())

    def test_jacobian_built_apart_on_first_use(self, monkeypatch):
        emitted = []
        emit = kernels._jac

        def counted(spec, body):
            emitted.append(spec)
            return emit(spec, body)
        monkeypatch.setattr(kernels, "_jac", counted)
        params = SleighParams()
        spec = build_sleigh_spec("lda_linear", params)
        q0, v0 = initial_state(params)
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=0.2)
        integrate_second_order(spec, q0, v0, cfg)
        integrate.integrate_hamiltonian(spec, _extended_row(q0, v0, 0.0), None, cfg)
        assert emitted == []  # on the surface the flow takes accel, not jac
        integrate.integrate_hamiltonian(spec, _extended_row(q0, v0, 0.01), None, cfg)
        assert emitted == [spec]
        assert spec.kernel.jac is spec.kernel.jac
        assert emitted == [spec]

    def test_parameter_variants_share_one_compile(self):
        kernels._compile.cache_clear()
        slow = build_sleigh_spec("friction", SleighParams(k=10.0))
        fast = build_sleigh_spec("friction", SleighParams(k=20.0, m=1.5))
        slow.kernel, fast.kernel
        assert kernels._compile.cache_info().misses == 1
        slow.kernel.jac, fast.kernel.jac
        assert kernels._compile.cache_info().misses == 2
        q, v = (0.1, 0.2, 0.3), (1.0, 0.5, 0.2)
        for spec in (slow, fast):
            assert spec.kernel.accel(q, v, 0.0) == engine.acceleration_raw(spec, q, v, 0.0)
            assert (spec.kernel.jac(q, v, 0.0)
                    == engine.acceleration_jacobian_raw(spec, q, v, 0.0))
        assert slow.kernel.accel(q, v, 0.0) != fast.kernel.accel(q, v, 0.0)
        assert slow.kernel.jac(q, v, 0.0) != fast.kernel.jac(q, v, 0.0)

    def test_parameter_variant_runs_compile_nothing(self):
        # every generated source of a friction run binds k as an argument, so a second
        # spec that differs only in k runs RK4, RKF45 and the extended RK4 flow (off the
        # surface, through jac) on the first one's compiled code
        params = SleighParams()
        q0, v0 = initial_state(params)

        def run_all(k):
            spec = build_sleigh_spec("friction", SleighParams(k=k))
            for method in ("rk4", "rkf45"):
                integrate_second_order(spec, q0, v0,
                                       IntegratorConfig(method=method, dt=0.05, t_end=0.2))
            integrate.integrate_hamiltonian(spec, _extended_row(q0, v0, 0.01), _mu,
                                            IntegratorConfig(method="rk4", dt=0.05, t_end=0.2))
            assert {"rk4_step", "rkf45_step", "flow"} <= vars(spec.kernel).keys()
            assert spec.kernel._get_jac.cache_info().currsize == 1  # the flow built jac

        run_all(10.0)
        misses = kernels._compile.cache_info().misses
        run_all(20.0)
        assert kernels._compile.cache_info().misses == misses

    def test_steps_built_on_first_run_from_a_shared_template(self):
        # the stage arithmetic depends on (n, method) alone: a fresh spec of a known n,
        # as CLI verify builds per config, generates no source
        params = SleighParams()
        first = build_sleigh_spec("lda_linear", params)
        integrate_second_order(first, *initial_state(params),
                               IntegratorConfig(method="rk4", dt=0.1, t_end=0.1))
        assert "rk4_step" in vars(first.kernel) and "rkf45_step" not in vars(first.kernel)
        misses = kernels._step_template.cache_info().misses
        second = build_sleigh_spec("friction", SleighParams(k=5.0))
        assert "rk4_step" not in vars(second.kernel)
        assert second.kernel.rk4_step is second.kernel.rk4_step
        assert second.kernel.rk4_step.__code__ is first.kernel.rk4_step.__code__
        assert kernels._step_template.cache_info().misses == misses

    def test_flow_built_once_and_extended_steps_share_a_template(self):
        params = SleighParams()
        spec = build_sleigh_spec("lda_linear", params)
        row = _extended_row(*initial_state(params), 0.01)
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_end=0.2)
        assert "flow" not in vars(spec.kernel)
        integrate.integrate_hamiltonian(spec, row, None, cfg)
        flow = vars(spec.kernel)["flow"]
        misses = kernels._compile.cache_info().misses
        integrate.integrate_hamiltonian(spec, row, _mu, cfg)
        assert kernels._compile.cache_info().misses == misses
        assert spec.kernel.flow is flow
        first, second = (spec.kernel.extended_step("rk4", mu) for mu in (_mu, math.cos))
        assert first is not second and first.__code__ is second.__code__

    def test_kernel_does_not_outlive_its_spec(self):
        # no cycle: reference counting alone frees the spec and its generated code
        spec = build_sleigh_spec("lda_nonlinear", SleighParams())
        kernel = spec.kernel
        step = kernel.extended_step("rk4", _mu)
        params = SleighParams()
        integrate.integrate_hamiltonian(spec, _extended_row(*initial_state(params), 0.01),
                                        _mu, IntegratorConfig(method="rk4", dt=0.1, t_end=0.2))
        refs = [weakref.ref(x) for x in (spec, kernel, kernel.accel, kernel.jac,
                                         kernel.rk4_step, kernel.rkf45_step, kernel.flow,
                                         step)]
        gc.disable()
        try:
            del spec, kernel, step
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
