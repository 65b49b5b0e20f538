"""Compiled per-system kernels: bit for bit the generic engine, built once per
spec (the Jacobian kernel apart, on first use), shared across parameter
variants, and gone with their spec."""

import gc
import math
import random
import struct
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import potential_t_system, wheel_state, wheel_system
from nonholo import engine, kernels
from nonholo.engine import ConstraintSet, SystemSpec
from nonholo.errors import ExprDomainError
from nonholo.expr import Binary, Expr, Unary, Var, partial_exprs
from nonholo.scenarios import SleighParams, build_sleigh_spec
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


def _assert_kernel_matches(spec, states):
    accel, diag = spec.kernel
    jac = spec.jacobian_kernel
    for q, v, t in states:
        assert _outcome(accel, q, v, t) == _outcome(engine.acceleration_raw, spec, q, v, t)
        assert _outcome(diag, q, v, t) == _outcome(_generic_diag, spec, q, v, t)
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
        for jacobian in (partial(engine.acceleration_jacobian_raw, spec), spec.jacobian_kernel):
            with pytest.raises(ExprDomainError):
                jacobian(q, v, 0.0)


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
        spec = build_sleigh_spec("lda_linear", SleighParams())
        spec.kernel
        assert emitted == []
        assert spec.jacobian_kernel is spec.jacobian_kernel
        assert emitted == [spec]

    def test_parameter_variants_share_one_compile(self):
        kernels._factory.cache_clear()
        slow = build_sleigh_spec("friction", SleighParams(k=10.0))
        fast = build_sleigh_spec("friction", SleighParams(k=20.0, m=1.5))
        slow.kernel, fast.kernel
        assert kernels._factory.cache_info().misses == 1
        slow.jacobian_kernel, fast.jacobian_kernel
        assert kernels._factory.cache_info().misses == 2
        q, v = (0.1, 0.2, 0.3), (1.0, 0.5, 0.2)
        for spec in (slow, fast):
            assert spec.kernel.accel(q, v, 0.0) == engine.acceleration_raw(spec, q, v, 0.0)
            assert (spec.jacobian_kernel(q, v, 0.0)
                    == engine.acceleration_jacobian_raw(spec, q, v, 0.0))
        assert slow.kernel.accel(q, v, 0.0) != fast.kernel.accel(q, v, 0.0)
        assert slow.jacobian_kernel(q, v, 0.0) != fast.jacobian_kernel(q, v, 0.0)

    def test_kernel_does_not_outlive_its_spec(self):
        spec = build_sleigh_spec("lda_nonlinear", SleighParams())
        refs = [weakref.ref(spec), weakref.ref(spec.kernel.accel),
                weakref.ref(spec.jacobian_kernel)]
        del spec
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
