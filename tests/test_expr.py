import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import engine
from nonholo import expr as expr_module
from nonholo.errors import ExprDomainError, ExprSyntaxError
from nonholo.expr import (Binary, Const, Unary, Var, canonical, grad_raw, parse_expression,
                          partial_exprs)
from nonholo.scenarios import SleighParams, build_sleigh_spec


class TestParse:
    def test_constant_literal(self):
        e = parse_expression("0", 3)
        assert e.root == Const(0.0)

    def test_hand_evaluated_example(self):
        # 0*sin(pi/2) - 1*cos(pi/2) = -cos(pi/2), which is 0 up to roundoff
        e = parse_expression("v1*sin(q3) - v2*cos(q3)", 3)
        val = e._fn((0, 0, math.pi / 2), (0, 1, 0), 0.0)
        assert val == pytest.approx(-math.cos(math.pi / 2), abs=1e-15)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("sin(", 1)
        assert exc.value.offset == 4

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("", 1)
        with pytest.raises(ExprSyntaxError):
            parse_expression("   ", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse_expression("sinh(q1)", 1)

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse_expression("q4", 3)
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse_expression("v1", 0)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("q1 q1", 1)

    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2*3", 0)
        assert e._fn((), (), 0.0) == 7.0

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expression("-q1^2", 1)
        assert e._fn((3,), (0,), 0.0) == -9.0

    def test_power_right_associative(self):
        e = parse_expression("2^3^2", 0)
        assert e._fn((), (), 0.0) == 512.0

    def test_left_associative_subtraction(self):
        e = parse_expression("10 - 4 - 3", 0)
        assert e._fn((), (), 0.0) == 3.0

    def test_signed_exponent(self):
        e = parse_expression("2^-2", 0)
        assert e._fn((), (), 0.0) == 0.25

    def test_scientific_literal(self):
        e = parse_expression("1e-3 + 2.5E2", 0)
        assert e._fn((), (), 0.0) == pytest.approx(250.001)

    def test_time_variable(self):
        e = parse_expression("t^2", 0)
        assert e._fn((), (), 3.0) == 9.0


class TestEval:
    def test_square(self):
        e = parse_expression("q1^2", 1)
        assert e._fn((3,), (0,), 0.0) == 9.0

    def test_sleigh_constraint_at_zero_angle(self):
        e = parse_expression("v1*sin(q3)-v2*cos(q3)", 3)
        assert e._fn((0, 0, 0), (5, 0, 0), 0.0) == 0.0

    def test_division_by_zero(self):
        e = parse_expression("1/q1", 1)
        with pytest.raises(ExprDomainError):
            e._fn((0,), (0,), 0.0)

    def test_log_of_negative(self):
        e = parse_expression("log(q1)", 1)
        with pytest.raises(ExprDomainError):
            e._fn((-1,), (0,), 0.0)

    def test_tan_pole(self):
        e = parse_expression("tan(q1)", 1)
        with pytest.raises(ExprDomainError):
            e._fn((math.pi / 2,), (0,), 0.0)

    def test_negative_base_fractional_power(self):
        e = parse_expression("q1^0.5", 1)
        with pytest.raises(ExprDomainError):
            e._fn((-4,), (0,), 0.0)

    def test_integer_power_of_negative_base(self):
        e = parse_expression("q1^3", 1)
        assert e._fn((-2,), (0,), 0.0) == -8.0

    def test_deterministic(self):
        e = parse_expression("sin(q1)*exp(v1) - t/3", 1)
        assert e._fn((0.7,), (0.3,), 1.1) == e._fn((0.7,), (0.3,), 1.1)


class TestGrad:
    def test_identity_derivative(self):
        e = parse_expression("q1", 2)
        dq, dv, dt = grad_raw(e, (1, 2), (3, 4), 0.0)
        assert dq == [1.0, 0.0] and dv == [0.0, 0.0] and dt == 0.0

    def test_sin_factor(self):
        e = parse_expression("v1*sin(q3)", 3)
        dq, dv, dt = grad_raw(e, (0, 0, math.pi / 6), (1, 0, 0), 0.0)
        assert dv[0] == pytest.approx(0.5)

    def test_constant_gradient_is_zero(self):
        e = parse_expression("42", 2)
        dq, dv, dt = grad_raw(e, (1, 1), (1, 1), 0.0)
        assert dq == [0.0, 0.0] and dv == [0.0, 0.0] and dt == 0.0

    def test_time_derivative(self):
        e = parse_expression("t^3", 0)
        _, _, dt = grad_raw(e, (), (), 2.0)
        assert dt == pytest.approx(12.0)

    @pytest.mark.parametrize("source,n", [
        ("sin(q1)*cos(v1) + tan(q2/3)", 2),
        ("exp(q1*v2) - sqrt(abs(v1) + 1.5)", 2),
        ("q1^3 + v1^2*t - q2/(v2 + 3)", 2),
        ("log(q1^2 + 1)*v1", 1),
    ])
    def test_matches_central_differences(self, source, n):
        e = parse_expression(source, n)
        rng = np.random.default_rng(hash(source) % 2**32)
        step = 1e-6
        checked = 0
        while checked < 200:
            q = tuple(rng.uniform(-2, 2, n))
            v = tuple(rng.uniform(-2, 2, n))
            t = rng.uniform(-2, 2)
            try:
                dq, dv, dt = grad_raw(e, q, v, t)
            except ExprDomainError:
                continue
            try:
                for i in range(n):
                    qp = list(q); qp[i] += step
                    qm = list(q); qm[i] -= step
                    fd = (e._fn(qp, v, t) - e._fn(qm, v, t)) / (2 * step)
                    assert dq[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)
                    vp = list(v); vp[i] += step
                    vm = list(v); vm[i] -= step
                    fd = (e._fn(q, vp, t) - e._fn(q, vm, t)) / (2 * step)
                    assert dv[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)
                fd = (e._fn(q, v, t + step) - e._fn(q, v, t - step)) / (2 * step)
                assert dt == pytest.approx(fd, rel=1e-5, abs=1e-5)
            except ExprDomainError:
                continue
            checked += 1


class TestSecondPartials:
    def test_hessian_rows(self):
        # f = q1^2*v2 + sin(q2)*t: rows of second partials per occurring variable
        e = parse_expression("q1^2*v2 + sin(q2)*t", 2)
        q, v, t = (1.5, 0.4), (0.2, -0.7), 2.0
        rows = {(kind, index): grad_raw(p, q, v, t) for kind, index, p in partial_exprs(e)}
        assert set(rows) == {("q", 1), ("q", 2), ("v", 2), ("t", 0)}
        assert rows["q", 1] == ([2 * v[1], 0.0], [0.0, 2 * q[0]], 0.0)
        assert rows["v", 2] == ([2 * q[0], 0.0], [0.0, 0.0], 0.0)
        dq, dv, dt = rows["q", 2]
        assert dq == [0.0, pytest.approx(-math.sin(q[1]) * t)] and dv == [0.0, 0.0]
        assert dt == pytest.approx(math.cos(q[1]))
        assert rows["t", 0] == ([0.0, pytest.approx(math.cos(q[1]))], [0.0, 0.0], 0.0)

    def test_built_on_first_use_only(self):
        e = parse_expression("v1*sin(q1)", 1)
        assert e._partials is None  # parsing does not pay for them
        assert partial_exprs(e) is partial_exprs(e)

    def test_each_tree_compiled_once(self, monkeypatch):
        # parsing compiles the expression only; each partial is compiled on first use
        compiled = []
        compile_ = expr_module._compile

        def counted(node):
            compiled.append(node)
            return compile_(node)
        monkeypatch.setattr(expr_module, "_compile", counted)
        e = parse_expression("v2/v1 - tan(q3)", 3)
        assert len(compiled) == 1
        q, v = (0.1, 0.2, 0.3), (1.0, 0.5, 0.2)
        grad_raw(e, q, v, 0.0)
        assert len(compiled) == 4
        grad_raw(e, q, v, 0.0)
        assert len(compiled) == 4

        spec = build_sleigh_spec("lda_nonlinear", SleighParams())
        engine.acceleration_raw(spec, q, v, 0.0)
        del compiled[:]
        engine.acceleration_jacobian_raw(spec, q, v, 0.0)
        engine.acceleration_jacobian_raw(spec, q, v, 0.0)
        (con,) = spec.constraints.exprs
        second = [d2.root for _, _, d1 in partial_exprs(con) for _, _, d2 in partial_exprs(d1)]
        assert compiled == second

    def test_abs_second_derivative_is_zero(self):
        # d/dq1 abs(q1) is sgn(q1), which is piecewise constant
        e = parse_expression("abs(q1)", 1)
        [(_, _, d1)] = partial_exprs(e)
        assert grad_raw(d1, (-0.3,), (0.0,), 0.0) == ([0.0], [0.0], 0.0)
        assert d1._fn((-0.3,), (0.0,), 0.0) == -1.0


_leaf = st.one_of(
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda x: Const(round(x, 3))),
    st.sampled_from([Var("q", 1), Var("q", 2), Var("v", 1), Var("v", 2), Var("t", 0)]),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "sqrt", "abs", "log", "tan"]), sub),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
    )


class TestCanonical:
    @settings(max_examples=200, deadline=None)
    @given(_trees(3))
    def test_round_trip_is_idempotent(self, root):
        # parse . print . parse must be a fixed point of parse
        printed = __import__("nonholo.expr", fromlist=["to_canonical"]).to_canonical(root)
        once = parse_expression(printed, 2)
        twice = parse_expression(canonical(once), 2)
        assert twice.root == once.root
        assert canonical(twice) == canonical(once)

    def test_fully_parenthesized(self):
        e = parse_expression("q1 + v1*t", 1)
        assert canonical(e) == "(q1 + (v1 * t))"
