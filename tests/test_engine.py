"""Constrained-dynamics engine: multipliers, accelerations, projection."""

import math

import numpy as np
import pytest

from conftest import potential_t_system
from nonholo.engine import (
    base_force_raw,
    make_system,
    multipliers_raw,
    constraint_values,
    acceleration_raw,
    project_initial_state,
)
from nonholo.expr import parse_expression, grad_raw
from nonholo.errors import NoConvergence, RegularityError


def linear_sleigh(m=1.0, inertia=1.0):
    return make_system(
        3,
        (m, m, inertia),
        constraints=("v1*sin(q3) - v2*cos(q3)",),
    )


class TestMultipliers:
    def test_single_constraint_closed_form(self):
        # for one constraint: h = b/g with g = sum (dD/dv_i)^2/m_i
        spec = make_system(2, (2.0, 3.0), forces=("1.0", "-2.0"),
                           constraints=("v1*v2 - 1",))
        q, v = (0.3, -0.7), (2.0, 0.5)
        h, gram, rhs, _ = multipliers_raw(spec, q, v, 0.0)
        dv = (v[1], v[0])  # gradient of v1*v2 - 1 in v
        g = dv[0] ** 2 / 2.0 + dv[1] ** 2 / 3.0
        b = -(dv[0] * 1.0 / 2.0 + dv[1] * (-2.0) / 3.0)
        assert gram[0][0] == pytest.approx(g, abs=1e-12)
        assert rhs[0] == pytest.approx(b, abs=1e-12)
        assert h[0] == pytest.approx(b / g, abs=1e-12)

    def test_no_constraints_returns_empty(self):
        spec = make_system(2, (2.0, 4.0), forces=("q2", "-q1"))
        q, v = (1.0, 2.0), (0.0, 0.0)
        assert constraint_values(spec, q, v) == []
        f0 = base_force_raw(spec, q, v, 0.0)
        assert acceleration_raw(spec, q, v, 0.0) == [f0[0] / 2.0, f0[1] / 4.0] == [1.0, -0.25]

    def test_multiplier_affine_in_base_force(self):
        # h depends affinely on f0; doubling forces doubles (h - h_at_zero)
        cons = ("v1^2 + v2^2 - 2",)
        base = make_system(2, (1.0, 1.0), constraints=cons)
        f1 = make_system(2, (1.0, 1.0), forces=("1.0", "0.5"), constraints=cons)
        f2 = make_system(2, (1.0, 1.0), forces=("2.0", "1.0"), constraints=cons)
        q, v = (0.1, 0.2), (1.0, 1.0)
        h0 = multipliers_raw(base, q, v, 0.0)[0][0]
        h1 = multipliers_raw(f1, q, v, 0.0)[0][0]
        h2 = multipliers_raw(f2, q, v, 0.0)[0][0]
        assert h2 - h0 == pytest.approx(2 * (h1 - h0), rel=1e-12)

    def test_gram_symmetric_two_constraints(self):
        spec = make_system(3, (1.0, 2.0, 3.0),
                           constraints=("v1 - q3*v2", "v2*v3 - 1"))
        _, gram, _, _ = multipliers_raw(spec, (0.2, 0.1, 0.5), (1.0, 2.0, 0.5), 0.0)
        g = np.array(gram)
        assert np.allclose(g, g.T, atol=1e-14)
        assert np.linalg.eigvalsh(g).min() > 0

    def test_degenerate_gram_raises(self):
        # constraint independent of velocity -> zero Gram row
        spec = make_system(2, (1.0, 1.0), constraints=("q1 - 1",))
        with pytest.raises(RegularityError):
            multipliers_raw(spec, (1.0, 0.0), (0.0, 0.0), 0.0)


class TestConsistency:
    """The defining property: d/dt D(q(t), v(t), t) = 0 along the dynamics."""

    def dDdt(self, spec, q, v, t):
        acc = acceleration_raw(spec, list(q), list(v), t)
        out = []
        for c in spec.constraints.exprs:
            dq, dv, dt_ = grad_raw(c, list(q), list(v), t)
            out.append(dt_ + sum(dq[i] * v[i] for i in range(spec.n))
                       + sum(dv[i] * acc[i] for i in range(spec.n)))
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dDdt_vanishes_random_states(self, seed):
        rng = np.random.default_rng(seed)
        specs = [
            linear_sleigh(),
            make_system(2, (1.0, 2.0), forces=("sin(t)", "q1"),
                        constraints=("v1^2 + v2^2 - 4",)),
            make_system(3, (1.0, 1.0, 2.0), potential="q1^2 + q2*q3",
                        constraints=("v1 - q3*v2", "v3 - 1 - 0.1*v2")),
        ]
        for spec in specs:
            for _ in range(350):
                q = rng.uniform(-2, 2, spec.n)
                v = rng.uniform(0.3, 2.0, spec.n)
                t = rng.uniform(0, 5)
                try:
                    v = project_initial_state(spec, q, v, t)
                except NoConvergence:
                    continue
                rates = self.dDdt(spec, q, v, t)
                assert max(abs(r) for r in rates) <= 1e-9

    def test_sleigh_acceleration_example(self):
        # at heading pi/2 with forward motion along y the lateral constraint
        # forces zero acceleration for a torque-free sleigh
        spec = linear_sleigh()
        a = acceleration_raw(spec, (0.0, 0.0, math.pi / 2), (0.0, 1.0, 0.0), 0.0)
        assert max(abs(x) for x in a) <= 1e-12


class TestProjection:
    def test_projection_reaches_surface(self):
        spec = linear_sleigh()
        v = project_initial_state(spec, (0.0, 0.0, 0.3), (1.0, 0.8, 0.5))
        d = constraint_values(spec, [0.0, 0.0, 0.3], list(v))
        assert max(abs(x) for x in d) <= 1e-12

    def test_projection_noop_on_surface(self):
        spec = linear_sleigh()
        v0 = (1.0, 0.0, 0.2)  # heading 0: v1*0 - v2*1 = 0
        v = project_initial_state(spec, (0.0, 0.0, 0.0), v0)
        assert v == pytest.approx(v0, abs=1e-12)

    def test_projection_moves_along_velocity_gradient(self):
        spec = make_system(2, (1.0, 1.0), constraints=("v2 - 1",))
        v = project_initial_state(spec, (0.0, 0.0), (3.0, 5.0))
        # only v2 should change
        assert v[0] == pytest.approx(3.0, abs=1e-14)
        assert v[1] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_constraint_fails(self):
        spec = make_system(1, (1.0,), constraints=("v1^2 + 1",))
        with pytest.raises(NoConvergence):
            project_initial_state(spec, (0.0,), (1.0,))


class TestSpecValidation:
    def test_mass_length_mismatch(self):
        with pytest.raises(ValueError):
            make_system(2, (1.0,))

    def test_nonpositive_mass(self):
        with pytest.raises(ValueError):
            make_system(1, (0.0,))

    def test_potential_and_forces_exclusive(self):
        with pytest.raises(ValueError):
            make_system(1, (1.0,), potential="q1^2", forces=("q1",))

    def test_potential_forces_match_the_negated_gradient(self):
        # the forces -dV/dq_i give F = -grad V bit for bit, -0.0 where V lacks q_i
        lacks_q2 = "q1*q3 + sin(t)"
        cases = ((potential_t_system(), "q1^2/2 + cos(q2)*q3 + q1*q2^3"),
                 (make_system(3, (1.0, 1.0, 1.0), potential=lacks_q2), lacks_q2))
        rng = np.random.default_rng(5)
        for spec, source in cases:
            pot = parse_expression(source, 3)
            for _ in range(200):
                q, v = rng.uniform(-2, 2, 3).tolist(), rng.uniform(-2, 2, 3).tolist()
                t = float(rng.uniform(0, 5))
                expected = [(-g).hex() for g in grad_raw(pot, q, v, t)[0]]
                assert [f.hex() for f in base_force_raw(spec, q, v, t)] == expected

    def test_potential_gradient_force(self):
        spec = make_system(2, (1.0, 4.0), potential="q1^2 + 3*q2")
        a = acceleration_raw(spec, (2.0, 0.0), (0.0, 0.0), 0.0)
        assert a[0] == pytest.approx(-4.0, abs=1e-14)
        assert a[1] == pytest.approx(-0.75, abs=1e-14)
