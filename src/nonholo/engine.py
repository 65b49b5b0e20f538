"""Lagrange-d'Alembert force assembly.

Given masses, a base force f0(q, v, t) (explicit components; ``make_system``
turns a potential V into the components -dV/dq_i) and a set of
velocity-dependent scalar constraints D_a(q, v) = 0, the multipliers h_a are
fixed by demanding dD_a/dt = 0 along the motion:

    sum_b M_ab h_b = b_a,
    M_ab = sum_i (dD_a/dv_i)(dD_b/dv_i)/m_i,
    b_a  = -dD_a/dt_explicit - sum_i (dD_a/dq_i) v_i - sum_i (dD_a/dv_i) f0_i/m_i,

and the total acceleration is a_i = (f0_i + sum_a h_a dD_a/dv_i)/m_i.

Every evaluation takes raw ``(spec, q, v, t)`` sequences.
``acceleration_jacobian_raw`` differentiates the multiplier solve in closed
form, from the compiled second partials of the constraints and of the base
force.  Dual numbers reach the engine only through
``hamiltonian.hamiltonian_value`` under ``hamiltonian.poisson_bracket``, which
seeds q and v with them, one level deep.

The float F of a run, and its Jacobians, do not come from here.
``SystemSpec.kernel`` (module ``kernels``) holds the system's generated code,
built on first use: straight-line ``accel(q, v, t)``, ``diag(q, v, t) -> (D,
h, min_eig, F)`` and, on the first off-surface call, ``jac(q, v, t) -> (F, dfdq,
dfdv)``.  They must equal ``acceleration_raw``, ``constraint_values`` plus
``multipliers_raw`` (an eigenvalue ``diag`` defers filled in by
``_gram_min_eigs``) and ``acceleration_jacobian_raw`` bit for bit, errors
included (``tests/test_kernels.py``).  The integrator (through the kernel's
generated steps and flow), the Hamiltonian flow and the action functionals
call them; the functions here stay the dual-capable reference, and serve the
projection, the Poisson brackets and the tests.

The reference takes no shortcut: every m >= 1 goes through one Gram fill,
``_gram_min_eig`` and ``_solve_linear``, and every F through
``_total_acceleration``.  The kernels unroll the solve, to the same floats: m = 1
to one division, m >= 2 to ``_solve_linear``'s elimination as straight-line code.
They compute the smallest eigenvalue only where a Gershgorin certificate that it
clears the floor fails; where ``diag``'s holds, a run computes it when it ends, for
all such samples in one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as _expr
from .dual import value
from .errors import NoConvergence, RegularityError
from .expr import Expr, Unary


@dataclass(frozen=True)
class ConstraintSet:
    """Scalar constraints D_a(q, v, t) with a Gram-regularity floor."""

    exprs: tuple[Expr, ...] = ()
    eps_reg: float = 1e-10

    def __post_init__(self):
        if not 0 < self.eps_reg < math.inf:
            raise ValueError("eps_reg must be finite and positive")

    def __len__(self):
        return len(self.exprs)


@dataclass(frozen=True)
class SystemSpec:
    """Dynamical problem: dimension, diagonal masses, base force f0_i (None: zero), constraints."""

    n: int
    mass: tuple[float, ...]
    forces: tuple[Expr, ...] | None = None
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    def __post_init__(self):
        if len(self.mass) != self.n:
            raise ValueError("mass vector length must equal dimension")
        if not all(0 < m < math.inf for m in self.mass):
            raise ValueError("all masses must be finite and positive")
        if self.forces is not None and len(self.forces) != self.n:
            raise ValueError("explicit force list length must equal dimension")

    @cached_property
    def kernel(self):
        """The system's generated code (``kernels.Kernel``), built on first use and kept
        on this spec, so it lives exactly as long as the spec does."""
        from .kernels import Kernel  # kernels builds on this module's solver helpers
        return Kernel(self)


def make_system(
    n: int,
    masses,
    potential: str | None = None,
    forces=None,
    constraints=(),
    eps_reg: float = 1e-10,
) -> SystemSpec:
    """Parse string expressions into a SystemSpec; a potential V becomes the forces -dV/dq_i."""
    if potential is not None:
        if forces is not None:
            raise ValueError("give either a potential or explicit forces, not both")
        pot = _expr.parse_expression(potential, n).root
        # unfolded negation: a q_i that V lacks gives -0.0, as negating its zero partial does
        fs = tuple(Expr(Unary("neg", _expr._derivative(pot, "q", i)), n) for i in range(1, n + 1))
    else:
        fs = tuple(_expr.parse_expression(f, n) for f in forces) if forces is not None else None
    cs = ConstraintSet(tuple(_expr.parse_expression(c, n) for c in constraints), eps_reg)
    return SystemSpec(n=n, mass=tuple(float(m) for m in masses), forces=fs, constraints=cs)


# --- raw evaluation (floats or duals) ---------------------------------------

def base_force_raw(spec: SystemSpec, q, v, t):
    if spec.forces is None:
        return [0.0] * spec.n
    return [f._fn(q, v, t) for f in spec.forces]


def _solve_linear(a, b):
    """Gaussian elimination with partial pivoting on value parts.

    Entries may be dual numbers; small systems only (m <= a few).
    """
    m = len(b)
    a = [row[:] for row in a]
    b = list(b)
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(value(a[r][col])))
        if abs(value(a[pivot][col])) == 0.0:
            raise RegularityError("singular constraint Gram matrix")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, m):
            factor = a[r][col] * inv
            for c in range(col + 1, m):
                a[r][c] = a[r][c] - factor * a[col][c]
            b[r] = b[r] - factor * b[col]
    x = [0.0] * m
    for r in range(m - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, m):
            acc = acc - a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def _gram_min_eig(gram) -> float:
    mat = np.array([[value(x) for x in row] for row in gram], dtype=float)
    return float(np.linalg.eigvalsh(mat).min())


def _gram_min_eigs(grams) -> np.ndarray:
    """``_gram_min_eig`` of each float matrix of a stack of one size, in one ``eigvalsh``
    call, which runs LAPACK on each matrix as the single call does: the same floats."""
    return np.linalg.eigvalsh(np.array(grams, dtype=float)).min(axis=1)


def _constraint_solve(spec: SystemSpec, q, v, t, f0):
    """(h, grads, gram, rhs, min_eig) from the consistency condition dD/dt = 0."""
    cons = spec.constraints.exprs
    m = len(cons)
    mass = spec.mass
    n = spec.n
    grads = [_expr.grad_raw(c, q, v, t) for c in cons]
    gram = [[0.0] * m for _ in range(m)]
    for a in range(m):
        dva = grads[a][1]
        for b in range(a, m):
            dvb = grads[b][1]
            acc = 0.0
            for i in range(n):
                acc = acc + dva[i] * dvb[i] / mass[i]
            gram[a][b] = acc
            gram[b][a] = acc
    min_eig = _gram_min_eig(gram)
    if min_eig < spec.constraints.eps_reg:
        raise RegularityError(
            f"constraint Gram matrix smallest eigenvalue {min_eig:.3e} "
            f"below floor {spec.constraints.eps_reg:.3e}"
        )
    rhs = []
    for a in range(m):
        dqa, dva, dta = grads[a]
        acc = -dta
        for i in range(n):
            acc = acc - dqa[i] * v[i] - dva[i] * f0[i] / mass[i]
        rhs.append(acc)
    h = _solve_linear(gram, rhs)
    return h, grads, gram, rhs, min_eig


def multipliers_raw(spec: SystemSpec, q, v, t):
    """(h, gram, rhs, min_eig) for the constraint multipliers."""
    f0 = base_force_raw(spec, q, v, t)
    h, _, gram, rhs, min_eig = _constraint_solve(spec, q, v, t, f0)
    return h, gram, rhs, min_eig


def _total_acceleration(spec: SystemSpec, f0, h, grads):
    """a_i = (f0_i + sum_a h_a dD_a/dv_i)/m_i, summed in constraint order."""
    mass = spec.mass
    n = spec.n
    total = list(f0)
    for a in range(len(h)):
        dva = grads[a][1]
        ha = h[a]
        for i in range(n):
            total[i] = total[i] + ha * dva[i]
    return [total[i] / mass[i] for i in range(n)]


def acceleration_raw(spec: SystemSpec, q, v, t):
    """Total acceleration a_i = (f0_i + sum_a h_a dD_a/dv_i)/m_i."""
    f0 = base_force_raw(spec, q, v, t)
    h = grads = ()
    if spec.constraints.exprs:
        h, grads, _, _, _ = _constraint_solve(spec, q, v, t, f0)
    return _total_acceleration(spec, f0, h, grads)


def _base_force_jacobian(spec: SystemSpec, q, v, t):
    """rows[i][x] = df0_i/dx over the directions x = q_1..q_n, v_1..v_n."""
    if spec.forces is None:
        return [[0.0] * (2 * spec.n) for _ in range(spec.n)]
    return [dq + dv for dq, dv, _ in (_expr.grad_raw(f, q, v, t) for f in spec.forces)]


def _dot(a, b):
    """sum_i a_i b_i from 0.0, left to right: the builtin ``sum`` of floats is
    compensated from Python 3.12 on, the kernels' chains are not."""
    acc = 0.0
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def acceleration_jacobian_raw(spec: SystemSpec, q, v, t):
    """(F, dfdq, dfdv): the total acceleration F, bit for bit as ``acceleration_raw``
    gives it, and its Jacobians dfdq[j][i] = dF_j/dq_i, from one constraint solve.

    The multiplier solve is differentiated in closed form, for the 2n
    directions x = q_1..q_n, v_1..v_n at once (g_a = dD_a/dv, dots are d/dx):

        hdot = G^-1 (bdot - Gdot h),
        Fdot_i = (f0dot_i + sum_a hdot_a g_ai + h_a gdot_ai)/m_i,

    with the partials of the base force and the second partials of D_a from
    ``expr.partial_exprs``.  One float ``_constraint_solve`` (with its Gram
    regularity check) serves F and the Jacobians; for m >= 2 the Gram matrix
    is factorised once for all directions.
    """
    n = spec.n
    mass = spec.mass
    f0 = base_force_raw(spec, q, v, t)
    cons = spec.constraints.exprs
    h = grads = ()
    if cons:
        h, grads, gram, _, _ = _constraint_solve(spec, q, v, t, f0)
    accel = _total_acceleration(spec, f0, h, grads)
    jac = _base_force_jacobian(spec, q, v, t)  # jac[j][x] = m_j dF_j/dx once complete
    if cons:
        g_m = [[dv[i] / mass[i] for i in range(n)] for _, dv, _ in grads]
        f0_m = [f0[i] / mass[i] for i in range(n)]
        # rhs[a][x] = bdot_a - (Gdot h)_a, with
        # b_a = -dD_a/dt - sum_i dD_a/dq_i v_i - sum_i g_ai f0_i/m_i; first the
        # parts of bdot_a that need no second partial of D_a
        rhs = []
        for ga_m, (dqa, _, _) in zip(g_m, grads):
            ra = [0.0] * n + [-d for d in dqa]
            for c, row in zip(ga_m, jac):
                ra = [r - c * d for r, d in zip(ra, row)]
            rhs.append(ra)
        for a, con in enumerate(cons):
            ra, ha = rhs[a], h[a]
            for kind, index, dcon in _expr.partial_exprs(con):
                if kind == "t":
                    continue
                x = index - 1 if kind == "q" else n + index - 1
                hq, gdot, ht = _expr.grad_raw(dcon, q, v, t)  # gdot = d(g_a)/dx
                ra[x] -= ht + _dot(hq, v) + _dot(gdot, f0_m)
                # Gdot_ab = c_ab + c_ba with c_ab = sum_i gdot_ai g_bi/m_i
                for b, gb_m in enumerate(g_m):
                    c_ab = _dot(gdot, gb_m)
                    ra[x] -= c_ab * h[b]
                    rhs[b][x] -= c_ab * ha
                for j in range(n):
                    jac[j][x] += ha * gdot[j]
        if len(cons) == 1:
            gram00 = gram[0][0]
            hdot = [[r / gram00 for r in rhs[0]]]
        else:
            # one LU factorisation of G serves every direction
            hdot = np.linalg.solve(np.array(gram), np.array(rhs)).tolist()  # hdot[a][x]
        for (_, ga, _), hdot_a in zip(grads, hdot):
            for j in range(n):
                gaj = ga[j]
                jac[j] = [f + hd * gaj for f, hd in zip(jac[j], hdot_a)]
    dfdq, dfdv = [], []
    for row, mj in zip(jac, mass):
        dfdq.append([f / mj for f in row[:n]])
        dfdv.append([f / mj for f in row[n:]])
    return accel, dfdq, dfdv


def constraint_values(spec: SystemSpec, q, v, t=0.0):
    return [c._fn(q, v, t) for c in spec.constraints.exprs]


def project_initial_state(spec: SystemSpec, q0, v0, t: float = 0.0, tol: float = 1e-12,
                          max_iter: int = 50):
    """Newton-adjust v0 along span{dD_a/dv} until |D_a(q0, v)| <= tol.

    Gauss-Newton on the underdetermined system; q0 is never touched.
    """
    if not spec.constraints.exprs:
        return tuple(float(x) for x in v0)
    q = [float(x) for x in q0]
    v = [float(x) for x in v0]
    cons = spec.constraints.exprs
    for _ in range(max_iter):
        d = [c._fn(q, v, t) for c in cons]
        if all(abs(x) <= tol for x in d):  # each value: max() drops a NaN that is not first
            return tuple(v)
        jac = np.array([_expr.grad_raw(c, q, v, t)[1] for c in cons], dtype=float)
        jjt = jac @ jac.T
        try:
            step = jac.T @ np.linalg.solve(jjt, np.array(d))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("degenerate constraint Jacobian during projection") from exc
        v = [vi - si for vi, si in zip(v, step.tolist())]
    raise NoConvergence(f"initial-state projection did not converge in {max_iter} iterations")
