"""Straight-line float kernels of one system, generated from its expression trees.

Three generated functions serve every float caller of F and of its Jacobians:

* ``accel(q, v, t)``, bit for bit ``engine.acceleration_raw``;
* ``diag(q, v, t) -> (D, h, min_eig, F)``, bit for bit ``engine.constraint_values``
  followed by ``engine.multipliers_raw``, and F bit for bit ``accel``;
* ``jac(q, v, t) -> (F, dfdq, dfdv)``, bit for bit ``engine.acceleration_jacobian_raw``.

``SystemSpec.kernel`` is the one holder of a system's generated code, a
:class:`Kernel` built on first use and kept on the spec.  ``accel`` and
``diag`` are built with it, ``jac`` on the first off-surface (pi != 0) flow
evaluation: its source, with the second partials of every constraint, takes
0.4-0.8 ms to generate on the sleigh systems and the wheel, a cost that CLI
``verify``, which builds a fresh spec per config and stays on the surface,
would otherwise pay.

The generated source runs the generic operations in the generic order.  All
three functions share one prefix: the constraint values (``diag`` only), then
the forces, then the partials of each constraint in ``expr.partial_exprs``
order, the Gram matrix with its regularity check and the multipliers h.
``jac`` goes on with the partials of each force (the ``t`` entry computed and
dropped, as ``grad_raw`` does), then for each non-``t`` partial of each
constraint its own partials and the updates of the right-hand sides and of
the Jacobian rows they feed, each update a fresh local in the loop order of
``engine.acceleration_jacobian_raw``.  Each tree becomes one statement per
node, with the float semantics of the ``dual`` function that the generic
path calls there written out, each domain test raising the same
``ExprDomainError`` text just before the operation it guards:

* ``/`` is ``if den == 0.0: raise ...`` and a plain ``num / den`` (a nonzero
  literal divisor needs no test);
* ``^`` with a literal integer exponent up to 2**64 in size is
  ``dual.ipow``'s multiply and square sequence, 1.0 for exponent 0, and for a
  negative one both of its zero tests and ``1.0 / d``;
* ``sin`` and ``cos`` are ``math.sin``/``math.cos`` after a test for +-inf,
  made once per argument, as either would raise at the same argument;
* ``tan`` is the ``cos`` node, the pole test ``|cos| < dual._POLE_TOL``, the
  ``sin`` node and a plain division;
* ``log`` and ``sqrt`` are their domain test and the ``math`` call, ``abs``
  the builtin, the derivative's ``sgn`` a conditional expression;
* ``exp`` (its overflow test is a ``try``) and every other ``^`` (real, not
  constant, or huge) call the float-only ``_exp`` and ``_pow``.

No generated function calls into ``dual``; the generic engine and the dual
path behind the Poisson brackets keep ``expr``'s dual-aware helpers.  A value
computed earlier in that order is reused, with its tests, which is exact
because every operation is pure.  Sums accumulate as flat
left-to-right chains from 0.0, absent partials entering as 0.0, so signed
zeros, NaN and the first error raised are those of the generic path.  The
Gram solve is unrolled too: m = 1 to ``min_eig = G``, ``h = b / G``, and m >= 2
to the Gaussian elimination of ``engine._solve_linear``, pivot search and row
swaps included (``_eliminate``), the same floats as the generic path, which has
no such shortcut.  For m >= 2 the smallest eigenvalue (``engine._gram_min_eig``)
is computed only where a Gershgorin certificate that it clears the floor fails
(``_certified``): the floor eps_reg in ``accel`` and ``jac``, so they raise
exactly where the generic check does, and the run's guard floor 10 eps_reg in
``diag``.  Where ``diag``'s certificate holds, neither the regularity error nor
the run's Gram guard can fire, and ``diag`` returns the Gram matrix in place of
min_eig; the run fills in the eigenvalues of all such samples when it ends, in
one stacked call (``engine._gram_min_eigs``), the same floats.  Any NaN or inf
fails the certificate, so errors stay where they were.  ``diag`` returns F, the
sum the prefix ends in, too: an RK4 step takes it as its first stage.  The 2n
Jacobian directions of ``jac`` go through one ``np.linalg.solve`` for m >= 2.

Every generated source compiles through ``_compile``, the one ``exec``, cached
by text, into a ``make(...)`` factory over what the source binds.  For these
three that is every finite constant -- the masses, ``eps_reg`` and the
literals of the trees, save the integer exponents that are unrolled -- so
systems that differ only in such numbers (friction k, masses, ``eps_reg``)
share one ``compile()``.

The integrators step with generated code too, in four more functions:

* ``step(t, y, dt, a1)`` of RK4 and ``step(t, y, dt)`` of RKF45 (which returns
  ``(y5, err)``) for the flow [q, v]: bit for bit ``integrate._rk4_step`` and
  ``_rkf45_step`` on ``y[n:] + accel(y[:n], y[n:], t)``, errors included.  The
  RK4 step takes its first stage's F, at t itself, as a1 = accel(y[:n], y[n:], t),
  which a run with constraints reads off the ``diag`` it made at that sample;
  RKF45 evaluates its first stage at t + 0.0 * dt, which is not t where t = -0.0,
  so it calls ``accel`` for all six;
* ``flow(y, mu_e, t)`` on the flat row [q, p, v, pi, e, pi_e]: bit for bit
  ``hamiltonian.hamiltonian_vector_field``, its e == 0 error, its pi = 0
  branch (``accel``) and its contractions sum_j pi_j dF_j/dx_i over what
  ``jac`` returns unrolled;
* the same two steps for the extended flow, stage by stage
  ``flow(row, mu(t), t)``;
* ``run(...)``, the RK4 run loop of the flow [q, v] with constraints
  (``Kernel.rk4_run``): the RK4 step above, each stage emitted by the same
  ``_rk4``, followed per step by the new row's finite test, its ``diag``, the
  run's margins (the Gram floor, the drift or the projection's surface test,
  and the user guards, called as ``g(q, v, t)`` with the tuples that ``diag``
  gets) and the append of the sample to the run's lists.  It returns to
  ``integrate`` at the first step that the driver must take
  (``integrate._advance``): a row that is not finite, a margin that is not
  > 0.0, or an error in ``accel``, ``diag``, a guard or the projection, which
  ``integrate`` passes in as ``project(q, v, t)``.

A step unpacks the row into locals and unrolls each stage per component,
with the reference's operations in its order, zero weights included (0.0 *
inf is NaN).  Its source depends only on (n, method), and that of ``flow``
and of the run loop on n alone, so each text is generated once per process
(``_step_template``, ``_flow_template``, ``_run_template``) and every system
of that size binds its one compile: a fresh spec, as CLI ``verify`` builds
per config, generates no step source.  The run loop binds ``accel`` and
``diag`` and takes everything of the run (its lists, guards, floor, drift
tolerance and projection) as arguments, so it holds nothing of the spec.
The kernel builds its two steps, the run loop and ``flow`` on first use and keeps them;
``extended_step`` binds the run's mu_e, so it is built per run.  ``flow``
gets ``jac`` through a cached builder at each off-surface call, which keeps
``jac`` unbuilt until the first off-surface evaluation.  The kernel keeps a
copy of its spec's fields, not the spec, and ``flow`` holds ``accel`` and that
builder, not the kernel, so no reference cycle keeps a spec's code alive.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cache, cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import engine
from .dual import _POLE_TOL
from .errors import RUN_ERRORS, ExprDomainError, RegularityError
from .expr import Const, Unary, Var, partial_exprs

_REGULARITY = ('raise RegularityError(f"constraint Gram matrix smallest eigenvalue '
               '{min_eig:.3e} below floor {eps:.3e}")')
_UNROLL_BITS = 64  # a constant integer power up to 2**64 - 1 is unrolled, a larger one is not


def _literal(node):
    """The float value of a literal or of a negated literal, else None."""
    if isinstance(node, Unary) and node.op == "neg":
        value = _literal(node.arg)
        return None if value is None else -value
    return float(node.value) if isinstance(node, Const) else None


def _raise(message: str) -> str:
    """The indented line under a generated test that raises ExprDomainError(message)."""
    return f'    raise ExprDomainError("{message}")'


# Float-only helpers for what the kernels do not inline: exp, whose overflow test is a
# try, and a real, non-constant or huge ``^``.  Each is ``dual``'s function on floats.

def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        raise ExprDomainError("exp overflows the float range") from None


def _ipow(x, n: int):
    """``dual.ipow``: x**n for integer n by squaring."""
    if n == 0:
        return 1.0
    if n < 0:
        if x == 0.0:
            raise ExprDomainError("zero raised to a negative power")
        d = _ipow(x, -n)
        if d == 0.0:
            raise ExprDomainError("negative power overflows: the positive power underflows to zero")
        return 1.0 / d
    result = base = x
    n -= 1
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _pow(x, y):
    """``dual.power``: an integer-valued y through ``_ipow`` for any base, else exp(y log x)."""
    if float(y).is_integer():
        return _ipow(x, int(y))
    if x <= 0.0:
        raise ExprDomainError("non-integer power of a non-positive base")
    return _exp(y * math.log(x))


class _Constants:
    """Argument names of the factory: masses m0.., eps, then literals c0.. by value."""

    def __init__(self, spec):
        self.names = [f"m{i}" for i in range(spec.n)] + ["eps"]
        self.values = [*spec.mass, spec.constraints.eps_reg]
        self._literals = {}

    def literal(self, value: float) -> str:
        key = repr(value)  # keeps 0.0 and -0.0 apart
        name = self._literals.get(key)
        if name is None:
            name = self._literals[key] = f"c{len(self._literals)}"
            self.names.append(name)
            self.values.append(value)
        return name


class _Body:
    """One generated function: statements over the locals q0.., v0.., t."""

    def __init__(self, constants: _Constants):
        self.constants = constants
        self.lines = []
        self._names = {}  # source of a computed value -> its local
        self._count = 0  # locals x0.. assigned so far
        self._finite = set()  # the names that sin or cos has tested for +-inf

    def node(self, node) -> str:
        """Name or literal holding the node's value, computed in evaluation order."""
        if isinstance(node, Const):
            return self.constants.literal(node.value)
        if isinstance(node, Var):
            return "t" if node.kind == "t" else f"{node.kind}{node.index - 1}"
        if isinstance(node, Unary):
            return self.unary(node.op, self.node(node.arg))
        literal = _literal(node.rhs)
        if (node.op == "^" and literal is not None and literal.is_integer()
                and abs(int(literal)).bit_length() <= _UNROLL_BITS):
            return self.ipow(self.node(node.lhs), int(literal))
        lhs, rhs = self.node(node.lhs), self.node(node.rhs)
        if node.op == "/":
            # a nonzero literal divisor needs no test
            guard = [] if literal else [f"if {rhs} == 0.0:", _raise("division by zero")]
            return self.bind(f"({lhs} / {rhs})", guard)
        if node.op == "^":
            return self.bind(f"_pow({lhs}, {rhs})")
        return self.bind(f"({lhs} {node.op} {rhs})")

    def unary(self, op: str, x: str) -> str:
        """The float semantics of ``dual``'s function op at the local x."""
        if op == "neg":
            return self.bind(f"(-{x})")
        if op == "abs":
            return self.bind(f"abs({x})")
        if op == "sgn":  # NaN is negative, -0.0 is not
            return self.bind(f"(1.0 if {x} >= 0.0 else -1.0)")
        if op in ("sin", "cos"):
            # math.sin and cos raise ValueError at +-inf only, so one test of x serves both
            guard = []
            if x not in self._finite:
                self._finite.add(x)
                guard = [f"if {x} in (1e999, -1e999):", _raise(f"{op} of an infinite value")]
            return self.bind(f"_{op}({x})", guard)
        if op == "tan":
            return self.once(f"tan({x})", lambda: self._tan(x))
        if op == "log":
            return self.bind(f"_log({x})", [f"if {x} <= 0.0:", _raise("log of non-positive value")])
        if op == "sqrt":
            return self.bind(f"_sqrt({x})", [f"if {x} < 0.0:", _raise("sqrt of negative value")])
        if op == "exp":  # its overflow test is the try in _exp
            return self.bind(f"_exp({x})")
        raise AssertionError(f"unknown unary {op!r}")

    def _tan(self, x: str) -> str:
        """``dual.tan``: cos, the pole test on it, then sin over cos, which cannot divide
        by zero."""
        c = self.unary("cos", x)
        self.lines += [f"if abs({c}) < {_POLE_TOL!r}:", _raise("tan evaluated at a pole")]
        return self.bind(f"({self.unary('sin', x)} / {c})")

    def ipow(self, x: str, n: int) -> str:
        """``dual.ipow(x, n)`` on floats for a constant n: its multiplies and squarings,
        and for n < 0 both of its zero tests and the reciprocal."""
        if n == 0:
            return "1.0"
        return self.once(f"ipow({x}, {n})", lambda: self._ipow(x, n))

    def _ipow(self, x: str, n: int) -> str:
        if n < 0:
            self.lines += [f"if {x} == 0.0:", _raise("zero raised to a negative power")]
            d = self.ipow(x, -n)
            self.lines += [f"if {d} == 0.0:", _raise("negative power overflows: the positive "
                                                     "power underflows to zero")]
            return self.bind(f"(1.0 / {d})")
        result = base = x
        n -= 1
        while n:
            if n & 1:
                result = self.bind(f"({result} * {base})")
            n >>= 1
            if n:
                base = self.bind(f"({base} * {base})")
        return result

    def bind(self, source: str, guard=()) -> str:
        """A local holding the value of source, after the lines of its guard; every local
        is assigned once, so equal source means equal value, and a value computed again
        needs no second guard."""
        return self.once(source, lambda: self._assign(source, guard))

    def once(self, key: str, emit: Callable[[], str]) -> str:
        """The name emit() computes key's value in, emitting it on key's first use only."""
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = emit()
        return name

    def _assign(self, source: str, guard) -> str:
        name = f"x{self._count}"
        self._count += 1
        self.lines += [*guard, f"{name} = {source}"]
        return name

    def grad(self, expr, n: int) -> tuple[list, list, str]:
        """(dq, dv, dt) as ``expr.grad_raw`` evaluates them: every entry of
        ``partial_exprs`` in its order, an absent partial 0.0."""
        dq, dv, dt = ["0.0"] * n, ["0.0"] * n, "0.0"
        for kind, index, d in partial_exprs(expr):
            name = self.node(d.root)
            if kind == "q":
                dq[index - 1] = name
            elif kind == "v":
                dv[index - 1] = name
            else:
                dt = name
        return dq, dv, dt


def _dot(a: list, b: list) -> str:
    """Flat chain of the left-to-right sum from 0.0, every term kept (0.0 * inf is NaN)."""
    return "(0.0" + "".join(f" + {x} * {y}" for x, y in zip(a, b)) + ")"


class _Solved(NamedTuple):
    """Names the shared prefix binds."""
    values: list  # D_a (diag only)
    f0: list
    grads: list  # (dq, dv, dt) of each constraint
    h: list
    total: list  # source of each F_i
    gram: str  # source of the Gram matrix as nested lists (m >= 2)


def _g(a: int, b: int) -> str:
    """The local of Gram entry (a, b): the symmetric entry is the same float, as in the
    generic fill."""
    return f"g{min(a, b)}_{max(a, b)}"


def _certified(m: int, floor: str) -> list[str]:
    """Source of a test that, where it holds, the generic ``_gram_min_eig(gram) <= floor``
    is false: a Gershgorin bound with margin, on every row

        g_aa - sum_{b != a} |g_ab| > floor + 1e-12 sum_{a,b} |g_ab|.

    LAPACK's symmetric eigenvalues are backward stable, |computed - exact| <=
    p(m) u ||G||_2 (Demmel, Applied Numerical Linear Algebra, 5.2), and the margin
    exceeds 4000 u ||G||_2, so where this holds the computed eigenvalue clears the
    floor too.  Any NaN or inf entry fails it: the bound is then NaN or inf, and the
    comparison is strict."""
    total = " + ".join(f"abs({_g(a, b)})" for a in range(m) for b in range(m))
    rows = [_g(a, a) + "".join(f" - abs({_g(a, b)})" for b in range(m) if b != a) + " > bound"
            for a in range(m)]
    return [f"bound = {floor} + 1e-12 * ({total})", f"if not ({' and '.join(rows)}):"]


def _eliminate(m: int) -> list[str]:
    """``engine._solve_linear`` on the Gram matrix g and the right-hand sides b0..,
    unrolled into h0..: the same float operations in the same order.  The working
    rows are the locals w{r}_{c} and b{r}, which a pivot swap rebinds; the columns
    left of the pivot, which the generic loop swaps but never reads again, are
    neither kept nor swapped."""
    w = [[f"w{r}_{c}" for c in range(m)] for r in range(m)]
    lines = [f"{', '.join(sum(w, []))} = "
             + ", ".join(_g(r, c) for r in range(m) for c in range(m))]
    for col in range(m):
        if col + 1 < m:
            # the first row of largest abs under a strict >, as max() picks it
            lines.append(f"k, piv = {col}, abs({w[col][col]})")
            for r in range(col + 1, m):
                lines += [f"alt = abs({w[r][col]})", f"if alt > piv: k, piv = {r}, alt"]
            pivot_row = [*w[col][col:], f"b{col}"]
            for r in range(col + 1, m):
                row = [*w[r][col:], f"b{r}"]
                lines += [f"{'if' if r == col + 1 else 'elif'} k == {r}:",
                          f"    {', '.join(pivot_row + row)} = {', '.join(row + pivot_row)}"]
        lines += [f"if {w[col][col]} == 0.0:",
                  '    raise RegularityError("singular constraint Gram matrix")']
        if col + 1 < m:
            lines.append(f"inv = 1.0 / {w[col][col]}")
            for r in range(col + 1, m):
                lines.append(f"fac = {w[r][col]} * inv")
                lines += [f"{w[r][c]} = {w[r][c]} - fac * {w[col][c]}" for c in range(col + 1, m)]
                lines.append(f"b{r} = b{r} - fac * b{col}")
    for r in reversed(range(m)):
        lines.append(f"h{r} = (b{r}" + "".join(f" - {w[r][c]} * h{c}" for c in range(r + 1, m))
                     + f") / {w[r][r]}")
    return lines


def _solve(spec, body: _Body, diag: bool) -> _Solved:
    """Emit the prefix of all three functions: the constraint values (diag only), the
    forces, the constraint partials, the Gram matrix with its regularity check, and h."""
    n = spec.n
    cons = spec.constraints.exprs
    m = len(cons)
    mass = [f"m{i}" for i in range(n)]
    values = [body.node(c.root) for c in cons] if diag else []
    if spec.forces is None:
        f0 = ["0.0"] * n
    else:
        f0 = [body.node(f.root) for f in spec.forces]
    grads = [body.grad(con, n) for con in cons]
    out = body.lines

    # flat left-associative chains: the generic loops' association, no nesting limit
    def gram(a: int, b: int) -> str:
        dva, dvb = grads[a][1], grads[b][1]
        return "0.0" + "".join(f" + {dva[i]} * {dvb[i]} / {mass[i]}" for i in range(n))

    def rhs(a: int) -> str:
        dq, dv, dt = grads[a]
        return f"-{dt}" + "".join(f" - {dq[i]} * v{i} - {dv[i]} * {f0[i]} / {mass[i]}"
                                  for i in range(n))

    h = [f"h{a}" for a in range(m)]
    matrix = "[" + ", ".join("[" + ", ".join(_g(a, b) for b in range(m)) + "]"
                             for a in range(m)) + "]"
    check = ["if min_eig < eps:", f"    {_REGULARITY}"]
    if m == 1:
        out += [f"min_eig = {gram(0, 0)}", f"b0 = {rhs(0)}", *check, "h0 = b0 / min_eig"]
    elif not m:
        if diag:  # the generic empty-Gram call, which raises in eigvalsh
            out += [f"min_eig = _gram_min_eig({matrix})", *check]
    else:
        out += [f"{_g(a, b)} = {gram(a, b)}" for a in range(m) for b in range(a, m)]
        # eigvalsh only where the certificate fails; diag certifies the run's guard
        # floor, 10 eps, and hands back the Gram matrix where it holds
        out += [*_certified(m, "10.0 * eps" if diag else "eps"),
                f"    min_eig = _gram_min_eig({matrix})", *(f"    {line}" for line in check)]
        if diag:
            out += ["else:", f"    min_eig = {matrix}"]
        out += [f"b{a} = {rhs(a)}" for a in range(m)] + _eliminate(m)
    total = ["(" + f0[i] + "".join(f" + {h[a]} * {grads[a][1][i]}" for a in range(m))
             + f") / {mass[i]}" for i in range(n)]
    return _Solved(values, f0, grads, h, total, matrix)


def _accel(spec, body: _Body) -> list[str]:
    solved = _solve(spec, body, diag=False)
    return body.lines + [f"return [{', '.join(solved.total)}]"]


def _diag(spec, body: _Body) -> list[str]:
    solved = _solve(spec, body, diag=True)
    return body.lines + [f"return [{', '.join(solved.values)}], [{', '.join(solved.h)}], min_eig, "
                         f"[{', '.join(solved.total)}]"]


def _jac(spec, body: _Body) -> list[str]:
    """``jac``: the closed-form derivative of the multiplier solve, in the loop order of
    ``engine.acceleration_jacobian_raw`` (see there for the formulas)."""
    n = spec.n
    cons = spec.constraints.exprs
    m = len(cons)
    solved = _solve(spec, body, diag=False)
    f0, grads, h = solved.f0, solved.grads, solved.h
    bind = body.bind
    # jac[j][x] = m_j dF_j/dx over x = q_1..q_n, v_1..v_n, once complete
    if spec.forces is None:
        jac = [["0.0"] * (2 * n) for _ in range(n)]
    else:
        jac = [dq + dv for dq, dv, _ in (body.grad(f, n) for f in spec.forces)]
    if m:
        g_m = [[bind(f"{dv[i]} / m{i}") for i in range(n)] for _, dv, _ in grads]
        f0_m = [bind(f"{f0[i]} / m{i}") for i in range(n)]
        rhs = []
        for ga_m, (dqa, _, _) in zip(g_m, grads):
            ra = ["0.0"] * n + [bind(f"(-{d})") for d in dqa]
            for c, row in zip(ga_m, jac):
                ra = [bind(f"{r} - {c} * {d}") for r, d in zip(ra, row)]
            rhs.append(ra)
        v = [f"v{i}" for i in range(n)]
        for a, con in enumerate(cons):
            ra = rhs[a]
            for kind, index, dcon in partial_exprs(con):
                if kind == "t":
                    continue
                x = index - 1 if kind == "q" else n + index - 1
                hq, gdot, ht = body.grad(dcon, n)
                ra[x] = bind(f"{ra[x]} - ({ht} + {_dot(hq, v)} + {_dot(gdot, f0_m)})")
                for b, gb_m in enumerate(g_m):  # b == a updates ra[x] twice
                    c_ab = bind(_dot(gdot, gb_m))
                    ra[x] = bind(f"{ra[x]} - {c_ab} * {h[b]}")
                    rhs[b][x] = bind(f"{rhs[b][x]} - {c_ab} * {h[a]}")
                for j in range(n):
                    jac[j][x] = bind(f"{jac[j][x]} + {h[a]} * {gdot[j]}")
        if m == 1:
            hdot = [[bind(f"{r} / min_eig") for r in rhs[0]]]
        else:
            # one LU factorisation of G serves every direction
            hdot = [[f"hd{a}_{x}" for x in range(2 * n)] for a in range(m)]
            targets = ", ".join(f"[{', '.join(row)}]" for row in hdot)
            rows = ", ".join(f"[{', '.join(row)}]" for row in rhs)
            body.lines.append(f"{targets}, = _lu_solve(_array({solved.gram}), "
                              f"_array([{rows}])).tolist()")
        for (_, ga, _), hdot_a in zip(grads, hdot):
            for j in range(n):
                jac[j] = [bind(f"{f} + {hd} * {ga[j]}") for f, hd in zip(jac[j], hdot_a)]

    def block(xs) -> str:
        return "[" + ", ".join("[" + ", ".join(f"{row[x]} / m{j}" for x in xs) + "]"
                               for j, row in enumerate(jac)) + "]"
    return body.lines + [f"return [{', '.join(solved.total)}], "
                         f"{block(range(n))}, {block(range(n, 2 * n))}"]


def _text(args: list, functions: dict) -> str:
    """Source of ``make(*args)``, which defines each function (signature -> body lines)
    and returns them as a tuple, in that order."""
    lines = [f"def make({', '.join(args)}):"]
    for signature, body in functions.items():
        lines += [f"    def {signature}:", *(f"        {line}" for line in body)]
    names = ", ".join(signature.split("(")[0] for signature in functions)
    return "\n".join(lines + [f"    return {names},"]) + "\n"


def _source(spec, emitters: dict) -> tuple[str, list]:
    """(source of ``make``, the values of its arguments): ``make`` returns the functions
    ``f(q, v, t)`` that ``emitters`` (name -> source lines of the body) generate."""
    constants = _Constants(spec)
    unpack = [f"{', '.join(f'{k}{i}' for i in range(spec.n))}, = {k}"
              for k in "qv" if spec.n]
    functions = {f"{name}(q, v, t)": unpack + emit(spec, _Body(constants))
                 for name, emit in emitters.items()}
    return _text(constants.names, functions), constants.values


@lru_cache(maxsize=128)
def _compile(text: str) -> Callable:
    """The compiled ``make`` of a generated source: the one ``exec``, over ``math``'s
    functions, the float-only helpers, the error types and the solver helpers, with no
    builtins.  The namespace is read here, so a patched ``engine._gram_min_eig`` reaches
    only later compiles."""
    namespace = dict(_sin=math.sin, _cos=math.cos, _log=math.log, _sqrt=math.sqrt,
                     _exp=_exp, _pow=_pow, abs=abs, max=max, map=map, list=list,
                     isfinite=math.isfinite, RUN_ERRORS=RUN_ERRORS,
                     RegularityError=RegularityError, ExprDomainError=ExprDomainError,
                     _gram_min_eig=engine._gram_min_eig, _lu_solve=np.linalg.solve,
                     _array=np.array, __builtins__={})
    exec(compile(text, "<kernel>", "exec"), namespace)
    return namespace["make"]


# --- generated steps and the extended flow -----------------------------------------

# Fehlberg 4(5) tableau, shared with the reference ``integrate._rkf45_step``
_RKF_A = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_B = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_C4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)


def _tuple(names: list) -> str:
    return "(" + "".join(f"{x}, " for x in names) + ")"


def _second_order_stage(n: int, given: int = -1) -> Callable:
    """Stage of the flow [q, v] -> [v, accel(q, v, t)]: the v half of the stage state
    is the q half of the slope, as in ``y[n:] + accel(...)``.  Stage ``given`` takes
    its F from the step's argument a1 instead of calling accel."""
    def stage(lines: list, k: int, y: list, t: str) -> list:
        a = [f"a{k}_{i}" for i in range(n)]
        f = "a1" if k == given else f"accel({_tuple(y[:n])}, {_tuple(y[n:])}, {t})"
        lines.append(f"[{', '.join(a)}] = {f}")
        return y[n:] + a
    return stage


def _extended_stage(dim: int) -> Callable:
    """Stage of the extended flow: ``flow(row, mu(t), t)`` on the stage row."""
    def stage(lines: list, k: int, y: list, t: str) -> list:
        slope = [f"k{k}_{i}" for i in range(dim)]
        lines.append(f"[{', '.join(slope)}] = flow([{', '.join(y)}], mu({t}), {t})")
        return slope
    return stage


def _rk4(dim: int, stage: Callable, into: str = "return") -> list[str]:
    """``integrate._rk4_step`` unrolled per component: the same operations in its order.
    The last line is ``{into} [new row]``: the step returns it, the run loop assigns it."""
    s = [f"s{i}" for i in range(dim)]
    lines = [f"[{', '.join(s)}] = y"]
    k1 = stage(lines, 1, s, "t")
    lines += ["half = 0.5 * dt", "th = t + half"]
    y2 = [f"y2_{i}" for i in range(dim)]
    lines += [f"{y2[i]} = {s[i]} + half * {k1[i]}" for i in range(dim)]
    k2 = stage(lines, 2, y2, "th")
    y3 = [f"y3_{i}" for i in range(dim)]
    lines += [f"{y3[i]} = {s[i]} + half * {k2[i]}" for i in range(dim)]
    k3 = stage(lines, 3, y3, "th")
    y4 = [f"y4_{i}" for i in range(dim)]
    lines += [f"{y4[i]} = {s[i]} + dt * {k3[i]}" for i in range(dim)] + ["tf = t + dt"]
    k4 = stage(lines, 4, y4, "tf")
    lines.append("sixth = dt / 6.0")
    new = [f"{s[i]} + sixth * ({k1[i]} + 2.0 * ({k2[i]} + {k3[i]}) + {k4[i]})"
           for i in range(dim)]
    return lines + [f"{into} [{', '.join(new)}]"]


def _rkf45(dim: int, stage: Callable) -> list[str]:
    """``integrate._rkf45_step`` unrolled per component, returning (y5, err): every
    increment kept, zero weights included (0.0 * inf is NaN)."""
    s = [f"s{i}" for i in range(dim)]
    lines = [f"[{', '.join(s)}] = y"]
    slopes = []
    for k in range(6):
        y = s
        if k:
            lines += [f"b{k}_{j} = dt * {b!r}" for j, b in enumerate(_RKF_B[k])]
            y = [f"y{k}_{i}" for i in range(dim)]
            lines += [f"{y[i]} = {s[i]}" + "".join(f" + b{k}_{j} * {slopes[j][i]}"
                                                   for j in range(k))
                      for i in range(dim)]
        lines.append(f"t{k} = t + {_RKF_A[k]!r} * dt")
        slopes.append(stage(lines, k, y, f"t{k}"))
    for order, weights in (("c5", _RKF_C5), ("c4", _RKF_C4)):
        lines += [f"{order}_{k} = dt * {c!r}" for k, c in enumerate(weights)]
    for out, order in (("z", "c5"), ("w", "c4")):
        lines += [f"{out}{i} = {s[i]}" + "".join(f" + {order}_{k} * {slopes[k][i]}"
                                                 for k in range(6))
                  for i in range(dim)]
    err = "".join(f"abs(z{i} - w{i}), " for i in range(dim))
    return lines + [f"return [{', '.join(f'z{i}' for i in range(dim))}], max(({err}))"]


_METHODS = {"rk4": _rk4, "rkf45": _rkf45}


@lru_cache(maxsize=64)
def _step_template(n: int, method: str, extended: bool) -> str:
    """Source of the ``make`` of a step: ``make(accel)`` for the flow [q, v] of n
    coordinates, ``make(flow, mu)`` for the extended row of 4n + 2.  The stage
    arithmetic depends only on (n, method), so every system of n coordinates shares it.
    The RK4 step of the flow [q, v] is ``step(t, y, dt, a1)``: its first stage, at t
    itself, takes a1 = accel(q, v, t) as given."""
    signature = "step(t, y, dt)"
    if extended:
        dim, args, stage = 4 * n + 2, ["flow", "mu"], _extended_stage(4 * n + 2)
    elif method == "rk4":
        dim, args, stage = 2 * n, ["accel"], _second_order_stage(n, given=1)
        signature = "step(t, y, dt, a1)"
    else:  # RKF45's first stage is at t + 0.0 * dt, which is not t where t = -0.0
        dim, args, stage = 2 * n, ["accel"], _second_order_stage(n)
    return _text(args, {signature: _METHODS[method](dim, stage)})


@lru_cache(maxsize=64)
def _run_template(n: int) -> str:
    """Source of the ``make(accel, diag)`` of the RK4 run loop of the flow [q, v] of n
    coordinates, ``Kernel.rk4_run``: per step the RK4 step of ``_step_template`` (its
    first stage the F of the last recorded ``diag``), the new row's finite test, its
    ``diag``, the margins of the run's guards, the projection and the record.  Any of
    those that needs the driver returns the step to it."""
    dim = 2 * n
    z, w = [f"z{i}" for i in range(dim)], [f"w{i}" for i in range(n)]
    q, v = _tuple(z[:n]), _tuple(z[n:])
    step = _rk4(dim, _second_order_stage(n, given=1), into="y =")
    finite = " and ".join(f"isfinite({x})" for x in z)
    body = [
        "t, y = times[-1], rows[-1]",
        "add_t, add_y, add_d, add_h, add_e = (times.append, rows.append, ds.append, "
        "hs.append, eigs.append)",
        "while i < n_steps:",
        "    tn = t0 + (i + 1) * dt",
        "    try:",
        *(f"        {line}" for line in step),
        "    except RUN_ERRORS:",
        "        return i, a1, None, None",
        f"    [{', '.join(z)}] = y",
        f"    if not ({finite}):",
        "        return i, a1, y, None",
        f"    qn, vn = {q}, {v}",
        "    try:",
        "        d = diag(qn, vn, tn)",
        "    except RUN_ERRORS:",
        "        return i, a1, y, None",
        "    D, h, min_eig, f = d",
        "    far = max(map(abs, D))",
        # a Gram matrix in min_eig's place certifies it above the floor
        "    if min_eig.__class__ is not list and not min_eig - floor > 0.0:",
        "        return i, a1, y, d",
        "    if project is None and not drift - far > 0.0:",
        "        return i, a1, y, d",
        "    try:",
        "        for g in guards:",
        "            if not g(qn, vn, tn) > 0.0:",
        "                return i, a1, y, d",
        "    except RUN_ERRORS:",
        "        return i, a1, y, d",
        "    if project is not None and not far <= tol:",
        "        try:",
        f"            [{', '.join(w)}] = project(qn, vn, tn)",
        f"            d = diag(qn, {_tuple(w)}, tn)",
        "        except RUN_ERRORS:",
        "            return i, a1, y, d",
        f"        y = [{', '.join(z[:n] + w)}]",
        "        D, h, min_eig, f = d",
        "    add_t(tn)",
        "    add_y(y)",
        "    add_d(D)",
        "    add_h(h)",
        "    add_e(min_eig)",
        "    t, a1, i = tn, f, i + 1",
        "return i, a1, None, None",
    ]
    signature = ("run(t0, dt, i, n_steps, a1, times, rows, ds, hs, eigs, guards, floor, drift, "
                 "project, tol)")
    return _text(["accel", "diag"], {signature: body})


@lru_cache(maxsize=64)
def _flow_template(n: int) -> str:
    """Source of the ``make(accel, get_jac)`` of the extended flow of n coordinates: bit for
    bit ``hamiltonian.hamiltonian_vector_field``, with the contractions
    sum_j pi_j dF_j/dx_i unrolled.  ``get_jac()`` returns the kernel's ``jac``, built on its
    first call, so it is built on the first off-surface evaluation, as there."""
    q, p, v, r = ([f"{k}{i}" for i in range(n)] for k in ("q", "p", "v", "r"))
    f = [f"f{i}" for i in range(n)]
    vd = [f"{r[i]} / e + {f[i]}" for i in range(n)]
    pi_ed = "(0.0" + "".join(f" + {x} * {x}" for x in r) + ") / (2.0 * e * e)"

    def out(pd, pid):
        return f"return [{', '.join(v + pd + vd + pid + ['mu_e', pi_ed])}]"

    def rows(name):
        return ", ".join(f"[{', '.join(f'{name}{j}_{i}' for i in range(n))}]"
                         for j in range(n))

    def contraction(name, i):
        return "(0.0" + "".join(f" + {r[j]} * {name}{j}_{i}" for j in range(n)) + ")"
    body = [f"[{', '.join(q + p + v + r + ['e', 'pi_e'])}] = y",
            "if e == 0.0:",
            '    raise ExprDomainError("auxiliary variable e is zero")',
            f"if {' and '.join([f'{x} == 0.0' for x in r] or ['True'])}:",
            f"    [{', '.join(f)}] = accel({_tuple(q)}, {_tuple(v)}, t)",
            "    " + out(["0.0"] * n, [f"-{x}" for x in p]),
            f"[{', '.join(f)}], [{rows('dq')}], [{rows('dv')}] = "
            f"get_jac()({_tuple(q)}, {_tuple(v)}, t)",
            out([f"-{contraction('dq', i)}" for i in range(n)],
                [f"-{p[i]} - {contraction('dv', i)}" for i in range(n)])]
    return _text(["accel", "get_jac"], {"flow(y, mu_e, t)": body})


class Kernel:
    """The generated code of one system, kept on its spec (``SystemSpec.kernel``).
    ``accel`` and ``diag`` are built with it; ``jac``, ``rk4_step``, ``rkf45_step``,
    ``rk4_run`` and ``flow`` on first use, and kept; ``extended_step`` per run, because it binds the run's
    mu_e.  Nothing here refers back to the spec or to the kernel, so reference counting
    frees them with the spec."""

    def __init__(self, spec):
        self._n = spec.n
        # a field-for-field copy: holding the spec would close a cycle with spec.kernel
        spec = replace(spec)
        self.accel, self.diag = _build(spec, {"accel": _accel, "diag": _diag})
        # the flow reaches jac through this, which holds the copy but not the kernel
        self._get_jac = cache(lambda: _build(spec, {"jac": _jac})[0])

    @cached_property
    def jac(self) -> Callable:
        """``jac(q, v, t) -> (F, dfdq, dfdv)``, built on its first use here or in ``flow``;
        only off-surface flows call it."""
        return self._get_jac()

    @cached_property
    def rk4_step(self) -> Callable:
        """RK4 ``step(t, y, dt, a1)`` of the flow [q, v], a1 being accel at (t, y) (the
        F that ``diag`` returns there): the new row."""
        return self._step("rk4", False, self.accel)

    @cached_property
    def rkf45_step(self) -> Callable:
        """RKF45 ``step(t, y, dt) -> (y5, err)`` of the flow [q, v]."""
        return self._step("rkf45", False, self.accel)

    @cached_property
    def flow(self) -> Callable:
        """``flow(y, mu_e, t)`` of the extended row, bit for bit
        ``hamiltonian_vector_field``."""
        (flow,) = _compile(_flow_template(self._n))(self.accel, self._get_jac)
        return flow

    @cached_property
    def rk4_run(self) -> Callable:
        """The RK4 run loop of the flow [q, v] for m >= 1, ``run(t0, dt, i, n_steps, a1,
        times, rows, ds, hs, eigs, guards, floor, drift, project, tol) -> (i, a1, y, d)``.

        From the last recorded sample (``times[-1]``, ``rows[-1]``, whose F is a1) it
        takes steps i, i + 1, .. < n_steps of size dt, step i ending at t0 + (i + 1) * dt,
        and appends each new sample's t, row, D, h and min_eig to the five lists.  It
        returns at the first new row that is not finite, makes ``accel``, ``diag``, a
        guard or ``project`` raise one of ``RUN_ERRORS``, or reads a margin that is not
        > 0.0 (NaN included): min_eig - floor, drift - max |D| (project None) and each
        user guard ``g(q, v, t)`` of ``guards``, on the tuples ``diag`` gets.  It
        returns that step's index i, the F of the last recorded sample, the new row (None
        where the step raised) and its ``diag`` (None where it was not made or raised);
        i == n_steps when every step was recorded.  With ``project`` (``project(q, v, t)``
        -> v), a row with max |D| > tol is recorded with its projected v and that state's
        ``diag``."""
        (run,) = _compile(_run_template(self._n))(self.accel, self.diag)
        return run

    def extended_step(self, method: str, mu: Callable) -> Callable:
        """``step(t, y, dt)`` of the extended flow with mu_e = mu(t)."""
        return self._step(method, True, self.flow, mu)

    def _step(self, method: str, extended: bool, *args) -> Callable:
        (step,) = _compile(_step_template(self._n, method, extended))(*args)
        return step


def _build(spec, emitters: dict) -> tuple:
    text, values = _source(spec, emitters)
    return _compile(text)(*values)
