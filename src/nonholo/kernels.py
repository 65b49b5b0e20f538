"""Straight-line float kernels of one system, generated from its expression trees.

``SystemSpec.kernel`` builds a :class:`Kernel` on first use and keeps it on the
spec.  Its two functions serve every float caller of F:

* ``accel(q, v, t)``, bit for bit ``engine.acceleration_raw``;
* ``diag(q, v, t) -> (D, h, min_eig)``, bit for bit ``engine.constraint_values``
  followed by ``engine.multipliers_raw``.

The generated source runs the generic operations in the generic order: the
constraint values (``diag`` only), then the forces, then the partials of each
constraint in ``expr.partial_exprs`` order.  Each tree becomes one statement
per node, through the ``expr._NS`` helpers that the compiled expressions call
(``tan`` is sin/cos with its pole guard, ``^`` is ``dual.power``, ``/`` is the
guarded division); a subtree already computed earlier in that order is
reused, which is exact because the helpers are pure.  The Gram sums, the
right-hand sides and the total force accumulate in the loop order of
``engine``, absent partials entering as 0.0, so signed zeros, NaN and the
first error raised are those of the generic path.  For m != 1 the Gram
matrix goes through ``engine._gram_min_eig`` and ``engine._solve_linear``.

Every finite constant -- the masses, ``eps_reg`` and the literals of the
trees -- is an argument of a generated ``make(...)`` factory, and the
compiled factories are cached by source text, so systems that differ only in
such numbers (friction k, masses, ``eps_reg``) share one ``compile()``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from . import engine
from .errors import RegularityError
from .expr import _EMIT_FN, _NS, Const, Unary, Var, partial_exprs

_REGULARITY = ('raise RegularityError(f"constraint Gram matrix smallest eigenvalue '
               '{min_eig:.3e} below floor {eps:.3e}")')


class Kernel(NamedTuple):
    accel: Callable
    diag: Callable


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
        self._names = {}  # source of a computed node -> its local

    def node(self, node) -> str:
        """Name or literal holding the node's value, computed in evaluation order."""
        if isinstance(node, Const):
            return self.constants.literal(node.value)
        if isinstance(node, Var):
            return "t" if node.kind == "t" else f"{node.kind}{node.index - 1}"
        if isinstance(node, Unary):
            arg = self.node(node.arg)
            source = f"(-{arg})" if node.op == "neg" else f"{_EMIT_FN[node.op]}({arg})"
        else:
            lhs, rhs = self.node(node.lhs), self.node(node.rhs)
            if node.op == "/":
                source = f"_div({lhs}, {rhs})"
            elif node.op == "^":
                source = f"_pow({lhs}, {rhs})"
            else:
                source = f"({lhs} {node.op} {rhs})"
        return self.bind(source)

    def bind(self, source: str) -> str:
        name = self._names.get(source)
        if name is None:
            name = self._names[source] = f"x{len(self._names)}"
            self.lines.append(f"{name} = {source}")
        return name


def _function(spec, constants: _Constants, diag: bool) -> list[str]:
    """Source lines of ``accel`` (diag False) or ``diag``, indented for ``make``."""
    n = spec.n
    cons = spec.constraints.exprs
    m = len(cons)
    body = _Body(constants)
    mass = [f"m{i}" for i in range(n)]
    values = [body.node(c.root) for c in cons] if diag else []
    if spec.forces is None:
        f0 = ["0.0"] * n
    else:
        f0 = [body.node(f.root) for f in spec.forces]
    grads = []
    for con in cons:
        dq, dv, dt = ["0.0"] * n, ["0.0"] * n, "0.0"
        for kind, index, d in partial_exprs(con):
            name = body.node(d.root)
            if kind == "q":
                dq[index - 1] = name
            elif kind == "v":
                dv[index - 1] = name
            else:
                dt = name
        grads.append((dq, dv, dt))
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
    if m == 1:
        out += [f"min_eig = {gram(0, 0)}",
                f"b0 = {rhs(0)}",
                "if min_eig < eps:",
                f"    {_REGULARITY}",
                "h0 = b0 / min_eig"]
    elif m or diag:
        # (m = 0: diag keeps the generic empty-Gram call, which raises in eigvalsh);
        # the symmetric entry is the same float, as in the generic fill
        for a in range(m):
            for b in range(a, m):
                out.append(f"g{a}_{b} = {gram(a, b)}")
        rows = [f"[{', '.join(f'g{min(a, b)}_{max(a, b)}' for b in range(m))}]"
                for a in range(m)]
        out += [f"gram = [{', '.join(rows)}]",
                "min_eig = _gram_min_eig(gram)",
                "if min_eig < eps:",
                f"    {_REGULARITY}",
                f"h = _solve_linear(gram, [{', '.join(rhs(a) for a in range(m))}])"]
    if diag:
        out.append(f"return [{', '.join(values)}], {'[h0]' if m == 1 else 'h'}, min_eig")
        return out
    if m > 1:
        out.append(f"{', '.join(h)} = h")
    total = ["(" + f0[i] + "".join(f" + {h[a]} * {grads[a][1][i]}" for a in range(m))
             + f") / {mass[i]}" for i in range(n)]
    out.append(f"return [{', '.join(total)}]")
    return out


def _source(spec) -> tuple[str, list]:
    """(source of ``make``, the values of its arguments) for a system."""
    constants = _Constants(spec)
    functions = {name: _function(spec, constants, name == "diag") for name in ("accel", "diag")}
    unpack = [f"{', '.join(f'{k}{i}' for i in range(spec.n))}, = {k}"
              for k in "qv" if spec.n]
    lines = [f"def make({', '.join(constants.names)}):"]
    for name, body in functions.items():
        lines.append(f"    def {name}(q, v, t):")
        lines += [f"        {line}" for line in unpack + body]
    lines.append("    return accel, diag")
    return "\n".join(lines) + "\n", constants.values


@lru_cache(maxsize=64)
def _factory(text: str) -> Callable:
    """The compiled ``make`` of a kernel source."""
    namespace = dict(_NS, RegularityError=RegularityError,
                     _gram_min_eig=engine._gram_min_eig, _solve_linear=engine._solve_linear)
    exec(compile(text, "<kernel>", "exec"), namespace)
    return namespace["make"]


def build(spec) -> Kernel:
    """The kernel of a system (``SystemSpec.kernel`` keeps it on the spec)."""
    text, values = _source(spec)
    return Kernel(*_factory(text)(*values))
