"""Scalar expression front-end.

Grammar over variables q1..qn, v1..vn and t, with +, -, *, /, ^ and the
unary functions sin, cos, tan, exp, log, sqrt, abs.  Parsed trees are
immutable; evaluation and differentiation are pure.  An ``Expr`` is evaluated
by calling its compiled ``_fn(q, v, t)`` on raw sequences.  Derivatives are
exact: partials of any order are ``Expr``s, one per occurring variable, built
by ``partial_exprs`` on first use and each compiled once.  ``grad_raw``
evaluates them, and ``grad_raw`` of an entry is a row of second partials (the
force Jacobians in ``engine``).  The compiled functions also accept dual
numbers, which serve only the Poisson brackets (see ``hamiltonian``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from . import dual
from .errors import ExprDomainError, ExprSyntaxError

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")

# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "q" | "v" | "t"
    index: int  # 1-based; 0 for t


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    lhs: "Node"
    rhs: "Node"


Node = Union[Const, Var, Unary, Binary]


class Expr:
    """Parsed expression: AST plus a compiled evaluator and free-variable set."""

    __slots__ = ("root", "n", "free", "_fn", "_partials")

    def __init__(self, root: Node, n: int):
        self.root = root
        self.n = n
        free: set[tuple[str, int]] = set()
        _collect_free(root, free)
        self.free = frozenset(free)
        self._fn = _compile(root)
        self._partials = None  # built by partial_exprs on first use

    def __repr__(self):
        return f"Expr({to_canonical(self.root)!r}, n={self.n})"

    def __eq__(self, other):
        return isinstance(other, Expr) and self.root == other.root and self.n == other.n

    def __hash__(self):
        return hash((self.root, self.n))


# --- tokenizer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = pos
            while stripped < len(source) and source[stripped].isspace():
                stripped += 1
            if stripped >= len(source):
                break
            raise ExprSyntaxError(f"unexpected character {source[stripped]!r}", stripped)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, n: int):
        self.tokens = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.term())
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary())
            else:
                return node

    # unary := '-' unary | power   (so -x^2 parses as -(x^2))
    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    # power := atom ('^' unary)?   (right-associative, exponent may be signed)
    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Binary("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text == "t":
                return Var("t", 0)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            m = re.fullmatch(r"([qv])(\d+)", text)
            if m:
                index = int(m.group(2))
                if not 1 <= index <= self.n:
                    raise ExprSyntaxError(
                        f"variable {text!r} out of range for dimension {self.n}", offset
                    )
                return Var(m.group(1), index)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value", offset)


def parse_expression(source: str, n: int) -> Expr:
    """Parse *source* over q1..qn, v1..vn, t into an immutable expression."""
    if not source or source.isspace():
        raise ExprSyntaxError("empty expression", 0)
    if n < 0:
        raise ValueError("dimension must be non-negative")
    parser = _Parser(_tokenize(source), n)
    root = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
    return Expr(root, n)


# --- compilation / evaluation ----------------------------------------------

def _collect_free(node: Node, acc: set):
    if isinstance(node, Var):
        acc.add((node.kind, node.index))
    elif isinstance(node, Unary):
        _collect_free(node.arg, acc)
    elif isinstance(node, Binary):
        _collect_free(node.lhs, acc)
        _collect_free(node.rhs, acc)


def _guarded_div(num, den):
    if dual.value(den) == 0.0:
        raise ExprDomainError("division by zero")
    return num / den


def _sign_of(x):
    return 1.0 if dual.value(x) >= 0.0 else -1.0


_NS = {
    "_sin": dual.sin, "_cos": dual.cos, "_tan": dual.tan, "_exp": dual.exp,
    "_log": dual.log, "_sqrt": dual.sqrt, "_abs": dual.fabs,
    "_pow": dual.power, "_div": _guarded_div, "_sgn": _sign_of,
    "__builtins__": {},
}

_EMIT_FN = {"sin": "_sin", "cos": "_cos", "tan": "_tan", "exp": "_exp",
            "log": "_log", "sqrt": "_sqrt", "abs": "_abs", "sgn": "_sgn"}


def _emit(node: Node) -> str:
    """Python source for a node, over names q, v, t and the _NS helpers."""
    if isinstance(node, Const):
        return f"({node.value!r})"
    if isinstance(node, Var):
        if node.kind == "t":
            return "t"
        return f"{node.kind}[{node.index - 1}]"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{_emit(node.arg)})"
        return f"{_EMIT_FN[node.op]}({_emit(node.arg)})"
    lhs, rhs = _emit(node.lhs), _emit(node.rhs)
    if node.op == "/":
        return f"_div({lhs}, {rhs})"
    if node.op == "^":
        return f"_pow({lhs}, {rhs})"
    return f"({lhs} {node.op} {rhs})"


def _compile(node: Node) -> Callable:
    """Compile a node to real bytecode; works on float and dual inputs."""
    return eval(compile(f"lambda q, v, t: {_emit(node)}", "<expr>", "eval"), _NS)


# --- symbolic differentiation (with light constant folding) -----------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(node, value) -> bool:
    return isinstance(node, Const) and node.value == value


def _fold_add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _fold_sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Unary("neg", b)
    return Binary("-", a, b)


def _fold_mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _derivative(node: Node, kind: str, index: int) -> Node:
    """d(node)/d(var) as a new tree; var is ("q"|"v", i) or ("t", 0)."""
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if (node.kind, node.index) == (kind, index) else _ZERO
    if isinstance(node, Unary):
        if node.op == "sgn":
            # piecewise constant; the dual path treats abs's sign as a constant too
            return _ZERO
        da = _derivative(node.arg, kind, index)
        if _is_const(da, 0.0):
            return _ZERO
        a = node.arg
        if node.op == "neg":
            return Unary("neg", da)
        if node.op == "sin":
            return _fold_mul(Unary("cos", a), da)
        if node.op == "cos":
            return Unary("neg", _fold_mul(Unary("sin", a), da))
        if node.op == "tan":
            return Binary("/", da, Binary("^", Unary("cos", a), Const(2.0)))
        if node.op == "exp":
            return _fold_mul(Unary("exp", a), da)
        if node.op == "log":
            return Binary("/", da, a)
        if node.op == "sqrt":
            return Binary("/", da, _fold_mul(Const(2.0), Unary("sqrt", a)))
        if node.op == "abs":
            return _fold_mul(Unary("sgn", a), da)
        raise AssertionError(f"unknown unary {node.op!r}")
    f, g = node.lhs, node.rhs
    df = _derivative(f, kind, index)
    dg = _derivative(g, kind, index)
    if node.op == "+":
        return _fold_add(df, dg)
    if node.op == "-":
        return _fold_sub(df, dg)
    if node.op == "*":
        return _fold_add(_fold_mul(df, g), _fold_mul(f, dg))
    if node.op == "/":
        if _is_const(dg, 0.0):
            return Binary("/", df, g) if not _is_const(df, 0.0) else _ZERO
        num = _fold_sub(_fold_mul(df, g), _fold_mul(f, dg))
        return Binary("/", num, _fold_mul(g, g))
    if node.op == "^":
        terms = []
        if not _is_const(df, 0.0):
            # g * f^(g-1) * df
            gm1 = Const(g.value - 1.0) if isinstance(g, Const) else Binary("-", g, _ONE)
            terms.append(_fold_mul(_fold_mul(g, Binary("^", f, gm1)), df))
        if not _is_const(dg, 0.0):
            # f^g * log(f) * dg
            terms.append(_fold_mul(_fold_mul(Binary("^", f, g), Unary("log", f)), dg))
        if not terms:
            return _ZERO
        out = terms[0]
        for term in terms[1:]:
            out = _fold_add(out, term)
        return out
    raise AssertionError(f"unknown operator {node.op!r}")


# Compiled partials pay (lda_nonlinear constraint, 2-core host, Python 3.11.7): 2.3 us per
# gradient against 6.8 us dual-seeded, 5.5 us per acceleration_raw.
def grad_raw(expr: Expr, q, v, t):
    """(dq, dv, dt) partials on raw sequences, from the ``partial_exprs`` entries.

    Entries of q/v may themselves be duals (the Poisson brackets seed them);
    the partials are then duals too.
    """
    dq = [0.0] * len(q)
    dv = [0.0] * len(v)
    dt = 0.0
    for kind, index, d in expr._partials or partial_exprs(expr):
        val = d._fn(q, v, t)
        if kind == "q":
            dq[index - 1] = val
        elif kind == "v":
            dv[index - 1] = val
        else:
            dt = val
    return dq, dv, dt


def partial_exprs(expr: Expr):
    """((kind, index, Expr of d expr/d var), ...) per occurring variable.

    Built on the first call and kept on *expr*, so parsing compiles only
    ``expr`` itself and no derivative tree is compiled twice.  ``grad_raw``
    of an entry gives the second partials of *expr* with respect to that
    variable and each q_i, v_i and t.
    """
    if expr._partials is None:
        expr._partials = tuple(
            (kind, index, Expr(_derivative(expr.root, kind, index), expr.n))
            for kind, index in expr.free
        )
    return expr._partials


# --- canonical serialization -------------------------------------------------

def to_canonical(node: Node) -> str:
    """Fully parenthesized text form; parse(to_canonical(x)) == x."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t" if node.kind == "t" else f"{node.kind}{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{to_canonical(node.arg)})"
        return f"{node.op}({to_canonical(node.arg)})"
    return f"({to_canonical(node.lhs)} {node.op} {to_canonical(node.rhs)})"


def canonical(expr: Expr) -> str:
    return to_canonical(expr.root)
