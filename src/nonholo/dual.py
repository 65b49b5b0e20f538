"""First-order dual numbers for forward-mode differentiation.

They serve only the Poisson brackets in ``hamiltonian``, which seed one
phase-space coordinate at a time.  Components may themselves be duals, so
nesting two levels gives exact second derivatives.
"""

import math

from .errors import ExprDomainError

_POLE_TOL = 1e-12


class Dual:
    """a + b*eps with eps^2 = 0; a and b may be floats or Duals."""

    __slots__ = ("re", "du")

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        return Dual(self.re - other, self.du)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.du)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if value(other) == 0.0:
                raise ExprDomainError("division by zero")
            inv = 1.0 / other.re if not isinstance(other.re, Dual) else None
            if inv is not None:
                return Dual(self.re * inv, (self.du * other.re - self.re * other.du) * inv * inv)
            return Dual(
                self.re / other.re,
                (self.du * other.re - self.re * other.du) / (other.re * other.re),
            )
        if value(other) == 0.0:
            raise ExprDomainError("division by zero")
        return Dual(self.re / other, self.du / other)

    def __rtruediv__(self, other):
        if value(self) == 0.0:
            raise ExprDomainError("division by zero")
        return Dual(other / self.re, -other * self.du / (self.re * self.re))

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pos__(self):
        return self


def value(x):
    """Innermost float of a (possibly nested) dual."""
    while isinstance(x, Dual):
        x = x.re
    return x


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.du)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -sin(x.re) * x.du)
    return math.cos(x)


def tan(x):
    c = cos(x)
    if abs(value(c)) < _POLE_TOL:
        raise ExprDomainError("tan evaluated at a pole")
    return sin(x) / c


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.du)
    return math.exp(x)


def log(x):
    if value(x) <= 0.0:
        raise ExprDomainError("log of non-positive value")
    if isinstance(x, Dual):
        return Dual(log(x.re), x.du / x.re)
    return math.log(x)


def sqrt(x):
    if value(x) < 0.0:
        raise ExprDomainError("sqrt of negative value")
    if isinstance(x, Dual):
        r = sqrt(x.re)
        if value(r) == 0.0:
            raise ExprDomainError("sqrt derivative at zero")
        return Dual(r, x.du / (2.0 * r))
    return math.sqrt(x)


def fabs(x):
    if isinstance(x, Dual):
        s = 1.0 if value(x) >= 0.0 else -1.0
        return Dual(fabs(x.re), s * x.du)
    return abs(x)


def ipow(x, n: int):
    """x**n for integer n by squaring; valid for any sign of x."""
    if n == 0:
        return 1.0 if not isinstance(x, Dual) else Dual(ipow(x.re, 0), x.du * 0.0)
    if n < 0:
        if value(x) == 0.0:
            raise ExprDomainError("zero raised to a negative power")
        return 1.0 / ipow(x, -n)
    result = x
    n -= 1
    base = x
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def power(x, y):
    """x**y; integer-valued constant exponents stay real for any base."""
    if not isinstance(y, Dual) and float(y).is_integer():
        return ipow(x, int(y))
    if value(x) <= 0.0:
        raise ExprDomainError("non-integer power of a non-positive base")
    return exp(y * log(x))
