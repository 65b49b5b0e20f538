"""First-order dual numbers for forward-mode differentiation.

They serve only the Poisson brackets in ``hamiltonian``, which seed one
coordinate at a time with ``Dual(x, 1.0)``: both parts are floats.  As in the
closed forms of ``expr``, a quotient's derivative divides by the square of the
divisor, and a real power's goes through x^(y-1), so both raise
``ExprDomainError`` where the closed forms do.
"""

import math

from .errors import ExprDomainError

_POLE_TOL = 1e-12


class Dual:
    """a + b*eps with eps^2 = 0 over floats a and b."""

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
            if other.re * other.re == 0.0:  # the derivative's divisor
                raise ExprDomainError("division by zero")
            inv = 1.0 / other.re
            return Dual(self.re * inv, (self.du * other.re - self.re * other.du) * inv * inv)
        if other == 0.0:
            raise ExprDomainError("division by zero")
        return Dual(self.re / other, self.du / other)

    def __rtruediv__(self, other):
        if self.re * self.re == 0.0:
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
    """The float part of a dual; a float as it is."""
    return x.re if isinstance(x, Dual) else x


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.du)
    try:
        return math.sin(x)
    except ValueError:  # math.sin(+-inf)
        raise ExprDomainError("sin of an infinite value") from None


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -sin(x.re) * x.du)
    try:
        return math.cos(x)
    except ValueError:  # math.cos(+-inf)
        raise ExprDomainError("cos of an infinite value") from None


def tan(x):
    c = cos(x)
    if abs(value(c)) < _POLE_TOL:
        raise ExprDomainError("tan evaluated at a pole")
    return sin(x) / c


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.du)
    try:
        return math.exp(x)
    except OverflowError:
        raise ExprDomainError("exp overflows the float range") from None


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
        if r == 0.0:
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
        d = ipow(x, -n)
        if value(d) == 0.0:
            raise ExprDomainError("negative power overflows: the positive power underflows to zero")
        return 1.0 / d
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
    if isinstance(x, Dual) and not isinstance(y, Dual):
        # (y x^(y-1)) x', as ``expr`` differentiates it: x^(y-1) may overflow where x^y does not
        return Dual(power(x.re, y), y * power(x.re, y - 1.0) * x.du)
    return exp(y * log(x))
