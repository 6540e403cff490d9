"""Exact arithmetic over Q(sqrt(3)).

Every quantity that decides a census predicate on the Gaussian or Eisenstein
lattice lives in the field Q(sqrt(3)): squared tripod lengths, Toricelli and
Fermat point coordinates, and the sector tests all reduce to signs of numbers
of the form x + y*sqrt(3) with rational x, y.  Representing them exactly (and
computing signs without ever evaluating a square root) keeps every branch
decision exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def sign_root3(x: Fraction | int, y: Fraction | int) -> int:
    """Sign of x + y*sqrt(3), computed without radicals.

    If x and y agree in sign (or one is zero) the sign is immediate.
    Otherwise the dominant term is decided by comparing x^2 against 3*y^2;
    equality is impossible for rational x, y not both zero since sqrt(3)
    is irrational.
    """
    if x == 0 and y == 0:
        return 0
    if x >= 0 and y >= 0:
        return 1
    if x <= 0 and y <= 0:
        return -1
    cmp = x * x - 3 * y * y
    if cmp > 0:
        return 1 if x > 0 else -1
    return 1 if y > 0 else -1


def _sign_root3_vec(alpha, beta):
    """Vectorized sign of alpha + beta*sqrt(3), elementwise.

    Exact on int64 arrays while alpha^2 and 3*beta^2 fit, and on object
    arrays of Python ints (or plain ints) at any size.
    """
    sa = np.sign(alpha)
    sb = np.sign(beta)
    opp = sa * np.sign(alpha * alpha - 3 * beta * beta)
    return np.where(beta == 0, sa, np.where(alpha == 0, sb, np.where(sa == sb, sa, opp)))


class QuadraticNumber:
    """An exact element (x + y*sqrt(3))/d of Q(sqrt(3)) with integers x, y, d.

    d > 0 and gcd(x, y, d) = 1 make the representation unique, so equality
    and hashing are structural.  Instances are immutable; Python integers
    are unbounded, so arithmetic can never overflow.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, rational=0, root3=0):
        if type(rational) is int and type(root3) is int:
            x, y, d = rational, root3, 1
        else:
            r, s = Fraction(rational), Fraction(root3)
            d = math.lcm(r.denominator, s.denominator)
            # both in lowest terms: gcd(x, y, d) = 1 already
            x = r.numerator * (d // r.denominator)
            y = s.numerator * (d // s.denominator)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_y", y)
        object.__setattr__(self, "_d", d)

    @classmethod
    def _new(cls, x: int, y: int, d: int) -> "QuadraticNumber":
        """(x + y*sqrt(3))/d brought to lowest terms; d must be nonzero."""
        g = math.gcd(x, y, d)
        if d < 0:
            g = -g
        if g != 1:
            x, y, d = x // g, y // g, d // g
        obj = object.__new__(cls)
        object.__setattr__(obj, "_x", x)
        object.__setattr__(obj, "_y", y)
        object.__setattr__(obj, "_d", d)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    @property
    def rational(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def root3(self) -> Fraction:
        return Fraction(self._y, self._d)

    # -- construction helpers -------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(other)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return QuadraticNumber._new(self._x + o._x, self._y + o._y, d1)
        return QuadraticNumber._new(self._x * d2 + o._x * d1, self._y * d2 + o._y * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return QuadraticNumber._new(self._x - o._x, self._y - o._y, d1)
        return QuadraticNumber._new(self._x * d2 - o._x * d1, self._y * d2 - o._y * d1, d1 * d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadraticNumber._new(-self._x, -self._y, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x1, y1, x2, y2 = self._x, self._y, o._x, o._y
        return QuadraticNumber._new(x1 * x2 + 3 * y1 * y2, x1 * y2 + x2 * y1, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x1, y1, x2, y2 = self._x, self._y, o._x, o._y
        # norm x2^2 - 3*y2^2 vanishes only at zero: sqrt(3) is irrational
        norm = x2 * x2 - 3 * y2 * y2
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadraticNumber")
        return QuadraticNumber._new((x1 * x2 - 3 * y1 * y2) * o._d,
                                    (y1 * x2 - x1 * y2) * o._d, self._d * norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparisons (exact, via sign_root3) ------------------------------

    def sign(self) -> int:
        return sign_root3(self._x, self._y)

    def _cmp(self, o) -> int:
        """Sign of self - o (the common denominator is positive)."""
        return sign_root3(self._x * o._d - o._x * self._d, self._y * o._d - o._y * self._d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._x == o._x and self._y == o._y and self._d == o._d

    def __hash__(self):
        return hash((self._x, self._y, self._d))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    def __bool__(self):
        return self._x != 0 or self._y != 0

    # -- conversions ------------------------------------------------------

    def __float__(self):
        # int / int rounds correctly, as float(Fraction(x, d)) does
        return self._x / self._d + (self._y / self._d) * math.sqrt(3.0)

    def is_integer(self) -> bool:
        return self._y == 0 and self._d == 1

    def floor(self) -> int:
        """Largest integer <= self, in exact integer arithmetic.

        floor(x + y*sqrt(3)) is x + isqrt(3y^2) for y >= 0 and
        x - isqrt(3y^2) - 1 for y < 0 (3y^2 is no square unless y = 0);
        flooring that and dividing by d > 0 commute.
        """
        x, y = self._x, self._y
        r = math.isqrt(3 * y * y)
        return (x + r if y >= 0 else x - r - 1) // self._d

    def __repr__(self):
        return f"QuadraticNumber({self.rational!r}, {self.root3!r})"

    def __str__(self):
        return f"{self.rational} + {self.root3}*sqrt(3)"


QN_ZERO = QuadraticNumber(0)
_HALF = QuadraticNumber(Fraction(1, 2))
_HALF_ROOT3 = QuadraticNumber(0, Fraction(1, 2))


class Vec2:
    """Exact point/vector in the plane with QuadraticNumber coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        object.__setattr__(self, "x", x if isinstance(x, QuadraticNumber) else QuadraticNumber(x))
        object.__setattr__(self, "y", y if isinstance(y, QuadraticNumber) else QuadraticNumber(y))

    def __setattr__(self, name, value):
        raise AttributeError("Vec2 is immutable")

    def __add__(self, other):
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return Vec2(-self.x, -self.y)

    def scale(self, t) -> "Vec2":
        return Vec2(self.x * t, self.y * t)

    def cross(self, other) -> QuadraticNumber:
        return self.x * other.y - self.y * other.x

    def dot(self, other) -> QuadraticNumber:
        return self.x * other.x + self.y * other.y

    def norm_sq(self) -> QuadraticNumber:
        return self.dot(self)

    def rotate60(self) -> "Vec2":
        """Multiply by e^{i*pi/3} = 1/2 + i*sqrt(3)/2."""
        return Vec2(self.x * _HALF - self.y * _HALF_ROOT3, self.x * _HALF_ROOT3 + self.y * _HALF)

    def rotate_minus60(self) -> "Vec2":
        return Vec2(self.x * _HALF + self.y * _HALF_ROOT3, self.y * _HALF - self.x * _HALF_ROOT3)

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def norm_float(self) -> float:
        return math.hypot(float(self.x), float(self.y))

    def __eq__(self, other):
        if not isinstance(other, Vec2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"Vec2({self.x!r}, {self.y!r})"


VEC_ZERO = Vec2(QN_ZERO, QN_ZERO)
