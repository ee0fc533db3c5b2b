"""Exact scalars: arbitrary-precision rationals and the ring Q(w).

Everything in this package is computed over two exact domains:

* plain rationals, represented by :class:`fractions.Fraction`, and
* the quadratic field Q(w), where w is a primitive cube root of unity
  satisfying w**2 == -1 - w (equivalently w**3 == 1, w != 1).

Elements of Q(w) are stored on the basis {1, w} with rational coordinates.
On that basis multiplication stays integer-friendly,

    (x + y*w) * (s + t*w) == (x*s - y*t) + (x*t + y*s - y*t)*w,

and conjugation (the swap of the two primitive roots) is the linear map
x + y*w  ->  (x - y) - y*w.  The two complex roots (-1 +/- i*sqrt(3))/2 are
available as the constants OMEGA1 (= w) and OMEGA2 (= conj(w) = -1 - w);
they satisfy OMEGA1 + OMEGA2 == -1 and OMEGA1 * OMEGA2 == 1.

No floating point enters anywhere: equality of two values always means
exact equality of rational coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]


class NonRealResidueError(ArithmeticError):
    """A Q(w) value expected to be rational kept a nonzero w-component.

    Raised by :meth:`Eisenstein.rational_part`.  In this package the
    w-components of a Binet-style evaluation must cancel exactly, so this
    error always signals a bug or an invalid identity instance, never a
    rounding problem.
    """


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact arithmetic only: pass int, str or Fraction, not float")
    return Fraction(value)


@dataclass(frozen=True)
class Eisenstein:
    """An element x + y*w of Q(w), with exact rational coordinates x and y.

    Instances are immutable values; all arithmetic returns new objects and
    is safe for unrestricted concurrent use.
    """

    re: Fraction
    om: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # arithmetic results already hold Fractions; convert anything else
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", _as_fraction(self.re))
        if not isinstance(self.om, Fraction):
            object.__setattr__(self, "om", _as_fraction(self.om))

    def __str__(self) -> str:
        if self.om == 0:
            return str(self.re)
        return f"{self.re} + {self.om}*w"

    def __add__(self, other: "Eisenstein | RationalLike") -> "Eisenstein":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Eisenstein(self.re + other.re, self.om + other.om)

    __radd__ = __add__

    def __sub__(self, other: "Eisenstein | RationalLike") -> "Eisenstein":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Eisenstein(self.re - other.re, self.om - other.om)

    def __rsub__(self, other: "Eisenstein | RationalLike") -> "Eisenstein":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.re, -self.om)

    def __mul__(self, other: "Eisenstein | RationalLike") -> "Eisenstein":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        x, y = self.re, self.om
        s, t = other.re, other.om
        # w**2 is replaced by -1 - w
        return Eisenstein(x * s - y * t, x * t + y * s - y * t)

    __rmul__ = __mul__

    def __truediv__(self, other: "Eisenstein | RationalLike") -> "Eisenstein":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        scale = other.norm()
        if scale == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        flipped = self * other.conj()
        return Eisenstein(flipped.re / scale, flipped.om / scale)

    def __rtruediv__(self, other: "Eisenstein | RationalLike") -> "Eisenstein":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "Eisenstein":
        """Binary powering; ``u**0 == 1``.  The exponent must be >= 0."""
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def conj(self) -> "Eisenstein":
        """Swap the two primitive cube roots: x + y*w -> (x - y) - y*w."""
        return Eisenstein(self.re - self.om, -self.om)

    def norm(self) -> Fraction:
        """The rational norm u * conj(u) = x**2 - x*y + y**2 (always >= 0)."""
        return self.re * self.re - self.re * self.om + self.om * self.om

    def rational_part(self) -> Fraction:
        """Return x for a value x + 0*w; raise NonRealResidueError otherwise."""
        if self.om != 0:
            raise NonRealResidueError(
                f"expected a rational value but got {self!s} (w-part {self.om} != 0)"
            )
        return self.re


def _coerce(value: "Eisenstein | RationalLike") -> "Eisenstein | None":
    if isinstance(value, Eisenstein):
        return value
    if isinstance(value, (int, Fraction)):
        return Eisenstein(value)
    return None


ONE = Eisenstein(1)

#: The primitive cube root of unity (-1 + i*sqrt(3)) / 2.
OMEGA1 = Eisenstein(0, 1)
#: Its complex conjugate (-1 - i*sqrt(3)) / 2, equal to OMEGA1**2.
OMEGA2 = OMEGA1.conj()
#: (OMEGA1**k, OMEGA2**k) for k = 0, 1, 2.  Since w**3 == 1, the powers of
#: either root repeat with period 3: w**n is entry n % 3.
OMEGA_POWERS = tuple((OMEGA1**k, OMEGA2**k) for k in range(3))
