"""Truncated formal power series over Q.

Just enough machinery to expand a rational generating function
coefficient-by-coefficient: long division of formal power series, with
numerator and denominator given as plain coefficient sequences (index =
power of t).  The recurrence family has the generating function

    (a + (b - a)*t + (c - b - a)*t**2) / (1 - t - t**2 - 2*t**3),

whose expansion must match the iterative oracle exactly for every seed
triple.  Division is quadratic in the number of requested coefficients,
which is plenty for desk-scale counts over exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .eisenstein import RationalLike, _as_fraction
from .sequences import SequenceParams

#: 1 - t - t**2 - 2*t**3, the denominator shared by every seed triple.
RECURRENCE_DENOMINATOR = (1, -1, -1, -2)


def series_div(num: Sequence[RationalLike], den: Sequence[RationalLike], count: int) -> list[Fraction]:
    """First `count` coefficients of num/den as a formal power series.

    Long division: c[n] = (num[n] - sum(den[k]*c[n-k], k=1..n)) / den[0].
    The denominator must have a nonzero constant term (be a unit in the
    power-series ring).

    >>> [str(x) for x in series_div([1], [1, -1], 4)]
    ['1', '1', '1', '1']
    """
    if count < 1:
        raise ValueError(f"coefficient count must be positive, got {count}")
    num = [_as_fraction(value) for value in num]
    den = [_as_fraction(value) for value in den]
    if not den or den[0] == 0:
        raise ValueError("denominator constant term is zero: not a unit in the power-series ring")
    num += [Fraction(0)] * (count - len(num))
    out: list[Fraction] = []
    for n in range(count):
        acc = num[n]
        for k in range(1, min(n + 1, len(den))):
            acc -= den[k] * out[n - k]
        out.append(acc / den[0])
    return out


def gf_numerator(params: SequenceParams) -> tuple[Fraction, Fraction, Fraction]:
    """a + (b - a)*t + (c - b - a)*t**2 for the given seeds, as coefficients."""
    a, b, c = params.a, params.b, params.c
    return (a, b - a, c - b - a)


def gf_coefficients(params: SequenceParams, count: int) -> list[Fraction]:
    """First `count` coefficients of the generating function of the seeds.

    Equal, coefficient for coefficient, to the iterative oracle stream.
    """
    return series_div(gf_numerator(params), RECURRENCE_DENOMINATOR, count)
