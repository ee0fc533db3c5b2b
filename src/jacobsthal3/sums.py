"""Summation closed forms, each paired with a brute-force oracle twin.

Three families of sums are covered:

* prefix sums of the Jacobsthal numbers, sum(J(0..n)), whose closed form
  is J(n+1) minus 1 exactly when 3 divides n;
* weighted sums sum(X(k) / x**k, k=0..n) for rational x, closed via the
  geometric-series identity over the characteristic roots;
* strided sums sum(X(m*k + r), k=0..n) with stride m and offset r >= m.

The weighted closed form divides by x**n * (2 + x + x**2 - x**3).  Note
the sign: the product over the roots is (2 - x)*(w1 - x)*(w2 - x) =
-charpoly(x), the *negation* of the characteristic polynomial
charpoly(x) = x**3 - x**2 - x - 2.  Dividing by charpoly(x) itself yields
the negated sum; that variant is kept as weighted_sum_charpoly_form to
document the pitfall, and the test suite pins a counterexample.

The strided closed form divides by sigma(m) = 2**(m+1) +
(1 - 2**m)*(w1**m + w2**m) - 2, which vanishes exactly when 3 divides m
(the trace w1**m + w2**m is 2 for 3 | m and -1 otherwise).  For such m no
closed form is provided and DegenerateStrideError directs callers to the
oracle.  The trace is read from the table of root powers by m mod 3 and
is still taken through Eisenstein.rational_part(), so a w-part that failed
to cancel would raise on each miss of the bounded cache, keyed on (m, r)
and their types, that memoises StridedSumContext.of.

sum_oracle reads the oracle's scaled integer prefix once, up to its
largest index, sums ints from it and divides once; its values never come
from a closed form.  Weighted sums scale the weights by the lcm of their
denominators first.  strided_sum_closed reads its seven terms from the
same integer prefix: mu and sigma are integers, so the brace is an int and
the one division is by sigma times the prefix scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence

from .eisenstein import OMEGA_POWERS, RationalLike, _as_fraction
from .sequences import JACOBSTHAL, SequenceParams, _check_index, _check_int, _fraction, _scaled_prefix, term


class DegenerateStrideError(ValueError):
    """The strided closed form degenerates (sigma = 0) when 3 divides m."""


def charpoly(x: RationalLike) -> Fraction:
    """x**3 - x**2 - x - 2, the characteristic polynomial of the recurrence.

    Its roots are 2 and the two primitive cube roots of unity; x = 2 is
    the only rational root.
    """
    x = _as_fraction(x)
    return x**3 - x**2 - x - 2


def sum_oracle(
    params: SequenceParams,
    indices: Iterable[int],
    weights: Optional[Sequence[RationalLike]] = None,
) -> Fraction:
    """Ground truth: sum(weight[i] * X(index[i])), default weight 1.

    >>> str(sum_oracle(JACOBSTHAL, [0, 1, 2, 3]))
    '4'
    """
    index_list = list(indices)
    if weights is not None:
        weight_list = [_as_fraction(w) for w in weights]
        if len(weight_list) != len(index_list):
            raise ValueError(
                f"got {len(weight_list)} weights for {len(index_list)} indices"
            )
    # check every index before reading any value: prefix[True] would
    # silently be X(1)
    for idx in index_list:
        _check_int("term index n", idx)
        if idx < 0:
            raise ValueError(f"negative index {idx} in sum")
    if not index_list:
        return Fraction(0)
    prefix, scale = _scaled_prefix(params, max(index_list))
    if weights is None:
        return _fraction(sum(map(prefix.__getitem__, index_list)), scale)
    common = lcm(*(w.denominator for w in weight_list))
    total = sum(
        w.numerator * (common // w.denominator) * prefix[idx]
        for w, idx in zip(weight_list, index_list)
    )
    return _fraction(total, common * scale)


def prefix_sum_closed(n: int) -> Fraction:
    """Closed form of sum(J(0..n)) for the Jacobsthal numbers (0, 1, 1).

    J(n+1) when n is not a multiple of 3, J(n+1) - 1 when it is.
    """
    _check_index("prefix length n", n)
    correction = 1 if n % 3 == 0 else 0
    return term(JACOBSTHAL, n + 1) - correction


def _weighted_numerator(params: SequenceParams, x: Fraction, n: int) -> Fraction:
    a, b, c = params.a, params.b, params.c
    t_n = term(params, n)
    t_n1 = term(params, n + 1)
    t_n2 = term(params, n + 2)
    seed_poly = (c - b - a) - (a - b) * x + a * x * x
    return 2 * t_n + (t_n2 - t_n1) * x + t_n1 * x * x - x ** (n + 1) * seed_poly


def _check_weighted_domain(x: Fraction, n: int) -> None:
    if x == 0:
        raise ValueError("x must be nonzero")
    if x == 2:
        raise ValueError("pole of the closed form at x = 2 (root of the characteristic polynomial); use sum_oracle")
    _check_index("sum length n", n)


def weighted_sum_closed(params: SequenceParams, x: RationalLike, n: int) -> Fraction:
    """Closed form of sum(X(k) / x**k, k=0..n) for rational x not in {0, 2}.

    Divides by x**n * (2 + x + x**2 - x**3); the denominator is the root
    product (2 - x)*(w1 - x)*(w2 - x) written out.
    """
    x = _as_fraction(x)
    _check_weighted_domain(x, n)
    return _weighted_numerator(params, x, n) / (x**n * -charpoly(x))


def weighted_sum_charpoly_form(params: SequenceParams, x: RationalLike, n: int) -> Fraction:
    """Sign variant dividing by x**n * charpoly(x) directly.

    Since the actual root product is -charpoly(x), this returns the
    *negation* of the true weighted sum.  Kept only to document the sign
    pitfall; use weighted_sum_closed for the correct value.
    """
    x = _as_fraction(x)
    _check_weighted_domain(x, n)
    return _weighted_numerator(params, x, n) / (x**n * charpoly(x))


@dataclass(frozen=True)
class StridedSumContext:
    """Stride-dependent constants of the strided-sum closed form.

    trace = w1**m + w2**m (2 if 3 | m, else -1); mu = 2**m + trace;
    sigma = 2**(m+1) + (1 - 2**m)*trace - 2.  Both mu and sigma are
    integers for every m, and sigma = 0 exactly when 3 divides m.  The
    subscript-free name sigma(m) is deliberate: the value depends only on
    the stride, never on the number of summands.
    """

    m: int
    r: int
    trace: Fraction
    mu: Fraction
    sigma: Fraction

    @classmethod
    @lru_cache(maxsize=256, typed=True)  # True == 1 and 2.0 == 2 must still miss
    def of(cls, m: int, r: int) -> "StridedSumContext":
        _check_int("stride m", m)
        _check_int("offset r", r)
        if m < 1:
            raise ValueError(f"stride m must be positive, got {m}")
        if r < m:
            raise ValueError(
                f"offset r must be at least the stride (r >= m keeps index r - m nonnegative), got r={r}, m={m}"
            )
        w1_m, w2_m = OMEGA_POWERS[m % 3]
        trace = (w1_m + w2_m).rational_part()
        two_m = 1 << m
        mu = two_m + trace
        sigma = 2 * two_m + (1 - two_m) * trace - 2
        return cls(m=m, r=r, trace=trace, mu=mu, sigma=sigma)


def strided_sum_closed(params: SequenceParams, m: int, r: int, n: int) -> Fraction:
    """Closed form of sum(X(m*k + r), k=0..n) for r >= m >= 1, 3 not | m.

    Combines seven terms of the scaled integer prefix and divides once,
    by sigma(m) times the prefix scale; raises
    DegenerateStrideError when sigma(m) = 0 (m divisible by 3), where only
    the oracle applies.
    """
    ctx = StridedSumContext.of(m, r)
    _check_index("sum length n", n)
    if ctx.sigma == 0:
        raise DegenerateStrideError(
            "sigma=0 for m divisible by 3; the closed form degenerates, use sum_oracle"
        )
    last = m * (n + 2) + r
    x, scale = _scaled_prefix(params, last)
    two_m = 1 << m
    # mu and sigma have denominator 1, so the brace stays an int
    head = x[m * (n + 1) + r] - x[r]
    brace = (
        head
        + two_m * x[m * n + r]
        - two_m * x[r - m]
        - ctx.mu.numerator * head
        + x[last]
        - x[r + m]
    )
    return Fraction(brace, ctx.sigma.numerator * scale)
