"""Two independent closed-form evaluators for the recurrence terms.

Both must reproduce the iterative oracle exactly, term by term:

* the Binet form  X(n) = A*2**n - B*w1**n + C*w2**n  with A rational and
  B, C in Q(w), solved from the seeds at n = 0, 1, 2;
* the decomposition  X(n) = (rho*2**n - V(n)) / 7  with V the period-3
  remainder triple, rho and V read as ints times D (the lcm of the seed
  denominators) from SequenceParams._rhs_ints, with one division by 7*D.

The Binet evaluation runs entirely in Q(w) and asserts, on every call,
that the w-part cancels; a nonzero residue raises instead of being rounded
away.  That check is the package's core soundness guarantee.  Since
w1**3 == w2**3 == 1, the powers w1**n and w2**n are read from a table by
n mod 3 rather than computed, so an evaluation costs two Q(w) products
whatever n is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .eisenstein import OMEGA1, OMEGA2, OMEGA_POWERS, Eisenstein
from .sequences import SequenceParams, _check_index

_TWO = Eisenstein(2)


@dataclass(frozen=True)
class BinetCoefficients:
    """Coefficients of the closed form A*2**n - B*w1**n + C*w2**n.

    A is rational (the seeds sum divided by (2-w1)*(2-w2) = 7); B and C
    live in Q(w) and are swapped by conjugation combined with the exchange
    of the (2-w1) and (2-w2) denominators, which is what forces the w-part
    of every evaluation to cancel.
    """

    A: Fraction
    B: Eisenstein
    C: Eisenstein


@lru_cache
def binet_coefficients(params: SequenceParams) -> BinetCoefficients:
    """Solve for A, B, C from the seeds at n = 0, 1, 2, exactly in Q(w).

    The roots 2, w1, w2 are distinct, so the system is always solvable.
    The returned coefficients reproduce a, b, c at n = 0, 1, 2 (checked in
    the test suite for random seeds).

    >>> binet_coefficients(SequenceParams(0, 1, 1)).A
    Fraction(2, 7)
    """
    a, b, c = params.a, params.b, params.c
    A = params.rho / 7
    B = (c - (_TWO + OMEGA2) * b + 2 * a * OMEGA2) / ((_TWO - OMEGA1) * (OMEGA1 - OMEGA2))
    C = (c - (_TWO + OMEGA1) * b + 2 * a * OMEGA1) / ((_TWO - OMEGA2) * (OMEGA1 - OMEGA2))
    return BinetCoefficients(A=A, B=B, C=C)


def binet_term(params: SequenceParams, n: int) -> Fraction:
    """Evaluate A*2**n - B*w1**n + C*w2**n and return its rational value.

    Raises NonRealResidueError if the w-parts fail to cancel, which would
    signal an internal inconsistency rather than a numeric issue.
    """
    _check_index("term index n", n)
    coeffs = binet_coefficients(params)
    w1_n, w2_n = OMEGA_POWERS[n % 3]
    value = coeffs.A * (1 << n) - coeffs.B * w1_n + coeffs.C * w2_n
    return value.rational_part()


def decomposed_term(params: SequenceParams, n: int) -> Fraction:
    """Evaluate (rho*2**n - V(n)) / 7 with V the period-3 remainder triple."""
    _check_index("term index n", n)
    d, rho, _, v_gen, _, _, _ = params._rhs_ints
    return Fraction((rho << n) - v_gen[n % 3], 7 * d)
