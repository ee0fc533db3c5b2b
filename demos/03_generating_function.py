#!/usr/bin/env python3
"""Expand the generating function and compare with the recurrence stream.

The family with seeds (a, b, c) has the rational generating function

    (a + (b-a)t + (c-b-a)t^2) / (1 - t - t^2 - 2t^3),

and long division of formal power series must reproduce the sequence
coefficient by coefficient.
"""

from fractions import Fraction

from jacobsthal3 import (
    RECURRENCE_DENOMINATOR,
    SequenceParams,
    gf_coefficients,
    gf_numerator,
    series_div,
    term_range,
)

params = SequenceParams(2, 1, 5)
num = gf_numerator(params)
print("seeds (2, 1, 5): numerator coefficients", ", ".join(str(x) for x in num))
print("denominator coefficients", ", ".join(str(x) for x in RECURRENCE_DENOMINATOR))
print()

count = 12
coeffs = gf_coefficients(params, count)
oracle = term_range(params, 0, count - 1)
print(f"{'n':>3} {'series':>8} {'recurrence':>11}")
for n, (s, o) in enumerate(zip(coeffs, oracle)):
    print(f"{n:>3} {str(s):>8} {str(o):>11}")
assert coeffs == oracle
print("match: true")
print()

print("Geometric series as a sanity check: 1/(1-t) expands to all ones:")
print(" ", series_div([1], [1, -1], 8))
print()

params = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
coeffs = gf_coefficients(params, 130)
assert coeffs == term_range(params, 0, 129)
print(f"fractional seeds {params}: first terms", ", ".join(str(x) for x in coeffs[:6]))
print("series == recurrence through 130 coefficients: true")
