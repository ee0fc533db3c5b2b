#!/usr/bin/env python3
"""Sweep the whole identity catalog and print a pass/fail table.

Every identity is checked instance-by-instance: the left-hand side comes
from the iterative oracle, the right-hand side from the printed closed
form, and the two must be equal as exact rationals.
"""

from fractions import Fraction

from jacobsthal3 import IdentityId, SequenceParams, check, verify_range

SEEDS = [
    SequenceParams(0, 1, 1),
    SequenceParams(2, 1, 5),
    SequenceParams(1, 2, 3),
    SequenceParams(5, -1, 2),
    SequenceParams(Fraction(1, 2), -3, Fraction(7, 5)),
]

print(f"{'identity':<20} {'seeds':<18} {'instances':>9}  result")
print("-" * 60)

for ident in IdentityId:
    if ident.fixed_seeds:
        report = verify_range(ident, n_max=64)
        label = "J / jL"
        print(f"{ident.value:<20} {label:<18} {report.total:>9}  "
              f"{'ok' if report.ok else 'FAIL'}")
    else:
        for seeds in SEEDS:
            report = verify_range(ident, seeds, n_max=32)
            print(f"{ident.value:<20} {str(seeds):<18} {report.total:>9}  "
                  f"{'ok' if report.ok else 'FAIL'}")

print()
print("One instance in detail: Catalan for seeds (1, 2, 3) at n=3, r=1")
result = check(IdentityId.CATALAN_GEN, SequenceParams(1, 2, 3), 3, 1)
print(f"  lhs  X(3)^2 - X(2)*X(4)        = {result.lhs}")
print(f"  rhs  closed form               = {result.rhs}")
print(f"       rho        = {result.params.rho}")
print(f"       quartic    = {result.params.quartic}")
