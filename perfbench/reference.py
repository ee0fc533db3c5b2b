"""Reference recurrence and output checks for the benchmark.

This module never imports jacobsthal3: it is the independent yardstick
every benchmark output is compared with, so a defect in the package cannot
hide in its own check.  Everything here is exact.

Closed-form values are compared with a Fraction recurrence.  B-files are
compared line by line, byte for byte, with text built from a Decimal
recurrence in a context that traps any rounding, so the arithmetic is
exact integer arithmetic; Decimal is used because its integer-to-text
conversion is linear in the digit count, which keeps checking a 15 MB
b-file cheap next to the request it checks.
"""

from __future__ import annotations

import json
from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

#: The identity catalog as (name, smallest n, ranges over 0 <= r <= n,
#: specific to the J / jL seeds).  The Cassini entries fix r = 1.
CATALOG = (
    ("e4", 0, False, True),
    ("e5", 3, False, True),
    ("ec5", 0, False, True),
    ("e6", 0, False, True),
    ("e7", 0, False, True),
    ("e8", 0, False, True),
    ("e9", 3, False, True),
    ("e10", 0, False, True),
    ("e12", 3, False, True),
    ("catalan-j", 0, True, True),
    ("cassini-j", 1, False, True),
    ("gelin-cesaro-j", 2, False, True),
    ("catalan-gen", 0, True, False),
    ("cassini-gen", 1, False, False),
    ("gelin-cesaro-gen", 2, False, False),
    ("gelin-cesaro-cases", 2, False, False),
)
_DOMAINS = {name: (min_n, grid, fixed) for name, min_n, grid, fixed in CATALOG}
_JACOBSTHAL = (Fraction(0), Fraction(1), Fraction(1))

_EXACT = Context(prec=MAX_PREC, traps=[Inexact, Rounded])


def terms(seeds, last: int) -> list[Fraction]:
    """X(0..last) of X(n+3) = X(n+2) + X(n+1) + 2*X(n) by plain iteration."""
    values = [Fraction(s) for s in seeds]
    while len(values) <= last:
        values.append(values[-1] + values[-2] + 2 * values[-3])
    return values[: last + 1]


def bfile_ok(lines, seeds, last: int) -> bool:
    """Whether `lines`, bytes as read from a b-file, are exactly the OEIS
    b-file "n X(n)" lines for n = 0..last of integer seeds.

    It holds one line and three terms at a time, so the check adds next to
    nothing to the memory of the process that runs it.
    """
    with localcontext(_EXACT):
        a, b, c = (Decimal(int(s)) for s in seeds)
        n = -1
        for n, line in enumerate(lines):
            if n > last or line != f"{n} {a}\n".encode("ascii"):
                return False
            a, b, c = b, c, c + b + 2 * a
        return n == last


def instance_count(identity: str, n_max: int) -> int:
    """Instances a sweep of `identity` up to n_max must check."""
    min_n, grid, _ = _DOMAINS[identity]
    return sum(n + 1 if grid else 1 for n in range(min_n, n_max + 1))


def verify_report_ok(identity: str, seeds, n_max: int, text: str) -> bool:
    """Check one `verify --identity` JSON report against the catalog."""
    try:
        report = json.loads(text)
    except ValueError:
        return False
    fixed = _DOMAINS[identity][2]
    expected_params = [str(s) for s in (_JACOBSTHAL if fixed else map(Fraction, seeds))]
    total = instance_count(identity, n_max)
    return (
        text.endswith("\n")
        and text.count("\n") == 1
        and report.get("identity") == identity
        and report.get("params") == expected_params
        and report.get("total") == total
        and report.get("passed") == total
        and report.get("failed") == 0
        and report.get("failures") == []
    )


def weighted_sums(values: list[Fraction], x: Fraction, n_max: int) -> list[Fraction]:
    """sum(X(k) / x**k, k = 0..n) for n = 0..n_max."""
    sums, total = [], Fraction(0)
    for k in range(n_max + 1):
        total += values[k] / x**k
        sums.append(total)
    return sums


def strided_sums(values: list[Fraction], m: int, r: int, n_max: int) -> list[Fraction]:
    """sum(X(m*k + r), k = 0..n) for n = 0..n_max."""
    sums, total = [], Fraction(0)
    for k in range(n_max + 1):
        total += values[m * k + r]
        sums.append(total)
    return sums
