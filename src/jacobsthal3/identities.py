"""The identity catalog: one verifier per identity, oracle vs closed form.

Every check computes its left-hand side from the iterative recurrence
oracle only and its right-hand side from the printed closed form only
(periodic triples, powers of two, rho, the seed form), so a shared bug
cannot mask a failure.  Equality is exact rational equality.

Catalog.  J = Jacobsthal numbers (seeds 0, 1, 1), jL = Jacobsthal-Lucas
numbers (seeds 2, 1, 5), X = arbitrary rational seeds (a, b, c); triples
are listed by residue of n mod 3.

    e4                  3*J(n) + jL(n) == 2**(n+1)                  n >= 0
    e5                  jL(n) - 3*J(n) == 2*jL(n-3)                 n >= 3
    ec5                 J(n+2) - 4*J(n) == (1, -2, 1)               n >= 0
    e6                  jL(n) - 4*J(n) == (2, -3, 1)                n >= 0
    e7                  jL(n+1) + jL(n) == 3*J(n+2)                 n >= 0
    e8                  jL(n) - J(n+2) == (1, -1, 0)                n >= 0
    e9                  jL(n-3)**2 + 3*J(n)*jL(n) == 4**n           n >= 3
    e10                 sum(J(0..n)) == J(n+1) - [3 divides n]      n >= 0
    e12                 jL(n)**2 - 9*J(n)**2 == 2**(n+2)*jL(n-3)    n >= 3
    catalan-j           J(n)**2 - J(n-r)*J(n+r) via V and U         0 <= r <= n
    cassini-j           catalan-j at r = 1                          n >= 1
    gelin-cesaro-j      J(n)**4 - J(n-2)J(n-1)J(n+1)J(n+2),
                        residue-split constants                     n >= 2
    catalan-gen         X(n)**2 - X(n-r)*X(n+r) via v_gen, rho,
                        the seed form and U                         0 <= r <= n
    cassini-gen         catalan-gen at r = 1                        n >= 1
    gelin-cesaro-gen    X(n)**4 - ... via the w_gen companion       n >= 2
    gelin-cesaro-cases  same value via residue-split constants
                        and the product triple t                    n >= 2

Registry.  :class:`IdentityId` is the one table of the catalog: each
member carries its CLI name, its smallest n, its r rule (no r, the grid
0 <= r <= n, or r fixed at 1), whether it is pinned to the J / jL seeds,
and its evaluator.  :func:`check` and :func:`verify_range` read nothing
else.  The two Cassini entries are the r = 1 specializations of the
Catalan forms; they share the Catalan evaluators and differ only in
their r rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .sequences import (
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    PeriodicTriple,
    SequenceParams,
    V_ORDINARY,
    companions,
    term,
    term_range,
    u_value,
)
from .sums import prefix_sum_closed


def catalan_rhs(params: SequenceParams, n: int, r: int) -> Fraction:
    """Closed form of X(n)**2 - X(n-r)*X(n+r) for arbitrary seeds.

    (2**n * rho * (2**r * V(n-r) - 2*V(n) + V(n+r) / 2**r)
     + 7 * quartic * U(r)**2) / 49,
    with V = v_gen of the seeds.  The 2**-r factor is exact rational.
    At r = 0 both the bracket and U vanish, matching the trivial LHS.
    """
    if r < 0 or r > n:
        raise ValueError(f"catalan closed form needs 0 <= r <= n, got n={n}, r={r}")
    return _catalan_form(params, companions(params).v_gen, n, r)


def _catalan_form(params: SequenceParams, v: PeriodicTriple, n: int, r: int) -> Fraction:
    bracket = (1 << r) * v.at(n - r) - 2 * v.at(n) + v.at(n + r) / (1 << r)
    return ((1 << n) * params.rho * bracket + 7 * params.quartic * u_value(r) ** 2) / 49


#: Residue-split constants of the J-specific fourth-power identity:
#: the linear bracket and the coefficient of 2**(2n-1), by n mod 3.
_GELIN_J_BRACKET = (Fraction(-11), Fraction(12), Fraction(-1))
_GELIN_J_SQUARE_COEFF = (Fraction(9), Fraction(18), Fraction(-6))

def _gelin_case_bracket(params: SequenceParams, n: int) -> Fraction:
    # residue-split constants of the generalized fourth-power identity
    a, b, c = params.a, params.b, params.c
    table = (
        -c - 10 * b + 24 * a,
        -11 * c + 23 * b - 2 * a,
        12 * c - 13 * b - 22 * a,
    )
    return table[n % 3]


def gelin_cesaro_rhs(params: SequenceParams, n: int, mode: str = "general") -> Fraction:
    """Closed form of X(n)**4 - X(n-2)*X(n-1)*X(n+1)*X(n+2), n >= 2.

    mode="general" uses the w_gen companion triple directly:

        ( X(n)**2 * (2*q + 2**(n-2)*rho*(3*W(n+2) - 2*W(n+1)))
          - (q**2 + 2**(n-2)*rho*q*(3*W(n+2) - 2*W(n+1))
             - 3*2**(2n-3)*rho**2*W(n+1)*W(n+2)) / 7 ) / 7,

    with q the seed form.  mode="cases" substitutes the residue-split
    bracket constants and the product triple t(n) = W(n+1)*W(n+2); both
    modes must agree with each other and with the oracle LHS.
    """
    if n < 2:
        raise ValueError(f"fourth-power closed form needs n >= 2, got {n}")
    comp = companions(params)
    if mode == "general":
        return _gelin_general_form(params, comp.w_gen, n)
    if mode == "cases":
        return _gelin_form(params, n, _gelin_case_bracket(params, n), comp.t.at(n))
    raise ValueError(f"mode must be 'general' or 'cases', got {mode!r}")


def _gelin_general_form(params: SequenceParams, w: PeriodicTriple, n: int) -> Fraction:
    w_1, w_2 = w.at(n + 1), w.at(n + 2)
    return _gelin_form(params, n, 3 * w_2 - 2 * w_1, w_1 * w_2)


def _gelin_form(params: SequenceParams, n: int, bracket: Fraction, product: Fraction) -> Fraction:
    rho = params.rho
    q = params.quartic
    square = term(params, n) ** 2
    p_lin = 1 << (n - 2)
    p_sq = 1 << (2 * n - 3)
    return (
        square * (2 * q + p_lin * rho * bracket)
        - (q * q + p_lin * rho * q * bracket - 3 * p_sq * rho * rho * product) / 7
    ) / 7


def _catalan_j_rhs(n: int, r: int) -> Fraction:
    # J-specific shape: 2**(n+1) replaces 2**n * rho and the seed form is 1.
    v = V_ORDINARY
    bracket = (1 << r) * v.at(n - r) - 2 * v.at(n) + v.at(n + r) / (1 << r)
    return ((1 << (n + 1)) * bracket + 7 * u_value(r) ** 2) / 49


def _gelin_j_rhs(n: int) -> Fraction:
    square = term(JACOBSTHAL, n) ** 2
    p_lin = 1 << (n - 1)
    p_sq = 1 << (2 * n - 1)
    k = _GELIN_J_BRACKET[n % 3]
    s = _GELIN_J_SQUARE_COEFF[n % 3]
    return (square * (2 + k * p_lin) - (1 + k * p_lin + s * p_sq) / 7) / 7


# Per-identity evaluators returning (lhs, rhs).  LHS terms come from the
# oracle; RHS from the closed form under test.

_EC5_TABLE = (Fraction(1), Fraction(-2), Fraction(1))
_E8_TABLE = (Fraction(1), Fraction(-1), Fraction(0))


def _eval_e4(params, n, r):
    lhs = 3 * term(JACOBSTHAL, n) + term(JACOBSTHAL_LUCAS, n)
    return lhs, Fraction(2) ** (n + 1)


def _eval_e5(params, n, r):
    lhs = term(JACOBSTHAL_LUCAS, n) - 3 * term(JACOBSTHAL, n)
    return lhs, 2 * term(JACOBSTHAL_LUCAS, n - 3)


def _eval_ec5(params, n, r):
    lhs = term(JACOBSTHAL, n + 2) - 4 * term(JACOBSTHAL, n)
    return lhs, _EC5_TABLE[n % 3]


def _eval_e6(params, n, r):
    lhs = term(JACOBSTHAL_LUCAS, n) - 4 * term(JACOBSTHAL, n)
    return lhs, V_ORDINARY.at(n)


def _eval_e7(params, n, r):
    lhs = term(JACOBSTHAL_LUCAS, n + 1) + term(JACOBSTHAL_LUCAS, n)
    return lhs, 3 * term(JACOBSTHAL, n + 2)


def _eval_e8(params, n, r):
    lhs = term(JACOBSTHAL_LUCAS, n) - term(JACOBSTHAL, n + 2)
    return lhs, _E8_TABLE[n % 3]


def _eval_e9(params, n, r):
    lhs = term(JACOBSTHAL_LUCAS, n - 3) ** 2 + 3 * term(JACOBSTHAL, n) * term(
        JACOBSTHAL_LUCAS, n
    )
    return lhs, Fraction(4) ** n


def _eval_e10(params, n, r):
    return sum(term_range(JACOBSTHAL, 0, n)), prefix_sum_closed(n)


def _eval_e12(params, n, r):
    lhs = term(JACOBSTHAL_LUCAS, n) ** 2 - 9 * term(JACOBSTHAL, n) ** 2
    return lhs, Fraction(2) ** (n + 2) * term(JACOBSTHAL_LUCAS, n - 3)


def _eval_catalan_j(params, n, r):
    lhs = term(JACOBSTHAL, n) ** 2 - term(JACOBSTHAL, n - r) * term(JACOBSTHAL, n + r)
    return lhs, _catalan_j_rhs(n, r)


def _eval_gelin_j(params, n, r):
    j = lambda k: term(JACOBSTHAL, k)
    lhs = j(n) ** 4 - j(n - 2) * j(n - 1) * j(n + 1) * j(n + 2)
    return lhs, _gelin_j_rhs(n)


def _eval_catalan_gen(params, n, r):
    lhs = term(params, n) ** 2 - term(params, n - r) * term(params, n + r)
    return lhs, _catalan_form(params, companions(params).v_gen, n, r)


def _gelin_lhs(params, n):
    x = lambda k: term(params, k)
    return x(n) ** 4 - x(n - 2) * x(n - 1) * x(n + 1) * x(n + 2)


def _eval_gelin_gen(params, n, r):
    rhs = _gelin_general_form(params, companions(params).w_gen, n)
    return _gelin_lhs(params, n), rhs


def _eval_gelin_cases(params, n, r):
    bracket = _gelin_case_bracket(params, n)
    rhs = _gelin_form(params, n, bracket, companions(params).t.at(n))
    return _gelin_lhs(params, n), rhs


_Evaluator = Callable[[SequenceParams, int, Optional[int]], tuple]


class _RRule(Enum):
    """Which r an instance of an identity takes."""

    NONE = "no r"
    GRID = "0 <= r <= n"
    ONE = "r = 1"


class IdentityId(Enum):
    """The catalog registry; values double as the CLI spelling.

    Each member is declared once, as (CLI name, min_n, r rule,
    fixed_seeds, evaluator).
    """

    #: Smallest n in the identity's domain.
    min_n: int
    #: True when the identity is specific to the J / jL seed pair.
    fixed_seeds: bool

    E4 = "e4", 0, _RRule.NONE, True, _eval_e4
    E5 = "e5", 3, _RRule.NONE, True, _eval_e5
    EC5 = "ec5", 0, _RRule.NONE, True, _eval_ec5
    E6 = "e6", 0, _RRule.NONE, True, _eval_e6
    E7 = "e7", 0, _RRule.NONE, True, _eval_e7
    E8 = "e8", 0, _RRule.NONE, True, _eval_e8
    E9 = "e9", 3, _RRule.NONE, True, _eval_e9
    E10 = "e10", 0, _RRule.NONE, True, _eval_e10
    E12 = "e12", 3, _RRule.NONE, True, _eval_e12
    CATALAN_J = "catalan-j", 0, _RRule.GRID, True, _eval_catalan_j
    CASSINI_J = "cassini-j", 1, _RRule.ONE, True, _eval_catalan_j
    GELIN_CESARO_J = "gelin-cesaro-j", 2, _RRule.NONE, True, _eval_gelin_j
    CATALAN_GEN = "catalan-gen", 0, _RRule.GRID, False, _eval_catalan_gen
    CASSINI_GEN = "cassini-gen", 1, _RRule.ONE, False, _eval_catalan_gen
    GELIN_CESARO_GEN = "gelin-cesaro-gen", 2, _RRule.NONE, False, _eval_gelin_gen
    GELIN_CESARO_CASES = "gelin-cesaro-cases", 2, _RRule.NONE, False, _eval_gelin_cases

    def __new__(
        cls, value: str, min_n: int, r_rule: _RRule, fixed_seeds: bool, evaluate: _Evaluator
    ) -> "IdentityId":
        member = object.__new__(cls)
        member._value_ = value
        member.min_n = min_n
        member._r_rule = r_rule
        member.fixed_seeds = fixed_seeds
        member._evaluate = evaluate
        return member

    @property
    def uses_r(self) -> bool:
        """True for the Catalan forms, whose instances range over (n, r)."""
        return self._r_rule is _RRule.GRID


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single identity instance."""

    identity: IdentityId
    params: SequenceParams
    n: int
    r: Optional[int]
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


#: Failing instances reported verbatim per Report; the rest are counted only.
MAX_FAILURE_WITNESSES = 16


@dataclass(frozen=True)
class Report:
    """Aggregate of a sweep; serializes to the documented JSON shape."""

    identity: IdentityId
    params: SequenceParams
    total: int
    passed: int
    failed: int
    failures: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity.value,
            "params": [str(self.params.a), str(self.params.b), str(self.params.c)],
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "failures": [
                {"n": res.n, "r": res.r, "lhs": str(res.lhs), "rhs": str(res.rhs)}
                for res in self.failures
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def check(
    identity: IdentityId,
    params: SequenceParams = JACOBSTHAL,
    n: int = 0,
    r: Optional[int] = None,
) -> CheckResult:
    """Verify one instance of an identity; exact comparison, no rounding.

    For seed-specific entries (fixed_seeds True) the params argument is
    ignored and the J / jL presets are used.  Out-of-domain (n, r) raises
    ValueError naming the violated constraint.

    >>> check(IdentityId.E4, n=5).equal
    True
    """
    if n < identity.min_n:
        raise ValueError(f"{identity.value} requires n >= {identity.min_n}, got n={n}")
    rule = identity._r_rule
    if rule is _RRule.ONE:
        if r not in (None, 1):
            raise ValueError(f"{identity.value} fixes r = 1, got r={r}")
        r = 1
    elif rule is _RRule.GRID:
        if r is None:
            raise ValueError(f"{identity.value} requires r with 0 <= r <= n")
        if r < 0 or r > n:
            raise ValueError(f"{identity.value} requires 0 <= r <= n, got n={n}, r={r}")
    elif r is not None:
        raise ValueError(f"{identity.value} does not take r")
    effective = JACOBSTHAL if identity.fixed_seeds else params
    lhs, rhs = identity._evaluate(effective, n, r)
    return CheckResult(identity=identity, params=effective, n=n, r=r, lhs=lhs, rhs=rhs)


def _instances(
    identity: IdentityId, n_max: int, r_max: Optional[int]
) -> Iterator[tuple[int, Optional[int]]]:
    """The legal (n, r) of identity up to the bounds, in (n, r) order."""
    rule = identity._r_rule
    for n in range(identity.min_n, n_max + 1):
        if rule is _RRule.GRID:
            top = n if r_max is None else min(n, r_max)
            for r in range(top + 1):
                yield n, r
        else:
            yield n, 1 if rule is _RRule.ONE else None


def verify_range(
    identity: IdentityId,
    params: SequenceParams = JACOBSTHAL,
    n_max: int = 50,
    r_max: Optional[int] = None,
) -> Report:
    """Check every legal (n, r) instance up to the bounds.

    For Catalan entries the grid is triangular (0 <= r <= n), optionally
    clipped at r_max.  Instances run in (n, r) order, so reports are
    deterministic; only the first MAX_FAILURE_WITNESSES failures are kept.
    Bounds that leave the grid empty raise ValueError: an empty sweep
    checks nothing, so it must not pass.

    >>> verify_range(IdentityId.CATALAN_J, n_max=3).total
    10
    """
    if n_max < identity.min_n:
        raise ValueError(
            f"n_max for {identity.value} must be at least {identity.min_n}, got {n_max}"
        )
    if identity.uses_r and r_max is not None and r_max < 0:
        raise ValueError(f"r_max for {identity.value} must be nonnegative, got {r_max}")
    effective = JACOBSTHAL if identity.fixed_seeds else params
    total = failed = 0
    failures: list[CheckResult] = []
    for n, r in _instances(identity, n_max, r_max):
        lhs, rhs = identity._evaluate(effective, n, r)
        total += 1
        if lhs != rhs:
            failed += 1
            if failed <= MAX_FAILURE_WITNESSES:
                failures.append(CheckResult(identity, effective, n, r, lhs, rhs))
    return Report(identity, effective, total, total - failed, failed, tuple(failures))
