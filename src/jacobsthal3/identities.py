"""The identity catalog: one verifier per identity, oracle vs closed form.

Every check computes its left-hand side from the iterative recurrence
oracle only and its right-hand side from the printed closed form only
(periodic triples, powers of two, rho, the seed form), so a shared bug
cannot mask a failure.  Equality is exact: an evaluator returns each side
as an int over a positive int denominator, (L, dL) and (R, dR), and the
instance passes when L * dR == R * dL.  A denominator that is not positive
raises ArithmeticError, since a zero one would pass any L and R.
Fractions are built only for a CheckResult: by check and for failures.

Each LHS reads the oracle's integer prefix X(k)*D (D the lcm of the seed
denominators) through sequences._scaled_prefix, over D**2 for the Catalan
forms and D**4 for the Gelin-Cesaro forms; the J / jL seeds are ints, so
their D is 1.  e10's LHS reads the prefix's running sum, kept next to it
(sequences._scaled_prefix_sums), so each instance costs one lookup.  The
Catalan and Gelin-Cesaro RHSs read their seed constants, never the prefix,
in the int layout of SequenceParams._rhs_ints: general seeds their own,
the J entries J's printed constants _J_CONSTANTS, so these check the
paper's J-specific numbers, not the general ones at (0, 1, 1).  The RHSs that
need an oracle value (e5, e7, e12 and the X(n)**2 of the three
Gelin-Cesaro forms) read it as a prefix int, like the LHSs; e10's RHS is
the closed form sums.prefix_sum_closed.

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
else.  The domain is coded once: ``_r_values`` gives the r an instance at
n takes under its rule, :func:`check` accepts exactly those r and
:func:`verify_range` walks exactly those, and the rule's value is the
phrase that check's error message prints; :func:`catalan_rhs` and
:func:`gelin_cesaro_rhs` take the domains of catalan-gen and
gelin-cesaro-gen from that same check.  The Cassini entries are the r = 1
specializations of the Catalan forms.  Each printed form is coded once:
one Catalan and one Gelin-Cesaro int form, each with one LHS, run alike
by the J entries, the general-seed entries and the public RHS functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .sequences import (
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    SequenceParams,
    V_ORDINARY,
    _check_index,
    _check_int,
    _scaled_prefix,
    _scaled_prefix_sums,
    u_value,
)
from .sums import prefix_sum_closed

#: A value as the int pair (numerator, positive denominator), not reduced.
_Ratio = tuple[int, int]

#: U(r)**2 by r mod 3, and the remainder triple V of J, as ints.
_U_SQUARES = tuple(int(u_value(r)) ** 2 for r in range(3))
_V_J = tuple(int(v) for v in V_ORDINARY)

#: J's printed constants in the _rhs_ints layout: D, rho, seed form, V, no W
#: (the J entries run the "cases" Gelin-Cesaro form), the product triple
#: t(n) = W(n+1)*W(n+2) and the residue-split bracket, by n mod 3.
_GELIN_J_PRODUCT = (-3, -6, 2)
_GELIN_J_BRACKET = (-11, 12, -1)
_J_CONSTANTS = (1, 2, 1, _V_J, None, _GELIN_J_PRODUCT, _GELIN_J_BRACKET)


def catalan_rhs(params: SequenceParams, n: int, r: int) -> Fraction:
    """Closed form of X(n)**2 - X(n-r)*X(n+r) for arbitrary seeds.

    (2**n * rho * (2**r * V(n-r) - 2*V(n) + V(n+r) / 2**r)
     + 7 * quartic * U(r)**2) / 49,
    with V = v_gen of the seeds, evaluated on ints over 49 * 2**r * D**2.
    At r = 0 both the bracket and U vanish, matching the trivial LHS.
    """
    _check_index("identity index r", r)  # r = None is a missing argument here
    _instance_r(IdentityId.CATALAN_GEN, n, r)
    return Fraction(*_catalan_ints(params._rhs_ints, n, r))


def _catalan_ints(constants: tuple, n: int, r: int) -> _Ratio:
    # catalan_rhs times 49 * 2**r * D**2, from constants in the _rhs_ints layout
    d, rho, q, v, _, _, _ = constants
    bracket = (v[(n - r) % 3] << 2 * r) - (v[n % 3] << r + 1) + v[(n + r) % 3]
    return (rho * bracket << n) + (7 * q * _U_SQUARES[r % 3] << r), 49 * d * d << r


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
    _instance_r(IdentityId.GELIN_CESARO_GEN, n, None)
    return Fraction(*_gelin_ints(params._rhs_ints, params, n, mode))


def _gelin_ints(constants: tuple, params: SequenceParams, n: int, mode: str) -> _Ratio:
    # gelin_cesaro_rhs times 49 * D**4 * N_den; X(n)**2 = N / N_den from the prefix
    d, rho, q, _, w, t, cases = constants
    if mode == "general":
        w_1, w_2 = w[(n + 1) % 3], w[(n + 2) % 3]
        bracket, product = 3 * w_2 - 2 * w_1, w_1 * w_2
    elif mode == "cases":
        bracket, product = cases[n % 3], t[n % 3]
    else:
        raise ValueError(f"mode must be 'general' or 'cases', got {mode!r}")
    x, scale = _scaled_prefix(params, n)
    square, square_den, d_2 = x[n] * x[n], scale * scale, d * d
    lin = rho * bracket << n - 2  # 2**(n-2) * rho * B
    t_1 = 2 * q + lin
    t_2 = q * q + lin * q - (3 * rho * rho * product << 2 * n - 3)
    return 7 * square * t_1 * d_2 - t_2 * square_den, 49 * d_2 * d_2 * square_den


# Per-identity evaluators returning ((L, dL), (R, dR)): the LHS as ints from
# the oracle prefix, the RHS as ints from the closed form under test.  J and
# jL have integer seeds: their prefix scale is 1, so the ints are the terms.

_EC5_TABLE = (1, -2, 1)
_E8_TABLE = (1, -1, 0)


def _eval_e4(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n)[0]
    return (3 * j[n] + jl[n], 1), (1 << n + 1, 1)


def _eval_e5(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n)[0]
    return (jl[n] - 3 * j[n], 1), (2 * jl[n - 3], 1)


def _eval_ec5(params, n, r):
    j = _scaled_prefix(JACOBSTHAL, n + 2)[0]
    return (j[n + 2] - 4 * j[n], 1), (_EC5_TABLE[n % 3], 1)


def _eval_e6(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n)[0]
    return (jl[n] - 4 * j[n], 1), (_V_J[n % 3], 1)


def _eval_e7(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n + 2)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n + 1)[0]
    return (jl[n + 1] + jl[n], 1), (3 * j[n + 2], 1)


def _eval_e8(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n + 2)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n)[0]
    return (jl[n] - j[n + 2], 1), (_E8_TABLE[n % 3], 1)


def _eval_e9(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n)[0]
    return (jl[n - 3] ** 2 + 3 * j[n] * jl[n], 1), (1 << 2 * n, 1)


def _eval_e10(params, n, r):
    return (_scaled_prefix_sums(JACOBSTHAL, n)[n], 1), prefix_sum_closed(n).as_integer_ratio()


def _eval_e12(params, n, r):
    j, jl = _scaled_prefix(JACOBSTHAL, n)[0], _scaled_prefix(JACOBSTHAL_LUCAS, n)[0]
    return (jl[n] ** 2 - 9 * j[n] ** 2, 1), (jl[n - 3] << n + 2, 1)


def _catalan_lhs(params, n, r):
    x, scale = _scaled_prefix(params, n + r)
    return x[n] * x[n] - x[n - r] * x[n + r], scale * scale


def _gelin_lhs(params, n):
    x, scale = _scaled_prefix(params, n + 2)
    return x[n] ** 4 - x[n - 2] * x[n - 1] * x[n + 1] * x[n + 2], scale**4


def _eval_catalan_j(params, n, r):
    return _catalan_lhs(params, n, r), _catalan_ints(_J_CONSTANTS, n, r)


def _eval_gelin_j(params, n, r):
    return _gelin_lhs(params, n), _gelin_ints(_J_CONSTANTS, params, n, "cases")


def _eval_catalan_gen(params, n, r):
    return _catalan_lhs(params, n, r), _catalan_ints(params._rhs_ints, n, r)


def _eval_gelin_gen(params, n, r):
    return _gelin_lhs(params, n), _gelin_ints(params._rhs_ints, params, n, "general")


def _eval_gelin_cases(params, n, r):
    return _gelin_lhs(params, n), _gelin_ints(params._rhs_ints, params, n, "cases")


_Evaluator = Callable[[SequenceParams, int, Optional[int]], tuple[_Ratio, _Ratio]]


class _RRule(Enum):
    """Which r an instance of an identity takes; the value names it in messages."""

    NONE = "no r"
    GRID = "0 <= r <= n"
    ONE = "r = 1"


def _r_values(rule: _RRule, n: int, r_max: Optional[int]) -> Sequence[Optional[int]]:
    """The r that an instance at n takes under rule, the grid clipped at r_max."""
    if rule is _RRule.GRID:
        return range((n if r_max is None else min(n, r_max)) + 1)
    return (1,) if rule is _RRule.ONE else (None,)


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
    ignored and the J / jL presets are used.  An n or r that is not an int
    (bool included) raises TypeError and a negative one ValueError; r is
    filled in as 1 where the rule fixes it, and any other (n, r) outside
    the identity's domain raises ValueError stating that domain.

    >>> check(IdentityId.E4, n=5).equal
    True
    """
    r = _instance_r(identity, n, r)
    effective = JACOBSTHAL if identity.fixed_seeds else params
    lhs, lhs_den, rhs, rhs_den = _sides(identity, effective, n, r)
    return CheckResult(identity, effective, n, r, Fraction(lhs, lhs_den), Fraction(rhs, rhs_den))


def _instance_r(identity: IdentityId, n: int, r: Optional[int]) -> Optional[int]:
    """The domain check that :func:`check` states; returns r, filled in where fixed."""
    rule = identity._r_rule
    _check_index("identity index n", n)
    if r is not None:
        _check_index("identity index r", r)
    elif rule is _RRule.ONE:
        r = 1
    if n < identity.min_n or r not in _r_values(rule, n, None):
        raise ValueError(
            f"{identity.value} takes n >= {identity.min_n} and {rule.value}, got n={n}, r={r}"
        )
    return r


def _sides(identity: IdentityId, params: SequenceParams, n: int, r: Optional[int]) -> tuple:
    """(L, dL, R, dR) of one instance; a zero dL or dR would pass any L and R."""
    (lhs, lhs_den), (rhs, rhs_den) = identity._evaluate(params, n, r)
    if lhs_den <= 0 or rhs_den <= 0:
        raise ArithmeticError(f"{identity.value} at n={n}, r={r}: denominators must be positive")
    return lhs, lhs_den, rhs, rhs_den


def _instances(
    identity: IdentityId, n_max: int, r_max: Optional[int]
) -> Iterator[tuple[int, Optional[int]]]:
    """The legal (n, r) of identity up to the bounds, in (n, r) order."""
    for n in range(identity.min_n, n_max + 1):
        for r in _r_values(identity._r_rule, n, r_max):
            yield n, r


def verify_range(
    identity: IdentityId,
    params: SequenceParams = JACOBSTHAL,
    n_max: int = 50,
    r_max: Optional[int] = None,
) -> Report:
    """Check every legal (n, r) instance up to the bounds.

    For Catalan entries the grid is triangular (0 <= r <= n), optionally
    clipped at r_max; the other entries ignore r_max, but every entry
    takes it only as None or a nonnegative int.  Instances run in (n, r)
    order, so reports are deterministic; only the first
    MAX_FAILURE_WITNESSES failures are kept.
    Bounds that leave the grid empty raise ValueError: an empty sweep
    checks nothing, so it must not pass.

    >>> verify_range(IdentityId.CATALAN_J, n_max=3).total
    10
    """
    _check_int(f"n_max for {identity.value}", n_max)
    if n_max < identity.min_n:
        raise ValueError(
            f"n_max for {identity.value} must be at least {identity.min_n}, got {n_max}"
        )
    if r_max is not None:
        _check_index(f"r_max for {identity.value}", r_max)
    effective = JACOBSTHAL if identity.fixed_seeds else params
    total = failed = 0
    failures: list[CheckResult] = []
    for n, r in _instances(identity, n_max, r_max):
        lhs, lhs_den, rhs, rhs_den = _sides(identity, effective, n, r)
        total += 1
        if lhs * rhs_den != rhs * lhs_den:
            failed += 1
            if failed <= MAX_FAILURE_WITNESSES:
                witness = Fraction(lhs, lhs_den), Fraction(rhs, rhs_den)
                failures.append(CheckResult(identity, effective, n, r, *witness))
    return Report(identity, effective, total, total - failed, failed, tuple(failures))
