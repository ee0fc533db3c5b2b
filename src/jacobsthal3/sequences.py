"""Third-order Jacobsthal recurrences and their period-3 companion triples.

The central object is the order-3 linear recurrence

    X(n+3) = X(n+2) + X(n+1) + 2*X(n),    n >= 0,

with rational seeds X(0) = a, X(1) = b, X(2) = c.  Seeds (0, 1, 1) give the
third-order Jacobsthal numbers 0, 1, 1, 2, 5, 9, 18, 37, ...; seeds
(2, 1, 5) give the third-order Jacobsthal-Lucas numbers 2, 1, 5, 10, 17,
37, 74, ...  The characteristic roots are 2 and the two primitive cube
roots of unity, so every member of the family decomposes as

    X(n) = (rho * 2**n - V(n)) / 7,      rho = a + b + c,

where V is periodic with period 3.  This module provides:

* :func:`term` / :func:`term_range`, the plain iterative evaluator used as
  the ground-truth oracle by every closed form and identity check, and
* :func:`companions`, the seed-dependent period-3 triples appearing in
  those closed forms (the remainder triple V, the Cassini companion W with
  7*W(n+2) = 5*V(n+1) - 3*V(n), and the product triple
  T(n) = W(n+1)*W(n+2)), next to the seed-independent constants
  V_ORDINARY, W_ORDINARY and the Catalan offset U_OFFSET.

All values are immutable and all functions are pure.  Everything derived
from a seed triple but the Binet coefficients is kept on its
:class:`SequenceParams` instance and lives exactly as long as that
instance: the oracle prefix X(0..N) and its running sum, rho, the seed
form and the companion triples.  The module presets JACOBSTHAL and
JACOBSTHAL_LUCAS, like any params held at module level, therefore keep
theirs for the life of the process.  The Binet coefficients sit in
closed_forms' bounded cache of the 128 most recently used params, which
keeps each of those params alive until it is evicted.  The prefix and
its running sum are replaced wholesale when they grow, never mutated, so
concurrent callers at worst recompute identical values.  The oracle reads
nothing but the seeds and its own prefix.

The prefix holds integers: X(k)*D, where the scale D is the lcm of the
seed denominators (1 for integer seeds).  The recurrence has integer
coefficients, so it extends on ints with no gcd per step; :func:`term`
and :func:`term_range` divide by D on return.  Sums and identity sides
that combine several terms read the scaled prefix through
:func:`_scaled_prefix` and divide once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm

from .eisenstein import _as_fraction


@dataclass(frozen=True)
class SequenceParams:
    """The rational seed triple (a, b, c) of the recurrence.

    Each instance also keeps what is derived from its seeds: the oracle
    prefix X(0..N) of :func:`term` as ints scaled by the lcm of the seed
    denominators and its running sum, both grown on demand, and the seed
    constants, computed once on first use as ints (``_rhs_ints``), of
    which rho, quartic and :func:`companions` are Fraction views.  None of
    it is a dataclass field, so equality, hash and repr see only (a, b, c),
    and all of it lives exactly as long as the instance.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        a, b, c = _as_fraction(self.a), _as_fraction(self.b), _as_fraction(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        scale = lcm(a.denominator, b.denominator, c.denominator)
        object.__setattr__(self, "_scale", scale)
        prefix = tuple(v.numerator * (scale // v.denominator) for v in (a, b, c))
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_prefix_sums", tuple(accumulate(prefix)))

    @cached_property
    def rho(self) -> Fraction:
        """a + b + c, the coefficient of 2**n in 7 * X(n)."""
        return Fraction(self._rhs_ints[1], self._rhs_ints[0])

    @cached_property
    def quartic(self) -> Fraction:
        """The seed form 4a^2 + 3b^2 + c^2 - 2ac - 3bc.

        This is the constant that the Catalan correction term carries for
        arbitrary seeds; it equals 1 for the Jacobsthal seeds (0, 1, 1) and
        enters the fourth-power (Gelin-Cesaro) identity both linearly and
        squared.
        """
        return Fraction(self._rhs_ints[2], self._rhs_ints[0] ** 2)

    @cached_property
    def _companions(self) -> "CompanionSet":
        d, _, _, v_gen, w_gen, t, _ = self._rhs_ints
        return CompanionSet(
            v_gen=PeriodicTriple(*(Fraction(v, d) for v in v_gen)),
            w_gen=PeriodicTriple(*(Fraction(w, d) for w in w_gen)),
            t=PeriodicTriple(*(Fraction(p, d * d) for p in t)),
        )

    @cached_property
    def _rhs_ints(self) -> tuple:
        """(D, rho*D, quartic*D**2, v_gen*D, w_gen*D, t*D**2, cases*D) as ints.

        D is the seeds' own lcm, read from neither the oracle prefix nor its
        scale; cases is the Gelin-Cesaro residue-split bracket; triples go
        by n mod 3.  Each value is an integer form of its degree in D*seeds.
        """
        d = lcm(self.a.denominator, self.b.denominator, self.c.denominator)
        a, b, c = (v.numerator * (d // v.denominator) for v in (self.a, self.b, self.c))
        q = 4 * a * a + 3 * b * b + c * c - 2 * a * c - 3 * b * c
        v_gen = (c + b - 6 * a, 2 * c - 5 * b + 2 * a, -3 * c + 4 * b + 4 * a)
        w_0, w_1, w_2 = w_gen = (-3 * c + 5 * b + 2 * a, 2 * c - b - 6 * a, c - 4 * b + 4 * a)
        t = (w_1 * w_2, w_2 * w_0, w_0 * w_1)
        cases = (-c - 10 * b + 24 * a, -11 * c + 23 * b - 2 * a, 12 * c - 13 * b - 22 * a)
        return d, a + b + c, q, v_gen, w_gen, t, cases

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


#: Seeds of the third-order Jacobsthal numbers J: 0, 1, 1, 2, 5, 9, 18, ...
JACOBSTHAL = SequenceParams(0, 1, 1)
#: Seeds of the third-order Jacobsthal-Lucas numbers jL: 2, 1, 5, 10, 17, ...
JACOBSTHAL_LUCAS = SequenceParams(2, 1, 5)


@dataclass(frozen=True)
class PeriodicTriple:
    """A sequence of period 3 given by its values at n == 0, 1, 2 (mod 3)."""

    at0: Fraction
    at1: Fraction
    at2: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "at0", _as_fraction(self.at0))
        object.__setattr__(self, "at1", _as_fraction(self.at1))
        object.__setattr__(self, "at2", _as_fraction(self.at2))

    def at(self, n: int) -> Fraction:
        """Value at index n; n may be any integer (reduced mod 3)."""
        return (self.at0, self.at1, self.at2)[n % 3]

    def __iter__(self):
        return iter((self.at0, self.at1, self.at2))


@dataclass(frozen=True)
class CompanionSet:
    """The period-3 companions that depend on a seed triple.

    v_gen   remainder triple of the given seeds, rho*2**n - 7*X(n)
    w_gen   Cassini companion of the given seeds, 7*w_gen(n+2) =
            5*v_gen(n+1) - 3*v_gen(n)
    t       product triple t(n) = w_gen(n+1) * w_gen(n+2)

    The seed-independent triples are the module constants V_ORDINARY,
    W_ORDINARY and U_OFFSET.
    """

    v_gen: PeriodicTriple
    w_gen: PeriodicTriple
    t: PeriodicTriple


#: Remainder triple of the Jacobsthal numbers: 7*J(n) = 2**(n+1) - V(n).
V_ORDINARY = PeriodicTriple(2, -3, 1)
#: Cassini companion of the Jacobsthal numbers: 7*W(n+2) = 5*V(n+1) - 3*V(n).
W_ORDINARY = PeriodicTriple(2, 1, -3)
#: Catalan offset table, indexed at r - 1: U(r) = 1, -1, 0 for r = 1, 2, 0 (mod 3).
U_OFFSET = PeriodicTriple(1, -1, 0)


def u_value(r: int) -> Fraction:
    """Catalan offset U(r): 1 for r == 1, -1 for r == 2, 0 for r == 0 (mod 3).

    For r >= 1 this equals jL(r-1) - J(r+1); the periodic table extends it
    to r == 0, where the Catalan correction must vanish.
    """
    return U_OFFSET.at(r - 1)


def companions(params: SequenceParams) -> CompanionSet:
    """All period-3 companion triples for the given seeds.

    Built on the first call for a params instance and kept on it, so later
    calls return the same object.

    >>> companions(JACOBSTHAL).v_gen
    PeriodicTriple(at0=Fraction(2, 1), at1=Fraction(-3, 1), at2=Fraction(1, 1))
    """
    return params._companions


def _check_int(name: str, value: int) -> None:
    """The type half of :func:`_check_index`, run first by bounds with their own range rule."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_index(name: str, value: int) -> None:
    """The one index rule: value is a nonnegative int, and bool is not an int.

    Raises TypeError for any other type (True would read as index 1 and a
    float would reach a tuple index) and ValueError for a negative int; both
    messages start with name.
    """
    _check_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _scaled_prefix(params: SequenceParams, n: int) -> tuple[tuple[int, ...], int]:
    """(X(0..N)*D, D) with N >= n: the oracle prefix as ints and its scale D.

    The caller checks n; X(k) is prefix[k] / D.
    """
    prefix = params._prefix
    if len(prefix) <= n:
        values = list(prefix)
        target = max(n + 1, 2 * len(values))
        while len(values) < target:
            values.append(values[-1] + values[-2] + 2 * values[-3])
        prefix = tuple(values)
        object.__setattr__(params, "_prefix", prefix)
    return prefix, params._scale


def _scaled_prefix_sums(params: SequenceParams, n: int) -> tuple[int, ...]:
    """(S(0..N)) with N >= n: S(k) = (X(0) + ... + X(k))*D, D as in _scaled_prefix.

    The running sum of the prefix, kept on params next to it and extended
    from it with one int addition per new k.  The caller checks n.
    """
    sums = params._prefix_sums
    if len(sums) <= n:
        prefix = _scaled_prefix(params, n)[0]
        sums += tuple(accumulate(prefix[len(sums) :], initial=sums[-1]))[1:]
        object.__setattr__(params, "_prefix_sums", sums)
    return sums


def _fraction(value: int, scale: int) -> Fraction:
    """value / scale in lowest terms."""
    return Fraction(value) if scale == 1 else Fraction(value, scale)


def term(params: SequenceParams, n: int) -> Fraction:
    """The n-th term of the recurrence, by plain linear iteration.

    This is the ground-truth oracle: it knows nothing about roots, Binet
    coefficients or periodic triples.

    >>> [str(term(JACOBSTHAL, n)) for n in range(7)]
    ['0', '1', '1', '2', '5', '9', '18']
    """
    _check_index("term index n", n)
    prefix, scale = _scaled_prefix(params, n)
    return _fraction(prefix[n], scale)


def term_range(params: SequenceParams, first: int, last: int) -> list[Fraction]:
    """Terms first..last inclusive, computed in a single linear pass."""
    _check_index("range start first", first)
    _check_index("range end last", last)
    if first > last:
        raise ValueError(f"empty range: first ({first}) exceeds last ({last})")
    prefix, scale = _scaled_prefix(params, last)
    return [_fraction(v, scale) for v in prefix[first : last + 1]]
