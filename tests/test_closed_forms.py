import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobsthal3 import closed_forms
from jacobsthal3.closed_forms import binet_coefficients, binet_term, decomposed_term
from jacobsthal3.eisenstein import Eisenstein, NonRealResidueError, OMEGA1, OMEGA2
from jacobsthal3.sequences import (
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    SequenceParams,
    V_ORDINARY,
    term,
    term_range,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
seed_triples = st.builds(SequenceParams, rationals, rationals, rationals)


def test_growth_coefficient_is_rho_over_seven():
    assert binet_coefficients(JACOBSTHAL).A == Fraction(2, 7)
    assert binet_coefficients(JACOBSTHAL_LUCAS).A == Fraction(8, 7)
    assert binet_coefficients(SequenceParams(1, 2, 3)).A == Fraction(6, 7)


def test_omega_coefficients_for_jacobsthal():
    # hand computation: B = w / ((2-w)(1+2w)) = (5 + 4w)/21 and
    # C = (-1-w) / ((3+w)(1+2w)) = (-1 + 4w)/21
    coeffs = binet_coefficients(JACOBSTHAL)
    assert coeffs.B == Eisenstein(Fraction(5, 21), Fraction(4, 21))
    assert coeffs.C == Eisenstein(Fraction(-1, 21), Fraction(4, 21))


def test_omega_coefficients_for_jacobsthal_lucas():
    coeffs = binet_coefficients(JACOBSTHAL_LUCAS)
    assert coeffs.B == Eisenstein(Fraction(-5, 7), Fraction(-4, 7))
    assert coeffs.C == Eisenstein(Fraction(1, 7), Fraction(-4, 7))


@given(seed_triples)
def test_coefficients_reproduce_the_seeds(params):
    coeffs = binet_coefficients(params)
    seeds = (params.a, params.b, params.c)
    for n in range(3):
        value = coeffs.A * Fraction(2) ** n - coeffs.B * OMEGA1**n + coeffs.C * OMEGA2**n
        assert value.rational_part() == seeds[n]


def test_binet_term_examples():
    assert binet_term(JACOBSTHAL, 5) == 9
    assert binet_term(JACOBSTHAL_LUCAS, 4) == 17
    assert binet_term(SequenceParams(1, 2, 3), 0) == 1


def test_decomposed_term_examples():
    assert decomposed_term(JACOBSTHAL, 4) == Fraction(32 + 3, 7) == 5
    assert decomposed_term(SequenceParams(1, 2, 3), 3) == Fraction(48 + 1, 7) == 7
    assert decomposed_term(JACOBSTHAL_LUCAS, 0) == 2


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        binet_term(JACOBSTHAL, -1)
    with pytest.raises(ValueError):
        decomposed_term(JACOBSTHAL, -2)


@settings(max_examples=40, deadline=None)
@given(seed_triples, st.integers(min_value=0, max_value=64))
def test_three_evaluators_agree(params, n):
    expected = term(params, n)
    assert binet_term(params, n) == expected
    assert decomposed_term(params, n) == expected


def test_three_evaluators_agree_on_presets_to_128():
    for params in (JACOBSTHAL, JACOBSTHAL_LUCAS, SequenceParams(1, 2, 3)):
        stream = term_range(params, 0, 128)
        for n, expected in enumerate(stream):
            assert binet_term(params, n) == expected
            assert decomposed_term(params, n) == expected


@settings(max_examples=30, deadline=None)
@given(seed_triples, st.integers(min_value=0, max_value=598))
def test_binet_term_matches_the_oracle_in_every_residue_class(params, start):
    # n, n+1 and n+2 cover the three residues mod 3 that select w**n
    for n in range(start, start + 3):
        assert binet_term(params, n) == term(params, n)


@pytest.mark.parametrize("n", [300, 301, 302])
def test_binet_term_checks_the_cancellation_on_every_call(monkeypatch, n):
    # With B off by delta = s + t*w, the value moves by -delta*w**n, whose
    # w-part is t, s - t and -s for n = 0, 1, 2 (mod 3); s = 1, t = 2
    # leaves a residue in every class.  (A pure t*w would turn rational
    # at n = 2 mod 3 and only make the value wrong.)
    params = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
    good = binet_coefficients(params)
    bad = closed_forms.BinetCoefficients(good.A, good.B + Eisenstein(1, 2), good.C)
    monkeypatch.setattr(closed_forms, "binet_coefficients", lambda p: bad)
    with pytest.raises(NonRealResidueError):
        binet_term(params, n)


def _count_products(monkeypatch):
    calls = [0]
    for name in ("__mul__", "__rmul__"):
        original = vars(Eisenstein)[name]

        def counted(self, other, original=original):
            calls[0] += 1
            return original(self, other)

        monkeypatch.setattr(Eisenstein, name, counted)
    return calls


def test_binet_term_cost_in_products_does_not_grow_with_n(monkeypatch):
    params = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
    binet_coefficients(params)  # solve for the coefficients outside the count
    calls = _count_products(monkeypatch)
    binet_term(params, 10)
    small = calls[0]
    binet_term(params, 100_000)
    assert calls[0] - small == small > 0


def test_binet_coefficient_cache_lets_old_params_go():
    # a cache entry keeps its params alive, with the whole oracle prefix
    first = SequenceParams(Fraction(1, 3), -7, 11)
    first_ref = weakref.ref(first)
    binet_term(first, 40)
    del first
    for k in range(200):
        binet_term(SequenceParams(k, 1, Fraction(1, 2)), 40)
    gc.collect()
    assert first_ref() is None


def test_lucas_decomposition():
    # 7 * jL(n) == 2**(n+3) + 3 * V(n)
    for n in range(60):
        assert 7 * term(JACOBSTHAL_LUCAS, n) == 2 ** (n + 3) + 3 * V_ORDINARY.at(n)


@given(seed_triples, st.integers(min_value=0, max_value=40))
def test_remainder_is_periodic(params, n):
    remainder = lambda k: 7 * term(params, k) - params.rho * 2**k
    assert remainder(n) == remainder(n + 3)
