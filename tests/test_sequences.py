import dataclasses
import gc
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from jacobsthal3.closed_forms import binet_term, decomposed_term
from jacobsthal3.identities import catalan_rhs, gelin_cesaro_rhs
from jacobsthal3.sequences import (
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    CompanionSet,
    PeriodicTriple,
    SequenceParams,
    U_OFFSET,
    V_ORDINARY,
    W_ORDINARY,
    companions,
    term,
    term_range,
    u_value,
)
from jacobsthal3.sums import (
    StridedSumContext,
    prefix_sum_closed,
    strided_sum_closed,
    weighted_sum_charpoly_form,
    weighted_sum_closed,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
seed_triples = st.builds(SequenceParams, rationals, rationals, rationals)
# pairwise coprime denominators make the prefix scale a large lcm
coprime_rationals = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 13, 17, 19])
)
coprime_seed_triples = st.builds(
    SequenceParams, coprime_rationals, coprime_rationals, coprime_rationals
)


# First terms by direct iteration of X(n+3) = X(n+2) + X(n+1) + 2*X(n).
JACOBSTHAL_PREFIX = [0, 1, 1, 2, 5, 9, 18, 37, 73, 146, 293]
LUCAS_PREFIX = [2, 1, 5, 10, 17, 37, 74, 145, 293]


def test_jacobsthal_terms():
    assert [term(JACOBSTHAL, n) for n in range(7)] == [0, 1, 1, 2, 5, 9, 18]


def test_jacobsthal_lucas_terms():
    assert [term(JACOBSTHAL_LUCAS, n) for n in range(6)] == [2, 1, 5, 10, 17, 37]


def test_general_seventh_term():
    # the first seven terms of seeds (a, b, c) are
    # a, b, c, 2a+b+c, 2a+3b+2c, 4a+4b+5c, 10a+9b+9c
    assert term(SequenceParams(1, 2, 3), 6) == 10 + 18 + 27 == 55


def test_term_rejects_negative_index():
    with pytest.raises(ValueError):
        term(JACOBSTHAL, -1)


def test_term_range():
    assert term_range(JACOBSTHAL, 0, 3) == [0, 1, 1, 2]
    assert term_range(SequenceParams(1, 2, 3), 3, 5) == [7, 14, 27]
    assert term_range(JACOBSTHAL, 5, 5) == [9]


def test_term_range_rejects_empty_range():
    with pytest.raises(ValueError):
        term_range(JACOBSTHAL, 3, 2)


def test_periodic_value_examples():
    assert V_ORDINARY.at(4) == -3
    assert V_ORDINARY.at(6) == 2
    assert companions(SequenceParams(1, 2, 3)).v_gen.at(2) == 3  # -3c + 4b + 4a


def test_periodic_value_accepts_negative_index():
    triple = PeriodicTriple(7, 8, 9)
    assert triple.at(-1) == 9
    assert triple.at(-3) == 7


def test_companions_reduce_to_ordinary_triples():
    comp = companions(JACOBSTHAL)
    assert comp.v_gen == V_ORDINARY
    assert comp.w_gen == W_ORDINARY
    assert tuple(comp.w_gen) == (2, 1, -3)


def test_companions_for_free_seeds():
    comp = companions(SequenceParams(1, 2, 3))
    assert tuple(comp.v_gen) == (-1, -2, 3)
    assert tuple(comp.w_gen) == (3, -2, -1)


def test_product_triple():
    # t(n) = w_gen(n+1) * w_gen(n+2); for seeds (0,1,1) that is
    # (1*-3, -3*2, 2*1) = (-3, -6, 2)
    comp = companions(JACOBSTHAL)
    assert tuple(comp.t) == (-3, -6, 2)


def test_u_value_table():
    assert [u_value(r) for r in range(7)] == [0, 1, -1, 0, 1, -1, 0]
    assert U_OFFSET.at(2 - 1) == -1


def test_quartic_and_rho():
    assert JACOBSTHAL.quartic == 1
    assert JACOBSTHAL.rho == 2
    assert SequenceParams(1, 2, 3).quartic == 1
    assert SequenceParams(1, 2, 3).rho == 6


def test_seed_coercion():
    params = SequenceParams("1/2", -3, Fraction(7, 5))
    assert params.a == Fraction(1, 2)
    assert params.b == Fraction(-3)
    assert params.c == Fraction(7, 5)
    assert SequenceParams("1/2", 0, 0).a == Fraction(1, 2)
    with pytest.raises(TypeError, match="exact arithmetic only"):
        SequenceParams(0.5, 1, 1)


@given(seed_triples)
def test_seed_recovery(params):
    # (rho * 2**n - v_gen(n)) / 7 returns the seeds at n = 0, 1, 2
    v = companions(params).v_gen
    seeds = (params.a, params.b, params.c)
    for n in range(3):
        assert (params.rho * 2**n - v.at(n)) / 7 == seeds[n]


@given(seed_triples, st.integers(min_value=0, max_value=30))
def test_anti_recurrence_of_remainder_triple(params, n):
    v = companions(params).v_gen
    assert v.at(n + 2) == -v.at(n + 1) - v.at(n)


@given(st.builds(PeriodicTriple, rationals, rationals, rationals),
       st.integers(min_value=-50, max_value=50))
def test_period_three(triple, n):
    assert triple.at(n) == triple.at(n + 3)


@given(seed_triples, st.integers(min_value=0, max_value=60))
def test_term_is_linear_in_seeds(params, n):
    basis = [
        term(SequenceParams(1, 0, 0), n),
        term(SequenceParams(0, 1, 0), n),
        term(SequenceParams(0, 0, 1), n),
    ]
    combined = params.a * basis[0] + params.b * basis[1] + params.c * basis[2]
    assert term(params, n) == combined


def test_cassini_companion_relation():
    # 7 * w_gen(n+2) == 5 * v_gen(n+1) - 3 * v_gen(n) for every residue
    for params in (JACOBSTHAL, JACOBSTHAL_LUCAS, SequenceParams(5, -1, 2)):
        comp = companions(params)
        for n in range(3):
            assert 7 * comp.w_gen.at(n + 2) == 5 * comp.v_gen.at(n + 1) - 3 * comp.v_gen.at(n)


def test_product_triple_relation():
    for params in (JACOBSTHAL, SequenceParams(1, 2, 3), SequenceParams(5, -1, 2)):
        comp = companions(params)
        for n in range(3):
            assert comp.t.at(n) == comp.w_gen.at(n + 1) * comp.w_gen.at(n + 2)


@pytest.mark.parametrize("n", [True, 2.0, "3", None])
def test_term_rejects_non_integer_index(n):
    with pytest.raises(TypeError, match="term index n"):
        term(JACOBSTHAL, n)


def test_term_range_rejects_non_integer_bounds():
    with pytest.raises(TypeError, match="first"):
        term_range(JACOBSTHAL, False, 3)
    with pytest.raises(TypeError, match="last"):
        term_range(JACOBSTHAL, 0, 3.0)


RATIONAL = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
INDEX_ARGUMENTS = {
    "binet_term n": ("term index n", lambda i: binet_term(RATIONAL, i)),
    "decomposed_term n": ("term index n", lambda i: decomposed_term(RATIONAL, i)),
    "catalan_rhs n": ("identity index n", lambda i: catalan_rhs(RATIONAL, i, 1)),
    "catalan_rhs r": ("identity index r", lambda i: catalan_rhs(RATIONAL, 3, i)),
    "gelin_cesaro_rhs n": ("identity index n", lambda i: gelin_cesaro_rhs(RATIONAL, i)),
    "prefix_sum_closed n": ("prefix length n", lambda i: prefix_sum_closed(i)),
    "weighted_sum_closed n": ("sum length n", lambda i: weighted_sum_closed(RATIONAL, 3, i)),
    "weighted_sum_charpoly_form n": (
        "sum length n",
        lambda i: weighted_sum_charpoly_form(RATIONAL, 3, i),
    ),
    "strided_sum_closed n": ("sum length n", lambda i: strided_sum_closed(RATIONAL, 1, 1, i)),
    "StridedSumContext.of m": ("stride m", lambda i: StridedSumContext.of(i, 2)),
    "StridedSumContext.of r": ("offset r", lambda i: StridedSumContext.of(1, i)),
}


@pytest.mark.parametrize("index", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("argument", list(INDEX_ARGUMENTS))
def test_closed_forms_reject_bool_and_float_indices(argument, index):
    # True would be evaluated as 1 and 2.0 would reach a tuple index
    name, call = INDEX_ARGUMENTS[argument]
    message = rf"^{name} must be an int, got {type(index).__name__}$"
    with pytest.raises(TypeError, match=message):
        call(index)


def test_equal_seeds_give_equal_params_and_hashes():
    variants = [
        SequenceParams(1, 2, 3),
        SequenceParams("1", Fraction(2), 3),
        SequenceParams(Fraction(2, 2), 2, 3),
    ]
    for params in variants:
        assert params == variants[0]
        assert hash(params) == hash(variants[0]) == hash((Fraction(1), Fraction(2), Fraction(3)))
    assert len({*variants}) == 1


def test_cached_seed_data_stays_out_of_repr_and_fields():
    params = SequenceParams(1, 2, 3)
    companions(params), params.rho, params.quartic, term(params, 50)
    assert repr(params) == "SequenceParams(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1))"
    assert [f.name for f in dataclasses.fields(params)] == ["a", "b", "c"]


def test_oracle_prefix_is_freed_with_its_params():
    # seeds no other test uses, so no equal params computed earlier can hold the prefix
    params = SequenceParams(1, 2, 1003)
    term(params, 2000)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_companions_are_built_once_per_params():
    params = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
    comp = companions(params)
    assert companions(params) is comp
    a, b, c = params.a, params.b, params.c
    w_gen = PeriodicTriple(-3 * c + 5 * b + 2 * a, 2 * c - b - 6 * a, c - 4 * b + 4 * a)
    assert comp == CompanionSet(
        v_gen=PeriodicTriple(c + b - 6 * a, 2 * c - 5 * b + 2 * a, -3 * c + 4 * b + 4 * a),
        w_gen=w_gen,
        t=PeriodicTriple(w_gen.at1 * w_gen.at2, w_gen.at2 * w_gen.at0, w_gen.at0 * w_gen.at1),
    )


def fraction_terms(params: SequenceParams, last: int) -> list[Fraction]:
    """X(0..last) by the recurrence on Fractions, independent of the oracle."""
    values = [params.a, params.b, params.c]
    while len(values) <= last:
        values.append(values[-1] + values[-2] + 2 * values[-3])
    return values[: last + 1]


def _lowest_terms(value) -> bool:
    return type(value) is Fraction and gcd(value.numerator, value.denominator) == 1


@settings(max_examples=60, deadline=None)
@given(coprime_seed_triples, st.integers(0, 40), st.integers(0, 90))
def test_term_and_term_range_match_a_fraction_recurrence(params, n, last):
    expected = fraction_terms(params, max(n, last))
    # term first, so term_range also reads a prefix grown in two steps
    got = term(params, n)
    assert got == expected[n] and _lowest_terms(got)
    window = term_range(params, min(n, last), last)
    assert window == expected[min(n, last) : last + 1]
    assert all(map(_lowest_terms, window))


def test_rational_prefix_holds_only_scaled_ints():
    params = SequenceParams(Fraction(1, 13), Fraction(-5, 17), Fraction(7, 19))
    term(params, 300)
    assert params._scale == lcm(13, 17, 19)
    assert len(params._prefix) > 300
    assert all(type(value) is int for value in params._prefix)
    assert term(params, 300) == fraction_terms(params, 300)[300]
    # the identity LHSs read the J and jL prefixes as the terms themselves
    assert JACOBSTHAL._scale == JACOBSTHAL_LUCAS._scale == 1
