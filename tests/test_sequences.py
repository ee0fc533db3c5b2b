import dataclasses
import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
seed_triples = st.builds(SequenceParams, rationals, rationals, rationals)


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
