from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobsthal3.sequences import JACOBSTHAL, JACOBSTHAL_LUCAS, SequenceParams, term_range
from jacobsthal3.series import RECURRENCE_DENOMINATOR, gf_coefficients, gf_numerator, series_div

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
seed_triples = st.builds(SequenceParams, rationals, rationals, rationals)


def test_series_div_jacobsthal_stream():
    coeffs = series_div([0, 1], [1, -1, -1, -2], 7)
    assert coeffs == [0, 1, 1, 2, 5, 9, 18]


def test_series_div_geometric():
    assert series_div([1], [1, -1], 4) == [1, 1, 1, 1]


def test_series_div_by_unit():
    assert series_div([1, 2, 3], [1], 3) == [1, 2, 3]


def test_series_div_requires_unit_denominator():
    with pytest.raises(ValueError, match="unit"):
        series_div([1], [0, 1], 4)


def test_series_div_requires_a_constant_term():
    with pytest.raises(ValueError, match="unit"):
        series_div([1], [], 4)


def test_series_div_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        series_div([1], [1, 0.5], 4)
    with pytest.raises(TypeError, match="float"):
        series_div([0.5], [1], 4)


def test_series_div_requires_positive_count():
    with pytest.raises(ValueError):
        series_div([1], [1], 0)


def test_gf_numerator():
    assert gf_numerator(JACOBSTHAL) == (0, 1, 0)
    assert gf_numerator(JACOBSTHAL_LUCAS) == (2, -1, 2)


def test_gf_examples():
    assert gf_coefficients(JACOBSTHAL, 7) == [0, 1, 1, 2, 5, 9, 18]
    assert gf_coefficients(JACOBSTHAL_LUCAS, 6) == [2, 1, 5, 10, 17, 37]
    assert gf_coefficients(SequenceParams(1, 2, 3), 7) == [1, 2, 3, 7, 14, 27, 55]


def test_gf_matches_oracle_deep():
    for params in (JACOBSTHAL, JACOBSTHAL_LUCAS, SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))):
        assert gf_coefficients(params, 256) == term_range(params, 0, 255)


@settings(max_examples=40, deadline=None)
@given(seed_triples, st.integers(min_value=1, max_value=64))
def test_gf_matches_oracle(params, count):
    assert gf_coefficients(params, count) == term_range(params, 0, count - 1)


@settings(max_examples=40, deadline=None)
@given(seed_triples)
def test_multiplying_back_recovers_numerator(params):
    # truncated convolution of the coefficient stream with the denominator
    # must reproduce the numerator followed by zeros
    count = 24
    stream = gf_coefficients(params, count)
    den = RECURRENCE_DENOMINATOR
    num = gf_numerator(params) + (0,) * (count - 3)
    for n in range(count):
        convolved = sum(den[k] * stream[n - k] for k in range(0, min(n + 1, len(den))))
        assert convolved == num[n]
