from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobsthal3 import sums
from jacobsthal3.eisenstein import OMEGA1, OMEGA2, Eisenstein
from jacobsthal3.sequences import JACOBSTHAL, SequenceParams, term
from jacobsthal3.sums import (
    DegenerateStrideError,
    StridedSumContext,
    charpoly,
    prefix_sum_closed,
    strided_sum_closed,
    sum_oracle,
    weighted_sum_charpoly_form,
    weighted_sum_closed,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10)
seed_triples = st.builds(SequenceParams, rationals, rationals, rationals)
# pairwise coprime denominators make the prefix scale and the weight lcm large
coprime_rationals = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 13, 17, 19])
)
coprime_seed_triples = st.builds(
    SequenceParams, coprime_rationals, coprime_rationals, coprime_rationals
)

PRESETS = [
    JACOBSTHAL,
    SequenceParams(2, 1, 5),
    SequenceParams(1, 2, 3),
    SequenceParams(5, -1, 2),
    SequenceParams(Fraction(1, 2), -3, Fraction(7, 5)),
]


def test_sum_oracle_examples():
    assert sum_oracle(JACOBSTHAL, [0, 1, 2, 3]) == 4
    assert sum_oracle(JACOBSTHAL, [2, 4], weights=[1, 1]) == 6
    assert sum_oracle(JACOBSTHAL, [5, 0, 5], weights=[2, 7, Fraction(-1, 3)]) == 2 * 9 - 9 / Fraction(3)
    assert sum_oracle(SequenceParams(9, 9, 9), []) == 0
    assert sum_oracle(JACOBSTHAL, [], weights=[]) == 0
    assert type(sum_oracle(JACOBSTHAL, [])) is Fraction


def test_sum_oracle_validation():
    with pytest.raises(ValueError):
        sum_oracle(JACOBSTHAL, [0, -1])
    with pytest.raises(ValueError, match=r"^got 1 weights for 2 indices$"):
        sum_oracle(JACOBSTHAL, [0, 1], weights=[1])
    with pytest.raises(ValueError, match=r"^got 2 weights for 0 indices$"):
        sum_oracle(JACOBSTHAL, [], weights=[1, 2])


@pytest.mark.parametrize(
    "index, error, message",
    [
        (True, TypeError, r"^term index n must be an int, got bool$"),
        (1.0, TypeError, r"^term index n must be an int, got float$"),
        ("1", TypeError, r"^term index n must be an int, got str$"),
        (-1, ValueError, r"^term index n must be nonnegative, got -1$"),
    ],
)
def test_sum_oracle_checks_every_index_before_reading(monkeypatch, index, error, message):
    def unread(*args):
        raise AssertionError("the oracle was read before the indices were checked")

    # every way sums can reach the oracle: the scaled prefix, and term or
    # term_range should sums ever bind them
    monkeypatch.setattr(sums, "_scaled_prefix", unread)
    for name in ("term", "term_range"):
        monkeypatch.setattr(sums, name, unread, raising=False)
    with pytest.raises(error, match=message):
        sum_oracle(SequenceParams(3, 1, 4), [0, 50, index, 2])


def test_prefix_sum_examples():
    assert prefix_sum_closed(3) == 4  # 0 + 1 + 1 + 2
    assert prefix_sum_closed(4) == 9
    assert prefix_sum_closed(0) == 0
    with pytest.raises(ValueError):
        prefix_sum_closed(-1)


def test_prefix_sum_sweep():
    for n in range(101):
        assert prefix_sum_closed(n) == sum_oracle(JACOBSTHAL, range(n + 1))


def test_charpoly():
    assert charpoly(2) == 0
    assert charpoly(1) == -3
    assert charpoly(Fraction(1, 2)) == Fraction(1, 8) - Fraction(1, 4) - Fraction(1, 2) - 2


def test_weighted_sum_examples():
    # x = 1, n = 3: numerator 2*2 + (9-5) + 5 - 1 = 12 over 1 * 3
    assert weighted_sum_closed(JACOBSTHAL, 1, 3) == 4
    # x = 3, n = 1: numerator -13 over 3 * (-13/3)... denominator 3 * -13
    assert weighted_sum_closed(JACOBSTHAL, 3, 1) == Fraction(1, 3)
    assert weighted_sum_closed(SequenceParams(1, 2, 3), -1, 2) == 2


def test_weighted_sum_domain():
    with pytest.raises(ValueError):
        weighted_sum_closed(JACOBSTHAL, 0, 3)
    with pytest.raises(ValueError, match="pole"):
        weighted_sum_closed(JACOBSTHAL, 2, 3)
    with pytest.raises(ValueError):
        weighted_sum_closed(JACOBSTHAL, 1, -1)


def test_charpoly_form_is_negated():
    # dividing by charpoly(x) instead of -charpoly(x) flips the sign;
    # pinned counterexample: x = 1, n = 3 gives -4 against the true 4
    assert weighted_sum_charpoly_form(JACOBSTHAL, 1, 3) == -4
    assert weighted_sum_closed(JACOBSTHAL, 1, 3) == 4


@settings(max_examples=30, deadline=None)
@given(seed_triples, st.integers(min_value=0, max_value=24))
def test_charpoly_form_negates_everywhere(params, n):
    x = Fraction(3)
    assert weighted_sum_charpoly_form(params, x, n) == -weighted_sum_closed(params, x, n)


def test_weighted_sum_sweep():
    xs = (Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-2, 3), Fraction(5))
    for params in PRESETS:
        for x in xs:
            for n in range(33):
                weights = [x ** (-k) for k in range(n + 1)]
                oracle = sum_oracle(params, range(n + 1), weights)
                assert weighted_sum_closed(params, x, n) == oracle


@settings(max_examples=30, deadline=None)
@given(seed_triples, st.integers(min_value=1, max_value=32))
def test_weighted_sum_telescopes(params, n):
    x = Fraction(-2, 3)
    step = weighted_sum_closed(params, x, n) - weighted_sum_closed(params, x, n - 1)
    assert step == term(params, n) / x**n


def test_strided_context_constants():
    ctx = StridedSumContext.of(1, 1)
    assert (ctx.trace, ctx.mu, ctx.sigma) == (-1, 1, 3)
    ctx = StridedSumContext.of(2, 2)
    assert (ctx.trace, ctx.mu, ctx.sigma) == (-1, 3, 9)
    for m in (3, 6):
        ctx = StridedSumContext.of(m, m)
        assert ctx.trace == 2
        assert ctx.sigma == 0


def test_strided_constants_are_integers():
    # the generic powers in Q(w) are the yardstick for the m mod 3 rule
    for m in range(1, 61):
        ctx = StridedSumContext.of(m, m)
        trace = (OMEGA1**m + OMEGA2**m).rational_part()
        assert ctx.trace == trace in (2, -1)
        assert ctx.mu == 2**m + trace
        assert ctx.sigma == 2 ** (m + 1) + (1 - 2**m) * trace - 2
        for value in (ctx.trace, ctx.mu, ctx.sigma):
            assert type(value) is int
        assert (ctx.sigma == 0) == (m % 3 == 0)


def test_strided_constants_use_no_powers_in_q_w(monkeypatch):
    def refused(self, exponent):
        raise AssertionError("StridedSumContext.of powered an Eisenstein value")

    monkeypatch.setattr(Eisenstein, "__pow__", refused)
    StridedSumContext._of.cache_clear()  # a cached context would skip the body
    for m in range(1, 13):
        StridedSumContext.of(m, m + 5)


def test_strided_context_cache_keys_on_argument_types():
    # True == 1 and 2.0 == 2 hash alike; a warm int entry must not answer them
    StridedSumContext.of(1, 1)
    StridedSumContext.of(2, 2)
    for m, r in ((True, True), (1.0, 1), (2, 2.0)):
        with pytest.raises(TypeError):
            StridedSumContext.of(m, r)
    assert StridedSumContext.of(5, 9) is StridedSumContext.of(5, 9)


@pytest.mark.parametrize(
    "m, r, message",
    [([1], 2, "^stride m must be an int, got list$"), (2, [3], "^offset r must be an int, got list$")],
    ids=["m-list", "r-list"],
)
def test_strided_context_checks_types_before_the_cache_hashes_them(m, r, message):
    # an unhashable index must get the index message, not the cache's own TypeError
    with pytest.raises(TypeError, match=message):
        StridedSumContext.of(m, r)
    with pytest.raises(TypeError, match=message):
        strided_sum_closed(JACOBSTHAL, m, r, 1)


def test_strided_context_validation():
    with pytest.raises(ValueError):
        StridedSumContext.of(0, 1)
    with pytest.raises(ValueError):
        StridedSumContext.of(3, 2)


def test_strided_sum_examples():
    assert strided_sum_closed(JACOBSTHAL, 1, 1, 2) == 4  # J1 + J2 + J3
    assert strided_sum_closed(JACOBSTHAL, 2, 2, 1) == 6  # J2 + J4
    assert strided_sum_closed(SequenceParams(1, 2, 3), 2, 2, 0) == 3


def test_strided_sum_degenerate_stride():
    with pytest.raises(DegenerateStrideError, match="sigma=0"):
        strided_sum_closed(JACOBSTHAL, 3, 3, 5)
    with pytest.raises(DegenerateStrideError):
        strided_sum_closed(JACOBSTHAL, 6, 8, 2)
    # the oracle still covers the degenerate case
    assert sum_oracle(JACOBSTHAL, [3 * k + 3 for k in range(6)]) == 85596


def test_strided_sum_domain():
    with pytest.raises(ValueError):
        strided_sum_closed(JACOBSTHAL, 2, 1, 5)
    with pytest.raises(ValueError):
        strided_sum_closed(JACOBSTHAL, 1, 1, -1)


def test_strided_sum_sweep():
    for params in (JACOBSTHAL, SequenceParams(2, 1, 5), SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))):
        for m in (1, 2, 4, 5):
            for r in range(m, m + 7):
                for n in range(25):
                    indices = [m * k + r for k in range(n + 1)]
                    assert strided_sum_closed(params, m, r, n) == sum_oracle(params, indices)


@settings(max_examples=25, deadline=None)
@given(seed_triples, st.integers(min_value=0, max_value=16))
def test_strided_single_stride_random_seeds(params, n):
    indices = [k + 1 for k in range(n + 1)]
    assert strided_sum_closed(params, 1, 1, n) == sum_oracle(params, indices)


@settings(max_examples=60, deadline=None)
@given(coprime_seed_triples, st.lists(st.tuples(st.integers(0, 60), coprime_rationals), max_size=12))
def test_sum_oracle_matches_a_naive_fraction_sum(params, pairs):
    indices = [idx for idx, _ in pairs]
    weights = [w for _, w in pairs]
    assert sum_oracle(params, indices) == sum((term(params, k) for k in indices), Fraction(0))
    weighted = sum((w * term(params, k) for k, w in pairs), Fraction(0))
    assert sum_oracle(params, indices, weights) == weighted


@settings(max_examples=60, deadline=None)
@given(
    coprime_seed_triples,
    st.integers(1, 8).filter(lambda m: m % 3),
    st.integers(0, 6),
    st.integers(0, 12),
)
def test_strided_closed_form_matches_the_oracle_sum(params, m, extra, n):
    r = m + extra
    expected = sum_oracle(params, [m * k + r for k in range(n + 1)])
    assert strided_sum_closed(params, m, r, n) == expected


def test_sums_need_neither_term_nor_term_range(monkeypatch):
    params = SequenceParams(Fraction(1, 13), Fraction(-5, 17), Fraction(7, 19))
    indices = [4 * k + 5 for k in range(11)]
    weights = [Fraction(1, 3) ** k for k in range(11)]
    plain = sum((term(params, k) for k in indices), Fraction(0))
    weighted = sum((w * term(params, k) for w, k in zip(weights, indices)), Fraction(0))

    def refused(*args):
        raise AssertionError("a sum built a Fraction per term")

    for name in ("term", "term_range"):
        monkeypatch.setattr(sums, name, refused, raising=False)
    assert sum_oracle(params, indices) == plain
    assert sum_oracle(params, indices, weights) == weighted
    assert strided_sum_closed(params, 4, 5, 10) == plain
