"""Catalog behavior: spot values, sweeps, domains, report serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobsthal3 import identities, sequences
from jacobsthal3.identities import (
    IdentityId,
    MAX_FAILURE_WITNESSES,
    catalan_rhs,
    check,
    gelin_cesaro_rhs,
    verify_range,
)
from jacobsthal3.sequences import (
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    SequenceParams,
    companions,
    term,
    term_range,
    u_value,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10)
seed_triples = st.builds(SequenceParams, rationals, rationals, rationals)

PRESETS = [
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    SequenceParams(1, 2, 3),
    SequenceParams(5, -1, 2),
    SequenceParams(Fraction(1, 2), -3, Fraction(7, 5)),
]


def test_e4_spot():
    result = check(IdentityId.E4, n=5)
    assert result.lhs == 3 * 9 + 37 == 64
    assert result.rhs == 2**6
    assert result.equal


def test_catalan_j_spot():
    result = check(IdentityId.CATALAN_J, n=4, r=2)
    assert result.lhs == 25 - 18 == 7
    assert result.rhs == Fraction(336 + 7, 49) == 7
    assert result.equal


def test_gelin_j_spots():
    assert check(IdentityId.GELIN_CESARO_J, n=2).lhs == 1
    assert check(IdentityId.GELIN_CESARO_J, n=2).equal
    result = check(IdentityId.GELIN_CESARO_J, n=3)
    assert result.lhs == 16 - 45 == -29
    assert result.equal


def test_catalan_rhs_examples():
    assert catalan_rhs(SequenceParams(1, 2, 3), 3, 1) == 7  # lhs: 49 - 3*14
    assert catalan_rhs(JACOBSTHAL, 4, 2) == 7
    for params in PRESETS:
        assert catalan_rhs(params, 9, 0) == 0


def test_catalan_rhs_domain():
    with pytest.raises(
        ValueError, match=r"^catalan-gen takes n >= 0 and 0 <= r <= n, got n=3, r=4$"
    ):
        catalan_rhs(JACOBSTHAL, 3, 4)
    with pytest.raises(ValueError, match=r"^identity index r must be nonnegative, got -1$"):
        catalan_rhs(JACOBSTHAL, 3, -1)


def test_gelin_rhs_examples():
    assert gelin_cesaro_rhs(JACOBSTHAL, 3, "cases") == -29
    assert gelin_cesaro_rhs(JACOBSTHAL, 2, "general") == 1
    params = SequenceParams(1, 2, 3)
    lhs = term(params, 4) ** 4 - term(params, 2) * term(params, 3) * term(params, 5) * term(params, 6)
    assert gelin_cesaro_rhs(params, 4, "general") == lhs
    assert gelin_cesaro_rhs(params, 4, "cases") == lhs


def test_gelin_rhs_domain():
    with pytest.raises(
        ValueError, match=r"^gelin-cesaro-gen takes n >= 2 and no r, got n=1, r=None$"
    ):
        gelin_cesaro_rhs(JACOBSTHAL, 1, "general")
    with pytest.raises(ValueError, match=r"^mode must be 'general' or 'cases', got 'nonsense'$"):
        gelin_cesaro_rhs(JACOBSTHAL, 4, "nonsense")


def test_check_domains():
    with pytest.raises(ValueError, match=r"^e5 takes n >= 3 and no r, got n=2, r=None$"):
        check(IdentityId.E5, n=2)
    with pytest.raises(ValueError, match=r"^e9 takes n >= 3 and no r, got n=1, r=None$"):
        check(IdentityId.E9, n=1)
    with pytest.raises(
        ValueError, match=r"^gelin-cesaro-gen takes n >= 2 and no r, got n=1, r=None$"
    ):
        check(IdentityId.GELIN_CESARO_GEN, SequenceParams(1, 2, 3), n=1)
    with pytest.raises(ValueError, match=r"^identity index n must be nonnegative, got -1$"):
        check(IdentityId.E4, n=-1)
    with pytest.raises(
        ValueError, match=r"^catalan-j takes n >= 0 and 0 <= r <= n, got n=4, r=None$"
    ):
        check(IdentityId.CATALAN_J, n=4)  # r missing
    with pytest.raises(
        ValueError, match=r"^catalan-j takes n >= 0 and 0 <= r <= n, got n=4, r=5$"
    ):
        check(IdentityId.CATALAN_J, n=4, r=5)
    with pytest.raises(ValueError, match=r"^e4 takes n >= 0 and no r, got n=4, r=1$"):
        check(IdentityId.E4, n=4, r=1)  # r not accepted
    with pytest.raises(ValueError, match=r"^cassini-j takes n >= 1 and r = 1, got n=4, r=2$"):
        check(IdentityId.CASSINI_J, n=4, r=2)  # cassini fixes r = 1


@pytest.mark.parametrize(
    "identity, n, r, message",
    [
        (IdentityId.CATALAN_GEN, 5, True, r"^identity index r must be an int, got bool$"),
        (IdentityId.GELIN_CESARO_GEN, 3.0, None, r"^identity index n must be an int, got float$"),
        (IdentityId.E4, True, None, r"^identity index n must be an int, got bool$"),
        (IdentityId.CASSINI_GEN, 2, True, r"^identity index r must be an int, got bool$"),
    ],
)
def test_check_rejects_non_int_indices(identity, n, r, message):
    # True would read as 1 and 3.0 would reach a tuple index
    with pytest.raises(TypeError, match=message):
        check(identity, SequenceParams(1, 2, 3), n, r)


def test_lhs_reads_the_oracle_prefix_and_rhs_does_not():
    seeds = (Fraction(1, 2), -3, Fraction(7, 5))
    params = SequenceParams(*seeds)
    assert check(IdentityId.CATALAN_GEN, params, 10, 1).equal
    corrupted = list(params._prefix)
    corrupted[11] += 1
    object.__setattr__(params, "_prefix", tuple(corrupted))
    result = check(IdentityId.CATALAN_GEN, params, 10, 1)
    assert not result.equal
    assert result.rhs == catalan_rhs(SequenceParams(*seeds), 10, 1)


def test_seed_constants_read_neither_the_prefix_nor_its_scale():
    seeds = (Fraction(1, 2), -3, Fraction(7, 5))
    params, clean = SequenceParams(*seeds), SequenceParams(*seeds)
    # before any constant is built: a scale that is no multiple of the seed
    # denominators, and a prefix whose seeds are wrong
    object.__setattr__(params, "_scale", params._scale + 1)
    object.__setattr__(params, "_prefix", tuple(v + 1 for v in params._prefix))
    assert catalan_rhs(params, 10, 1) == catalan_rhs(clean, 10, 1)
    assert (params.rho, params.quartic) == (clean.rho, clean.quartic)
    assert companions(params) == companions(clean)


def test_cassini_is_catalan_at_r_one():
    for n in range(1, 30):
        cassini = check(IdentityId.CASSINI_J, n=n)
        catalan = check(IdentityId.CATALAN_J, n=n, r=1)
        assert cassini.r == 1
        assert cassini.lhs == catalan.lhs
        assert cassini.rhs == catalan.rhs


def test_verify_range_counts():
    report = verify_range(IdentityId.E7, n_max=50)
    assert report.total == 51
    assert report.failed == 0
    report = verify_range(IdentityId.E6, n_max=30)
    assert report.total == 31
    assert report.failed == 0


def test_verify_range_triangular_grid():
    report = verify_range(IdentityId.CATALAN_GEN, SequenceParams(5, -1, 2), n_max=20)
    assert report.total == sum(n + 1 for n in range(21))
    assert report.failed == 0


def test_verify_range_r_max_clips_grid():
    report = verify_range(IdentityId.CATALAN_J, n_max=10, r_max=2)
    assert report.total == 1 + 2 + sum(3 for _ in range(2, 11))
    assert report.failed == 0


@pytest.mark.parametrize(
    "n_max, r_max, message",
    [
        (True, None, r"^n_max for catalan-j must be an int, got bool$"),
        (3.0, None, r"^n_max for catalan-j must be an int, got float$"),
        ("x", None, r"^n_max for catalan-j must be an int, got str$"),
        (None, None, r"^n_max for catalan-j must be an int, got NoneType$"),
        (5, True, r"^r_max for catalan-j must be an int, got bool$"),
        (5, 3.0, r"^r_max for catalan-j must be an int, got float$"),
    ],
)
def test_verify_range_rejects_non_int_bounds(n_max, r_max, message):
    # True would sweep n <= 1 or clip at r = 1, and 3.0 would reach range()
    with pytest.raises(TypeError, match=message):
        verify_range(IdentityId.CATALAN_J, n_max=n_max, r_max=r_max)


@pytest.mark.parametrize("identity", [IdentityId.E4, IdentityId.CASSINI_J, IdentityId.CATALAN_J])
@pytest.mark.parametrize(
    "r_max, error, message",
    [
        (-5, ValueError, "must be nonnegative, got -5"),
        (True, TypeError, "must be an int, got bool"),
        (3.0, TypeError, "must be an int, got float"),
        ("x", TypeError, "must be an int, got str"),
    ],
)
def test_verify_range_checks_r_max_for_every_entry(identity, r_max, error, message):
    # entries without an r grid ignore r_max, but a bad one still raises
    with pytest.raises(error, match=f"^r_max for {identity.value} {message}$"):
        verify_range(identity, n_max=3, r_max=r_max)


def test_entries_without_an_r_grid_ignore_a_valid_r_max():
    for identity in (IdentityId.E4, IdentityId.CASSINI_J):
        assert verify_range(identity, n_max=3, r_max=0) == verify_range(identity, n_max=3)


def test_e10_reads_its_running_sum():
    sums = sequences._scaled_prefix_sums(JACOBSTHAL, 20)
    corrupted = list(sums)
    corrupted[10] += 1
    object.__setattr__(JACOBSTHAL, "_prefix_sums", tuple(corrupted))
    try:
        report = verify_range(IdentityId.E10, n_max=20)
    finally:
        object.__setattr__(JACOBSTHAL, "_prefix_sums", sums)
    assert (report.total, report.failed) == (21, 1)
    assert report.failures[0].n == 10
    assert report.failures[0].lhs == sum(term_range(JACOBSTHAL, 0, 10)) + 1


def test_running_sum_matches_the_prefix_as_both_grow():
    params = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
    for n in (0, 2, 3, 40, 41, 200):
        sums = sequences._scaled_prefix_sums(params, n)
        prefix, scale = sequences._scaled_prefix(params, n)
        assert len(sums) >= n + 1
        assert Fraction(sums[n], scale) == sum(term_range(params, 0, n))
        assert list(sums) == [sum(prefix[: k + 1]) for k in range(len(sums))]


def test_verify_range_bound_below_min_n():
    with pytest.raises(ValueError):
        verify_range(IdentityId.E5, n_max=2)


@pytest.mark.parametrize("identity", [IdentityId.CATALAN_J, IdentityId.CATALAN_GEN])
def test_verify_range_rejects_empty_r_grid(identity):
    # r_max < 0 leaves no (n, r) instance; an empty sweep must not pass
    with pytest.raises(ValueError, match="r_max"):
        verify_range(identity, SequenceParams(1, 2, 3), n_max=10, r_max=-1)


def test_catalan_sweeps_of_two_seeds_use_their_own_companions():
    first = SequenceParams(1, 2, 3)
    second = SequenceParams(Fraction(-2, 5), 3, Fraction(7, 4))
    for params in (first, second, first):
        report = verify_range(IdentityId.CATALAN_GEN, params, n_max=12)
        assert report.ok
        assert report.total == sum(n + 1 for n in range(13))
    assert companions(first).v_gen != companions(second).v_gen


def test_fixed_seed_identities_ignore_params():
    # seed-specific entries must not be perturbed by caller seeds
    report = verify_range(IdentityId.E4, SequenceParams(9, 9, 9), n_max=20)
    assert report.ok
    assert report.params == JACOBSTHAL


def test_catalan_gen_specializes_to_catalan_j():
    for n in range(0, 20):
        for r in range(0, n + 1):
            gen = check(IdentityId.CATALAN_GEN, JACOBSTHAL, n, r)
            fixed = check(IdentityId.CATALAN_J, JACOBSTHAL, n, r)
            assert gen.lhs == fixed.lhs
            assert gen.rhs == fixed.rhs


def test_general_gelin_matches_fixed_case_table_on_jacobsthal():
    for n in range(2, 40):
        assert gelin_cesaro_rhs(JACOBSTHAL, n, "general") == check(
            IdentityId.GELIN_CESARO_J, n=n
        ).rhs


#: The slots of identities._J_CONSTANTS (the _rhs_ints layout) that the J
#: entries read, and the entries reading each: D, rho, the seed form, V, the
#: product triple t and the Gelin-Cesaro bracket.  Slot 4 (W) is unread.
J_SLOT_READERS = {
    0: (IdentityId.CATALAN_J, IdentityId.GELIN_CESARO_J),
    1: (IdentityId.CATALAN_J, IdentityId.GELIN_CESARO_J),
    2: (IdentityId.CATALAN_J, IdentityId.GELIN_CESARO_J),
    3: (IdentityId.CATALAN_J,),
    5: (IdentityId.GELIN_CESARO_J,),
    6: (IdentityId.GELIN_CESARO_J,),
}


def test_j_constants_equal_those_derived_from_the_j_seeds():
    derived = JACOBSTHAL._rhs_ints
    assert len(identities._J_CONSTANTS) == len(derived)
    for slot in J_SLOT_READERS:
        assert identities._J_CONSTANTS[slot] == derived[slot], slot
    assert identities._J_CONSTANTS[4] is None  # no typed value that nothing reads


J_INT_MUTATIONS = [
    (slot, index, delta)
    for slot in J_SLOT_READERS
    for index in ((None,) if slot < 3 else range(3))
    for delta in (1, -1)
]


@pytest.mark.parametrize(
    "slot, index, delta",
    J_INT_MUTATIONS,
    ids=[
        f"{('D', 'rho', 'q', 'V', 'W', 't', 'bracket')[slot]}{'' if i is None else f'[{i}]'}{d:+d}"
        for slot, i, d in J_INT_MUTATIONS
    ],
)
def test_every_typed_j_int_is_load_bearing(slot, index, delta, monkeypatch):
    constants = list(identities._J_CONSTANTS)
    if index is None:
        constants[slot] += delta
    else:
        constants[slot] = tuple(v + delta * (k == index) for k, v in enumerate(constants[slot]))
    monkeypatch.setattr(identities, "_J_CONSTANTS", tuple(constants))
    for identity in J_SLOT_READERS[slot]:
        if constants[0] == 0:  # D = 0 zeroes the RHS denominator, which the sweep refuses
            with pytest.raises(ArithmeticError, match="denominators must be positive"):
                verify_range(identity, n_max=9)
        else:
            assert verify_range(identity, n_max=9).failed > 0, identity


@settings(max_examples=30, deadline=None)
@given(seed_triples, st.integers(min_value=2, max_value=40))
def test_cases_mode_agrees_with_general_mode(params, n):
    assert gelin_cesaro_rhs(params, n, "general") == gelin_cesaro_rhs(params, n, "cases")


def test_offset_table_matches_sequence_difference():
    # jL(n) - J(n+2) runs through the offset table shifted by one
    for n in range(0, 40):
        assert term(JACOBSTHAL_LUCAS, n) - term(JACOBSTHAL, n + 2) == u_value(n + 1)


@settings(max_examples=25, deadline=None)
@given(seed_triples, st.integers(min_value=0, max_value=24), st.data())
def test_catalan_gen_soundness(params, n, data):
    r = data.draw(st.integers(min_value=0, max_value=n))
    assert check(IdentityId.CATALAN_GEN, params, n, r).equal


def test_report_json_shape():
    report = verify_range(IdentityId.E4, n_max=3)
    payload = json.loads(report.to_json())
    assert payload == {
        "identity": "e4",
        "params": ["0", "1", "1"],
        "total": 4,
        "passed": 4,
        "failed": 0,
        "failures": [],
    }


def test_report_caps_failure_witnesses(monkeypatch):
    monkeypatch.setattr(IdentityId.E4, "_evaluate", lambda params, n, r: ((0, 1), (1, 1)))
    report = verify_range(IdentityId.E4, n_max=39)
    assert report.total == 40
    assert report.failed == 40
    assert len(report.failures) == MAX_FAILURE_WITNESSES
    assert [res.n for res in report.failures] == list(range(MAX_FAILURE_WITNESSES))
    payload = report.to_json_dict()
    assert payload["failed"] == 40
    assert len(payload["failures"]) == MAX_FAILURE_WITNESSES
    assert payload["failures"][0] == {"n": 0, "r": None, "lhs": "0", "rhs": "1"}


def test_report_renders_fractions_without_unit_denominator(monkeypatch):
    monkeypatch.setattr(
        IdentityId.CATALAN_GEN, "_evaluate", lambda params, n, r: ((3, 2), (4, 1))
    )
    params = SequenceParams(Fraction(1, 2), -3, Fraction(7, 5))
    report = verify_range(IdentityId.CATALAN_GEN, params, n_max=3, r_max=1)
    payload = report.to_json_dict()
    assert payload["params"] == ["1/2", "-3", "7/5"]
    assert payload["failed"] == payload["total"] == 7
    assert payload["failures"][0] == {"n": 0, "r": 0, "lhs": "3/2", "rhs": "4"}


@pytest.mark.parametrize("identity", list(IdentityId), ids=[ident.value for ident in IdentityId])
def test_sweep_and_check_share_one_domain(identity, monkeypatch):
    # verify_range must evaluate exactly the (n, r) that check accepts, in (n, r) order
    seen = []

    def record(params, n, r):
        seen.append((n, r))
        return (0, 1), (0, 1)

    monkeypatch.setattr(identity, "_evaluate", record)
    params = SequenceParams(1, 2, 3)
    for n_max in range(identity.min_n, identity.min_n + 6):
        for r_max in (None, 0, 2):
            seen.clear()
            for n in range(n_max + 1):
                for r in [None, *range(n_max + 1)]:
                    if r is not None and r_max is not None and r > r_max:
                        continue
                    try:
                        check(identity, params, n, r)
                    except ValueError:
                        pass
            accepted = list(dict.fromkeys(seen))  # cassini maps r = None and r = 1 to r = 1
            seen.clear()
            verify_range(identity, params, n_max=n_max, r_max=r_max)
            assert seen == accepted, (n_max, r_max)


def test_passing_sweep_builds_no_check_results(monkeypatch):
    built = []

    class Counted(identities.CheckResult):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(identities, "CheckResult", Counted)
    report = verify_range(IdentityId.CATALAN_GEN, SequenceParams(1, 2, 3), n_max=20)
    assert report.ok and report.total == 231
    assert built == []


REGISTRY = [
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
]


@pytest.mark.parametrize("position, entry", enumerate(REGISTRY), ids=[row[0] for row in REGISTRY])
def test_registry_entry(position, entry):
    value, min_n, uses_r, fixed_seeds = entry
    ident = IdentityId(value)
    assert list(IdentityId)[position] is ident
    assert (ident.value, ident.min_n, ident.uses_r, ident.fixed_seeds) == entry


def test_registry_has_no_other_entries():
    assert len(IdentityId) == len(REGISTRY)


#: Each linear entry's LHS from term alone, given readers of J and jL.
LINEAR_LHS = {
    "e4": lambda j, jl, n: 3 * j(n) + jl(n),
    "e5": lambda j, jl, n: jl(n) - 3 * j(n),
    "ec5": lambda j, jl, n: j(n + 2) - 4 * j(n),
    "e6": lambda j, jl, n: jl(n) - 4 * j(n),
    "e7": lambda j, jl, n: jl(n + 1) + jl(n),
    "e8": lambda j, jl, n: jl(n) - j(n + 2),
    "e9": lambda j, jl, n: jl(n - 3) ** 2 + 3 * j(n) * jl(n),
    "e10": lambda j, jl, n: sum(j(k) for k in range(n + 1)),
    "e12": lambda j, jl, n: jl(n) ** 2 - 9 * j(n) ** 2,
}


def _from_term(identity, seeds, n, r):
    """(LHS, public RHS) of an instance: the LHS from term alone, the RHS
    from the public Fraction form, or None for the linear entries."""
    x = lambda k: term(seeds, k)
    if identity.value in LINEAR_LHS:
        lhs = LINEAR_LHS[identity.value](
            lambda k: term(JACOBSTHAL, k), lambda k: term(JACOBSTHAL_LUCAS, k), n
        )
        return lhs, None
    if r is not None:
        return x(n) ** 2 - x(n - r) * x(n + r), catalan_rhs(seeds, n, r)
    mode = "cases" if identity is IdentityId.GELIN_CESARO_CASES else "general"
    lhs = x(n) ** 4 - x(n - 2) * x(n - 1) * x(n + 1) * x(n + 2)
    return lhs, gelin_cesaro_rhs(seeds, n, mode)


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)


@settings(max_examples=25, deadline=None)
@given(
    st.builds(SequenceParams, small_rationals, small_rationals, small_rationals),
    st.integers(min_value=0, max_value=40),
    st.data(),
)
def test_int_sides_reduce_to_the_fraction_forms(params, n, data):
    r_drawn = data.draw(st.integers(min_value=0, max_value=n))
    for identity in IdentityId:
        if n < identity.min_n:
            continue
        r = r_drawn if identity.uses_r else identities._r_values(identity._r_rule, n, None)[0]
        seeds = JACOBSTHAL if identity.fixed_seeds else params
        (lhs, lhs_den), (rhs, rhs_den) = identity._evaluate(seeds, n, r)
        oracle, public = _from_term(identity, seeds, n, r)
        # each identity holds, so both int sides reduce to the oracle's value
        assert Fraction(lhs, lhs_den) == oracle == Fraction(rhs, rhs_den), identity
        assert public is None or public == oracle, identity


@pytest.mark.parametrize("identity", list(IdentityId), ids=[ident.value for ident in IdentityId])
def test_evaluators_return_ints_over_positive_denominators(identity):
    seeds = (
        JACOBSTHAL,
        SequenceParams(Fraction(1, 2), -3, Fraction(7, 5)),
        SequenceParams(-4, Fraction(2, 9), 0),
    )
    for params in seeds:
        for n, r in identities._instances(identity, identity.min_n + 8, None):
            sides = identity._evaluate(params, n, r)
            values = [value for side in sides for value in side]
            assert len(values) == 4
            assert all(type(value) is int for value in values), (n, r, values)
            assert values[1] > 0 and values[3] > 0, (n, r, values)


@pytest.mark.parametrize("broken", ["lhs", "rhs"])
def test_zero_denominator_raises_instead_of_passing(broken, monkeypatch):
    # with a zero denominator and a zero numerator, L * dR == R * dL holds
    # for every instance; the guard must refuse it, never report ok
    original = IdentityId.CATALAN_GEN._evaluate

    def mutated(params, n, r):
        lhs, rhs = original(params, n, r)
        return ((0, 0), rhs) if broken == "lhs" else (lhs, (0, 0))

    monkeypatch.setattr(IdentityId.CATALAN_GEN, "_evaluate", mutated)
    params = SequenceParams(1, 2, 3)
    with pytest.raises(ArithmeticError, match="denominators must be positive"):
        verify_range(IdentityId.CATALAN_GEN, params, n_max=5)
    with pytest.raises(ArithmeticError, match="denominators must be positive"):
        check(IdentityId.CATALAN_GEN, params, 4, 2)
