from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacobsthal3.eisenstein import (
    OMEGA1,
    OMEGA2,
    OMEGA_POWERS,
    ONE,
    Eisenstein,
    NonRealResidueError,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
elements = st.builds(Eisenstein, rationals, rationals)


@pytest.mark.parametrize("coordinates", [(0.5,), (1, 0.5), (0.5, Fraction(1))])
def test_eisenstein_rejects_floats(coordinates):
    with pytest.raises(TypeError, match="exact arithmetic only"):
        Eisenstein(*coordinates)


def test_coordinates_become_fractions():
    u = Eisenstein(3, "-1/2")
    assert type(u.re) is Fraction and type(u.om) is Fraction
    assert (u.re, u.om) == (3, Fraction(-1, 2))
    assert type((Fraction(1, 3) + OMEGA1).re) is Fraction


def test_omega_constants():
    assert OMEGA1 == Eisenstein(0, 1)
    assert OMEGA2 == Eisenstein(-1, -1)
    assert OMEGA1 + OMEGA2 == Eisenstein(-1)
    assert OMEGA1 * OMEGA2 == ONE


def test_mul_omega_squared():
    # w * w = -1 - w
    assert OMEGA1 * OMEGA1 == Eisenstein(-1, -1)


def test_mul_conjugate_roots_multiply_to_one():
    assert OMEGA1 * (Eisenstein(-1, -1)) == ONE


def test_mul_one_plus_omega_squared_is_omega():
    # (1 + w)**2 = 1 + 2w + w**2 = w, derived by expanding with w**2 = -1 - w
    u = Eisenstein(1, 1)
    assert u * u == OMEGA1


def test_pow_cube_root_of_unity():
    assert OMEGA1**3 == ONE
    assert OMEGA1**0 == ONE
    assert OMEGA1**5 == OMEGA2  # 5 mod 3 = 2 and w**2 = conj(w)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        OMEGA1 ** (-1)


def test_rational_part():
    assert Eisenstein(7).rational_part() == 7
    assert Eisenstein(0).rational_part() == 0
    with pytest.raises(NonRealResidueError):
        Eisenstein(1, 1).rational_part()


def test_conj_swaps_roots():
    assert OMEGA1.conj() == OMEGA2
    assert OMEGA2.conj() == OMEGA1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / Eisenstein(0)


def test_scalar_mixing():
    assert 2 * OMEGA1 == Eisenstein(0, 2)
    assert OMEGA1 + 1 == Eisenstein(1, 1)
    assert 1 - OMEGA1 == Eisenstein(1, -1)
    assert (Fraction(1, 2) * OMEGA1).om == Fraction(1, 2)


@given(elements, elements)
def test_mul_commutes(u, v):
    assert u * v == v * u


@given(elements)
def test_conj_is_an_involution(u):
    assert u.conj().conj() == u


@given(elements)
def test_norm_is_rational_and_nonnegative(u):
    product = u * u.conj()
    assert product.om == 0
    assert product.re == u.norm()
    assert u.norm() >= 0


@given(st.integers(min_value=0, max_value=500))
def test_omega_powers_have_period_three(k):
    assert OMEGA1**k == OMEGA1 ** (k % 3)
    assert OMEGA_POWERS[k % 3] == (OMEGA1**k, OMEGA2**k)


@given(elements, elements)
def test_division_inverts_multiplication(u, v):
    if v.norm() == 0:
        return
    assert (u / v) * v == u


@given(rationals, rationals)
def test_fraction_arithmetic_is_exact(p, q):
    assert (p + q) - q == p
