"""Field arithmetic unit and property tests.

Core claims:
    - the reduction table is consistent with numeric evaluation at the root
    - conjugation is the field automorphism fixing the rationals
    - inversion satisfies a * inv(a) = 1, division by zero raises
    - the entry grammar parses all alias forms and round-trips rendering
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksets.cyclo import (
    ONE,
    OMEGA3,
    OMEGA3_BAR,
    OMEGA6,
    PACK_BASE,
    PACK_MOD,
    SQRT2,
    SQRT3,
    ZERO,
    CycNum,
    pack,
    parse_scalar,
    render_scalar,
    unpack,
    zeta,
)
from ksets.errors import ScalarSyntaxError


def approx_equal(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) < tol


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
cycnums = st.lists(rationals, min_size=8, max_size=8).map(CycNum.from_coeffs)
nonzero_cycnums = cycnums.filter(lambda x: not x.is_zero())


def test_additive_inverse():
    one = CycNum.from_rational(1)
    assert (one + CycNum.from_rational(-1)).is_zero()


def test_omega_plus_conjugate_is_minus_one():
    # derived from the reduction table and checked numerically
    total = OMEGA3 + zeta(16)
    assert total == CycNum.from_rational(-1)
    assert approx_equal(OMEGA3.to_complex() + zeta(16).to_complex(), -1)


def test_omega_bar_reduces_to_minus_fourth_power():
    assert OMEGA3.conj() == OMEGA3_BAR
    assert OMEGA3_BAR == -zeta(4)


def test_zeta_twelfth_squares_to_one():
    assert zeta(12) * zeta(12) == ONE


def test_fourth_power_squared_reduces():
    assert zeta(4) * zeta(4) == CycNum.from_coeffs([-1, 0, 0, 0, 1, 0, 0, 0])


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == CycNum.from_rational(2)
    assert approx_equal(SQRT2.to_complex(), cmath.sqrt(2))


def test_sqrt3_squares_to_three():
    assert SQRT3 * SQRT3 == CycNum.from_rational(3)
    assert approx_equal(SQRT3.to_complex(), cmath.sqrt(3))


def test_conj_fixes_rationals():
    r = CycNum.from_rational(Fraction(-7, 3))
    assert r.conj() == r


def test_inv_of_rational():
    assert CycNum.from_rational(2).inv() == CycNum.from_rational(Fraction(1, 2))


def test_inv_of_root_power():
    assert zeta(5).inv() == zeta(19)


def test_inv_of_sum():
    x = parse_scalar("1+z^4")
    assert x.inv() * x == ONE


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_cube_roots_sum_to_zero():
    total = ONE + OMEGA3 + OMEGA3 * OMEGA3
    assert total.is_zero()
    assert approx_equal(
        1 + OMEGA3.to_complex() + OMEGA3.to_complex() ** 2, 0
    )


def test_is_zero_on_nonzero():
    assert not zeta(1).is_zero()


def test_power_table_matches_numeric_root():
    root = cmath.exp(1j * cmath.pi / 12)
    for k in range(24):
        assert approx_equal(zeta(k).to_complex(), root**k, 1e-12)


@given(cycnums)
@settings(max_examples=150)
def test_add_identity(x):
    assert ZERO + x == x


@given(cycnums, cycnums)
@settings(max_examples=150)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(cycnums, cycnums, cycnums)
@settings(max_examples=150)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(cycnums, cycnums, cycnums)
@settings(max_examples=150)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(nonzero_cycnums)
@settings(max_examples=100)
def test_mul_inverse(a):
    assert a * a.inv() == ONE


@given(cycnums, cycnums)
@settings(max_examples=150)
def test_conj_is_ring_automorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(cycnums)
@settings(max_examples=150)
def test_conj_involution(x):
    assert x.conj().conj() == x


@given(cycnums)
@settings(max_examples=150)
def test_norm_is_real(a):
    n = a * a.conj()
    assert n.conj() == n


@given(cycnums, cycnums)
@settings(max_examples=150)
def test_numeric_shadow(a, b):
    za, zb = a.to_complex(), b.to_complex()
    assert approx_equal((a + b).to_complex(), za + zb)
    assert approx_equal((a * b).to_complex(), za * zb)
    assert approx_equal(a.conj().to_complex(), za.conjugate())


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", ZERO),
        ("1", ONE),
        ("-1", CycNum.from_rational(-1)),
        ("1/2", CycNum.from_rational(Fraction(1, 2))),
        ("w3", OMEGA3),
        ("W3", OMEGA3_BAR),
        ("w6", OMEGA6),
        ("s2", SQRT2),
        ("-s2", -SQRT2),
        ("s3", SQRT3),
        ("2z^3", CycNum.from_rational(2) * zeta(3)),
        ("z", zeta(1)),
        ("1-z^4", ONE - zeta(4)),
        ("-w3", -OMEGA3),
        ("z^26", zeta(2)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize(
    "bad", ["", "x", "1+", "z^", "1 2", "--1", "w4", "1//2", "1/0", "z-3/0z^2"]
)
def test_parse_scalar_rejects(bad):
    with pytest.raises(ScalarSyntaxError):
        parse_scalar(bad)


def test_parse_scalar_rejects_numbers_int_cannot_read():
    # int() refuses strings of more than 4300 digits with a ValueError
    for bad in ("1" * 5000, "z^" + "1" * 5000, "1/" + "2" * 5000):
        with pytest.raises(ScalarSyntaxError, match="number too long"):
            parse_scalar(bad)


def test_render_uses_minimal_forms():
    assert render_scalar(CycNum.from_rational(Fraction(1, 2))) == "1/2"
    assert render_scalar(-zeta(4)) == "-z^4"
    assert render_scalar(SQRT2) == "s2"
    assert render_scalar(-SQRT2) == "-s2"
    assert render_scalar(ZERO) == "0"


@given(cycnums)
@settings(max_examples=200)
def test_render_parse_round_trip(x):
    assert parse_scalar(render_scalar(x)) == x


def test_coeffs_property_is_rational_tuple():
    x = parse_scalar("1/2+3z^5")
    assert x.coeffs == (
        Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0),
        Fraction(0), Fraction(3), Fraction(0), Fraction(0),
    )


# -- packed images ------------------------------------------------------


def test_pack_modulus_is_minimal_polynomial_at_base():
    assert PACK_BASE == 2**64
    assert PACK_MOD == PACK_BASE**8 - PACK_BASE**4 + 1
    assert pow(PACK_BASE, 24, PACK_MOD) == 1


def test_pack_zeta_powers():
    for k in range(24):
        assert pack(zeta(k)) % PACK_MOD == pow(PACK_BASE, k, PACK_MOD)


@given(cycnums, cycnums)
@settings(max_examples=100)
def test_pack_round_trip_and_ring_homomorphism(x, y):
    assert unpack(pack(x), x.den) == x
    assert unpack(pack(x) % PACK_MOD, x.den) == x
    # small coefficients keep these results within the exact range of unpack
    den = x.den * y.den
    assert unpack(pack(x) * pack(y), den) == x * y
    assert unpack(pack(x) * y.den + pack(y) * x.den, den) == x + y
    assert unpack(pack(x.conj()), x.den) == x.conj()


def test_unpack_reads_negative_digits():
    x = CycNum((-(2**62), 3, -1, 0, 0, 0, 0, 2**62 - 1))
    assert unpack(pack(x), 1) == x
