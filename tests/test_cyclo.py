"""Field arithmetic unit and property tests.

Core claims:
    - the reduction table is consistent with numeric evaluation at the root
    - conjugation is the field automorphism fixing the rationals
    - inversion satisfies a * inv(a) = 1, division by zero raises
    - the Galois automorphisms z -> z^k compose as the units mod 24 multiply,
      and the product of all eight images is rational
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
    _galois,
)
from ksets.errors import ScalarSyntaxError
from oracles import reference_conj, reference_galois


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


def _render_by_division(x: CycNum) -> str | None:
    """The alias form render_scalar must find, dividing by inv() each time:
    None when x is not a rational multiple of w3, s2 or s3."""
    for name, alias in (("w3", OMEGA3), ("s2", SQRT2), ("s3", SQRT3)):
        q = x * alias.inv()
        if q.israt:
            return name
    return None


@given(cycnums, st.sampled_from((OMEGA3, SQRT2, SQRT3, ONE)))
@settings(max_examples=100)
def test_render_alias_choice_matches_division_by_inverses(x, alias):
    for y in (x, x * alias, CycNum.from_rational(3) * alias):
        if y.is_zero() or y.israt or sum(1 for c in y.num if c) == 1:
            continue
        name = _render_by_division(y)
        text = render_scalar(y)
        if name is None:
            assert not text.endswith(("w3", "s2", "s3"))
        else:
            assert text.endswith(name)
        assert parse_scalar(text) == y


def test_alias_inverses_are_exact():
    from ksets.cyclo import _ALIAS_INVERSES, _ALIASES

    for name, inverse in _ALIAS_INVERSES:
        assert _ALIASES[name] * inverse == ONE
        assert _ALIASES[name].inv() == inverse


# -- Galois automorphisms and the norm-tower inverse ------------------------

_TABULATED = (5, 7, 13, 23)
_UNITS_MOD_24 = (1, 5, 7, 11, 13, 17, 19, 23)
huge_cycnums = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=8, max_size=8
).map(CycNum)


@given(cycnums, cycnums, st.sampled_from(_TABULATED))
@settings(max_examples=100)
def test_galois_images_preserve_sums_and_products(a, b, k):
    assert _galois(a + b, k) == _galois(a, k) + _galois(b, k)
    assert _galois(a * b, k) == _galois(a, k) * _galois(b, k)
    assert _galois(a, k) == reference_galois(a, k)


@given(cycnums)
@settings(max_examples=50)
def test_galois_images_compose_as_units_multiply(x):
    for a in _TABULATED:
        for b in _TABULATED:
            assert _galois(_galois(x, b), a) == reference_galois(x, a * b % 24)
    assert _galois(_galois(x, 5), 5) == x


@given(cycnums)
@settings(max_examples=50)
def test_conj_is_galois_23_and_matches_reference(x):
    assert x.conj() == _galois(x, 23) == reference_conj(x)


@given(nonzero_cycnums)
@settings(max_examples=50)
def test_product_of_all_images_is_rational_norm(x):
    images = [reference_galois(x, k) for k in _UNITS_MOD_24]
    norm = ONE
    for image in images:
        norm = norm * image
    assert norm.is_rational() and not norm.is_zero()
    cofactor = ONE
    for image in images[1:]:
        cofactor = cofactor * image
    assert x.inv() == cofactor * norm.inv()


@given(huge_cycnums.filter(lambda x: not x.is_zero()))
@settings(max_examples=100)
def test_mul_inverse_with_huge_coefficients(a):
    assert a * a.inv() == ONE
    assert a.inv().inv() == a


def test_inverse_stops_at_first_rational_step():
    # s5 sends sqrt(3) = z^2 + z^22 to z^10 + z^14 = -sqrt(3), so
    # x1 = x s5(x) = -3 is already rational
    assert _galois(SQRT3, 5) == -SQRT3
    assert SQRT3.inv() == CycNum(SQRT3.num, 3)
    # z s5(z) = z^6 and z^6 s7(z^6) = z^48 = 1: two steps
    assert zeta(1).inv() == zeta(23)


def test_inverse_of_every_irrational_catalog_entry():
    from ksets import catalog

    entries = {
        e
        for name in catalog.NAMES + catalog.SEED_NAMES
        for proj in catalog.seed_set(name).projectors.values()
        for ray in proj.span
        for e in ray.entries
        if not e.is_rational()
    }
    assert len(entries) >= 6  # +-s2, +-w3, +-z^4
    for e in entries:
        assert e * e.inv() == ONE
        # 1/e = conj(e) / |e|^2, through the inverse of a real element
        assert e.inv() == e.conj() * (e * e.conj()).inv()
