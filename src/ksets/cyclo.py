"""Exact arithmetic in the cyclotomic field of a primitive 24th root of unity.

Every scalar in the ray catalogs lives in Q(z) where z = e^{i*pi/12}:
rationals, the cube and sixth roots of unity, sqrt(2) and sqrt(3).  Elements
are stored as integer coefficient vectors over a common positive denominator,
reduced modulo the minimal polynomial x^8 - x^4 + 1, so equality is
coefficient-wise and every operation is exact.

The field automorphisms z -> z^k, k a unit mod 24, are integer tables
(_GALOIS); conjugation is k = 23 and inversion multiplies by Galois images
until the product is rational.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from math import gcd

from .errors import ScalarSyntaxError

DEGREE = 8


def _reduce(vec: list[int]) -> list[int]:
    """Reduce a little-endian coefficient list modulo x^8 = x^4 - 1."""
    for k in range(len(vec) - 1, DEGREE - 1, -1):
        c = vec[k]
        if c:
            vec[k] = 0
            vec[k - 4] += c
            vec[k - 8] -= c
    del vec[DEGREE:]
    while len(vec) < DEGREE:
        vec.append(0)
    return vec


def _power_table() -> tuple[tuple[int, ...], ...]:
    rows = []
    for k in range(24):
        vec = [0] * (k + 1)
        vec[k] = 1
        rows.append(tuple(_reduce(vec)))
    return tuple(rows)


_POW = _power_table()

# _GALOIS[k][i]: the nonzero (index, coefficient) pairs of z^(k*i mod 24),
# the image of z^i under the automorphism z -> z^k.
_GALOIS = {
    k: tuple(
        tuple((j, c) for j, c in enumerate(_POW[k * i % 24]) if c)
        for i in range(DEGREE)
    )
    for k in (5, 7, 13, 23)
}


def _galois(x: CycNum, k: int) -> CycNum:
    """The image of x under the automorphism z -> z^k."""
    out = [0] * DEGREE
    for c, row in zip(x.num, _GALOIS[k]):
        if c:
            for j, r in row:
                out[j] += c * r
    return CycNum(out, x.den)


class CycNum:
    """An element of the fixed degree-8 cyclotomic field.

    Constructed from integer coefficients of 1, z, ..., z^(k) (reduced when
    k >= 8) over a common denominator; use from_coeffs for rational
    coefficients.  Immutable; hashable; comparison is exact equality of the
    reduced representation.
    """

    __slots__ = ("num", "den", "israt")

    def __init__(self, num, den: int = 1):
        num = list(num)
        if len(num) > DEGREE:
            num = _reduce(num)
        elif len(num) < DEGREE:
            num = num + [0] * (DEGREE - len(num))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [c // g for c in num]
        if not any(num):
            den = 1
        self.num = tuple(num)
        self.den = den
        self.israt = not any(num[1:])

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> CycNum:
        f = Fraction(value)
        return cls((f.numerator, 0, 0, 0, 0, 0, 0, 0), f.denominator)

    @classmethod
    def from_coeffs(cls, coeffs) -> CycNum:
        """Build from up to 8 rational coefficients of 1, z, ..., z^7."""
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls([int(f * den) for f in fracs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The 8 rational coefficients of the reduced representation."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return self.israt

    def as_fraction(self) -> Fraction:
        if not self.israt:
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    # -- field operations ---------------------------------------------

    def __add__(self, other: CycNum) -> CycNum:
        a, b = self.num, other.num
        if self.den == other.den:
            return CycNum([x + y for x, y in zip(a, b)], self.den)
        da, db = self.den, other.den
        return CycNum([x * db + y * da for x, y in zip(a, b)], da * db)

    def __sub__(self, other: CycNum) -> CycNum:
        a, b = self.num, other.num
        if self.den == other.den:
            return CycNum([x - y for x, y in zip(a, b)], self.den)
        da, db = self.den, other.den
        return CycNum([x * db - y * da for x, y in zip(a, b)], da * db)

    def __neg__(self) -> CycNum:
        return CycNum([-c for c in self.num], self.den)

    def __mul__(self, other: CycNum) -> CycNum:
        a, b = self.num, other.num
        if self.israt:
            a0 = a[0]
            if a0 == 0:
                return ZERO
            return CycNum([a0 * y for y in b], self.den * other.den)
        if other.israt:
            b0 = b[0]
            if b0 == 0:
                return ZERO
            return CycNum([x * b0 for x in a], self.den * other.den)
        conv = [0] * (2 * DEGREE - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycNum(conv, self.den * other.den)

    def conj(self) -> CycNum:
        """Complex conjugation, the automorphism sending z to z^23."""
        return _galois(self, 23)

    def inv(self) -> CycNum:
        """Multiplicative inverse through the Galois group
        (Z/24)* = <5, 7, 13>.

        x1 = x s5(x) is fixed by s5, x2 = x1 s7(x1) by s5 and s7, and
        x3 = x2 s13(x2) by the whole group, so x3 is the rational norm of x
        (sk the automorphism z -> z^k).  Then 1/x = s5(x) s7(x1) s13(x2) / x3;
        the walk stops at the first rational xi.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        x, cofactor = self, ONE
        for k in (5, 7, 13):
            if x.israt:
                break
            image = _galois(x, k)
            x, cofactor = x * image, cofactor * image
        # x is the rational x.num[0] / x.den now.
        return CycNum([c * x.den for c in cofactor.num],
                      cofactor.den * x.num[0])

    # -- structural ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"CycNum({render_scalar(self)!r})"

    def to_complex(self) -> complex:
        """Floating-point shadow of the exact value at z = e^{i*pi/12}."""
        z = cmath.exp(1j * cmath.pi / 12)
        acc = 0j
        for k, c in enumerate(self.num):
            if c:
                acc += c * z**k
        return acc / self.den


# Kronecker substitution z -> X = 2^64.  N = X^8 - X^4 + 1 is the minimal
# polynomial at X, so z -> X is a ring homomorphism from Z[z] onto the
# integers mod N (and X^24 = 1 mod N).  An element whose reduced integer
# coefficients all lie below X/4 in absolute value is determined by its
# image (see unpack).
PACK_BITS = 64
PACK_BASE = 1 << PACK_BITS
PACK_MOD = PACK_BASE**8 - PACK_BASE**4 + 1


def pack(x: CycNum) -> int:
    """Image of the numerator of x: the sum of num[k] * X^k, unreduced.

    The denominator is the caller's to track.
    """
    out = 0
    for c in reversed(x.num):
        out = (out << PACK_BITS) + c
    return out


def unpack(t: int, den: int) -> CycNum:
    """The element with image t mod N over den, reading the balanced residue
    as eight balanced base-X digits.

    Exact only when every reduced integer coefficient of the numerator is
    below X/4 in absolute value: the numerator is then below N/2 in absolute
    value, so the balanced residue is the numerator itself.
    """
    t %= PACK_MOD
    if t > PACK_MOD >> 1:
        t -= PACK_MOD
    half, mask = PACK_BASE >> 1, PACK_BASE - 1
    num = []
    for _ in range(DEGREE):
        c = t & mask
        if c >= half:
            c -= PACK_BASE
        num.append(c)
        t = (t - c) >> PACK_BITS
    return CycNum(num, den)


def zeta(k: int = 1) -> CycNum:
    """z^k for the primitive 24th root of unity z."""
    return CycNum(_POW[k % 24])


ZERO = CycNum((0,) * DEGREE)
ONE = CycNum((1, 0, 0, 0, 0, 0, 0, 0))

# sqrt(2) = z^3 + z - z^5 and sqrt(3) = z^2 + z^22 in reduced form.
SQRT2 = CycNum((0, 1, 0, 1, 0, -1, 0, 0))
SQRT3 = CycNum((0, 0, 2, 0, 0, 0, -1, 0))
OMEGA3 = zeta(8)    # e^{i 2pi/3}
OMEGA3_BAR = zeta(16)  # = -z^4
OMEGA6 = zeta(4)    # e^{i pi/3}

_ALIASES = {
    "w3": OMEGA3,
    "W3": OMEGA3_BAR,
    "w6": OMEGA6,
    "s2": SQRT2,
    "s3": SQRT3,
}

# The inverses of the aliases render_scalar divides by: 1/w3 = W3,
# 1/s2 = s2/2 and 1/s3 = s3/3.
_ALIAS_INVERSES = (
    ("w3", OMEGA3_BAR),
    ("s2", CycNum(SQRT2.num, 2)),
    ("s3", CycNum(SQRT3.num, 3)),
)

_TERM_RE = re.compile(
    r"(?P<rat>\d+(?:/\d+)?)?(?P<atom>z(?:\^(?P<exp>\d+))?|w3|W3|w6|s2|s3)?"
)


def parse_scalar(text: str) -> CycNum:
    """Parse one scalar entry token.

    Grammar: entry := term (('+'|'-') term)*, term := rational |
    rational? atom, atom := z power or one of the aliases w3, W3, w6, s2, s3.
    No whitespace is allowed inside an entry.
    """
    src = text.strip()
    if not src or any(ch.isspace() for ch in src):
        raise ScalarSyntaxError(f"bad scalar entry {text!r}")
    total = ZERO
    pos = 0
    first = True
    while pos < len(src):
        sign = 1
        if src[pos] == "+":
            pos += 1
        elif src[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise ScalarSyntaxError(f"expected '+' or '-' in {text!r}")
        first = False
        m = _TERM_RE.match(src, pos)
        if not m or m.end() == pos or (m.group("rat") is None and m.group("atom") is None):
            raise ScalarSyntaxError(f"bad term in scalar entry {text!r}")
        pos = m.end()
        try:
            coeff = Fraction(m.group("rat")) if m.group("rat") else Fraction(1)
            exp = int(m.group("exp")) if m.group("exp") else 1
        except ZeroDivisionError:
            raise ScalarSyntaxError(f"zero denominator in scalar entry {text!r}") from None
        except ValueError:  # more digits than int() converts
            raise ScalarSyntaxError(f"number too long in scalar entry {text!r}") from None
        if sign < 0:
            coeff = -coeff
        atom = m.group("atom")
        if atom is None:
            value = CycNum.from_rational(coeff)
        elif atom.startswith("z"):
            value = CycNum.from_rational(coeff) * zeta(exp)
        else:
            value = CycNum.from_rational(coeff) * _ALIASES[atom]
        total = total + value
    return total


def _coeff_prefix(f: Fraction) -> str:
    if f == 1:
        return ""
    if f == -1:
        return "-"
    return str(f)


def render_scalar(x: CycNum) -> str:
    """Render a scalar in its shortest entry form.

    Rationals and single z-monomials render directly; multiples of sqrt(2)
    and sqrt(3) use the s2/s3 aliases; anything else renders as an explicit
    coefficient sum.
    """
    if x.is_zero():
        return "0"
    if x.israt:
        return str(x.as_fraction())
    nonzero = [k for k, c in enumerate(x.num) if c]
    if len(nonzero) == 1:
        k = nonzero[0]
        coeff = Fraction(x.num[k], x.den)
        return f"{_coeff_prefix(coeff)}z" + (f"^{k}" if k != 1 else "")
    for name, inverse in _ALIAS_INVERSES:
        q = x * inverse
        if q.israt:
            return f"{_coeff_prefix(q.as_fraction())}{name}"
    parts = []
    for k in nonzero:
        coeff = Fraction(x.num[k], x.den)
        if k == 0:
            term = str(coeff)
        else:
            term = f"{_coeff_prefix(coeff)}z" + (f"^{k}" if k != 1 else "")
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return "".join(parts)
