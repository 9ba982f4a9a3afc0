"""Scalar arithmetic: canonical forms, field axioms, parsing, primality."""

import zlib
from fractions import Fraction

import pytest

from irredcert import polys
from irredcert.errors import BadPrime, IntegralityError, SingularError
from irredcert.prng import XorShift64
from irredcert.rings import (
    MAX_EXPONENT, ZZ, QQ, ExtensionField, PolynomialRingZ, PrimeField,
    RationalFunctionField, is_prime, ring_from_json,
)

ZT = PolynomialRingZ("t")
QT = RationalFunctionField("t")


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)
    assert is_prime(1000003)
    # Carmichael numbers must not fool the witness set
    assert not is_prime(561)
    assert not is_prime(41041)
    assert not is_prime(825265)


def test_is_prime_bound():
    with pytest.raises(BadPrime):
        is_prime(331 * 10 ** 12 + 1)


def test_integers():
    assert ZZ.add(2, 3) == 5
    with pytest.raises(SingularError, match="not over Z"):
        ZZ.div(12, 4)
    with pytest.raises(SingularError):
        ZZ.inv(2)
    assert ZZ.inv(-1) == -1
    assert ZZ.from_fraction_field(Fraction(8, 2)) == 4
    with pytest.raises(IntegralityError):
        ZZ.from_fraction_field(Fraction(1, 2))
    assert ZZ.parse("-17") == -17
    with pytest.raises(ValueError):
        ZZ.parse("1.5")


def test_rationals():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.format(Fraction(-5, 3)) == "-5/3"
    assert QQ.div(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)
    # a plain int inverts to a Fraction, so polynomial division over Q
    # with int coefficients stays exact
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    q, r = polys.divmod_poly(QQ, (1, 2), (3,))
    assert (q, r) == ((Fraction(1, 3), Fraction(2, 3)), ())
    assert all(type(c) is Fraction for c in q)
    with pytest.raises(ValueError):
        QQ.parse("1.5")
    with pytest.raises(ValueError):
        QQ.parse("1/0")


def test_poly_z_basic():
    t = ZT.parse("t")
    assert t == (0, 1)
    f = ZT.parse("t^2+2*t+1")
    assert f == (1, 2, 1)
    assert ZT.mul(ZT.parse("t+1"), ZT.parse("t+1")) == f
    assert ZT.format(f) == "t^2+2*t+1"
    assert ZT.format(ZT.parse("-t^3+5")) == "-t^3+5"
    assert ZT.format(()) == "0"
    assert ZT.evaluate((1, 2, 1), 3) == 16
    with pytest.raises(IntegralityError):
        ZT.parse("1/2*t")
    with pytest.raises(ValueError):
        ZT.parse("t/2")  # division only applies to numeric literals
    assert ZT.parse("2*t - t") == (0, 1)
    # the bound is on the exponent of a term, summed over its factors
    assert len(ZT.parse("t^%d" % MAX_EXPONENT)) == MAX_EXPONENT + 1
    with pytest.raises(ValueError, match="exponent"):
        ZT.parse("t^600*t^600")


def test_poly_z_add_mul_known_answers():
    assert ZT.add((1, -2, 3), (-1, 2, -3)) == ()
    assert ZT.add((), (5, -1)) == (5, -1)
    assert ZT.add((-4,), ()) == (-4,)
    assert ZT.add((1, 2), (0, -2, 4)) == (1, 0, 4)
    assert ZT.add((0, 3, -1), (2, -3, 1)) == (2,)
    assert ZT.mul((-1, 1), (1, 1)) == (-1, 0, 1)
    assert ZT.mul((-1, 1), (1, 1, 1)) == (-1, 0, 0, 1)
    assert ZT.mul((2,), (-3, 0, 1)) == (-6, 0, 2)
    assert ZT.mul((0, -1), (0, 0, -7)) == (0, 0, 0, 7)
    assert ZT.mul((), (1, 2)) == ()
    assert ZT.mul((3, -5), ()) == ()
    assert ZT.mul((-1,), (-1,)) == (1,)
    for f in (ZT.add((1, 2), (3,)), ZT.mul((1, 2), (3,))):
        assert type(f) is tuple and all(type(c) is int for c in f)


def test_rational_function_normalize_known_answers():
    F = Fraction
    # 3 (t - 1)(t + 2) / (2 (t - 1)(t + 3)) = (3/2) (t + 2) / (t + 3)
    num, den = QT._normalize([F(-6), F(3), F(3)], [F(-6), F(4), F(2)])
    assert (num, den) == ((F(3), F(3, 2)), (F(3), F(1)))
    assert all(type(c) is Fraction for c in num + den)
    # (t^2 - 1) / (2 t - 2) = t/2 + 1/2, over the constant 1
    assert QT._normalize([F(-1), F(0), F(1)], [F(-2), F(2)]) == \
        ((F(1, 2), F(1, 2)), (F(1),))
    # coprime, only the denominator's leading coefficient goes
    assert QT._normalize([F(1)], [F(1), F(0), F(-2)]) == \
        ((F(-1, 2),), (F(-1, 2), F(0), F(1)))
    # a constant denominator divides the coefficients
    assert QT._normalize([F(2), F(4)], [F(4)]) == ((F(1, 2), F(1)), (F(1),))
    # trailing zeros are trimmed, and zero is ((), (1,))
    assert QT._normalize([F(1), F(0)], [F(0), F(1), F(0)]) == \
        ((F(1),), (F(0), F(1)))
    assert QT._normalize([F(0)], [F(5), F(1)]) == QT.zero()
    for den in ([F(0)], [], [F(0), F(0)]):
        with pytest.raises(SingularError):
            QT._normalize([F(1)], den)
    assert QT.quotient((2, 2), (-4, 4)) == ((F(1, 2), F(1, 2)), (F(-1), F(1)))


def test_clear_denominators_known_answers():
    F = Fraction
    values = [
        QT.parse("(1)/(t^2+t)"),           # 1 / (t (t + 1))
        QT.parse("(1/2)/(t^2+3*t+2)"),     # (1/2) / ((t + 1)(t + 2))
        QT.parse("3/2"),
        QT.zero(),
        QT.parse("(t-5/3)/(t^2+2*t)"),     # (t - 5/3) / (t (t + 2))
    ]
    assert values[1] == ((F(1, 2),), (F(2), F(3), F(1)))
    nums, D = QT.clear_denominators(values)
    # D = 6 t (t + 1)(t + 2): the lcm of the monic denominators times the
    # least integer that clears 1/2, 3/2 and 5/3
    assert D == (0, 12, 18, 6)
    assert nums == [(12, 6), (0, 3), (0, 18, 27, 9), (), (-10, -4, 6)]
    for num, a in zip(nums, values):
        assert QT.quotient(num, D) == a
    assert all(type(c) is int for f in nums + [D] for c in f)
    # with constant denominators no lcm is taken: only the integer scale
    assert QT.clear_denominators([QT.parse("1/2*t"), QT.parse("1/3*t^2-1")]) == \
        ([(0, 3), (-6, 0, 2)], (6,))


def test_poly_z_roundtrip():
    rng = XorShift64(5)
    for _ in range(100):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 4)))
        f = ZT.coerce(coeffs)
        assert ZT.parse(ZT.format(f)) == f


def test_rational_function_grammar():
    f = QT.parse("t^2+2*t+1/3")
    assert f == ((Fraction(1, 3), Fraction(2), Fraction(1)), (Fraction(1),))
    assert QT.format(f) == "t^2+2*t+1/3"
    g = QT.parse("(t+1)/(t-1)")
    assert QT.format(g) == "(t+1)/(t-1)"
    # normalization: common factors cancel, denominator is monic
    h = QT.parse("(2*t+2)/(4*t-4)")
    assert h == QT.mul(g, QT.coerce(Fraction(1, 2)))
    assert QT.parse("(t^2-1)/(t-1)") == QT.parse("t+1")


def test_rational_function_field_ops():
    g = QT.parse("(t+1)/(t-1)")
    assert QT.mul(g, QT.inv(g)) == QT.one()
    assert QT.add(g, QT.neg(g)) == QT.zero()
    assert QT.evaluate(g, 3) == Fraction(2)
    with pytest.raises(SingularError):
        QT.evaluate(g, 1)
    with pytest.raises(SingularError):
        QT.inv(QT.zero())
    assert QT.as_constant(QT.parse("3/4")) == Fraction(3, 4)
    with pytest.raises(IntegralityError):
        QT.as_constant(g)


def test_prime_field():
    F7 = PrimeField(7)
    assert F7.coerce(10) == 3
    assert F7.coerce(Fraction(1, 2)) == 4
    assert F7.inv(3) == 5
    assert F7.parse("-1") == 6
    with pytest.raises(BadPrime):
        PrimeField(6)
    with pytest.raises(SingularError):
        F7.inv(0)


def test_extension_field_construction():
    F4 = ExtensionField(2, [1, 1, 1])
    assert F4.order == 4
    assert F4.parse("x^2+x+1 mod 2") == ()  # the modulus itself reduces to 0
    assert F4.parse("x+1") == (1, 1)
    with pytest.raises(BadPrime):
        ExtensionField(2, [1, 0, 1])  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(BadPrime):
        ExtensionField(4, [1, 1, 1])
    with pytest.raises(ValueError):
        ExtensionField(2, [1, 1])  # degree 1: use PrimeField
    with pytest.raises(ValueError):
        F4.parse("x+1 mod 3")


def test_extension_field_arithmetic():
    F9 = ExtensionField(3, [1, 0, 1])  # x^2 + 1 is irreducible mod 3
    x = F9.parse("x")
    assert F9.mul(x, x) == F9.parse("-1")
    assert F9.mul(F9.inv(x), x) == F9.one()
    elems = list(F9.iter_elements())
    assert len(elems) == 9 and len(set(elems)) == 9


FIELDS = [
    QQ,
    RationalFunctionField("t"),
    PrimeField(2),
    PrimeField(3),
    PrimeField(5),
    PrimeField(97),
    ExtensionField(2, [1, 1, 1]),          # F_4
    ExtensionField(2, [1, 1, 0, 1]),       # F_8
    ExtensionField(3, [1, 0, 1]),          # F_9
    ExtensionField(5, [2, 0, 1]),          # F_25: x^2+2
]


def _random_element(K, rng):
    if hasattr(K, "order"):
        if isinstance(K, PrimeField):
            return rng.randrange(K.order)
        digits = [rng.randrange(K.p) for _ in range(K.k)]
        return K.coerce(tuple(digits))
    if K is QQ or isinstance(K, type(QQ)):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    # Q(t): random small numerator and denominator polynomials
    num = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
    den = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
    if not any(den):
        den = [Fraction(1)]
    return K.coerce((tuple(num), tuple(den)))


@pytest.mark.parametrize("K", FIELDS, ids=lambda K: repr(K))
def test_field_axioms_spot_check(K):
    # 1000 random nonzero elements per field: associativity and inverses
    # crc32, not hash(): string hashing is randomized per process
    rng = XorShift64(zlib.crc32(repr(K).encode()))
    count = 0
    while count < 1000:
        a = _random_element(K, rng)
        b = _random_element(K, rng)
        c = _random_element(K, rng)
        if K.is_zero(a):
            continue
        count += 1
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.inv(a)) == K.one()
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@pytest.mark.parametrize("K", FIELDS, ids=lambda K: repr(K))
def test_parse_format_roundtrip(K):
    rng = XorShift64(99)
    for _ in range(50):
        a = _random_element(K, rng)
        assert K.parse(K.format(a)) == a


def test_ring_json_roundtrip():
    rings = [ZZ, QQ, ZT, QT, PrimeField(5), ExtensionField(2, [1, 1, 1])]
    for R in rings:
        assert ring_from_json(R.to_json()) == R
    assert ring_from_json("Z") == ZZ
    assert ring_from_json("Q(t)") == QT
    with pytest.raises(ValueError):
        ring_from_json({"ring": "Fp[[u]]"})
