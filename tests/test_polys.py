"""Polynomial arithmetic and factorization over finite fields."""

from fractions import Fraction

import pytest

from irredcert import polys
from irredcert.errors import SingularError
from irredcert.prng import XorShift64
from irredcert.rings import QQ, ExtensionField, PrimeField

from generic_fp import GenericFp

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = ExtensionField(2, [1, 1, 1])


def test_divmod_gcd():
    f = (2, 0, 1)  # x^2 + 2 over F_5
    g = (3, 1)     # x + 3
    q, r = polys.divmod_poly(F5, f, g)
    assert polys.add(F5, polys.mul(F5, q, g), r) == f
    # x^2+1 and x^2+4 differ by a unit constant, so they are coprime
    assert polys.gcd_monic(F5, (1, 0, 1), (4, 0, 1)) == (1,)


def test_gcd_common_factor():
    # (x+1)(x+2) and (x+1)(x+3) over F_5 share exactly x+1
    a = polys.mul(F5, (1, 1), (2, 1))
    b = polys.mul(F5, (1, 1), (3, 1))
    assert polys.gcd_monic(F5, a, b) == (1, 1)


def test_derivative_char_p():
    # d/dx (x^3 + x + 1) = 3x^2 + 1 = 1 over F_3
    assert polys.derivative(F3, (1, 1, 0, 1)) == (1,)
    # derivative of x^3 over F_3 vanishes
    assert polys.derivative(F3, (0, 0, 0, 1)) == ()


def test_squarefree_parts_char_p():
    # f = (x+1)^3 over F_3 has derivative 0; the p-th root path must find x+1
    f = polys.mul(F3, polys.mul(F3, (1, 1), (1, 1)), (1, 1))
    parts = polys.squarefree_parts(F3, f)
    prod = (1,)
    for g in parts:
        prod = polys.mul(F3, prod, g)
    assert polys.mod(F3, prod, (1, 1)) == ()


def test_distinct_irreducible_factors():
    rng = XorShift64(7)
    # x^2 + x + 1 is irreducible over F_2 (no roots)
    assert polys.distinct_irreducible_factors(F2, (1, 1, 1), rng) == [(1, 1, 1)]
    # x^2 + 1 = (x+2)(x+3) over F_5
    fs = polys.distinct_irreducible_factors(F5, (1, 0, 1), rng)
    assert fs == [(2, 1), (3, 1)]
    # x^4 + x^2 = x^2 (x^2+1) = x^2 (x+1)^2 over F_2
    fs = polys.distinct_irreducible_factors(F2, (0, 0, 1, 0, 1), rng)
    assert fs == [(0, 1), (1, 1)]


def test_factor_random_products():
    rng = XorShift64(123)
    for K in (F2, F3, F5, F4):
        elems = list(K.iter_elements())
        for _ in range(25):
            # build a product of random monic linears and quadratics, refactor
            f = (K.one(),)
            expected = set()
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 2)
                g = tuple(rng.choice(elems) for _ in range(deg)) + (K.one(),)
                for irr in polys.distinct_irreducible_factors(K, g, rng):
                    expected.add(irr)
                f = polys.mul(K, f, g)
            got = set(polys.distinct_irreducible_factors(K, f, rng))
            assert got == expected


def test_rabin_irreducible():
    assert polys.rabin_irreducible(F2, (1, 1, 1))
    assert not polys.rabin_irreducible(F2, (1, 0, 1))
    assert polys.rabin_irreducible(F2, (1, 1, 0, 0, 1))  # x^4+x+1
    assert polys.rabin_irreducible(F5, (2, 0, 1))        # x^2+2, 3 is a non-residue
    assert not polys.rabin_irreducible(F5, (1, 0, 1))
    # y^2 + y + x over F_4 has no root (check all four elements), so irreducible;
    # y^2 + x is reducible since squaring is onto in characteristic 2
    assert polys.rabin_irreducible(F4, (F4.parse("x"), (1,), (1,)))
    assert not polys.rabin_irreducible(F4, (F4.parse("x"), (), (1,)))


def test_rational_roots():
    one = Fraction(1)
    # (x - 1/2)(x + 3) = x^2 + 5/2 x - 3/2
    f = (Fraction(-3, 2), Fraction(5, 2), one)
    assert polys.rational_roots(f) == [Fraction(-3), Fraction(1, 2)]
    # x^2 + 1 has none
    assert polys.rational_roots((one, Fraction(0), one)) == []
    # x^3 - x = x(x-1)(x+1)
    f = (Fraction(0), Fraction(-1), Fraction(0), one)
    assert polys.rational_roots(f) == [Fraction(-1), Fraction(0), Fraction(1)]


def test_certify_irreducible_q():
    one = Fraction(1)
    # degree 2/3 decided by rational roots
    assert polys.certify_irreducible_q((one, one, one)) is True  # x^2+x+1
    assert polys.certify_irreducible_q((Fraction(-1), Fraction(0), one)) is False
    # x^4 + x + 1 is irreducible mod 2, hence over Q
    assert polys.certify_irreducible_q((one, one, Fraction(0), Fraction(0), one)) is True
    # x^4 + 4 = (x^2-2x+2)(x^2+2x+2): no rational roots, must not claim True
    f = (Fraction(4), Fraction(0), Fraction(0), Fraction(0), one)
    assert polys.certify_irreducible_q(f) is not True


def test_evaluate_and_powmod():
    assert polys.evaluate(F5, (2, 0, 1), 2) == 1  # 4 + 2 = 6 = 1 mod 5
    m = (1, 1, 1)
    h = polys.pow_mod(F2, (0, 1), 4, m)  # x^4 mod x^2+x+1 = x
    assert h == (0, 1)



@pytest.mark.parametrize("p", [2, 3, 101])
def test_prime_field_kernels_match_generic(p):
    """polys over PrimeField (the fpoly int-list kernels) against the generic
    descriptor code over GenericFp, on seeded random polynomials."""
    rng = XorShift64(p)
    Kf, Kg = PrimeField(p), GenericFp(p)

    def rand(n):
        return polys.normalize(Kf, [rng.randrange(p) for _ in range(n)])

    for _ in range(60):
        f, g = rand(rng.randrange(40)), rand(rng.randrange(20))
        for fn in (polys.add, polys.sub, polys.mul, polys.gcd_monic):
            assert fn(Kf, f, g) == fn(Kg, f, g), (fn.__name__, f, g)
        if g:
            assert polys.divmod_poly(Kf, f, g) == polys.divmod_poly(Kg, f, g)
        else:
            with pytest.raises(SingularError):
                polys.divmod_poly(Kf, f, g)
    # the Cantor-Zassenhaus path draws the same random polynomials on both
    for _ in range(10):
        f = polys.monic(Kf, rand(2 + rng.randrange(20)))
        if f:
            seed = rng.randrange(2 ** 32)
            assert polys.distinct_irreducible_factors(Kf, f, XorShift64(seed)) \
                == polys.distinct_irreducible_factors(Kg, f, XorShift64(seed))
