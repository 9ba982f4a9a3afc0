"""Polynomial arithmetic and factorization over finite fields."""

import math
from fractions import Fraction

import pytest

from irredcert import fpoly, polys
from irredcert.errors import SingularError
from irredcert.prng import XorShift64
from irredcert.rings import (QQ, ZZ, ExtensionField, PrimeField,
                             RationalFunctionField)

from generic_fp import GenericFp
from generic_q import GenericQ

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


def test_derivative_is_repeated_addition():
    """i c as one product equals c added i times, over F_p, F_q, Q, Q(t)
    and the generic F_p, coefficient for coefficient."""
    rng = XorShift64(5)
    QT = RationalFunctionField("t")
    scalars = {
        F3: lambda: rng.randrange(3),
        PrimeField(101): lambda: rng.randrange(101),
        GenericFp(7): lambda: rng.randrange(7),
        F4: lambda: F4.coerce((rng.randrange(2), rng.randrange(2))),
        QQ: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        QT: lambda: QT.coerce(((rng.randint(-3, 3), rng.randint(-3, 3)),
                               (1, rng.randint(0, 2)))),
    }
    for K, scalar in scalars.items():
        for n in (0, 1, 2, 5, 12):
            f = polys.normalize(K, [scalar() for _ in range(n)] + [K.one()])
            want = []
            for i in range(1, len(f)):
                acc = K.zero()
                for _ in range(i):
                    acc = K.add(acc, f[i])
                want.append(acc)
            assert polys.derivative(K, f) == polys.normalize(K, want), (K, f)


def test_squarefree_parts_char_p():
    # f = (x+1)^3 over F_3 has derivative 0; the p-th root path must find x+1
    f = polys.mul(F3, polys.mul(F3, (1, 1), (1, 1)), (1, 1))
    parts = polys.squarefree_parts(F3, f)
    prod = (1,)
    for g in parts:
        prod = polys.mul(F3, prod, g)
    assert polys.mod(F3, prod, (1, 1)) == ()


@pytest.mark.parametrize("K", [QQ, F5], ids=["Q", "F5"])
def test_squarefree_parts_lists_each_part_once(K):
    # (x - 1)^5 (x + 1)^2: over Q the splitting reaches x^2 - 1 twice and
    # x - 1 three times, over F_5 x + 1 twice
    f = (K.one(),)
    for root, mult in ((1, 5), (-1, 2)):
        for _ in range(mult):
            f = polys.mul(K, f, (K.neg(K.coerce(root)), K.one()))
    parts = polys.squarefree_parts(K, f)
    assert len(parts) == len(set(parts)) == 2
    prod = (K.one(),)
    for g in parts:
        prod = polys.mul(K, prod, g)
    for root in (1, -1):
        assert not polys.mod(K, prod, (K.neg(K.coerce(root)), K.one()))


class _Scripted:
    """A stand-in for the rng that draws the given indices in turn."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def randrange(self, n):
        i = next(self.draws)
        assert 0 <= i < n
        return i


# the elements of F_9 and F_8 in index order: the coefficients are the
# base-p digits of the index, lowest first, trimmed
ELEMENTS_F9 = [(), (1,), (2,), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
ELEMENTS_F8 = [(), (1,), (0, 1), (1, 1), (0, 0, 1), (1, 0, 1), (0, 1, 1),
               (1, 1, 1)]


@pytest.mark.parametrize("K,elems", [
    (ExtensionField(3, (2, 2, 1)), ELEMENTS_F9),
    (ExtensionField(2, (1, 1, 0, 1)), ELEMENTS_F8)], ids=["F9", "F8"])
def test_random_poly_coefficients_in_element_order(K, elems):
    # the coefficient drawn at index idx is element idx, and iter_elements
    # lists the elements in the same order
    assert list(K.iter_elements()) == elems
    for idx in range(K.order):
        got = polys._random_poly(K, 1, _Scripted([idx]))
        assert got == polys.normalize(K, [elems[idx]]), idx
        assert K.element(idx) == elems[idx]
    got = polys._random_poly(K, K.order, _Scripted(range(K.order)))
    assert got == tuple(elems)


def test_distinct_irreducible_factors():
    # x^2 + x + 1 is irreducible over F_2 (no roots)
    assert polys.distinct_irreducible_factors(F2, (1, 1, 1)) == [(1, 1, 1)]
    # x^2 + 1 = (x+2)(x+3) over F_5
    fs = polys.distinct_irreducible_factors(F5, (1, 0, 1))
    assert fs == [(2, 1), (3, 1)]
    # x^4 + x^2 = x^2 (x^2+1) = x^2 (x+1)^2 over F_2
    fs = polys.distinct_irreducible_factors(F2, (0, 0, 1, 0, 1))
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
                for irr in polys.distinct_irreducible_factors(K, g):
                    expected.add(irr)
                f = polys.mul(K, f, g)
            got = set(polys.distinct_irreducible_factors(K, f))
            assert got == expected


def _random_irreducible(K, n, rng):
    elems = list(K.iter_elements())
    while True:
        f = tuple(rng.choice(elems) for _ in range(n)) + (K.one(),)
        if polys.distinct_irreducible_factors(K, f) == [f]:
            return f


def _ddf_to_the_top(K, f):
    """Distinct-degree split that runs d up to deg g, the reference."""
    out, h, g, d = [], polys.x_poly(K), f, 0
    while polys.degree(g) >= 1 and d < polys.degree(g):
        d += 1
        h = polys.pow_mod(K, h, K.order, g)
        factor = polys.gcd_monic(K, polys.sub(K, h, polys.x_poly(K)), g)
        if polys.degree(factor) >= 1:
            out.append((d, factor))
            g = polys.divmod_poly(K, g, factor)[0]
            h = polys.mod(K, h, g)
    return out


def test_distinct_degree_split_stops_at_half_the_degree(monkeypatch):
    # once 2 (d + 1) > deg g, what is left is irreducible: an irreducible
    # polynomial of degree n takes n // 2 powers of x, not n
    rng = XorShift64(29)
    cases = [(K, _random_irreducible(K, n, rng))
             for K, n in ((F3, 8), (F2, 9), (F5, 2), (F4, 5), (F2, 1))]
    calls = []
    pow_mod = polys.pow_mod

    def counted(K, f, e, m):
        calls.append(e)
        return pow_mod(K, f, e, m)

    monkeypatch.setattr(polys, "pow_mod", counted)
    for K, f in cases:
        calls.clear()
        n = polys.degree(f)
        assert list(polys.distinct_degree_split(K, f)) == [(n, f)]
        assert len(calls) <= n // 2, (K, f, len(calls))


def test_distinct_degree_split_matches_the_full_loop():
    rng = XorShift64(31)
    for K in (F2, F3, PrimeField(101), F4):
        for _ in range(12):
            # a squarefree product of distinct irreducibles of degree 1 to 4
            factors = {_random_irreducible(K, rng.randint(1, 4), rng)
                       for _ in range(rng.randint(1, 4))}
            f = (K.one(),)
            for g in factors:
                f = polys.mul(K, f, g)
            assert list(polys.distinct_degree_split(K, f)) == \
                _ddf_to_the_top(K, f)


F9 = ExtensionField(3, (2, 2, 1))
STREAM_FIELDS = [F2, F3, PrimeField(101), F4, F9]


def _stream_cases(K, rng, count):
    """Products of random monic irreducibles of degree 1 to 3, each to a
    power up to 3: several squarefree parts, several factors of one
    degree, or both."""
    for _ in range(count):
        f = (K.one(),)
        for _ in range(rng.randint(1, 5)):
            g = _random_irreducible(K, rng.randint(1, 3), rng)
            for _ in range(rng.randint(1, 3)):
                f = polys.mul(K, f, g)
        yield f


@pytest.mark.parametrize("K", STREAM_FIELDS, ids=["F2", "F3", "F101", "F4",
                                                  "F9"])
def test_factor_stream_settled_is_the_eager_factorization(K):
    """Read to the end, the stream settles on the factors of
    distinct_irreducible_factors, in its order.  The cases include
    polynomials with several squarefree parts and several factors of one
    degree."""
    rng = XorShift64(K.order)
    shapes = set()
    for f in _stream_cases(K, rng, 30):
        want = polys.distinct_irreducible_factors(K, f)
        assert list(polys.factor_stream(K, f)) == want, f
        degrees = [polys.degree(g) for g in want]
        shapes.add((len(polys.squarefree_parts(K, f)) > 1,
                    len(set(degrees)) < len(degrees)))
    assert (True, True) in shapes


@pytest.mark.parametrize("K", STREAM_FIELDS, ids=["F2", "F3", "F101", "F4",
                                                  "F9"])
def test_factor_stream_reads_lazily(K, monkeypatch):
    """Read only to its first factor, the stream has taken at most one
    (degree, product) pair from each squarefree part's distinct-degree
    loop; read only to any factor, it has given the eager list's prefix."""
    taken = []
    loop = polys.distinct_degree_split

    def counted(K, g):
        taken.append(0)
        part = len(taken) - 1
        for pair in loop(K, g):
            taken[part] += 1
            yield pair

    monkeypatch.setattr(polys, "distinct_degree_split", counted)
    rng = XorShift64(K.order + 1)
    for f in _stream_cases(K, rng, 12):
        want = polys.distinct_irreducible_factors(K, f)
        for stop in range(1, len(want) + 1):
            taken.clear()
            stream = polys.factor_stream(K, f)
            assert [next(stream) for _ in range(stop)] == want[:stop], f
            if stop == 1:
                assert taken and max(taken) <= 1, (f, taken)


def _parse_generic(K, text, var="x"):
    """Read format_poly_generic's text over F_q back: terms joined by
    " + ", each c, var^e or c*var^e, where c is an integer or a field text
    in parentheses.  Raises ValueError on any other term."""
    f = {}
    for term in text.split(" + "):
        if term.startswith("("):
            inner, _, rest = term[1:].partition(")")
            c, rest = K.parse(inner), rest.removeprefix("*")
        elif term[0].isdigit():
            digits, _, rest = term.partition("*")
            c = K.coerce(int(digits))
        else:
            c, rest = K.one(), term
        if rest in ("", var):
            e = len(rest)
        elif rest.startswith(var + "^"):
            e = int(rest[len(var) + 1:])
        else:
            raise ValueError("bad term %r in %r" % (term, text))
        if e in f:
            raise ValueError("repeated power in %r" % (text,))
        f[e] = c
    return polys.normalize(K, [f.get(e, K.zero()) for e in range(max(f) + 1)])


@pytest.mark.parametrize("K", [F4, F9], ids=["F4", "F9"])
def test_format_over_fq_reads_back(K):
    """The field's generator and the variable are both x, so a coefficient
    outside F_p is written in parentheses: x + alpha over F_4 is x + (x),
    not x + x.  Random polynomials and their factors read back to
    themselves, and distinct factors have distinct texts."""
    assert polys.format_poly_generic(K, ((0, 1), K.one())) == "x + (x)"
    rng = XorShift64(K.order)
    for _ in range(30):
        f = polys.normalize(K, [K.element(rng.randint(0, K.order - 1))
                                for _ in range(rng.randint(1, 5))]
                            + [K.element(rng.randint(1, K.order - 1))])
        factors = polys.distinct_irreducible_factors(K, polys.monic(K, f))
        texts = [polys.format_poly_generic(K, g) for g in factors]
        assert len(set(texts)) == len(texts), texts
        for g, text in zip([f] + factors,
                           [polys.format_poly_generic(K, f)] + texts):
            assert _parse_generic(K, text) == g, text


def _monic_polys(p, n):
    """Every monic polynomial of degree n over F_p, as int lists."""
    for k in range(p ** n):
        yield [k // p ** i % p for i in range(n)] + [1]


def test_rabin_irreducible():
    assert fpoly.is_irreducible([1, 1, 1], 2)
    assert not fpoly.is_irreducible([1, 0, 1], 2)
    assert fpoly.is_irreducible([1, 1, 0, 0, 1], 2)  # x^4+x+1
    assert fpoly.is_irreducible([2, 0, 1], 5)        # x^2+2, 3 is a non-residue
    assert not fpoly.is_irreducible([1, 0, 1], 5)
    # against trial division by every monic polynomial of degree <= n/2
    for p, top in ((2, 6), (3, 4)):
        for n in range(2, top + 1):
            for f in _monic_polys(p, n):
                has_factor = any(
                    not fpoly.quo_rem(f, g, p)[1]
                    for m in range(1, n // 2 + 1) for g in _monic_polys(p, m))
                assert fpoly.is_irreducible(f, p) == (not has_factor), (p, f)


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots_by_divisors(f):
    """Oracle for small constant terms: the rational-root theorem, trying
    every p/q with p | a0 and q | an after clearing denominators."""
    roots = set()
    lcm = 1
    for c in f:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in f]
    while ints and ints[0] == 0:
        ints = ints[1:]
        roots.add(Fraction(0))
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                value = Fraction(0)
                for c in reversed(f):
                    value = value * cand + c
                if value == 0:
                    roots.add(cand)
    return sorted(roots)


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
    # 3 (x - 2)^2 (x + 1/3)^3: repeated roots, leading coefficient 3
    f = (3,)
    for r, e in ((2, 2), (Fraction(-1, 3), 3)):
        for _ in range(e):
            f = polys.mul(QQ, f, (-Fraction(r), one))
    assert polys.rational_roots(f) == [Fraction(-1, 3), Fraction(2)]


def test_rational_roots_match_divisor_search():
    rng = XorShift64(300)
    for _ in range(300):
        f = (Fraction(rng.randint(1, 4)),)
        for _ in range(rng.randint(0, 3)):
            root = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            f = polys.mul(QQ, f, (-root, Fraction(1)))
        for _ in range(rng.randint(0, 2)):
            quad = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                         for _ in range(2)) + (Fraction(1),)
            f = polys.mul(QQ, f, quad)
        assert polys.rational_roots(f) == _rational_roots_by_divisors(f), f


def test_rational_roots_large_constant_term():
    # the divisor search would trial-divide a 24-digit constant term
    roots = [1000003, 1000033, 1000037, 1000039]
    f = (Fraction(1),)
    for r in roots:
        f = polys.mul(QQ, f, (Fraction(-r), Fraction(1)))
    assert polys.rational_roots(f) == roots
    g = polys.add(QQ, f, (Fraction(1),))
    assert polys.rational_roots(g) == []


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


def test_certify_irreducible_q_repeated_factors(monkeypatch):
    # a repeated factor is certainly reducible: one gcd over Z says so,
    # before any prime is tried
    def no_prime(*args):
        raise AssertionError("a prime was tried")

    one, zero = Fraction(1), Fraction(0)
    square = polys.mul(QQ, (one, zero, one), (one, zero, one))  # (x^2+1)^2
    f = polys.mul(QQ, polys.mul(QQ, (Fraction(-2), zero, one),
                                (Fraction(-2), zero, one)), (Fraction(5), one))
    monkeypatch.setattr(fpoly, "is_irreducible", no_prime)
    assert polys.certify_irreducible_q(square) is False
    assert polys.certify_irreducible_q(f) is False      # (x^2-2)^2 (x+5)
    monkeypatch.undo()
    # x^4 + 4 = (x^2-2x+2)(x^2+2x+2) is squarefree and reducible
    x4 = (Fraction(4), zero, zero, zero, one)
    assert polys.certify_irreducible_q(x4) is not True


def _rational_square_root(q):
    """The nonnegative rational square root of q >= 0, or None."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == \
        q.denominator else None


def _random_product(rng):
    """A monic product over Q of linear and quadratic factors with
    multiplicities 1 to 3, and its distinct rational roots: those of the
    linear factors, and of a quadratic x^2 + b x + a by the quadratic
    formula when b^2 - 4a is a rational square."""
    one = Fraction(1)
    f, roots = (one,), set()
    for _ in range(rng.randint(0, 3)):
        r = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        roots.add(r)
        for _ in range(rng.randint(1, 3)):
            f = polys.mul(QQ, f, (-r, one))
    for _ in range(rng.randint(0, 2)):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        disc = b * b - 4 * a
        w = _rational_square_root(disc) if disc >= 0 else None
        if w is not None:
            roots.update(((-b + w) / 2, (-b - w) / 2))
        for _ in range(rng.randint(1, 2)):
            f = polys.mul(QQ, f, (a, b, one))
    return f, sorted(roots)


def test_analysis_over_z_matches_q():
    """f = descale(F, D) for F in Z[y] monic: the integer roots of F over D
    are the rational roots of f, the squarefree parts of F over ZZ (by the
    primitive remainder sequence) map by descale to those of f over
    GenericQ, in order, and integralize_monic(F, D) recovers
    integralize_monic(f) from any scaling D of F."""
    rng = XorShift64(2027)
    KG = GenericQ()
    shapes = set()
    for _ in range(300):
        f, roots = _random_product(rng)
        if len(f) < 2:
            continue
        ints, c = polys.integralize_monic(f)
        n = len(f) - 1
        d = c * rng.randint(1, 5)
        F = [int(a * d ** (n - i)) for i, a in enumerate(f)]
        assert polys.descale(F, d) == f
        assert polys.integralize_monic(F, d) == (ints, c)
        got = [Fraction(r, d) for r in polys.integer_roots(F)]
        assert got == roots
        parts = polys.squarefree_parts(ZZ, F)
        assert [polys.descale(s, d) for s in parts] == \
            polys.squarefree_parts(KG, f), f
        assert all(type(a) is int and s[-1] == 1 for s in parts for a in s)
        shapes.add((len(parts), len(f) - 1 > sum(len(s) - 1 for s in parts)))
    # single and several parts, with and without repeated factors
    assert {(1, False), (1, True), (2, True), (3, True)} <= shapes


def test_gcd_over_z_is_primitive():
    # the primitive gcd with a positive lead, monic for monic inputs
    f = (6, -5, 1)              # (x - 2)(x - 3)
    g = (-4, 0, 1)              # (x - 2)(x + 2)
    assert polys.gcd_monic(ZZ, f, g) == (-2, 1)
    assert polys.gcd_monic(ZZ, (4, 6), (-6, -9)) == (2, 3)
    assert polys.gcd_monic(ZZ, (1, 0, 1), (5, 1)) == (1,)


def test_evaluate_and_powmod():
    assert polys.evaluate(F5, (2, 0, 1), 2) == 1  # 4 + 2 = 6 = 1 mod 5
    m = (1, 1, 1)
    h = polys.pow_mod(F2, (0, 1), 4, m)  # x^4 mod x^2+x+1 = x
    assert h == (0, 1)



@pytest.mark.parametrize("p", [2, 3, 101, 65521, 2147483647])
def test_packed_fpoly_matches_schoolbook(p):
    """fpoly's packed mul and Barrett pow_mod, and quo_rem, against the
    schoolbook code of polys over GenericFp, up to degree 130."""
    rng = XorShift64(17 * p)
    Kg = GenericFp(p)

    def rand(n):
        return [rng.randrange(p) for _ in range(n)]

    for _ in range(40):
        a = fpoly.trim(rand(rng.randrange(132)))
        b = fpoly.trim(rand(rng.randrange(132)))
        assert fpoly.mul(a, b, p) == list(polys.mul(Kg, tuple(a), tuple(b)))
        if b:
            q, r = fpoly.quo_rem(a, b, p)
            assert (tuple(q), tuple(r)) == \
                polys.divmod_poly(Kg, tuple(a), tuple(b))
    top = (p - 1,) * 131  # every slot of the product at its bound
    assert fpoly.mul(top, top, p) == list(polys.mul(Kg, top, top))
    for n in (0, 1, 2, 3, 17, 64, 130):
        mod = rand(n) + [1 + rng.randrange(p - 1)]  # not monic in general
        base = fpoly.trim(rand(rng.randrange(2 * n + 2)))
        for e in (0, 1, 2, 3, p, rng.randrange(1 << 20)):
            assert fpoly.pow_mod(base, e, mod, p) == \
                list(polys.pow_mod(Kg, tuple(base), e, tuple(mod))), (n, e)


def test_slot_bytes_holds_its_bound():
    for p in (2, 3, 5, 101, 257, 65521, 2147483647):
        for terms in (0, 1, 2, 7, 64, 1000, 10 ** 6):
            nb = fpoly.slot_bytes(p, terms)
            assert nb in (1, 2, 4) or nb % 8 == 0
            assert terms * (p - 1) ** 2 + p - 1 < 256 ** nb
            vals = [p - 1, 0, 1, p // 2]
            assert fpoly.unpack([fpoly.pack(vals, nb, p)], 4, nb, p) == vals
    assert fpoly.slot_bytes(2147483647, 16) == 16


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
            assert polys.distinct_irreducible_factors(Kf, f) \
                == polys.distinct_irreducible_factors(Kg, f)
