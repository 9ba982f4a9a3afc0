"""Polynomials over a field descriptor, as tuples of raw scalars.

Coefficients are ascending, trimmed (the zero polynomial is the empty tuple),
and every function takes the coefficient field K (a RingDescriptor) as first
argument.

Over a PrimeField the arithmetic runs on the plain-int kernels of fpoly;
every other field goes through its descriptor.  On top of it sit:

  * distinct_irreducible_factors: the distinct monic irreducible factors of a
    polynomial over a finite field, by squarefree split, distinct-degree
    factorization, and Cantor-Zassenhaus equal-degree splitting (with the
    trace-map variant in characteristic 2);
  * rational helpers: rational roots, found by Hensel lifting of roots
    modulo a small prime, and a certificate of irreducibility over Q by
    reduction modulo a small prime (irreducible mod ell implies irreducible
    over Q for monic integral f, by Gauss's lemma; fpoly.is_irreducible
    decides the reduction).
"""

import math
from fractions import Fraction

from . import fpoly
from .errors import SingularError
from .rings import QQ, PrimeField, is_prime


def normalize(K, c):
    c = list(c)
    while c and K.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def degree(f):
    """Degree with deg 0 = -1 for the zero polynomial."""
    return len(f) - 1


def constant(K, c):
    return (c,) if not K.is_zero(c) else ()


def x_poly(K):
    return (K.zero(), K.one())


def add(K, f, g):
    if isinstance(K, PrimeField):
        return tuple(fpoly.add(f, g, K.p))
    n = max(len(f), len(g))
    out = [K.zero()] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = K.add(out[i], c)
    return normalize(K, out)


def neg(K, f):
    return tuple(K.neg(c) for c in f)


def sub(K, f, g):
    if isinstance(K, PrimeField):
        return tuple(fpoly.sub(f, g, K.p))
    return add(K, f, neg(K, g))


def scale(K, a, f):
    if K.is_zero(a):
        return ()
    return normalize(K, [K.mul(a, c) for c in f])


def mul(K, f, g):
    if not f or not g:
        return ()
    if isinstance(K, PrimeField):
        return tuple(fpoly.mul(f, g, K.p))
    out = [K.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if K.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return normalize(K, out)


def divmod_poly(K, f, g):
    """Quotient and remainder; g must be nonzero over a field."""
    if not g:
        raise SingularError("polynomial division by zero")
    if isinstance(K, PrimeField):
        q, r = fpoly.quo_rem(f, g, K.p)
        return tuple(q), tuple(r)
    r = list(f)
    q = [K.zero()] * max(0, len(f) - len(g) + 1)
    inv = K.inv(g[-1])
    while len(r) >= len(g):
        c = r[-1]
        k = len(r) - len(g)
        if not K.is_zero(c):
            factor = K.mul(c, inv)
            q[k] = factor
            for i, b in enumerate(g):
                r[k + i] = K.sub(r[k + i], K.mul(factor, b))
        r.pop()
    return normalize(K, q), normalize(K, r)


def mod(K, f, g):
    return divmod_poly(K, f, g)[1]


def monic(K, f):
    if not f:
        return f
    lead = f[-1]
    if K.is_one(lead):
        return f
    return scale(K, K.inv(lead), f)


def gcd_monic(K, f, g):
    if isinstance(K, PrimeField):
        return tuple(fpoly.gcd_monic(f, g, K.p))
    while g:
        f, g = g, mod(K, f, g)
    return monic(K, f)


def derivative(K, f):
    out = []
    for i in range(1, len(f)):
        c = f[i]
        acc = K.zero()
        for _ in range(i):
            acc = K.add(acc, c)
        out.append(acc)
    return normalize(K, out)


def evaluate(K, f, a):
    acc = K.zero()
    for c in reversed(f):
        acc = K.add(K.mul(acc, a), c)
    return acc


def pow_mod(K, f, e, m):
    """f^e mod m for an arbitrary nonnegative integer e."""
    result = (K.one(),)
    f = mod(K, f, m)
    while e:
        if e & 1:
            result = mod(K, mul(K, result, f), m)
        f = mod(K, mul(K, f, f), m)
        e >>= 1
    return result


def format_poly_generic(K, f, var="x"):
    """Human-readable form with coefficients rendered by K.format."""
    if not f:
        return "0"
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if K.is_zero(c):
            continue
        cs = K.format(c)
        if e == 0:
            body = cs
        else:
            v = var if e == 1 else "%s^%d" % (var, e)
            body = v if K.is_one(c) else "%s*%s" % (cs, v)
        parts.append(body)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# factorization over finite fields


def _pth_root(K, f):
    """For f = u(x^p) over a finite field of characteristic p, return u.

    The coefficient map is c -> c^(q/p) (the inverse of Frobenius on F_q)."""
    p = K.characteristic
    e = K.order // p
    return normalize(K, [K.pow(f[i], e) for i in range(0, len(f), p)])


def squarefree_parts(K, f):
    """Split monic f into a list of squarefree monic polynomials whose product
    has the same irreducible factors as f (multiplicities dropped)."""
    stack = [monic(K, f)]
    out = []
    while stack:
        g = stack.pop()
        if degree(g) < 1:
            continue
        dg = derivative(K, g)
        if not dg:
            stack.append(_pth_root(K, g))
            continue
        h = gcd_monic(K, g, dg)
        if degree(h) == 0:
            out.append(g)
            continue
        stack.append(h)
        stack.append(divmod_poly(K, g, h)[0])
    return out


def distinct_degree_split(K, f):
    """For squarefree monic f, return [(d, product of degree-d factors)]."""
    q = K.order
    out = []
    h = x_poly(K)
    g = f
    d = 0
    while degree(g) >= 1 and d < degree(g):
        d += 1
        h = pow_mod(K, h, q, g)
        factor = gcd_monic(K, sub(K, h, x_poly(K)), g)
        if degree(factor) >= 1:
            out.append((d, factor))
            g = divmod_poly(K, g, factor)[0]
            h = mod(K, h, g)
    if degree(g) >= 1:
        out.append((degree(g), g))
    return out


def _random_poly(K, deg_bound, rng):
    q = K.order
    elems = None
    if not isinstance(K, PrimeField):
        elems = list(K.iter_elements())
    coeffs = []
    for _ in range(deg_bound):
        idx = rng.randrange(q)
        coeffs.append(idx if elems is None else elems[idx])
    return normalize(K, coeffs)


def equal_degree_split(K, f, d, rng):
    """Cantor-Zassenhaus: split squarefree monic f, all of whose irreducible
    factors have degree d, into those factors.  Deterministic given rng."""
    n = degree(f)
    if n == d:
        return [f]
    q = K.order
    while True:
        r = _random_poly(K, n, rng)
        if degree(r) < 1:
            continue
        g = gcd_monic(K, r, f)
        if 1 <= degree(g) < n:
            split = g
        else:
            if q % 2 == 1:
                s = pow_mod(K, r, (q ** d - 1) // 2, f)
                cand = sub(K, s, (K.one(),))
            else:
                # trace map over F_{2^m}: sum of r^(2^i) for i < m*d
                m = K.order.bit_length() - 1
                s = mod(K, r, f)
                acc = s
                for _ in range(m * d - 1):
                    s = mod(K, mul(K, s, s), f)
                    acc = add(K, acc, s)
                cand = acc
            split = gcd_monic(K, cand, f)
            if not (1 <= degree(split) < n):
                continue
        rest = divmod_poly(K, f, split)[0]
        return equal_degree_split(K, split, d, rng) + \
            equal_degree_split(K, rest, d, rng)


def distinct_irreducible_factors(K, f, rng):
    """Sorted distinct monic irreducible factors of f over a finite field."""
    found = set()
    for g in squarefree_parts(K, f):
        for d, part in distinct_degree_split(K, g):
            for irr in equal_degree_split(K, part, d, rng):
                found.add(irr)
    return sorted(found, key=lambda h: (len(h), h))


# ---------------------------------------------------------------------------
# rational-coefficient helpers (used by the meataxe over Q and Q(t))


def rational_roots(f):
    """All rational roots of a nonzero polynomial with Fraction coefficients.

    After the roots at 0 are split off, the roots of the monic f / lead are
    r / c for the integer roots r of the monic integer polynomial
    c^n f(x/c) / lead (integralize_monic)."""
    if not f:
        raise ValueError("zero polynomial")
    f = [Fraction(a) for a in f]
    roots = set()
    if not f[0]:
        roots.add(Fraction(0))
        while not f[0]:
            f.pop(0)
    lead = f[-1]
    ints, c = integralize_monic([a / lead for a in f])
    roots.update(Fraction(r, c) for r in _integer_roots(ints))
    return sorted(roots)


def _horner(f, a):
    """f(a) for int (or Fraction) coefficients and argument."""
    acc = 0
    for c in reversed(f):
        acc = acc * a + c
    return acc


def _integer_roots(f):
    """The integer roots of a monic integer polynomial with f(0) != 0.

    They are those of its squarefree part s, which stays squarefree modulo
    all primes ell but the finitely many dividing its discriminant.  A root
    of s mod ell is simple, so it lifts uniquely by Newton's iteration; once
    the modulus M exceeds twice the Cauchy bound 1 + max |s_i| on the roots,
    the residue of the lift in (-M/2, M/2] is the only integer root it can
    give, and it is checked exactly."""
    if len(f) < 2:
        return []
    s = tuple(Fraction(a) for a in f)
    s = divmod_poly(QQ, s, gcd_monic(QQ, s, derivative(QQ, s)))[0]
    s = [int(a) for a in s]  # monic, so integral by Gauss's lemma
    ds = [i * a for i, a in enumerate(s)][1:]
    ell = 2
    while True:
        red = fpoly.trim([a % ell for a in s])
        dred = fpoly.trim([a % ell for a in ds])
        if dred and len(fpoly.gcd_monic(red, dred, ell)) == 1:
            break
        ell += 1
        while not is_prime(ell):
            ell += 1
    bound = 2 * (1 + max(abs(a) for a in s[:-1]))
    out = []
    for r in range(ell):
        if _horner(red, r) % ell:
            continue
        m = ell
        while m <= bound:
            m *= m
            r = (r - _horner(s, r) * pow(_horner(ds, r), -1, m)) % m
        if r > m // 2:
            r -= m
        if not _horner(s, r):
            out.append(r)
    return out


_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def integralize_monic(f):
    """Substitute x -> x/c into a monic Fraction polynomial to obtain a monic
    integer polynomial; returns (coeffs, c).  Roots scale by c."""
    if not f or f[-1] != 1:
        raise ValueError("expected a monic polynomial")
    c = math.lcm(*(coef.denominator for coef in f))
    n = len(f) - 1
    out = [int(f[i] * c ** (n - i)) for i in range(n + 1)]
    return out, c


def certify_irreducible_q(f, roots=None):
    """True if monic f over Q is certainly irreducible, False if certainly
    reducible, None if undecided within the modular budget.

    Degrees 2 and 3 are decided by the rational-root theorem; a caller that
    already has rational_roots(f) passes it as roots.  Higher degrees look
    for a prime ell with f squarefree and irreducible mod ell, which
    certifies irreducibility over Q; failure to find one proves nothing."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    if roots is None:
        roots = rational_roots(f)
    if roots:
        return False
    if n <= 3:
        return True
    ints, _ = integralize_monic(f)
    for ell in _CERT_PRIMES:
        K = PrimeField(ell)
        red = normalize(K, [c % ell for c in ints])
        if degree(red) != n:
            continue
        if degree(gcd_monic(K, red, derivative(K, red))) > 0:
            continue
        if fpoly.is_irreducible(list(red), ell):
            return True
    return None
