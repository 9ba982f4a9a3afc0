"""Polynomials over a ring descriptor, as tuples of raw scalars.

Coefficients are ascending, trimmed (the zero polynomial is the empty tuple),
and every function takes the coefficient ring K (a RingDescriptor) as first
argument.  add, sub and mul serve any ring; division, gcd and the rest
need a field.  With fpoly, which serves F_p, these are the package's
polynomial kernels: the scalars of Z[t] add and multiply here over ZZ,
and those of Q(t) normalize, add and multiply here over QQ (see rings).

Over a PrimeField the arithmetic runs on the kernels of fpoly: products
are packed big-int products and pow_mod reduces by Barrett's method, while
division and gcd run on int lists.  Every other ring goes through its
descriptor.  On top of it sit:

  * distinct_irreducible_factors: the distinct monic irreducible factors of a
    polynomial over a finite field, by squarefree split, distinct-degree
    factorization, and Cantor-Zassenhaus equal-degree splitting (with the
    trace-map variant in characteristic 2), sorted by degree and then
    coefficients.  The distinct-degree loop (distinct_degree_split, a
    generator) stops once 2d passes the degree left, which is then
    irreducible, so an irreducible polynomial of degree n costs n // 2
    powers of x.  The splitting draws from a generator of its own, seeded
    0 for each polynomial: its factors do not depend on the draws, so the
    factors, and the work, are a function of (K, f) alone, and no caller's
    generator moves;
  * factor_stream: the same factors in the same order, found as they are
    read, for the MeatAxe, which mostly decides at the first factor.  It
    runs the distinct-degree loops of the squarefree parts only up to the
    degree it yields, and splits only that degree;
  * rational helpers: rational roots, found by Hensel lifting of roots
    modulo a small prime, and a certificate of irreducibility over Q by
    reduction modulo a small prime (irreducible mod ell implies irreducible
    over Q for monic integral f, by Gauss's lemma; fpoly.is_irreducible
    decides the reduction).  Both run on a monic integer polynomial, to
    which integralize_monic scales a Fraction one; the MeatAxe over Q keeps
    its characteristic polynomials in that form, descale maps them back,
    and over ZZ the squarefree parts come from the primitive remainder
    sequence.
"""

import math
from fractions import Fraction

from . import fpoly, rings
from .errors import SingularError
from .prng import XorShift64


def normalize(K, c):
    c = list(c)
    while c and K.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def degree(f):
    """Degree with deg 0 = -1 for the zero polynomial."""
    return len(f) - 1


def x_poly(K):
    return (K.zero(), K.one())


def add(K, f, g):
    if isinstance(K, rings.PrimeField):
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
    if isinstance(K, rings.PrimeField):
        return tuple(fpoly.sub(f, g, K.p))
    return add(K, f, neg(K, g))


def scale(K, a, f):
    if K.is_zero(a):
        return ()
    return normalize(K, [K.mul(a, c) for c in f])


def mul(K, f, g):
    if not f or not g:
        return ()
    if isinstance(K, rings.PrimeField):
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
    if isinstance(K, rings.PrimeField):
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
    """The monic gcd over a field; over ZZ, for monic f, the monic gcd over
    Q by the primitive remainder sequence (Gauss's lemma)."""
    if isinstance(K, rings.PrimeField):
        return tuple(fpoly.gcd_monic(f, g, K.p))
    if K == rings.ZZ:
        return _gcd_z(f, g)
    while g:
        f, g = g, mod(K, f, g)
    return monic(K, f)


def _gcd_z(f, g):
    """gcd_monic over ZZ: each pseudo-remainder is divided by its content,
    and the last nonzero one is returned with a positive lead."""
    f = list(f)
    while g:
        r, g = f, [a // math.gcd(*g) for a in g]
        while len(r) >= len(g):
            c, k = r[-1], len(r) - len(g)
            r = [g[-1] * a for a in r]
            for i, b in enumerate(g):
                r[k + i] -= c * b
            r = fpoly.trim(r)
        f, g = g, r
    return tuple(a // math.gcd(*f) * (1 if f[-1] > 0 else -1) for a in f)


def derivative(K, f):
    """f', each coefficient i c one product: of ints over F_p, else of
    K.coerce(i) and c."""
    if isinstance(K, rings.PrimeField):
        p = K.p
        return normalize(K, [i * f[i] % p for i in range(1, len(f))])
    return normalize(K, [K.mul(K.coerce(i), f[i]) for i in range(1, len(f))])


def evaluate(K, f, a):
    acc = K.zero()
    for c in reversed(f):
        acc = K.add(K.mul(acc, a), c)
    return acc


def pow_mod(K, f, e, m):
    """f^e mod m for an arbitrary nonnegative integer e."""
    if isinstance(K, rings.PrimeField):
        return tuple(fpoly.pow_mod(f, e, m, K.p))
    result = (K.one(),)
    f = mod(K, f, m)
    while e:
        if e & 1:
            result = mod(K, mul(K, result, f), m)
        f = mod(K, mul(K, f, f), m)
        e >>= 1
    return result


def format_poly_generic(K, f, var="x"):
    """Human-readable form with coefficients rendered by K.format.  Over
    F_q a coefficient outside F_p is written in parentheses, as the field's
    text of it: its generator may share the name var, as x + (x) for
    x + alpha over F_4."""
    if not f:
        return "0"
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if K.is_zero(c):
            continue
        cs = K.format(c)
        if isinstance(K, rings.ExtensionField) and len(c) > 1:
            cs = "(%s)" % cs
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

    The coefficient map is c -> c^(q/p) (the inverse of Frobenius on F_q),
    the identity on F_p."""
    p = K.characteristic
    e = K.order // p
    u = f[::p]
    return normalize(K, u if e == 1 else [K.pow(c, e) for c in u])


def squarefree_parts(K, f):
    """Split monic f into a list of distinct squarefree monic polynomials
    whose product has the same irreducible factors as f (multiplicities
    dropped).  A part the splitting reaches twice, as x^2 - 1 for
    (x - 1)^5 (x + 1)^2, is listed once."""
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
            if g not in out:
                out.append(g)
            continue
        stack.append(h)
        stack.append(divmod_poly(K, g, h)[0])
    return out


def distinct_degree_split(K, f):
    """For squarefree monic f, yield (d, product of the degree-d factors)
    as each is found, d increasing.  Once 2 (d + 1) > deg g the g left
    over is irreducible, since every factor of degree at most d is split
    off: the loop stops there."""
    q = K.order
    h = x_poly(K)
    g = f
    d = 0
    while 2 * (d + 1) <= degree(g):
        d += 1
        h = pow_mod(K, h, q, g)
        factor = gcd_monic(K, sub(K, h, x_poly(K)), g)
        if degree(factor) >= 1:
            yield d, factor
            g = divmod_poly(K, g, factor)[0]
            h = mod(K, h, g)
    if degree(g) >= 1:
        yield degree(g), g


def _random_poly(K, deg_bound, rng):
    """deg_bound coefficients, each the element of K at an index drawn
    uniformly below its order, in the order of K.iter_elements: over a
    prime field the index itself."""
    coeffs = [rng.randrange(K.order) for _ in range(deg_bound)]
    if isinstance(K, rings.ExtensionField):
        coeffs = [K.element(i) for i in coeffs]
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


def distinct_irreducible_factors(K, f):
    """Sorted distinct monic irreducible factors of f over a finite field,
    split part by part and, within a part, degree by degree."""
    rng = XorShift64(0)
    found = set()
    for g in squarefree_parts(K, f):
        for d, part in distinct_degree_split(K, g):
            found.update(equal_degree_split(K, part, d, rng))
    return sorted(found, key=lambda h: (len(h), h))


def factor_stream(K, f):
    """Yield the factors of distinct_irreducible_factors(K, f), in its
    order, each found only when it is read.

    At the least degree d that some squarefree part's distinct-degree loop
    has reached, the degree-d products of the parts are split, and their
    factors, merged and sorted, are yielded before any of those loops goes
    on past d."""
    rng = XorShift64(0)
    loops = [distinct_degree_split(K, g) for g in squarefree_parts(K, f)]
    heads = [next(loop, None) for loop in loops]
    while any(heads):
        d = min(pair[0] for pair in heads if pair)
        at_d = [j for j, pair in enumerate(heads) if pair and pair[0] == d]
        yield from sorted({irr for j in at_d for irr in
                           equal_degree_split(K, heads[j][1], d, rng)})
        for j in at_d:
            heads[j] = next(loops[j], None)


# ---------------------------------------------------------------------------
# rational-coefficient helpers (used by the meataxe over Q and Q(t))


def rational_roots(f):
    """All rational roots of a nonzero polynomial with Fraction coefficients,
    ascending: r / c for the integer roots r of the monic integer
    polynomial c^n f(x/c) / lead (integralize_monic)."""
    if not f:
        raise ValueError("zero polynomial")
    lead = Fraction(f[-1])
    ints, c = integralize_monic([Fraction(a) / lead for a in f])
    return [Fraction(r, c) for r in integer_roots(ints)]


def _horner(f, a):
    """f(a) for int (or Fraction) coefficients and argument."""
    acc = 0
    for c in reversed(f):
        acc = acc * a + c
    return acc


def integer_roots(f):
    """The integer roots of a monic integer polynomial, ascending.

    With the roots at 0 split off, they are those of its squarefree part s,
    which stays squarefree modulo all primes ell but the finitely many
    dividing its discriminant.  A root of s mod ell is simple, so it lifts
    uniquely by Newton's iteration; once the modulus M exceeds twice the
    Cauchy bound 1 + max |s_i| on the roots, the residue of the lift in
    (-M/2, M/2] is the only integer root it can give, and it is checked
    exactly."""
    k = next(i for i, a in enumerate(f) if a)
    f, out = f[k:], [0] if k else []
    if len(f) < 2:
        return out
    Z = rings.ZZ
    s = list(divmod_poly(Z, f, gcd_monic(Z, f, derivative(Z, f)))[0])
    ds = [i * a for i, a in enumerate(s)][1:]
    ell = 2
    while True:
        red = fpoly.trim([a % ell for a in s])
        dred = fpoly.trim([a % ell for a in ds])
        if dred and len(fpoly.gcd_monic(red, dred, ell)) == 1:
            break
        ell += 1
        while not rings.is_prime(ell):
            ell += 1
    bound = 2 * (1 + max(abs(a) for a in s[:-1]))
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
    return sorted(out)


_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def integralize_monic(f, d=1):
    """(c^n g(x/c), c) for the monic g = descale(f, d), f with Fraction or
    int coefficients: a monic integer polynomial, as a tuple, and the least
    common denominator c of g, on numerators and denominators only; for an
    integer f, a canonical key for descale(f, d).  Roots scale by c / d."""
    if not f or f[-1] != 1:
        raise ValueError("expected a monic polynomial")
    n = len(f) - 1
    dens = [a.denominator * d ** (n - i) for i, a in enumerate(f)]
    c = math.lcm(*(e // math.gcd(a.numerator, e) for a, e in zip(f, dens)))
    return tuple(a.numerator * c ** (n - i) // e
                 for i, (a, e) in enumerate(zip(f, dens))), c


def descale(f, d):
    """d^-n f(dx) over Q for an integer polynomial f of degree n and d > 0:
    for f = det(yI - A), the characteristic polynomial of A / d."""
    n = len(f) - 1
    return tuple(Fraction(a, d ** (n - i)) for i, a in enumerate(f))


def certify_irreducible_q(f, roots=None):
    """True if monic f over Q is certainly irreducible, False if certainly
    reducible, None if undecided within the modular budget.

    Degrees 2 and 3 are decided by the rational-root theorem; a caller that
    already has the rational roots of f, or of its integralize_monic form,
    passes them as roots.  A repeated factor, found by one gcd over Z,
    makes f reducible.  Higher degrees look for a prime ell with the
    integralize_monic form of f squarefree and irreducible mod ell, which
    certifies irreducibility over Q; failure to find one proves nothing.
    Which primes qualify depends on that form, which is f itself for a
    monic f in Z[x], as the MeatAxe passes its polynomials."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    if roots is None:
        roots = rational_roots(f)
    if roots:
        return False
    if n <= 3:
        return True
    f = integralize_monic(f)[0]
    if degree(gcd_monic(rings.ZZ, f, derivative(rings.ZZ, f))) > 0:
        return False
    for ell in _CERT_PRIMES:
        K = rings.PrimeField(ell)
        red = normalize(K, [c % ell for c in f])
        if degree(gcd_monic(K, red, derivative(K, red))) > 0:
            continue
        if fpoly.is_irreducible(list(red), ell):
            return True
    return None
