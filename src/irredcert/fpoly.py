"""Polynomial arithmetic over F_p on plain int lists.

Coefficients are ascending ints in [0, p), trimmed (the zero polynomial is
the empty list).  These are the only F_p[x] kernels in the package:
`rings` builds F_{p^k} on them and `polys` runs its PrimeField branch
through them.  `is_irreducible` is the package's one Rabin test; it checks
the moduli of F_{p^k} and the reductions that certify irreducibility over Q.
"""

from .errors import SingularError


def trim(c):
    """Drop trailing zeros in place; returns c."""
    while c and c[-1] == 0:
        c.pop()
    return c


def add(a, b, p):
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def sub(a, b, p):
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return trim(out)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i:i + nb] = [s + x * y for s, y in zip(out[i:i + nb], b)]
    return trim([s % p for s in out])


def quo_rem(a, b, p):
    """Quotient and remainder of a by b, whose leading coefficient must be
    nonzero mod p."""
    if not b or not b[-1] % p:
        raise SingularError("polynomial division by zero in F_%d[x]" % (p,))
    r = list(a)
    nb = len(b)
    q = [0] * max(0, len(r) - nb + 1)
    inv = pow(b[-1], -1, p)
    for k in range(len(r) - nb, -1, -1):
        f = r[k + nb - 1] * inv % p
        if f:
            q[k] = f
            r[k:k + nb] = [(x - f * y) % p for x, y in zip(r[k:k + nb], b)]
    return trim(q), trim(r)


def gcd_monic(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, quo_rem(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def xgcd(a, b, p):
    """Extended gcd in F_p[x]: (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = quo_rem(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, p), p)
        v0, v1 = v1, sub(v0, mul(q, v1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [x * inv % p for x in r0]
        u0 = [x * inv % p for x in u0]
        v0 = [x * inv % p for x in v0]
    return r0, u0, v0


def pow_mod(base, e, mod, p):
    """base^e mod (mod) in F_p[x], e an arbitrary nonnegative int."""
    result = [1]
    base = quo_rem(base, mod, p)[1]
    while e:
        if e & 1:
            result = quo_rem(mul(result, base, p), mod, p)[1]
        base = quo_rem(mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, p):
    """Rabin's test: monic f of degree k >= 2 is irreducible over F_p iff
    x^(p^k) = x (mod f) and gcd(x^(p^(k/l)) - x, f) = 1 for primes l | k."""
    k = len(f) - 1
    x = [0, 1]
    for ell in _prime_factors(k):
        h = pow_mod(x, p ** (k // ell), f, p)
        if len(gcd_monic(sub(h, x, p), f, p)) > 1:
            return False
    return sub(pow_mod(x, p ** k, f, p), x, p) == []
