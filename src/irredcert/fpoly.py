"""Kronecker-packed vectors over F_p, and polynomial arithmetic over F_p.

A vector (or coefficient list) over F_p packs into one Python int, one slot
of nb bytes per entry, entry i in bytes nb*i to nb*(i+1) (Kronecker
substitution).  Adding packed ints adds the vectors slot by slot, and
multiplying one by a small int scales it, so a matrix-vector product or a
row operation is a few big-int operations; a polynomial product is one
big-int product.  Slots are not reduced mod p as they accumulate:
slot_bytes picks the slot width from p and the number of products a slot
takes, so that no slot overflows into the next.

A slot is one byte for p = 2 up to 254 products, p = 3 up to 63, p = 5 up
to 15 and p = 7 up to 6, so in the spin and products, whose slots take 2d
products, for F_2 up to d = 127 and F_3 up to d = 31.  A packed vector is
then just its bytes: unpack reduces them all with one bytes.translate
through a 256-entry table, and monic_slots reduces a vector, finds its
first nonzero slot with lstrip and scales it to a leading 1 through a
second table, in C.  Wider slots take the list path: unpack reads them
through a memoryview (2, 4 and 8 bytes) or int.from_bytes and reduces
each entry; for p < 256 monic_slots then pivots and scales the entries
as bytes, as with one-byte slots.  `matrices` and `meataxe` run their
prime-field kernels on pack, unpack and monic_slots.

Polynomials are ascending coefficient lists of ints in [0, p), trimmed (the
zero polynomial is the empty list).  These are the only F_p[x] kernels in
the package: `rings` builds F_{p^k} on them and `polys` runs its PrimeField
branch through them.  `mul` is one packed product; `pow_mod` reduces each
product by Barrett's method, with the inverse power series of the reversed
modulus computed once, so each step is three packed products.
`is_irreducible` is the package's one Rabin test; it checks the moduli of
F_{p^k} and the reductions that certify irreducibility over Q.
"""

import sys

from .errors import SingularError

# memoryview formats of the wider slot widths that unpack without a loop;
# they read native byte order, which must be that of the packing
_FORMATS = {2: "H", 4: "I", 8: "Q"}
_LITTLE_ENDIAN = sys.byteorder == "little"

# per p < 256, the tables that divide a byte by c mod p, for c in [1, p):
# table c maps byte i to i c^-1 mod p, so table 1 reduces mod p
_DIVIDE = {}


def _divide_tables(p):
    tables = _DIVIDE.get(p)
    if tables is None:
        tables = [None] + [bytes(i * pow(c, -1, p) % p for i in range(256))
                           for c in range(1, p)]
        _DIVIDE[p] = tables
    return tables


def slot_bytes(p, terms):
    """Bytes per slot for packed vectors over F_p whose slots hold an entry
    in [0, p) plus at most `terms` products of two such entries: the least
    of 1, 2, 4 and 8 that holds the bound, else a multiple of 8."""
    nb = ((p - 1) * (terms * (p - 1) + 1)).bit_length() + 7 >> 3
    if nb <= 2:
        return max(nb, 1)
    return 4 if nb <= 4 else -(-nb // 8) * 8


def pack(vals, nb, p, n=None):
    """The entries vals, ints in [0, p), packed into slots of nb bytes: one
    int, or with n one int per n consecutive entries."""
    buf = bytearray(len(vals) * nb)
    if p <= 256:
        buf[::nb] = bytes(vals)
    else:
        for k in range(((p - 1).bit_length() + 7) // 8):
            buf[k::nb] = bytes([a >> 8 * k & 255 for a in vals])
    if n is None:
        return int.from_bytes(buf, "little")
    step = n * nb
    return [int.from_bytes(buf[i:i + step], "little")
            for i in range(0, len(buf), step)]


def unpack(xs, n, nb, p):
    """The n slots of each packed int in xs (each >= 0 and fitting in them),
    one list, each reduced mod p."""
    b = b"".join([x.to_bytes(n * nb, "little") for x in xs])
    if nb == 1:
        return list(b.translate(_divide_tables(p)[1]))
    fmt = _FORMATS.get(nb) if _LITTLE_ENDIAN else None
    if fmt is None:
        return [int.from_bytes(b[i:i + nb], "little") % p
                for i in range(0, len(b), nb)]
    return [a % p for a in memoryview(b).cast(fmt).tolist()]


def monic_slots(w, n, nb, p):
    """The packed vector w of n slots (>= 0, fitting in them) reduced mod p
    and scaled to a leading 1: (pivot, packed, entries), the pivot being
    its first nonzero slot, or None when w is zero mod p.

    For p < 256 the entries are bytes, so that finding the pivot and
    scaling are an lstrip and a translate, and with one-byte slots
    reducing is a translate too; for larger p they are a list."""
    if p < 256:
        tables = _divide_tables(p)
        b = (w.to_bytes(n, "little").translate(tables[1]) if nb == 1
             else bytes(unpack([w], n, nb, p)))
        rest = b.lstrip(b"\0")
        if not rest:
            return None
        if rest[0] != 1:
            b = b.translate(tables[rest[0]])
        return n - len(rest), pack(b, nb, p), b
    u = unpack([w], n, nb, p)
    c = next(filter(None, u), 0)
    if not c:
        return None
    idx = u.index(c)
    if c != 1:
        inv = pow(c, -1, p)
        u = [a * inv % p for a in u]
    return idx, pack(u, nb, p), u


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
    """The product, as one product of packed ints."""
    if not a or not b:
        return []
    nb = slot_bytes(p, min(len(a), len(b)))
    return trim(unpack([pack(a, nb, p) * pack(b, nb, p)],
                       len(a) + len(b) - 1, nb, p))


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


def _series_inverse(h, k, p):
    """The first k coefficients of the power series 1/h, h[0] != 0, by
    Newton's iteration g <- g (2 - h g), which doubles the precision."""
    g = [pow(h[0], -1, p)]
    n = 1
    while n < k:
        n = min(2 * n, k)
        t = [-a % p for a in mul(h[:n], g, p)[:n]]
        t[0] = (t[0] + 2) % p
        g = mul(g, t, p)[:n]
    return g


def pow_mod(base, e, mod, p):
    """base^e mod (mod) in F_p[x], e an arbitrary nonnegative int.

    With n = deg mod, a product a of two remainders has degree m + n with
    m < n - 1, and its quotient q by mod satisfies rev(q) = rev(a) / rev(mod)
    mod x^(m+1), rev reversing the coefficients (Barrett).  The inverse of
    rev(mod) is computed once, so each step is three packed products."""
    base = quo_rem(base, mod, p)[1]
    n = len(mod) - 1
    nb = slot_bytes(p, max(n, 1))
    bits = 8 * nb
    f = pack(mod, nb, p)
    inv = pack(_series_inverse(mod[::-1], n - 1, p), nb, p)

    def mulmod(a, b):
        if not a or not b:
            return []
        x = pack(a, nb, p)
        prod = unpack([x * (x if b is a else pack(b, nb, p))],
                      len(a) + len(b) - 1, nb, p)
        m = len(prod) - 1 - n
        if m < 0:
            return trim(prod)
        q = unpack([pack(prod[:n - 1:-1], nb, p) * inv
                    & (1 << bits * (m + 1)) - 1], m + 1, nb, p)
        qf = unpack([pack(q[::-1], nb, p) * f & (1 << bits * n) - 1], n, nb,
                    p)
        return trim([(u - w) % p for u, w in zip(prod, qf)])

    result = [1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
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
