"""Reference for the packed Q(t) and Z[t] kernels: the descriptor path.

GenericQt has the arithmetic of RationalFunctionField but is not one, so
Matrix products, det and inverse run the generic descriptor code on it: an
entrywise product with one normalized Q(t) product and sum per term, the
determinant of _det_field and the inverse read off rref of [m | I].  That
was the Q(t) and Z[t] path before the packed kernels; the differential
tests compare the two entry for entry.  The random cases here are shared by
them.
"""

from irredcert.errors import IntegralityError
from irredcert.matrices import Matrix
from irredcert.rings import PolynomialRingZ, RationalFunctionField, \
    RingDescriptor

QT = RationalFunctionField("t")
ZT = PolynomialRingZ("t")


class GenericQt(RingDescriptor):
    """Q(t) with canonical (num, den) pairs, every operation a descriptor
    call into RationalFunctionField."""

    kind = "Q(t)-generic"
    is_field = True

    def zero(self):
        return QT.zero()

    def one(self):
        return QT.one()

    def coerce(self, a):
        return QT.coerce(a)

    def add(self, a, b):
        return QT.add(a, b)

    def neg(self, a):
        return QT.neg(a)

    def mul(self, a, b):
        return QT.mul(a, b)

    def inv(self, a):
        return QT.inv(a)

    def format(self, a):
        return QT.format(a)

    def __eq__(self, other):
        return isinstance(other, GenericQt)

    def __hash__(self):
        return hash("Q(t)-generic")


GQT = GenericQt()


def generic(m):
    """m over Q(t) or Z[t] as a matrix over GenericQt."""
    return Matrix._raw(GQT, m.nrows, m.ncols,
                       m.to_fraction_field().entries)


def over(ring, m):
    """A matrix over GenericQt back over Q(t), or over Z[t] (raising
    IntegralityError unless every entry lies there)."""
    q = Matrix._raw(QT, m.nrows, m.ncols, m.entries)
    return q if ring == QT else q.from_fraction_field(ring)


def reference_det(m):
    d = generic(m).det()
    return d if m.ring == QT else ZT.from_fraction_field(d)


def reference_inverse(m):
    """The inverse over Q(t), or over Z[t] when it lies there, as
    Matrix.inverse returns it."""
    inv = over(QT, generic(m).inverse())
    if m.ring == ZT:
        try:
            return inv.from_fraction_field(ZT)
        except IntegralityError:
            return inv
    return inv


def reference_conjugates(b, gens):
    """B^-1 g B over Z[t] for each g, by generic arithmetic over Q(t);
    IntegralityError at the first that is not integral."""
    bg = generic(b)
    binv = bg.inverse()
    return [over(ZT, binv * generic(g) * bg) for g in gens]


def random_zt(rng, deg, bits):
    """A random Z[t] value of degree at most deg with coefficients in
    [-2^bits, 2^bits], trimmed; rng is a random.Random."""
    top = 1 << bits
    out = [rng.randint(-top, top) for _ in range(deg + 1)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def random_qt(rng, deg, bits, den_deg):
    """A random Q(t) value num / den, den of degree den_deg with a nonzero
    leading coefficient, so its denominator keeps degree up to den_deg."""
    num = random_zt(rng, deg, bits)
    den = list(random_zt(rng, den_deg, bits))
    den += [0] * (den_deg + 1 - len(den))
    den[-1] = den[-1] or 1
    return QT.coerce((num, tuple(den)))


def random_matrix(rng, ring, n, m, deg=2, bits=3, den_deg=1):
    if ring == ZT:
        return Matrix._raw(ZT, n, m, [random_zt(rng, deg, bits)
                                      for _ in range(n * m)])
    return Matrix._raw(QT, n, m, [random_qt(rng, deg, bits, den_deg)
                                  for _ in range(n * m)])


def singular(rng, ring, n, **kw):
    """A random n x n matrix (n >= 2) whose last row is a combination of
    the others over the ring, so its determinant is 0."""
    rows = random_matrix(rng, ring, n, n, **kw).rows()
    last = [ring.zero()] * n
    for c, row in zip(random_matrix(rng, ring, 1, n - 1, **kw).entries, rows):
        last = [ring.add(x, ring.mul(c, a)) for x, a in zip(last, row)]
    rows[-1] = last
    return Matrix._raw(ring, n, n, [a for row in rows for a in row])
