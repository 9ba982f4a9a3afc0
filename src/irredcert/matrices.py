"""Exact matrices over a ring descriptor, and the normal-form algorithms.

A Matrix is an immutable row-major tuple of raw scalar values together with
its RingDescriptor.

Over a PrimeField the entries are ints in [0, p), and products, rref
(hence kernel_basis, inverse and rank), det, char_poly and poly_at_matrix
run on Kronecker-packed vectors (fpoly.pack): one Python int per row or
column, one slot per entry, reduced mod p once, on unpacking or when a
pivot row is made monic (fpoly.monic_slots).  A product is a sum of
packed columns scaled by ints, one column per entry of the other factor,
and a row operation adds a multiple of the packed pivot row.

In characteristic 0 one integer elimination, _bareiss, serves Z, Q, Z[t]
and Q(t).  A matrix over Q is an integer matrix over one denominator
(integer_rows), and one over Q(t) a Z[t] matrix over one denominator in
Z[t] (poly_rows), whose entries are evaluated at t = 2^k, so that their
products, determinant, inverse and integral conjugates are integer linear
algebra too (see the section on Z[t] below).  Entries in canonical form
are built again only for the values that leave these kernels.

Each ring keeps one form per matrix, built on first use by one function
and shared by every later caller, so a generator is packed or scaled
once: packed columns over F_p, integer rows over Q and Z and Z[t] rows
over Q(t) and Z[t].  A caller that eliminates in place copies it.  char_poly
over Q is det(yI - A) in Z[y] for m = A / D, by CRT over its images mod
primes below 2^47 (int_char_poly, Hessenberg on int lists), and
kernel_basis over Z is the basis over Q times one factor, by fraction-free
Gauss-Jordan.

The ring alone selects a path.  Every other ring, apply over every ring,
and the sums and rref over Q and Q(t) and char_poly over Q(t), take the
generic descriptor code, which stays the reference the tests compare the
packed paths against.

The module-level algorithms:

    rref(m)         reduced row echelon form over a field, with pivot columns
    kernel_basis(m) basis of the right null space over a field, and over Z
                    that basis over Q times one common factor
    integer_rows(m) D m as integer rows, for a matrix m over Q or Z and
                    the least common denominator D of its entries
    poly_rows(m)    D m as Z[t] rows, for a matrix m over Q(t) or Z[t] and
                    a common denominator D in Z[t]
    fraction_free_inverse(rows)  d * A^-1 and d = +-det A for an integer
                    matrix A, by fraction-free Gauss-Jordan elimination
                    (_bareiss, Bareiss, Math. Comp. 22, 1968; forward-only
                    it is Matrix.det over Z and Q); Matrix.inverse over Z,
                    Q, Z[t] and Q(t) runs on it
    integral_conjugates(a, gens)  B^-1 g B over Z or Z[t], on integer or
                    Z[t] rows, for the checker
    char_poly(m)    monic characteristic polynomial over a field: over F_p
                    by one spin of packed [vector | polynomial] pairs
                    (_spin_char_poly, Keller-Gehrig), over Q from
                    int_char_poly, elsewhere by Hessenberg reduction plus
                    the standard determinant recurrence (no division by
                    integers, so it is safe in small characteristic,
                    unlike Faddeev-LeVerrier)
    _row_hnf(rows, ncols)  row-style Hermite normal form over Z of integer
                    rows, behind the canonical lattice bases of saturation

The HNF recipe is the classical gcd-driven elimination (see Cohen,
"A Course in Computational Algebraic Number Theory", ch. 2).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, isqrt, lcm
from operator import mul

from .errors import IntegralityError, ShapeError, SingularError
from .fpoly import monic_slots, pack, slot_bytes, trim, unpack
from .polys import descale
from .rings import (QQ, ZZ, PolynomialRingZ, PrimeField,
                    RationalFunctionField, is_prime)


class Matrix:
    """Immutable matrix over a RingDescriptor.  _cols keeps from first use
    the one form its ring computes on: packed_columns over a PrimeField,
    integer_rows over Q and Z, poly_rows over Q(t) and Z[t]."""

    __slots__ = ("ring", "nrows", "ncols", "entries", "_cols")

    def __init__(self, ring, rows):
        data = []
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            for a in row:
                data.append(ring.coerce(a))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", tuple(data))
        object.__setattr__(self, "_cols", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, ring, nrows, ncols, entries):
        """Internal constructor skipping coercion; entries must be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_cols", None)
        return self

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero(), ring.one()
        return cls._raw(ring, n, n,
                        [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        z = ring.zero()
        return cls._raw(ring, nrows, ncols, [z] * (nrows * ncols))

    def entry(self, i, j):
        return self.entries[i * self.ncols + j]

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def column(self, j):
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

    def rows(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def columns(self):
        return [list(self.column(j)) for j in range(self.ncols)]

    def transpose(self):
        e, nc = self.entries, self.ncols
        return Matrix._raw(self.ring, nc, self.nrows,
                           [a for j in range(nc) for a in e[j::nc]])

    def map_entries(self, fn, ring=None):
        ring = ring if ring is not None else self.ring
        return Matrix._raw(ring, self.nrows, self.ncols,
                           [fn(a) for a in self.entries])

    def change_ring(self, ring):
        return Matrix(ring, self.rows())

    def to_fraction_field(self):
        K = self.ring.fraction_field()
        if K == self.ring:
            return self
        return self.map_entries(self.ring.to_fraction_field, K)

    def from_fraction_field(self, ring):
        """Convert entries back into ring; IntegralityError if any is not."""
        return self.map_entries(ring.from_fraction_field, ring)

    def __add__(self, other):
        self._samesize(other)
        R = self.ring
        if isinstance(R, PrimeField):
            p = R.p
            return Matrix._raw(R, self.nrows, self.ncols,
                               [(a + b) % p for a, b in
                                zip(self.entries, other.entries)])
        return Matrix._raw(R, self.nrows, self.ncols,
                           [R.add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._samesize(other)
        R = self.ring
        return Matrix._raw(R, self.nrows, self.ncols,
                           [R.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        R = self.ring
        return Matrix._raw(R, self.nrows, self.ncols,
                           [R.neg(a) for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows or self.ring != other.ring:
            raise ShapeError("cannot multiply %dx%d by %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        R = self.ring
        n, m, k = self.nrows, self.ncols, other.ncols
        a, b = self.entries, other.entries
        if isinstance(R, (PolynomialRingZ, RationalFunctionField)):
            if not (n and m and k):
                return Matrix.zeros(R, n, k)
            (x, dx), (y, dy) = poly_rows(self), poly_rows(other)
            return from_poly_rows(R, zt_product(x, y), _pmul(dx, dy))
        if isinstance(R, PrimeField):
            # column j of the product is the packed columns of self scaled
            # by the entries of column j of other
            nb, cols = packed_columns(self)
            out = unpack([sum(map(mul, b[j::k], cols)) for j in range(k)], n,
                         nb, R.p)
            return Matrix._raw(R, n, k, [x for i in range(n)
                                         for x in out[i::n]])
        out = []
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            for j in range(k):
                acc = R.zero()
                for l in range(m):
                    x = arow[l]
                    if not R.is_zero(x):
                        acc = R.add(acc, R.mul(x, b[l * k + j]))
                out.append(acc)
        return Matrix._raw(R, n, k, out)

    def __pow__(self, e):
        if self.nrows != self.ncols:
            raise ShapeError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = Matrix.identity(self.ring, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c):
        R = self.ring
        c = R.coerce(c)
        if isinstance(R, PrimeField):
            p = R.p
            return Matrix._raw(R, self.nrows, self.ncols,
                               [c * a % p for a in self.entries])
        return self.map_entries(lambda a: R.mul(c, a))

    def apply(self, vec):
        """Matrix times column vector (a sequence of scalars)."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length mismatch")
        R = self.ring
        out = []
        for i in range(self.nrows):
            acc = R.zero()
            row = self.row(i)
            for a, v in zip(row, vec):
                if not R.is_zero(a):
                    acc = R.add(acc, R.mul(a, v))
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))

    def is_identity(self):
        R = self.ring
        if self.nrows != self.ncols:
            return False
        return all(R.is_one(a) if i == j else R.is_zero(a)
                   for i in range(self.nrows)
                   for j, a in enumerate(self.row(i)))

    def is_zero(self):
        R = self.ring
        return all(R.is_zero(a) for a in self.entries)

    def trace(self):
        if self.nrows != self.ncols:
            raise ShapeError("trace of a non-square matrix")
        R = self.ring
        acc = R.zero()
        for i in range(self.nrows):
            acc = R.add(acc, self.entry(i, i))
        return acc

    def det(self):
        """Exact determinant, as an element of the matrix's own ring."""
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        R, n = self.ring, self.nrows
        if R == QQ or R == ZZ:
            a, den = integer_rows(self)
            d, sign = _bareiss([list(r) for r in a], n, False)
            return sign * d if R == ZZ else Fraction(sign * d, den ** n)
        if isinstance(R, (PolynomialRingZ, RationalFunctionField)):
            a, den = poly_rows(self)
            k = _slot(_minor_bound(a))
            d, sign = _bareiss(_packed(a, k), n, False)
            d = _digits(sign * d, k)
            if isinstance(R, PolynomialRingZ):
                return d
            k = _slot(_norm(den) ** n)
            return R.quotient(d, _digits(_at(den, k) ** n, k))
        return _det_field(self)

    def inverse(self):
        """Inverse over the fraction field, converted back into the base
        ring when all entries happen to lie there.  Over Z and Q, m = A / D
        for an integer matrix A, and m^-1 = D A^-1 comes from
        fraction_free_inverse with one Fraction per entry; over Z[t] and
        Q(t) the same runs on the Z[t] entries of A at t = 2^k, with one
        canonical Q(t) value per entry.  Any other field reads it off the
        reduced echelon form of [m | I]."""
        n = self.nrows
        if n != self.ncols:
            raise ShapeError("inverse of a non-square matrix")
        R = self.ring
        if R == QQ or R == ZZ:
            a, den = integer_rows(self)
            out = fraction_free_inverse(a)
            if out is None:
                raise SingularError("matrix is singular")
            rows, d = out
            inv = Matrix._raw(QQ, n, n, [Fraction(den * x, d)
                                         for row in rows for x in row])
        elif isinstance(R, (PolynomialRingZ, RationalFunctionField)):
            a, den = poly_rows(self)
            k = _slot(_minor_bound(a))
            out = fraction_free_inverse(_packed(a, k))
            if out is None:
                raise SingularError("matrix is singular")
            rows, d = out
            K = R.fraction_field()
            d = _digits(d, k)
            inv = Matrix._raw(K, n, n, [K.quotient(_pmul(den, _digits(x, k)),
                                                   d)
                                        for row in rows for x in row])
        else:
            K, e = R, self.entries
            z, o = K.zero(), K.one()
            aug = []
            for i in range(n):
                aug.extend(e[i * n:(i + 1) * n])
                aug.extend(o if i == j else z for j in range(n))
            red, pivots = rref(Matrix._raw(K, n, 2 * n, aug))
            if pivots[:n] != tuple(range(n)):
                raise SingularError("matrix is singular")
            e = red.entries
            inv = Matrix._raw(K, n, n, [a for i in range(n) for a in
                                        e[(2 * i + 1) * n:(2 * i + 2) * n]])
        if self.ring.is_field:
            return inv
        try:
            return inv.from_fraction_field(self.ring)
        except IntegralityError:
            return inv

    def __repr__(self):
        R = self.ring
        rows = ["[" + ", ".join(R.format(a) for a in self.row(i)) + "]"
                for i in range(self.nrows)]
        return "Matrix(%r, [%s])" % (R, ", ".join(rows))

    def _samesize(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) \
                or self.ring != other.ring:
            raise ShapeError("size or ring mismatch")


def kronecker(a, b):
    """Kronecker product a (x) b over a common ring."""
    if a.ring != b.ring:
        raise ShapeError("ring mismatch")
    R = a.ring
    out = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            for j in range(a.ncols):
                x = a.entry(i, j)
                for l in range(b.ncols):
                    out.append(R.mul(x, b.entry(k, l)))
    return Matrix._raw(R, a.nrows * b.nrows, a.ncols * b.ncols, out)


def restrict_scalars(m):
    """A d x e matrix m over F_q = F_p(alpha), q = p^k, as the dk x ek
    matrix over F_p in which each entry c is the k x k block of
    multiplication by c on the basis 1, alpha, ..., alpha^(k-1): an
    injective ring map, Res(xy) = Res(x) Res(y) and Res(x + y) = Res(x) +
    Res(y)."""
    K, k = m.ring, m.ring.k
    powers = [K.coerce((0,) * t + (1,)) for t in range(k)]
    blocks = {}
    for c in set(m.entries):
        cols = [K.mul(c, a) + (0,) * k for a in powers]
        blocks[c] = [[col[s] for col in cols] for s in range(k)]
    return Matrix._raw(PrimeField(K.p), m.nrows * k, m.ncols * k,
                       [x for i in range(m.nrows) for s in range(k)
                        for c in m.row(i) for x in blocks[c][s]])


def poly_at_matrix(K, coeffs, m):
    """Evaluate a polynomial (ascending coefficient tuple over K) at a square
    matrix over K, by Horner: deg - 1 products for degree >= 1, each with m
    on the left (it commutes with every polynomial in m), so over F_p every
    product runs on the packed columns of m."""
    n = m.nrows
    ident = Matrix.identity(K, n)
    if len(coeffs) < 2:
        return ident.scale(coeffs[0]) if coeffs else Matrix.zeros(K, n, n)
    acc = m.scale(coeffs[-1]) + ident.scale(coeffs[-2])
    for c in reversed(coeffs[:-2]):
        acc = m * acc + ident.scale(c)
    return acc


# ---------------------------------------------------------------------------
# packed prime-field kernels


def packed_columns(m):
    """(nb, columns) for a matrix over F_p: its columns packed (fpoly.pack)
    into slots of nb bytes, computed on first use and kept with m.  The
    slots hold 2 max(nrows, ncols) products, enough for a product (ncols)
    and, on top, the reduction against at most nrows rows of a spin or of
    char_poly's pairs."""
    pc = m._cols
    if pc is None:
        p, nr, nc, e = m.ring.p, m.nrows, m.ncols, m.entries
        nb = slot_bytes(p, 2 * max(nr, nc))
        if nb == 1:
            # one byte per entry: column j is every nc-th byte from byte j
            b = bytes(e)
            cols = [int.from_bytes(b[j::nc], "little") for j in range(nc)]
        else:
            cols = pack([a for j in range(nc) for a in e[j::nc]], nb, p,
                        nr) if nr else [0] * nc
        pc = (nb, cols)
        object.__setattr__(m, "_cols", pc)
    return pc


def _packed_rows(m, nb):
    if not m.ncols:
        return [0] * m.nrows
    return pack(m.entries, nb, m.ring.p, m.ncols)


def _reduce_fp(w, rows, shifts, p, nb):
    """A packed vector w minus the multiples of the packed semi-echelon
    rows (leading entry 1) that clear it at each pivot in turn, as
    w + (p - c) r, with c read from the row's pivot slot, given by its bit
    shift 8 nb pivot; the slots are not reduced."""
    mask = (1 << 8 * nb) - 1
    for s, r in zip(shifts, rows):
        c = (w >> s & mask) % p
        if c:
            w += (p - c) * r
    return w


def eliminate_fp(rows, ncols, nb, p, jordan=True):
    """Row-reduce packed rows over F_p (ncols slots of nb bytes, entries in
    [0, p)) in place.  With jordan, every other row is cleared at each pivot
    (reduced row echelon form); without, only the rows below (echelon
    form).  Returns (pivot columns, det), det being that of the square
    matrix when ncols == len(rows).

    Each pivot row is reduced mod p and scaled to a leading 1 once
    (fpoly.monic_slots); a row operation w += (p - c) r then adds at most
    (p - 1)^2 to each slot, and a row meets at most one per pivot, so
    slots of slot_bytes(p, min(len(rows), ncols)) bytes suffice."""
    shift = 8 * nb
    mask = (1 << shift) - 1
    nr = len(rows)
    pivots = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        sh = shift * c
        for i in range(r, nr):
            a = (rows[i] >> sh & mask) % p
            if a:
                break
        else:
            det = 0
            continue
        prow = rows[i]
        if i != r:
            rows[i] = rows[r]
            det = -det
        det = det * a % p
        if jordan or r + 1 < nr:
            # every slot before c is 0 mod p, so c is the pivot monic_slots
            # finds
            prow = monic_slots(prow, ncols, nb, p)[1]
        rows[r] = prow
        for i in range(0 if jordan else r + 1, nr):
            f = (rows[i] >> sh & mask) % p
            if f and i != r:
                rows[i] += (p - f) * prow
        pivots.append(c)
    return pivots, det


# ---------------------------------------------------------------------------
# field algorithms


def _from_rows(K, rows, ncols):
    return Matrix._raw(K, len(rows), ncols, [a for row in rows for a in row])


def rref(m):
    """Reduced row echelon form over a field: returns (R, pivot_columns)."""
    K = m.ring
    if not K.is_field:
        raise IntegralityError("rref requires field entries")
    if isinstance(K, PrimeField):
        p, nc = K.p, m.ncols
        nb = slot_bytes(p, min(m.nrows, nc))
        rows = _packed_rows(m, nb)
        pivots, _ = eliminate_fp(rows, nc, nb, p)
        return Matrix._raw(K, m.nrows, nc, unpack(rows, nc, nb, p)), \
            tuple(pivots)
    rows = m.rows()
    nr, nc = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if not K.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(inv, a) for a in rows[r]]
        for i in range(nr):
            if i != r and not K.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [K.sub(a, K.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return _from_rows(K, rows, nc) if nr else m, tuple(pivots)


def rank(m):
    K = m.ring
    if isinstance(K, PrimeField):
        # the echelon form suffices: no row above a pivot is cleared
        p, nc = K.p, m.ncols
        nb = slot_bytes(p, min(m.nrows, nc))
        return len(eliminate_fp(_packed_rows(m, nb), nc, nb, p,
                                jordan=False)[0])
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of {v : m v = 0} over a field, one vector per free column,
    in column order (a canonical echelon-style basis).  Over Z, that basis
    over Q times one common factor d, in integers: fraction-free
    Gauss-Jordan (_bareiss) leaves d times the reduced echelon form."""
    K = m.ring
    if K == ZZ:
        rows, pivots = m.rows(), []
        one = _bareiss(rows, m.ncols, True, pivots)[0]
        red = _from_rows(ZZ, rows, m.ncols)
    else:
        red, pivots = rref(m)
        one = K.one()
    pivset = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivset:
            continue
        v = [K.zero()] * m.ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(red.entry(r, free))
        basis.append(tuple(v))
    return basis


def _det_field(m):
    K = m.ring
    if isinstance(K, PrimeField):
        # the kept columns are the rows of the transpose, of the same det
        nb, cols = packed_columns(m)
        return eliminate_fp(list(cols), m.nrows, nb, K.p, jordan=False)[1]
    rows = m.rows()
    n = m.nrows
    det = K.one()
    for c in range(n):
        piv = None
        for i in range(c, n):
            if not K.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            return K.zero()
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = K.neg(det)
        det = K.mul(det, rows[c][c])
        inv = K.inv(rows[c][c])
        for i in range(c + 1, n):
            if not K.is_zero(rows[i][c]):
                f = K.mul(rows[i][c], inv)
                rows[i] = [K.sub(a, K.mul(f, b)) for a, b in zip(rows[i], rows[c])]
    return det


def char_poly(m):
    """Monic characteristic polynomial det(xI - m) over a field, as an
    ascending coefficient tuple: over F_p by _spin_char_poly, over Q from
    det(yI - A) in Z[y] for m = A / D (int_char_poly) as D^-n F(Dx), and
    elsewhere by Hessenberg reduction, which keeps every division a
    genuine field division, so that it works in any characteristic."""
    K = m.ring
    if not K.is_field:
        raise IntegralityError("char_poly requires field entries; "
                               "map to the fraction field first")
    if m.nrows != m.ncols:
        raise ShapeError("char_poly of a non-square matrix")
    if isinstance(K, PrimeField):
        return _spin_char_poly(m)
    if K == QQ:
        rows, den = integer_rows(m)
        return descale(int_char_poly(rows), den)
    n = m.nrows
    h = m.rows()
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if not K.is_zero(h[i][j]):
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for i in range(n):
                h[i][j + 1], h[i][piv] = h[i][piv], h[i][j + 1]
        inv = K.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if K.is_zero(h[i][j]):
                continue
            f = K.mul(h[i][j], inv)
            h[i] = [K.sub(a, K.mul(f, b)) for a, b in zip(h[i], h[j + 1])]
            for r in range(n):
                h[r][j + 1] = K.add(h[r][j + 1], K.mul(f, h[r][i]))
    # Leading-minor recurrence for Hessenberg h (checked by hand at 2x2, 3x3):
    # p_{k+1} = x p_k - sum_{i=0}^{k} h[i][k] (prod_{j=i+1}^{k} h[j][j-1]) p_i
    polys = [(K.one(),)]
    for k in range(n):
        cur, run = [K.zero()] + list(polys[k]), K.one()
        for i in range(k, -1, -1):
            c = K.mul(h[i][k], run)
            cur[:i + 1] = [K.sub(a, K.mul(c, b))
                           for a, b in zip(cur, polys[i])]
            run = K.mul(run, h[i][i - 1])
            if K.is_zero(run):
                break
        polys.append(tuple(cur))
    return polys[n]


def _spin_char_poly(m):
    """char_poly over F_p by one spin of packed [vector | polynomial] pairs
    (Keller-Gehrig, Theor. Comput. Sci. 36, 1985).

    A pair holds a vector in its low d slots and a polynomial in the d + 1
    slots above, coefficient i in slot d + i.  The spin runs in blocks,
    each pair of a block being a(m) e_t modulo the span U of the earlier
    blocks beside a P, for one polynomial a and the product P of the
    earlier blocks' characteristic polynomials.  A block starts at the
    first unit vector e_t whose t is no pivot of the kept pairs: e_t is 0
    at every pivot, so the kept pairs do not reduce it, U misses it, and
    [e_t | P] is kept as it is.  The next pair is m times the last kept
    vector beside x times its polynomial, reduced against the kept pairs
    (_reduce_fp) and made monic (fpoly.monic_slots), as in meataxe._grow.
    While its vector part is nonzero it is kept.  Once that reduces to 0,
    b(m) e_t lies in U, and b, of degree the block's length, is the
    minimal polynomial of e_t modulo U: the characteristic polynomial of m
    on the block.  The polynomial slots then hold b P, the product for the
    next block, and the block's pairs drop their polynomials, so that
    they reduce vectors only.  The pairs are scaled as they are made
    monic, so the last product is made monic once, at the end.

    The vector slots take d products from m w and at most d from the
    reduction, and the polynomial slots an entry and at most d products,
    within the 2d of packed_columns."""
    p, d = m.ring.p, m.nrows
    nb, cols = packed_columns(m)
    sh = 8 * nb
    n, low, top = 2 * d + 1, (1 << sh * d) - 1, sh * (d + 1)
    rows, pivots = [], []
    taken = set()
    poly = 1 << sh * d                  # [0 | P], P = 1 for the first block
    for t in range(d):
        if t in taken:
            continue
        start = len(rows)
        rows.append((1 << sh * t) + poly)
        pivots.append(sh * t)
        taken.add(t)
        # m e_t is column t of m
        w = cols[t] + (poly << sh)
        while True:
            # the polynomial part is never 0, so there is a pivot
            idx, w, u = monic_slots(_reduce_fp(w, rows, pivots, p, nb), n,
                                    nb, p)
            if idx >= d:
                break
            rows.append(w)
            pivots.append(sh * idx)
            taken.add(idx)
            # map stops at the last column, so u's polynomial is not read
            w = sum(map(mul, u, cols)) + (w >> sh * d << top)
        poly = w
        rows[start:] = [r & low for r in rows[start:]]
    f = u[d:] if d else [1]
    inv = pow(f[-1], -1, p)
    return tuple(f) if inv == 1 else tuple([c * inv % p for c in f])


@lru_cache(maxsize=None)
def _crt_prime(i):
    """The i-th prime below 2^47, counting down from 0, certified by
    is_prime once, when first needed: none is found at import."""
    p = _crt_prime(i - 1) - 2 if i else (1 << 47) - 1
    while not is_prime(p):
        p -= 2
    return p


def int_char_poly(rows):
    """det(yI - A) in Z[y], ascending, for a square integer matrix A: its
    images mod primes below 2^47 (_char_poly_mod), combined by CRT until
    their product M exceeds 2B.  The coefficient of y^(n-k) is a sum of
    C(n, k) principal minors; by Hadamard's inequality each is at most the
    product of its k rows' 2-norms, so at most P_k, the product of the k
    largest row 2-norms of A.  So B = max C(n, k) P_k bounds the
    coefficients, and they are the residues in (-M/2, M/2] (Dumas, Pernet
    and Wan, ISSAC 2005)."""
    n = len(rows)
    norms = sorted((isqrt(sum(a * a for a in row)) + 1 for row in rows),
                   reverse=True)
    bound = top = 1
    for k, r in enumerate(norms, 1):
        top *= r
        bound = max(bound, comb(n, k) * top)
    bound *= 2
    primes, m = map(_crt_prime, count()), 1
    while m <= bound:
        p = next(primes)
        fp, t = _char_poly_mod(rows, p), pow(m, -1, p)
        f = fp if m == 1 else [a + m * ((b - a) * t % p)
                               for a, b in zip(f, fp)]
        m *= p
    return [a - m if 2 * a > m else a for a in f]


def _char_poly_mod(rows, p):
    """det(yI - A) mod p for integer rows A, by char_poly's Hessenberg
    reduction and recurrence on int lists; each step makes its row
    operations before the column operations that undo them."""
    n = len(rows)
    h = [[a % p for a in row] for row in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        h[j + 1], h[piv] = h[piv], h[j + 1]
        for row in h:
            row[j + 1], row[piv] = row[piv], row[j + 1]
        top, inv = h[j + 1][j:], pow(h[j + 1][j], -1, p)
        fs = [h[i][j] * inv % p for i in range(j + 2, n)]
        for i, f in enumerate(fs, j + 2):
            if f:
                h[i][j:] = [(a - f * b) % p for a, b in zip(h[i][j:], top)]
        for row in h:
            row[j + 1] = (row[j + 1] + sum(map(mul, fs, row[j + 2:]))) % p
    polys = [[1]]
    for k in range(n):
        cur, run = [0] + polys[k], 1
        for i in range(k, -1, -1):
            c = h[i][k] * run % p
            cur[:i + 1] = [a - c * b for a, b in zip(cur, polys[i])]
            run = run * h[i][i - 1] % p
            if not run:
                break
        polys.append([c % p for c in cur])
    return polys[n]


# ---------------------------------------------------------------------------
# matrices over Q on integer rows, and fraction-free elimination over Z


def denominator_lcm(values):
    """Least positive common denominator of some Fractions."""
    return lcm(*(a.denominator for a in values))


def scaled_rows(rows, den):
    """den * rows as plain ints, for Fraction rows whose denominators all
    divide den."""
    return [[a.numerator * (den // a.denominator) for a in row] for row in rows]


def integer_rows(m):
    """(rows of D m as tuples of ints, D) for a matrix m over Q or Z and
    the least common denominator D of its entries, scaled in one pass over
    the flat entries on first use and kept with m in _cols.  Every caller
    shares the rows, so one that eliminates in place copies them."""
    kept = m._cols
    if kept is None:
        e, n = m.entries, m.ncols
        den = denominator_lcm(e)
        flat = tuple(scaled_rows([e], den)[0])
        kept = tuple(flat[i * n:(i + 1) * n] for i in range(m.nrows)), den
        object.__setattr__(m, "_cols", kept)
    return kept


def int_product(a, b):
    """The product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, r, col)) for col in cols] for r in a]


def _constant_q_matrix(m):
    """If every entry of a Q(t) matrix is constant, the matrix over Q; else None."""
    K = m.ring
    if K == QQ:
        return m
    if not isinstance(K, RationalFunctionField):
        return None
    out = []
    for a in m.entries:
        if not K.is_constant(a):
            return None
        out.append(K.as_constant(a))
    return Matrix._raw(QQ, m.nrows, m.ncols, out)


def _bareiss(a, n, jordan, pivots=None):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) in place
    on the integer rows a, pivoting in the first n columns.  With jordan,
    every other row is updated at each pivot (Gauss-Jordan); without, only
    the rows below.  Returns (d, sign): d is the last pivot, 0 when the
    first n columns are singular, and sign d is their determinant for n
    rows.  Every entry met is a minor of a, so each division is exact.

    Given a list pivots, a column with no pivot is passed over, pivots
    receives the pivot columns and d is the last pivot (1 if none); rows
    are then updated from the first column passed over, so with jordan
    they end as d times the reduced echelon form from that column on."""
    prev, sign, r, lo = 1, 1, 0, None
    for k in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][k]), None)
        if piv is None:
            if pivots is None:
                return 0, sign
            lo = k if lo is None else lo
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        s = k + 1 if lo is None else lo
        p, tail = prow[k], prow[s:]
        for i in range(0 if jordan else r + 1, len(a)):
            if i != r:
                row = a[i]
                f = row[k]
                row[s:] = [(p * x - f * y) // prev
                           for x, y in zip(row[s:], tail)]
        prev = p
        r += 1
        if pivots is not None:
            pivots.append(k)
    return prev, sign


def fraction_free_inverse(rows):
    """(R, d) with A R = d I for a square integer matrix A given as rows,
    or None when A is singular.  d = +-det A is the last pivot of _bareiss
    with Gauss-Jordan on [A | I], so A^-1 = R / d."""
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    d = _bareiss(a, n, True)[0]
    return ([r[n:] for r in a], d) if d else None


def integral_conjugates(a, gens):
    """The matrices X = B^-1 g B over Z or Z[t], one per matrix g in gens
    and in their order, for the invertible basis B = A / D given by the
    rows a of A (D cancels): integer rows when gens are over Q, Z[t] rows
    when they are over Q(t).  X = R G A / (c e) (conjugate_numerators),
    and the exact division by c e decides integrality, on integers or on
    Z[t] values.

    Raises SingularError at once when A is singular.  The conjugates are
    then yielded one by one, and IntegralityError is raised in place of
    the first that is not integral."""
    conj = conjugate_numerators(a, gens)
    if gens and gens[0].ring != QQ:
        R = PolynomialRingZ(gens[0].ring.var)
        return (Matrix._raw(R, len(x), len(x), [_divexact(v, q) for row in x
                                                for v in row])
                for x, q in conj)
    return (_exact_quotient(x, q) for x, q in conj)


def conjugate_numerators(a, gens):
    """(X, q) per matrix g in gens, in their order, with B^-1 g B = X / q
    for the invertible basis B = A / D given by the rows a of A (D
    cancels), over Z for gens over Q and over Z[t] for gens over Q(t).
    With A R = c I from fraction_free_inverse and g = G / e, X = R G A and
    q = c e: two products.  Over Z[t] both run on the entries at t = 2^k,
    with k from the bounds of _minor_bound and _product_bound on R and
    G A, and X is unpacked.  Raises SingularError at once when A is
    singular; the pairs are then yielded one by one."""
    if gens and gens[0].ring != QQ:
        forms = [poly_rows(g) for g in gens]
        k = _slot(_minor_bound(a) * max([1] + [len(a) * _product_bound(
            rows, a) for rows, _ in forms]))
        a = _packed(a, k)
        forms = [(_packed(rows, k), e) for rows, e in forms]
    else:
        forms, k = map(integer_rows, gens), None
    out = fraction_free_inverse(a)
    if out is None:
        raise SingularError("the basis is singular")
    r, c = out
    if k is None:
        return ((int_product(r, int_product(rows, a)), c * e)
                for rows, e in forms)
    c = _digits(c, k)
    return (([[_digits(v, k) for v in row]
              for row in int_product(r, int_product(rows, a))], _pmul(c, e))
            for rows, e in forms)


def _exact_quotient(x, q):
    """The square matrix over Z with integer rows x / q; IntegralityError
    unless exact."""
    if any(v % q for row in x for v in row):
        raise IntegralityError("a conjugate is not integral in the basis")
    return Matrix._raw(ZZ, len(x), len(x), [v // q for row in x for v in row])


# ---------------------------------------------------------------------------
# matrices over Z[t] and Q(t) on packed integers
#
# A matrix over Q(t) is held as one denominator D in Z[t] over a matrix A
# with Z[t] entries (poly_rows), integer coefficient tuples; over Z[t],
# D = 1.  Evaluation at t = 2^k is a ring homomorphism Z[t] -> Z (Kronecker
# substitution; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4),
# so products, _bareiss and fraction_free_inverse run unchanged on the
# entries at 2^k: a zero test is exact, and so is each of Bareiss's exact
# divisions (they hold in any integral domain).  A value whose
# coefficients are all below 2^(k-1) in absolute value is read back from
# its balanced base-2^k digits (_digits), so k comes from a bound on every
# value unpacked or tested for zero, plus a sign bit (_slot).  Divisibility
# is never read off packed ints (t / 2 is an integer at t = 2^k): it is
# decided on the unpacked Z[t] values (_divexact).


def poly_rows(m):
    """(rows of D m as tuples of Z[t] values, D) for a matrix m over Q(t)
    or Z[t] and a common denominator D in Z[t] of its entries
    (RationalFunctionField.clear_denominators; D = 1 over Z[t]): the Q(t)
    analogue of integer_rows, kept with m in _cols as it is."""
    kept = m._cols
    if kept is None:
        R, e, n = m.ring, m.entries, m.ncols
        den = (1,)
        if isinstance(R, RationalFunctionField):
            e, den = R.clear_denominators(e)
        kept = tuple(tuple(e[i * n:(i + 1) * n])
                     for i in range(m.nrows)), den
        object.__setattr__(m, "_cols", kept)
    return kept


def from_poly_rows(R, rows, den):
    """The matrix (Z[t] rows) / den over R = Z[t] (den = 1) or Q(t), with
    canonical entries."""
    if isinstance(R, PolynomialRingZ):
        e = [v for row in rows for v in row]
    else:
        e = [R.quotient(v, den) for row in rows for v in row]
    return Matrix._raw(R, len(rows), len(rows[0]) if rows else 0, e)


def zt_product(a, b):
    """The product of two matrices over Z[t] given as nonempty rows, as one
    integer product at t = 2^k."""
    k = _slot(_product_bound(a, b))
    return [[_digits(v, k) for v in row]
            for row in int_product(_packed(a, k), _packed(b, k))]


def _norm(f):
    return sum(map(abs, f))


def _minor_bound(rows):
    """A bound on the coefficient 1-norm of every minor of [A | I] for the
    Z[t] rows of A, so of every entry _bareiss meets on it: the product
    over the rows of 1 plus the row's sum of entry 1-norms (a minor's
    expansion takes one entry from each of its rows)."""
    bound = 1
    for row in rows:
        bound *= 1 + sum(map(_norm, row))
    return bound


def _product_bound(a, b):
    """A bound on the coefficient 1-norm of every entry of the product of
    the Z[t] rows a and b: ||sum a b|| <= sum ||a|| ||b||, at most the
    largest row sum of 1-norms in a times the largest 1-norm in b."""
    return max((sum(map(_norm, row)) for row in a), default=0) * \
        max((_norm(v) for row in b for v in row), default=0)


def _slot(bound):
    """Bits per slot for Z[t] values whose coefficients are at most bound
    in absolute value: those of bound, and a sign bit."""
    return bound.bit_length() + 1


def _at(f, k):
    """The Z[t] value f at t = 2^k."""
    v = 0
    for c in reversed(f):
        v = (v << k) + c
    return v


def _packed(rows, k):
    """The Z[t] rows at t = 2^k."""
    return [[_at(f, k) for f in row] for row in rows]


def _digits(v, k):
    """The Z[t] value with coefficients below 2^(k-1) in absolute value
    that takes the value v at t = 2^k: the balanced base-2^k digits of v,
    ascending and trimmed."""
    half, mask = 1 << k - 1, (1 << k) - 1
    out = []
    for _ in range(abs(v).bit_length() // k + 2):
        c = v & mask
        if c >= half:
            c -= 1 << k
        out.append(c)
        v = (v - c) >> k
    return tuple(trim(out))


def _pmul(f, g):
    """The product of two Z[t] values, as one integer product."""
    if not f or not g:
        return ()
    k = _slot(_norm(f) * _norm(g))
    return _digits(_at(f, k) * _at(g, k), k)


def _divexact(f, g):
    """f / g for Z[t] values f and g != 0 by long division on the
    coefficients; IntegralityError unless g divides f in Z[t]."""
    r = list(f)
    n, lead = len(g), g[-1]
    q = [0] * max(0, len(r) - n + 1)
    for i in range(len(r) - n, -1, -1):
        c, rem = divmod(r[i + n - 1], lead)
        if rem:
            raise IntegralityError("a conjugate is not integral in the basis")
        if c:
            q[i] = c
            for j, y in enumerate(g):
                r[i + j] -= c * y
    if any(r):
        raise IntegralityError("a conjugate is not integral in the basis")
    return tuple(trim(q))


# ---------------------------------------------------------------------------
# integer normal forms


def _row_hnf(rows, ncols):
    """Row-style HNF of the first ncols columns of an integer matrix given
    as lists; returns (H, rank) with pivots positive and entries above each
    pivot reduced into [0, pivot).  The row operations act on whole rows,
    so columns past ncols ride along: with an identity block there, they
    record the unimodular U with U * A = H."""
    m = len(rows)
    a = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                piv = None
                break
            if len(nz) == 1:
                piv = nz[0]
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = a[i][c] // a[i0][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return a, r
