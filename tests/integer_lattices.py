"""Integer lattice arithmetic that only the tests use.

The package holds a stable lattice only as its basis matrix and its
integral model: saturation keeps the canonical pair (H, D) of its Z-lattice
chain and returns the basis H / D.  Lattice equality and containment, the
standard lattice, coordinates, the HNF transform, integer kernel, ideal
product, lattice intersection, sublattice image, lattice of a column span,
index and vector membership live here.  They check the lattice side of the
criterion (acceptance criteria 4-6, tests/test_lattices.py) and the HNF
itself (tests/test_matrices.py).  Lattice canonicalizes through the
package's own lattices._canonical_pair and lattices._pair_basis, and hnf
runs its row HNF (matrices._row_hnf) with an identity block alongside,
which records the unimodular transform.
"""

import math
from fractions import Fraction
from operator import mul

from irredcert.errors import (BadPrime, IntegralityError, IrredcertError,
                              ShapeError)
from irredcert.lattices import PrimeSpec, _canonical_pair, _pair_basis
from irredcert.matrices import (Matrix, _row_hnf, denominator_lcm, rank,
                                scaled_rows)
from irredcert.rings import ZZ, QQ, PrimeField, is_prime

class NotSublattice(IrredcertError):
    """A claimed sublattice is not contained in the ambient lattice."""


# image classification returned by proper_sublattice_image
IMAGE_ZERO = "zero"
IMAGE_PROPER = "proper_nonzero"
IMAGE_FULL = "full"


class Lattice:
    """A full-rank Z-lattice in Q^d, the span of the columns of a matrix over
    Q, held by its canonical basis H / D: two lattices are equal iff their
    bases are."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        cols = basis.columns()
        den = denominator_lcm(a for col in cols for a in col)
        pair = _canonical_pair(scaled_rows(cols, den), den)
        if len(pair[0]) != basis.nrows:
            raise ShapeError("columns span a rank-%d sublattice, need rank %d"
                             % (len(pair[0]), basis.nrows))
        self.basis = _pair_basis(pair, QQ)

    @classmethod
    def standard(cls, d):
        return cls(Matrix.identity(QQ, d))

    @property
    def dim(self):
        return self.basis.nrows

    def coordinates(self, other_basis):
        """Matrix C over Q with self.basis * C = other_basis."""
        return self.basis.inverse() * other_basis

    def contains_lattice(self, other):
        try:
            self.coordinates(other.basis).from_fraction_field(ZZ)
        except IntegralityError:
            return False
        return True

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.basis == other.basis


def lattice_from_columns(columns):
    """Canonical full-rank lattice spanned by the given Q-vectors."""
    return Lattice(Matrix(QQ, [list(row) for row in zip(*columns)]))


def is_standard(lat):
    return lat.basis.is_identity()


def contains_vector(lat, v):
    y = lat.basis.inverse().apply(tuple(v))
    try:
        for a in y:
            ZZ.from_fraction_field(a)
    except IntegralityError:
        return False
    return True


def index_of(lat, sub):
    """[L : M] for a full-rank sublattice M of L, as a positive integer."""
    return abs(lat.coordinates(sub.basis).from_fraction_field(ZZ).det())


def check_integer_matrix(m):
    if m.ring != ZZ:
        raise IntegralityError("expected a matrix over Z, got %r" % (m.ring,))


def hnf(m):
    """Column-style Hermite normal form over Z.

    Returns (h, transform) with transform unimodular and m * transform = h;
    h is the unique canonical basis matrix of the column span (nonzero columns
    first, positive pivots descending the rows, entries to the left of each
    pivot reduced mod the pivot).  Zero columns are pushed to the right."""
    check_integer_matrix(m)
    n, k = m.ncols, m.nrows
    rows, _ = _row_hnf([list(m.column(j)) + [int(i == j) for i in range(n)]
                        for j in range(n)], k)
    h = Matrix(ZZ, [[rows[j][i] for j in range(n)] for i in range(k)])
    transform = Matrix(ZZ, [[rows[j][k + i] for j in range(n)]
                            for i in range(n)])
    return h, transform


def integer_kernel(m):
    """Basis of {v in Z^ncols : m v = 0}, a saturated submodule, as the HNF
    transform columns that map onto zero columns of the HNF."""
    check_integer_matrix(m)
    h, transform = hnf(m)
    basis = []
    for j in range(m.ncols):
        if all(h.entry(i, j) == 0 for i in range(m.nrows)):
            basis.append(transform.column(j))
    return basis


def ideal_mult(lat, ideals):
    """The lattice (n_1) cap ... cap (n_k) * L = lcm(n_i) * L over Z."""
    ns = list(ideals)
    if not ns or any(n == 0 for n in ns):
        raise ValueError("ideals must be nonzero integers")
    return Lattice(lat.basis.scale(Fraction(math.lcm(*ns))))


def lattice_intersect(a, b):
    """Exact intersection of two full-rank lattices over Z, via the integer
    kernel of [A | -B] read off the HNF transform."""
    d = a.dim
    den = denominator_lcm(a.basis.entries + b.basis.entries)
    A = scaled_rows(a.basis.rows(), den)
    B = scaled_rows(b.basis.rows(), den)
    kernel = integer_kernel(Matrix(ZZ, [ra + [-x for x in rb]
                                        for ra, rb in zip(A, B)]))
    return lattice_from_columns([[Fraction(sum(map(mul, r, v[:d])), den)
                                  for r in A] for v in kernel])


def proper_sublattice_image(sub, ambient, prime):
    """Classify the image of a full-rank sublattice M inside L/pL.

    Returns IMAGE_ZERO (M inside pL), IMAGE_FULL (M + pL = L), or
    IMAGE_PROPER.  Raises NotSublattice when M is not contained in L."""
    if isinstance(prime, PrimeSpec):
        if prime.kind != PrimeSpec.INTEGER:
            raise BadPrime("sublattice images are classified at integer primes")
        p = prime.p
    else:
        p = int(prime)
        if not is_prime(p):
            raise BadPrime("%r is not prime" % (p,))
    c = ambient.coordinates(sub.basis)
    try:
        c = c.from_fraction_field(ZZ)
    except IntegralityError:
        raise NotSublattice("claimed sublattice is not contained in the "
                            "ambient lattice") from None
    F = PrimeField(p)
    cbar = c.map_entries(lambda a: a % p, F)
    r = rank(cbar)
    if r == 0:
        return IMAGE_ZERO
    if r == sub.dim:
        return IMAGE_FULL
    return IMAGE_PROPER
