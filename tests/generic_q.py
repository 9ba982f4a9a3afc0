"""Reference for the integer-row MeatAxe over Q: Q through the generic path.

GenericQ has the arithmetic of RationalField but is not one, so spin,
subspace_is_invariant, theta sampling and the direct search over Q treat it
like any other descriptor and run their generic code on it, one Fraction
operation per scalar.  The differential tests build the same data over both
rings and require identical results.  The cases here are shared by them.
"""

from fractions import Fraction

from irredcert.errors import SingularError
from irredcert.matrices import Matrix
from irredcert.rings import RingDescriptor


class GenericQ(RingDescriptor):
    """Q with Fractions in lowest terms, every operation a descriptor call."""

    kind = "Q-generic"
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise SingularError("division by zero in Q")
        return 1 / a

    def format(self, a):
        return str(a)

    def to_json(self):
        # the same field as QQ, so that transcripts compare equal
        return {"ring": "Q"}

    def __eq__(self, other):
        return isinstance(other, GenericQ)

    def __hash__(self):
        return hash("Q-generic")


def std_sn(n):
    """The (n-1)-dimensional standard rep of S_n on the basis e_i - e_n,
    for the transposition (0 1) and the n-cycle, as int rows."""
    perms = [[1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]]
    gens = []
    for images in perms:
        m = [[0] * (n - 1) for _ in range(n - 1)]
        last = images[n - 1]
        for i in range(n - 1):
            if images[i] != n - 1:
                m[images[i]][i] += 1
            if last != n - 1:
                m[last][i] -= 1
        gens.append(m)
    return gens


def block_sum(a, b):
    """Block-diagonal sums of two lists of int matrices."""
    n, m = len(a[0]), len(b[0])
    return [[row + [0] * m for row in g] + [[0] * n + row for row in h]
            for g, h in zip(a, b)]


def conjugated(K, gens, c):
    """c g c^-1 over K for each int matrix g."""
    c = Matrix(K, c)
    ci = c.inverse()
    return [c * Matrix(K, g) * ci for g in gens]


def basis_change(rng, d, big=False):
    """A random invertible rational d x d matrix, lower unitriangular times
    a diagonal of rationals times upper unitriangular.  With big, the
    first and last diagonal entries have 7-digit denominators."""
    scales = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3)]
    if big:
        scales += [Fraction(1, 1000003), Fraction(5, 9999991),
                   Fraction(1234567, 7654321)]
    low = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0)
            for j in range(d)] for i in range(d)]
    up = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0)
           for j in range(d)] for i in range(d)]
    diag = [scales[rng.randrange(len(scales))] for _ in range(d)]
    if big:
        diag[0], diag[-1] = scales[-1], scales[-2]
    return [[sum(low[i][k] * diag[k] * up[k][j] for k in range(d))
             for j in range(d)] for i in range(d)]


def rational_cases(rng):
    """Named generator lists over Q (Fraction rows), all non-integral:
    S3 conjugated by diag(1, 1/2), the standard S4 and S5 and their sum
    under random rational bases (one with 7-digit denominators), the sum
    S3 + S4 (reducible, spins proper), and a pair of upper triangular
    matrices under a basis with 7-digit denominators."""
    def frac(gens, c):
        return [[[Fraction(a) for a in row] for row in m.rows()]
                for m in conjugated(GenericQ(), gens, c)]

    s3 = std_sn(3)
    cases = {
        "s3_half": frac(s3, [[1, 0], [0, Fraction(1, 2)]]),
        "s4": frac(std_sn(4), basis_change(rng, 3)),
        "s5_big": frac(std_sn(5), basis_change(rng, 4, big=True)),
        "s3+s4": frac(block_sum(s3, std_sn(4)), basis_change(rng, 5)),
        "s4+s5_big": frac(block_sum(std_sn(4), std_sn(5)),
                          basis_change(rng, 7, big=True)),
    }
    d = 6
    tri = []
    for _ in range(2):
        tri.append([[0 if j < i else
                     (rng.randint(1, 3) if i == j else rng.randint(-3, 3))
                     for j in range(d)] for i in range(d)])
    cases["triangular_big"] = frac(tri, basis_change(rng, d, big=True))
    return cases
