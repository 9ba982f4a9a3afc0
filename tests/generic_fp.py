"""Reference for the prime-field kernels: F_p through the generic path.

GenericFp has the arithmetic of PrimeField but is not one, so Matrix,
spin and polys treat it like any other descriptor and run their generic
code on it.  The differential tests build the same data over both rings and
require identical results.  The random cases here are shared by them.
"""

from irredcert.errors import SingularError
from irredcert.rings import RingDescriptor

# (p, d) pairs for the differential tests: F_2, F_3 and F_101 up to d = 64,
# F_65521, whose packed slots take 8 bytes, and F_(2^31 - 1), whose slots
# are wider than 8 bytes; and small p on both sides of the switch from
# one- to two-byte slots in a d x d matrix's packed columns (2d products):
# F_3 at d = 31 and 32, F_5 at 7 and 8, F_7 at 3 and 4, F_11 at 1 and 2,
# and F_13, whose spin slots are never one byte
FIELD_SIZES = [(2, 1), (2, 40), (2, 64), (3, 13), (3, 24), (101, 6),
               (101, 40), (101, 64), (65521, 24), (2147483647, 16),
               (3, 31), (3, 32), (5, 7), (5, 8), (7, 3), (7, 4), (11, 1),
               (11, 2), (13, 6)]


class GenericFp(RingDescriptor):
    """F_p with ints in [0, p), every operation a descriptor call."""

    kind = "Fp-generic"
    is_field = True

    def __init__(self, p):
        self.p = p
        self.characteristic = p
        self.order = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise SingularError("division by zero in F_%d" % (self.p,))
        return pow(a, self.p - 2, self.p)

    def iter_elements(self):
        return iter(range(self.p))

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, GenericFp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp-generic", self.p))


def random_rows(rng, p, nr, nc):
    return [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]


def _product(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def matrix_cases(rng, p, d):
    """Named d x d int matrices over F_p: dense, all entries p - 1, rank
    deficient, nilpotent, singular with a repeated row, zero, identity, a
    permutation, a scalar c I with c not 0 or 1 (for p > 2), and a
    derogatory one: the companion matrix of one random polynomial repeated
    down the diagonal, so that its minimal polynomial is a proper factor
    of its characteristic polynomial."""
    r = max(d // 3, 1)
    upper = [[rng.randrange(p) if j > i else 0 for j in range(d)]
             for i in range(d)]
    perm = list(range(d))
    for i in range(d - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    singular = random_rows(rng, p, d, d)
    if d > 1:
        singular[-1] = [(2 * x + y) % p
                        for x, y in zip(singular[0], singular[1])]
    else:
        singular = [[0]]
    cases = {
        "dense": random_rows(rng, p, d, d),
        # every entry p - 1: each packed slot reaches its bound
        "full": [[p - 1] * d for _ in range(d)],
        "low_rank": _product(random_rows(rng, p, d, r),
                             random_rows(rng, p, r, d), p),
        # P U P^-1 with U strictly upper triangular
        "nilpotent": [[upper[perm[i]][perm[j]] for j in range(d)]
                      for i in range(d)],
        "singular": singular,
        "zero": [[0] * d for _ in range(d)],
        "identity": [[int(i == j) for j in range(d)] for i in range(d)],
        "permutation": [[int(j == perm[i]) for j in range(d)]
                        for i in range(d)],
    }
    if p > 2:
        c = 2 + rng.randrange(p - 2)
        cases["scalar"] = [[c * (i == j) for j in range(d)] for i in range(d)]
    # blocks of k rows, each the companion matrix of x^k - sum t_i x^i (the
    # last one cut short)
    k = max(d // 3, 1)
    tail = [rng.randrange(p) for _ in range(k)]
    derogatory = [[0] * d for _ in range(d)]
    for i in range(d):
        b, r = divmod(i, k)
        size = min(k, d - b * k)
        if r + 1 < size:
            derogatory[i][b * k + r + 1] = 1
        else:
            derogatory[i][b * k:b * k + size] = tail[:size]
    cases["derogatory"] = derogatory
    return cases
