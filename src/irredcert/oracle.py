"""Brute-force ground truth: enumerate every invariant subspace.

Nothing here scales; that is the point.  Subspaces of F_q^d are enumerated
as reduced-echelon bases (one per subspace: pick pivot columns, fill the
free entries in all q^free ways) and filtered by exact invariance under the
generators.  The result is the full lattice of invariant subspaces, so a
representation is irreducible iff exactly the zero and full subspaces
appear.  Other modules treat this as the oracle at tiny sizes.
"""

import itertools

from .errors import SizeBound
from .matrices import Matrix
from .meataxe import subspace_is_invariant

MAX_POINTS = 2 ** 14
MAX_CANDIDATES = 2 ** 16


def _candidate_count(q, d):
    """Number of subspaces of F_q^d of all dimensions (sum of Gaussian
    binomial coefficients)."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (d - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def invariant_subspaces(rep, max_size=MAX_POINTS):
    """Complete sorted list of invariant subspaces of rep over F_q, each as a
    tuple of reduced-echelon basis rows; includes the zero subspace () and
    the full space.  Raises SizeBound beyond q^d = max_size points (or when
    the subspace count itself is too large to enumerate)."""
    K = rep.ring
    q = getattr(K, "order", None)  # finite fields only
    if q is None:
        raise ValueError("the oracle enumerates subspaces over finite fields")
    d = rep.dim
    if q ** d > max_size:
        raise SizeBound("q^d = %d exceeds the oracle bound %d" % (q ** d, max_size))
    if _candidate_count(q, d) > MAX_CANDIDATES:
        raise SizeBound("F_%d^%d has too many subspaces to enumerate" % (q, d))
    gens = list(rep.generators)
    elements = list(K.iter_elements())
    zero, one = K.zero(), K.one()
    found = [()]
    for k in range(1, d):
        for pivots in itertools.combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(d)
                    if j > pivots[i] and j not in pivots]
            for values in itertools.product(elements, repeat=len(free)):
                rows = [[zero] * d for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = one
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                rows = tuple(tuple(r) for r in rows)
                if subspace_is_invariant(K, gens, rows):
                    found.append(rows)
    found.append(tuple(Matrix.identity(K, d).rows()))
    found.sort(key=lambda rows: (len(rows), rows))
    return found


def count_invariant(rep, max_size=MAX_POINTS):
    """len(invariant_subspaces(rep)); 2 means irreducible."""
    return len(invariant_subspaces(rep, max_size=max_size))
