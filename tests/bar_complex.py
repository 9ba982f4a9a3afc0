"""The inhomogeneous bar complex: an independent oracle for cohomology_dims.

Cochains in degree q are functions G^q -> M and the differential is

    (d f)(g_1, ..., g_{q+1}) = g_1 . f(g_2, ..., g_{q+1})
        + sum_{i=1..q} (-1)^i f(g_1, ..., g_i g_{i+1}, ..., g_{q+1})
        + (-1)^{q+1} f(g_1, ..., g_q)

so dim H^q = dim ker d^q - rank d^{q-1}.  Over a prime field the
differentials are assembled as numpy integer matrices and ranked by modular
Gaussian elimination (numpy_dims); the exact descriptor assembler
bar_differential serves every field (exact_dims).  The degree-2
differential has n^3 m x n^2 m cells, so both assemblers stop at a cell cap
with SizeBound.  The package computes the same numbers by dimension
shifting instead, and the tests compare the two.
"""

import itertools

import numpy as np

from irredcert.cohomology import module_action
from irredcert.errors import SizeBound
from irredcert.matrices import Matrix, rank

# cap on rows*cols of an assembled differential (int64 cells)
MAX_CELLS = 2 ** 24
# much smaller cap for the exact non-prime-field fallback
MAX_CELLS_GENERIC = 2 ** 16


def _tuple_indices(n, q):
    """All q-tuples over range(n) as a (q, n^q) int64 array."""
    if q == 0:
        return np.zeros((0, 1), dtype=np.int64)
    return np.indices([n] * q).reshape(q, -1).astype(np.int64)


def _pack(parts, n):
    out = np.zeros(parts[0].shape if parts else (1,), dtype=np.int64)
    for arr in parts:
        out = out * n + arr
    return out


def _numpy_differential(actarr, multarr, q, m):
    """The degree-q bar differential as an int64 matrix (entries reduced mod
    p by the caller); rows index C^{q+1} coordinates, columns C^q."""
    n = multarr.shape[0]
    rows = n ** (q + 1) * m
    cols = n ** q * m
    if rows * cols > MAX_CELLS:
        raise SizeBound("degree-%d differential needs %d cells (cap %d)"
                        % (q, rows * cols, MAX_CELLS))
    A = np.zeros((rows, cols), dtype=np.int64)
    tup = _tuple_indices(n, q + 1)
    count = tup.shape[1]
    rowbase = _pack([tup[a] for a in range(q + 1)], n) * m
    # leading term g_1 . f(g_2 ... g_{q+1})
    colbase = _pack([tup[a] for a in range(1, q + 1)], n) * m
    if colbase.shape != rowbase.shape:
        colbase = np.broadcast_to(colbase, rowbase.shape).copy()
    g1 = tup[0] if q + 1 >= 1 else np.zeros(count, dtype=np.int64)
    for i in range(m):
        for j in range(m):
            np.add.at(A, (rowbase + i, colbase + j), actarr[g1, i, j])
    # inner face maps f(..., g_i g_{i+1}, ...)
    for t in range(1, q + 1):
        parts = []
        for a in range(q + 1):
            if a == t - 1:
                parts.append(multarr[tup[t - 1], tup[t]])
            elif a == t:
                continue
            else:
                parts.append(tup[a])
        colbase = _pack(parts, n) * m
        sign = -1 if t % 2 else 1
        for i in range(m):
            np.add.at(A, (rowbase + i, colbase + i), sign)
    # trailing term f(g_1 ... g_q)
    parts = [tup[a] for a in range(q)]
    colbase = _pack(parts, n) * m if parts else np.zeros(count, dtype=np.int64)
    if colbase.shape != rowbase.shape:
        colbase = np.broadcast_to(colbase, rowbase.shape).copy()
    sign = -1 if (q + 1) % 2 else 1
    for i in range(m):
        np.add.at(A, (rowbase + i, colbase + i), sign)
    return A


def _rank_mod_p(a, p):
    """Rank over F_p by vectorized Gaussian elimination on an int64 array."""
    a = np.mod(a, p)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i0 = r + int(nz[0])
        if i0 != r:
            a[[r, i0]] = a[[i0, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1:, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            a[r + 1 + hot] = (a[r + 1 + hot] - np.outer(below[hot], a[r])) % p
        r += 1
    return r


def bar_differential(table, module, degree):
    """Exact degree-q differential as a Matrix over the module field (for
    small instances and cross-checks)."""
    K = module.ring
    n = table.order
    m = module.dim
    q = degree
    rows = n ** (q + 1) * m
    cols = n ** q * m
    if rows * cols > MAX_CELLS_GENERIC:
        raise SizeBound("exact differential needs %d cells (cap %d)"
                        % (rows * cols, MAX_CELLS_GENERIC))
    acts = module_action(table, module)
    zero = K.zero()
    data = [[zero] * cols for _ in range(rows)]

    def add(r, c, v):
        data[r][c] = K.add(data[r][c], v)

    for tup in itertools.product(range(n), repeat=q + 1):
        rowbase = 0
        for g in tup:
            rowbase = rowbase * n + g
        rowbase *= m
        tail = 0
        for g in tup[1:]:
            tail = tail * n + g
        act = acts[tup[0]]
        for i in range(m):
            for j in range(m):
                add(rowbase + i, tail * m + j, act.entry(i, j))
        one, neg = K.one(), K.neg(K.one())
        for t in range(1, q + 1):
            merged = list(tup)
            merged[t - 1] = table.mult[tup[t - 1]][tup[t]]
            del merged[t]
            colbase = 0
            for g in merged:
                colbase = colbase * n + g
            v = neg if t % 2 else one
            for i in range(m):
                add(rowbase + i, colbase * m + i, v)
        head = 0
        for g in tup[:q]:
            head = head * n + g
        v = neg if (q + 1) % 2 else one
        for i in range(m):
            add(rowbase + i, head * m + i, v)
    return Matrix(K, data)


def _dims(ncols, ranks):
    """(dim H^0, dim H^1, dim H^2) from the column counts and ranks of the
    differentials d^0, d^1, d^2."""
    return tuple(ncols[q] - ranks[q] - (ranks[q - 1] if q else 0)
                 for q in range(3))


def numpy_dims(table, module):
    """Cohomology dimensions over a prime field from the int64 assembler."""
    p = module.ring.p
    m = module.dim
    acts = module_action(table, module)
    actarr = np.array([[[int(a.entry(i, j)) for j in range(m)]
                        for i in range(m)] for a in acts], dtype=np.int64)
    multarr = np.array(table.mult, dtype=np.int64)
    mats = [_numpy_differential(actarr, multarr, q, m) for q in range(3)]
    return _dims([A.shape[1] for A in mats],
                 [_rank_mod_p(A, p) for A in mats])


def exact_dims(table, module):
    """Cohomology dimensions over any field from the exact assembler."""
    mats = [bar_differential(table, module, q) for q in range(3)]
    return _dims([A.ncols for A in mats], [rank(A) for A in mats])
