"""Seeded input generators whose answers are known by construction.

Everything here is plain Python over ints and Fractions; the package under
test is not imported, so a bug in it cannot leak into its own inputs.  A
generator returns representation documents in the JSON format of
docs/formats.md, which the benchmark writes to files and hands to the
command line.

Families:
  S_n standard rep  the sum-zero sublattice of the permutation module, basis
                    e_i - e_n; irreducible over Q, and mod p irreducible
                    exactly when p does not divide n.
  B_n signed perms  the natural n-dim rep of the hyperoctahedral group;
                    irreducible over Q and mod every odd prime.
Disguises are random changes of basis over Q, Q(t) or F_p, which keep the
isomorphism class and hence the known answer.
"""

import random
from fractions import Fraction


def make_rng(seed, *tags):
    """One independent stream per (seed, tags), stable across runs."""
    return random.Random("%s/%s" % (seed, "/".join(str(t) for t in tags)))


# ---------------------------------------------------------------------------
# dense matrices over Q (lists of rows of ints or Fractions)


def identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in bt]
            for row in a]


def perm_matrix(images):
    """Column-action matrix of the permutation i -> images[i] on e_0..e_{n-1}."""
    n = len(images)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(images):
        m[j][i] = 1
    return m


def _std_action(images):
    """Action of a permutation on the basis v_i = e_i - e_{n-1}, i < n-1."""
    n = len(images)
    last = images[n - 1]
    d = n - 1
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        # v_i -> e_{s(i)} - e_{s(n-1)} = v_{s(i)} - v_{s(n-1)} (v_{n-1} = 0)
        if images[i] != n - 1:
            m[images[i]][i] += 1
        if last != n - 1:
            m[last][i] -= 1
    return m


def sn_generators(n):
    """Transposition (0 1) and the n-cycle, as permutation image lists."""
    trans = list(range(n))
    trans[0], trans[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    return [trans, cycle]


def std_sn(n):
    """Generators of the (n-1)-dim standard rep of S_n over Z."""
    return [_std_action(p) for p in sn_generators(n)]


def sign_sn(n):
    """The sign character of S_n on the same generators."""
    return [[[-1]], [[1 if n % 2 else -1]]]


def signed_perm_bn(n):
    """Sign change of e_0, the transposition (0 1) and the n-cycle."""
    flip = identity(n)
    flip[0][0] = -1
    return [flip] + [perm_matrix(p) for p in sn_generators(n)]


def cyclic_companion(coeffs):
    """Companion matrix of the monic polynomial with ascending coeffs
    (leading 1 omitted); generates a cyclic group when it is cyclotomic."""
    d = len(coeffs)
    m = [[0] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = -coeffs[i]
    return m


def direct_sum(a, b):
    """Blockwise direct sum of two generator lists of equal length."""
    out = []
    for g, h in zip(a, b):
        n, k = len(g), len(h)
        rows = [list(r) + [0] * k for r in g]
        rows += [[0] * n + list(r) for r in h]
        out.append(rows)
    return out


def _unitriangular(rng, d, lower, density):
    """Exactly round(density * d(d-1)/2) entries +-1 below (or above) the
    diagonal, at random places: every seed disguises equally heavily."""
    m = identity(d)
    places = [(i, j) for i in range(d) for j in range(d)
              if (j < i if lower else j > i)]
    for i, j in rng.sample(places, round(density * len(places))):
        m[i][j] = rng.choice((-1, 1))
    return m


def _unitriangular_inverse(m, lower):
    """Exact inverse of a unitriangular integer matrix."""
    d = len(m)
    inv = identity(d)
    order = range(d) if lower else range(d - 1, -1, -1)
    for i in order:
        for j in range(d):
            s = 0
            ks = range(i) if lower else range(i + 1, d)
            for k in ks:
                if m[i][k]:
                    s += m[i][k] * inv[k][j]
            inv[i][j] = (1 if i == j else 0) - s
    return inv


SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
          Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))


def rational_basis_change(rng, d, density):
    """(C, C^-1) with C = L * diag(r) * U, L and U random unitriangular
    integer matrices and r the small rationals SCALES, cycled and shuffled."""
    low = _unitriangular(rng, d, True, density)
    up = _unitriangular(rng, d, False, density)
    r = [SCALES[i % len(SCALES)] for i in range(d)]
    rng.shuffle(r)
    c = matmul(low, [[up[i][j] * r[i] for j in range(d)] for i in range(d)])
    low_inv = _unitriangular_inverse(low, True)
    up_inv = _unitriangular_inverse(up, False)
    c_inv = matmul(up_inv, [[low_inv[i][j] / r[i] for j in range(d)]
                            for i in range(d)])
    return c, c_inv


def conjugate(gens, c, c_inv):
    return [matmul(matmul(c, g), c_inv) for g in gens]


def disguise_q(rng, gens, density=0.15):
    d = len(gens[0])
    c, c_inv = rational_basis_change(rng, d, density)
    return conjugate(gens, c, c_inv)


def fmt_q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def rep_doc_q(gens, label):
    d = len(gens[0])
    return {"ring": {"ring": "Q"}, "dim": d, "label": label, "relations": [],
            "generators": [[[fmt_q(a) for a in row] for row in g]
                           for g in gens]}


# ---------------------------------------------------------------------------
# Q(t): matrices of polynomials in t, each an ascending list of Fractions


def _padd(f, g):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmatmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = []
            for l in range(k):
                acc = _padd(acc, _pmul(a[i][l], b[l][j]))
            row.append(acc)
        out.append(row)
    return out


def _const_poly_matrix(m):
    return [[[Fraction(a)] if a else [] for a in row] for row in m]


def fmt_poly(f, var="t"):
    if not f:
        return "0"
    terms = []
    for e in range(len(f) - 1, -1, -1):
        a = Fraction(f[e])
        if not a:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        if e == 0:
            body = fmt_q(mag)
        else:
            mono = var if e == 1 else "%s^%d" % (var, e)
            body = mono if mag == 1 else "%s*%s" % (fmt_q(mag), mono)
        terms.append((sign, body))
    text = "".join(s + b for s, b in terms)
    return text[1:] if text.startswith("+") else text


def disguise_qt(rng, gens):
    """Conjugate by D * U(t): U unitriangular with c + s*t (c in -1..1,
    s = +-1) on the superdiagonal, so its inverse is polynomial too, and D a
    diagonal of small rationals."""
    d = len(gens[0])
    u = [[[] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        u[i][i] = [Fraction(1)]
    for i in range(d - 1):
        u[i][i + 1] = [Fraction(rng.choice((-1, 0, 1))),
                       Fraction(rng.choice((-1, 1)))]
    # inverse of a unitriangular polynomial matrix, by back substitution
    u_inv = [[[] for _ in range(d)] for _ in range(d)]
    for i in range(d - 1, -1, -1):
        for j in range(d):
            acc = [Fraction(1)] if i == j else []
            for k in range(i + 1, d):
                acc = _padd(acc, [-a for a in _pmul(u[i][k], u_inv[k][j])])
            u_inv[i][j] = acc
    r = [SCALES[i % len(SCALES)] for i in range(d)]
    rng.shuffle(r)
    c = [[[a * r[i] for a in u[i][j]] for j in range(d)] for i in range(d)]
    c_inv = [[[a / r[j] for a in u_inv[i][j]] for j in range(d)]
             for i in range(d)]
    return [_pmatmul(_pmatmul(c, _const_poly_matrix(g)), c_inv)
            for g in gens]


def rep_doc_qt(poly_gens, label):
    d = len(poly_gens[0])
    return {"ring": {"ring": "Q(t)", "var": "t"}, "dim": d, "label": label,
            "relations": [],
            "generators": [[[fmt_poly(a) for a in row] for row in g]
                           for g in poly_gens]}


# ---------------------------------------------------------------------------
# F_p


def _det_mod_p_nonzero(m, p):
    a = [[x % p for x in row] for row in m]
    n = len(a)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return True


def _inverse_mod_p(m, p):
    n = len(m)
    a = [[x % p for x in row] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], p - 2, p)
        a[c] = [x * inv % p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def random_invertible_mod_p(rng, d, p):
    while True:
        m = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if _det_mod_p_nonzero(m, p):
            return m


def _matmul_mod_p(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt]
            for row in a]


def disguise_fp(rng, gens, p):
    d = len(gens[0])
    c = random_invertible_mod_p(rng, d, p)
    c_inv = _inverse_mod_p(c, p)
    return [_matmul_mod_p(_matmul_mod_p(c, g, p), c_inv, p) for g in gens]


def block_triangular_mod_p(rng, d, k, p, ngens=2):
    """Generators [[A, X], [0, B]] with a k-dim invariant subspace."""
    gens = []
    for _ in range(ngens):
        a = random_invertible_mod_p(rng, k, p)
        b = random_invertible_mod_p(rng, d - k, p)
        rows = [list(a[i]) + [rng.randrange(p) for _ in range(d - k)]
                for i in range(k)]
        rows += [[0] * k + list(b[i]) for i in range(d - k)]
        gens.append(rows)
    return gens


def rep_doc_fp(gens, p, label):
    d = len(gens[0])
    return {"ring": {"ring": "Fp", "p": p}, "dim": d, "label": label,
            "relations": [],
            "generators": [[[str(a % p) for a in row] for row in g]
                           for g in gens]}


def random_integral_nonunit(rng, d):
    """Two random integer generators, the first with determinant 2 or 3
    (so no lattice is stable: a stable lattice forces det = +-1)."""
    gens = []
    for k in range(2):
        while True:
            m = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            det = _det_q(m)
            if (abs(det) in (2, 3)) if k == 0 else det != 0:
                gens.append(m)
                break
    return gens


def _det_q(m):
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det
