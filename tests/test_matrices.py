"""Exact matrix algorithms: HNF, SNF, charpoly, kernels.

The [[2,4],[4,2]] HNF case is checked against a naive audited column-reduction
oracle implemented below; SNF diag values are pinned from the gcd/det
argument (d1 = gcd of entries = 2, d1*d2 = |det| = 12 so d2 = 6).  The
package itself needs no Smith form, so snf lives here with its tests; hnf
and integer_kernel live in integer_lattices, shared with the lattice tests.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import irredcert
from irredcert import matrices
from irredcert.certify import IRREDUCIBLE_CERTIFIED, certify, verify
from irredcert.errors import IntegralityError, ShapeError, SingularError
from irredcert.matrices import (
    Matrix, _bareiss, _det_field, _row_hnf, char_poly, fraction_free_inverse,
    from_poly_rows, int_char_poly, int_product, integer_rows,
    integral_conjugates, kernel_basis, kronecker, packed_columns,
    poly_at_matrix, poly_rows, rank, restrict_scalars, rref,
)
from irredcert.prng import XorShift64
from irredcert.reps import load_rep
from irredcert.rings import ZZ, QQ, ExtensionField, PolynomialRingZ, \
    PrimeField, RationalFunctionField, is_prime

from generic_fp import FIELD_SIZES, GenericFp, matrix_cases, random_rows
from generic_q import GenericQ, basis_change, conjugated, rational_cases, \
    std_sn
from generic_qt import QT, ZT, generic, over, random_matrix, random_qt, \
    reference_conjugates, reference_det, reference_inverse, singular
from integer_lattices import check_integer_matrix, hnf, integer_kernel

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "data")
F2 = PrimeField(2)
F5 = PrimeField(5)


def _naive_column_hnf(rows):
    """Audit oracle: column-reduce with explicit unimodular steps only,
    then normalize, entirely independently of the library routine."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0])
    cols = [[m[i][j] for i in range(nr)] for j in range(nc)]

    def colsub(j, k, q):
        cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]

    r = 0
    for i in range(nr):
        while True:
            nz = [j for j in range(r, nc) if cols[j][i] != 0]
            if not nz:
                piv = None
                break
            if len(nz) == 1:
                piv = nz[0]
                break
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            for j in nz:
                if j != j0:
                    colsub(j, j0, cols[j][i] // cols[j0][i])
        if piv is None:
            continue
        cols[r], cols[piv] = cols[piv], cols[r]
        if cols[r][i] < 0:
            cols[r] = [-x for x in cols[r]]
        for j in range(r):
            colsub(j, r, cols[j][i] // cols[r][i])
        r += 1
    return [[cols[j][i] for j in range(nc)] for i in range(nr)]


def test_hnf_identity():
    m = Matrix.identity(ZZ, 2)
    h, t = hnf(m)
    assert h == m and t == m


def test_hnf_scaled_identity():
    m = Matrix.identity(ZZ, 2).scale(3)
    h, t = hnf(m)
    assert h == m
    assert (m * t) == h


def test_hnf_2442():
    m = Matrix(ZZ, [[2, 4], [4, 2]])
    h, t = hnf(m)
    assert m * t == h
    assert h.rows() == _naive_column_hnf([[2, 4], [4, 2]])
    # transform must be unimodular
    assert t.det() in (1, -1)


def test_hnf_canonicity_random():
    rng = XorShift64(42)
    for _ in range(100):
        m = Matrix(ZZ, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        u = _random_unimodular(rng, 3)
        h1, _ = hnf(m)
        h2, _ = hnf(m * u)
        assert h1 == h2
        assert h1.rows() == _naive_column_hnf(m.rows())
        # without the transform block, the package's row HNF of the columns
        # is the same H, with the rank
        cols, r = _row_hnf(m.columns(), 3)
        assert [list(row) for row in zip(*cols)] == h1.rows()
        assert r == rank(m.to_fraction_field())


def _random_unimodular(rng, n):
    m = Matrix.identity(ZZ, n)
    for _ in range(6):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = Matrix.identity(ZZ, n).rows()
        e[i][j] = rng.randint(-2, 2)
        m = m * Matrix(ZZ, e)
    return m


def test_hnf_rejects_rationals():
    m = Matrix(QQ, [[Fraction(1, 2)]])
    with pytest.raises(IntegralityError):
        hnf(m)


def snf(m):
    """Smith normal form over Z: returns (d, left, right) with
    left * m * right = d diagonal and d_1 | d_2 | ... (nonnegative)."""
    check_integer_matrix(m)
    nr, nc = m.nrows, m.ncols
    a = m.rows()
    left = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    right = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def rowop(i, k, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        left[i] = [x - q * y for x, y in zip(left[i], left[k])]

    def colop(j, k, q):
        for row in a:
            row[j] -= q * row[k]
        for row in right:
            row[j] -= q * row[k]

    def rowswap(i, k):
        a[i], a[k] = a[k], a[i]
        left[i], left[k] = left[k], left[i]

    def colswap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in right:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot in the trailing submatrix
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            rowswap(t, piv[0])
        if piv[1] != t:
            colswap(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    rowop(i, t, q)
                    if a[i][t]:
                        rowswap(i, t)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    colop(j, t, q)
                    if a[t][j]:
                        colswap(j, t)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            rowop(t, offender, -1)  # add offender row to pivot row
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        t += 1
    return Matrix(ZZ, a), Matrix(ZZ, left), Matrix(ZZ, right)


def test_snf_identity_and_zero():
    n = Matrix.identity(ZZ, 3)
    d, l, r = snf(n)
    assert d == n and l * n * r == d
    z = Matrix.zeros(ZZ, 2, 2)
    d, l, r = snf(z)
    assert d == z


def test_snf_2442():
    m = Matrix(ZZ, [[2, 4], [4, 2]])
    d, l, r = snf(m)
    assert l * m * r == d
    assert d == Matrix(ZZ, [[2, 0], [0, 6]])
    assert l.det() in (1, -1) and r.det() in (1, -1)


def test_snf_random_properties():
    rng = XorShift64(17)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = Matrix(ZZ, [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        d, l, r = snf(m)
        assert l * m * r == d
        assert l.det() in (1, -1) and r.det() in (1, -1)
        diag = [d.entry(i, i) for i in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d.entry(i, j) == 0
        if nr == nc:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(m.det())


def test_char_poly_examples():
    ident = Matrix.identity(F5, 2)
    assert char_poly(ident) == (1, 3, 1)  # (x-1)^2 = x^2 - 2x + 1 = x^2+3x+1 mod 5
    m = Matrix(QQ, [[0, -1], [1, -1]])
    assert char_poly(m) == (Fraction(1), Fraction(1), Fraction(1))  # x^2+x+1
    diag = Matrix(QQ, [[2, 0], [0, 3]])
    assert char_poly(diag) == (Fraction(6), Fraction(-5), Fraction(1))


def test_char_poly_companion():
    # companion matrix of x^3 + 2x + 4 over F_5
    c = Matrix(F5, [[0, 0, -4], [1, 0, -2], [0, 1, 0]])
    assert char_poly(c) == (4, 2, 0, 1)


def test_char_poly_conjugation_invariance():
    rng = XorShift64(3)
    for K in (QQ, F5):
        for _ in range(40):
            n = rng.randint(2, 4)
            m = _rand_matrix(K, n, rng)
            p = _rand_invertible(K, n, rng)
            assert char_poly(p * m * p.inverse()) == char_poly(m)


def _rand_matrix(K, n, rng):
    if K is QQ:
        return Matrix(K, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    return Matrix(K, [[rng.randrange(K.order) for _ in range(n)] for _ in range(n)])


def _rand_invertible(K, n, rng):
    while True:
        m = _rand_matrix(K, n, rng)
        if not K.is_zero(m.det()):
            return m


def test_char_poly_trace_det():
    rng = XorShift64(9)
    for _ in range(30):
        m = _rand_matrix(QQ, 3, rng)
        cp = char_poly(m)
        assert cp[3] == 1
        assert cp[2] == -m.trace()
        assert cp[0] == -m.det()


class TestCharPolyOverQ:
    """char_poly over QQ comes from det(yI - A) in Z[y] by CRT over primes
    below 2^47 (int_char_poly); over GenericQ the same matrix takes the
    generic Hessenberg reduction on Fractions, which is the reference."""

    @staticmethod
    def _cases(rng):
        cases = {}
        for name, gens in rational_cases(rng).items():
            g, h = Matrix(QQ, gens[0]), Matrix(QQ, gens[-1])
            cases[name] = g.rows()
            cases[name + " product"] = (g * h + h.scale(Fraction(1, 3))).rows()
        cases["zero"] = [[0] * 5 for _ in range(5)]
        cases["scalar"] = [[Fraction(-7, 3) if i == j else 0
                            for j in range(4)] for i in range(4)]
        strict = [[rng.randint(-3, 3) if j > i else 0 for j in range(5)]
                  for i in range(5)]
        cases["nilpotent"] = conjugated(GenericQ(), [strict],
                                        basis_change(rng, 5, big=True))[0].rows()
        cases["d = 1"] = [[Fraction(-22, 7)]]
        cases["huge"] = [[Fraction(3 ** 80 + rng.randint(-9, 9), 9999991)
                          for _ in range(4)] for _ in range(4)]
        return cases

    def test_matches_generic(self, monkeypatch):
        calls = []

        def counted(rows, p, _f=matrices._char_poly_mod):
            calls.append(p)
            return _f(rows, p)

        monkeypatch.setattr(matrices, "_char_poly_mod", counted)
        primes_used = {}
        for name, rows in self._cases(XorShift64(2027)).items():
            del calls[:]
            got = char_poly(Matrix(QQ, rows))
            assert got == char_poly(Matrix(GenericQ(), rows)), name
            assert all(type(a) is Fraction for a in got) and got[-1] == 1
            assert all(is_prime(p) and p < 2 ** 47 for p in calls)
            primes_used[name] = len(calls)
        # entries near 3^80 over 9,999,991 need several primes
        assert primes_used["huge"] >= 3 and primes_used["zero"] == 1

    def test_matches_generic_at_d_48(self, monkeypatch):
        # a product of the two generators of S49's standard rep, under an
        # upper bidiagonal basis change with diagonal 1, 1/2, 2/3, ...; the
        # CRT bound C(n, k) times the product of the k largest row norms
        # takes 17 primes, where C(n, k) R^k, R the largest, took 31
        scales = [Fraction(1), Fraction(1, 2), Fraction(2, 3)]
        c = Matrix(QQ, [[scales[i % 3] if i == j else int(j == i + 1)
                         for j in range(48)] for i in range(48)])
        g, h = (Matrix(QQ, m) for m in std_sn(49))
        rows = (c * g * h * c.inverse()).rows()
        calls = []

        def counted(rows, p, _f=matrices._char_poly_mod):
            calls.append(p)
            return _f(rows, p)

        monkeypatch.setattr(matrices, "_char_poly_mod", counted)
        assert char_poly(Matrix(QQ, rows)) == \
            char_poly(Matrix(GenericQ(), rows))
        assert len(calls) == 17

    def test_int_char_poly_is_over_z(self):
        # det(yI - A) for integer A: companion of y^3 - 2y + 5, and A / D
        # gives D^-n F(Dx)
        a = [[0, 0, -5], [1, 0, 2], [0, 1, 0]]
        assert int_char_poly(a) == [5, -2, 0, 1]
        m = Matrix(QQ, [[Fraction(x, 7) for x in row] for row in a])
        assert char_poly(m) == (Fraction(5, 343), Fraction(-2, 49), 0, 1)
        assert int_char_poly([]) == [1]

    def test_primes_are_certified_on_first_use(self):
        # importing the package computes no prime; once computed, they are
        # the largest primes below 2^47, in descending order, none skipped
        code = ("import irredcert, irredcert.cli, irredcert.matrices as m; "
                "print(m._crt_prime.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(irredcert.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"
        char_poly(Matrix(QQ, self._cases(XorShift64(2027))["huge"]))
        k = matrices._crt_prime.cache_info().currsize
        assert k >= 3
        primes = [matrices._crt_prime(i) for i in range(k)]
        bounds = [2 ** 47] + primes
        for hi, p in zip(bounds, primes):
            assert is_prime(p)
            assert not any(is_prime(q) for q in range(p + 1, hi))


def test_bareiss_det_matches_the_field_path():
    """Forward-only and Gauss-Jordan, _bareiss ends on the same last pivot
    d and sign, and sign d is the determinant over Q: on random integer
    matrices, singular ones (a zero column, two equal rows) and 0 x 0."""
    rng = XorShift64(11)
    cases = [[], [[0]], [[0, 0], [0, 5]], [[1, 2, 3], [4, 5, 6], [1, 2, 3]],
             [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
    cases += [_rand_matrix(QQ, n, rng).rows() for n in (1, 2, 3, 4, 6)
              for _ in range(8)]
    for rows in cases:
        rows = [[int(a) for a in row] for row in rows]
        n = len(rows)
        d, sign = _bareiss([list(r) for r in rows], n, False)
        assert sign * d == _det_field(Matrix._raw(QQ, n, n, [
            Fraction(a) for row in rows for a in row])), rows
        assert _bareiss([list(r) + [0] * n for r in rows], n, True) == \
            (d, sign), rows
        assert Matrix(ZZ, rows).det() == sign * d


def test_kernel_basis():
    assert kernel_basis(Matrix.identity(QQ, 2)) == []
    F3 = PrimeField(3)
    z = Matrix.zeros(F3, 2, 2)
    assert kernel_basis(z) == [(1, 0), (0, 1)]
    m = Matrix(QQ, [[1, 1], [2, 2]])
    assert kernel_basis(m) == [(Fraction(-1), Fraction(1))]


def test_kernel_over_z_is_the_basis_over_q_times_one_factor():
    """Over Z, kernel_basis (fraction-free Gauss-Jordan, _bareiss passing
    over columns with no pivot) gives the canonical basis over Q, the
    descriptor path over GenericQ, times one common factor: on integer
    matrices of every rank, square, wide and tall, some with zero
    columns."""
    rng = XorShift64(23)
    KG = GenericQ()
    nullities = set()
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(nr, nc))
        a = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(nr)]
        b = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(r)]
        rows = int_product(a, b) if r else [[0] * nc for _ in range(nr)]
        if rng.randrange(3) == 0:
            j = rng.randrange(nc)
            for row in rows:
                row[j] = 0
        got = kernel_basis(Matrix(ZZ, rows))
        ref = kernel_basis(Matrix(KG, rows))
        assert len(got) == len(ref), rows
        nullities.add((len(ref), nc))
        assert all(type(x) is int for v in got for x in v)
        if ref:
            j = next(i for i, x in enumerate(ref[0]) if x)
            d = Fraction(got[0][j]) / ref[0][j]
            assert d and all(Fraction(x) == d * y for v, w in zip(got, ref)
                             for x, y in zip(v, w)), rows
    assert {k for k, _ in nullities} == set(range(7))
    assert any(k == 0 for k, _ in nullities) and (6, 6) in nullities


def test_kernel_random_soundness():
    rng = XorShift64(21)
    for _ in range(50):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = Matrix(F5, [[rng.randrange(5) for _ in range(nc)] for _ in range(nr)])
        ker = kernel_basis(m)
        assert len(ker) == nc - rank(m)
        for v in ker:
            assert all(x == 0 for x in m.apply(v))


def test_integer_kernel():
    m = Matrix(ZZ, [[1, 1], [2, 2]])
    ker = integer_kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert m.apply(v) == (0, 0)
    assert sorted(abs(x) for x in v) == [1, 1]  # primitive vector
    assert integer_kernel(Matrix.identity(ZZ, 3)) == []


def test_rref_pivots():
    m = Matrix(QQ, [[0, 1, 2], [0, 2, 4]])
    red, piv = rref(m)
    assert piv == (1,)
    assert red.row(0) == (Fraction(0), Fraction(1), Fraction(2))


def test_matrix_ops_and_errors():
    m = Matrix(ZZ, [[1, 2], [3, 4]])
    assert (m * Matrix.identity(ZZ, 2)) == m
    assert m.transpose().transpose() == m
    assert m.det() == -2
    with pytest.raises(ShapeError):
        m * Matrix.identity(ZZ, 3)
    with pytest.raises(SingularError):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()
    inv = m.inverse()
    assert inv.ring == QQ  # not integral, so lives in the fraction field
    assert (inv * m.change_ring(QQ)).is_identity()
    uni = Matrix(ZZ, [[1, 1], [0, 1]])
    assert uni.inverse().ring == ZZ


@pytest.mark.parametrize("K,rows", [
    (QQ, [[1, 2], [2, 4]]),
    (QQ, [[0]]),
    (QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
    (QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    (RationalFunctionField("t"), [["t", "t^2"], ["1", "t"]]),
    (RationalFunctionField("t"), [["(1)/(t+1)", "1"], ["1", "t+1"]]),
    (RationalFunctionField("t"), [["0", "0"], ["t", "1"]]),
])
def test_inverse_singular_over_q_and_qt(K, rows):
    m = Matrix(K, [[K.coerce(a) if isinstance(a, int) else K.parse(a)
                    for a in row] for row in rows])
    assert K.is_zero(m.det())
    with pytest.raises(SingularError):
        m.inverse()


def test_inverse_over_q_matches_the_generic_path():
    """Over Q the inverse is fraction-free Gauss-Jordan on integer rows;
    over GenericQ it is the reduced echelon form of [m | I], one Fraction
    operation per scalar.  The two agree entry for entry on generators
    and basis changes with 7-digit denominators, and on integer matrices
    whose inverse leaves Z."""
    rng = XorShift64(7)
    mats = [m.rows() for gens in rational_cases(rng).values()
            for m in (Matrix(QQ, g) for g in gens)]
    mats += [basis_change(rng, d, big=True) for d in (1, 2, 5, 8)]
    mats += [[[2, 1], [1, 3]], [[0, 0, 3], [1, 0, 0], [0, -2, 5]]]
    KG = GenericQ()
    for rows in mats:
        inv = Matrix(QQ, rows).inverse()
        assert inv.entries == Matrix(KG, rows).inverse().entries
        assert (inv * Matrix(QQ, rows)).is_identity()
        a = integer_rows(Matrix(QQ, rows))[0]
        r, d = fraction_free_inverse(a)
        n = len(a)
        assert int_product(a, r) == [[d * int(i == j) for j in range(n)]
                                     for i in range(n)]
    assert Matrix(ZZ, [[2, 1], [1, 3]]).inverse().entries == \
        Matrix(KG, [[2, 1], [1, 3]]).inverse().entries


@pytest.mark.parametrize("ring", [QQ, ZZ, QT, ZT], ids=["Q", "Z", "Qt", "Zt"])
def test_kept_forms(ring):
    """integer_rows over Q and Z and poly_rows over Q(t) and Z[t] are
    computed once and kept with the matrix as tuples of tuples, which
    every caller shares: det and inverse, which eliminate in place on
    copies, and products leave the same immutable rows kept."""
    if ring in (QQ, ZZ):
        form = integer_rows
        m = Matrix(ring, [[Fraction(1, 2), 3], [Fraction(-2, 3), 0]]
                   if ring == QQ else [[2, 1], [1, 1]])
    else:
        form = poly_rows
        m = random_matrix(random.Random(4), ring, 3, 3, deg=2, den_deg=1)
    kept = form(m)
    assert form(m) is kept
    rows, den = kept
    assert type(rows) is tuple and all(type(r) is tuple for r in rows)
    if ring == QQ:
        assert kept == (((3, 18), (-4, 0)), 6)
    elif ring == ZZ:
        assert kept == (((2, 1), (1, 1)), 1)
    else:
        assert from_poly_rows(ring, rows, den) == m
    d = m.det()
    assert not ring.is_zero(d)
    inv = m.inverse()
    if inv.ring == ring:
        assert inv * m == Matrix.identity(ring, m.nrows)
    assert (m * m).det() == ring.mul(d, d)
    assert form(m) is kept


@pytest.mark.parametrize("name", ["b8", "b3_qt"])
def test_each_generator_is_scaled_once(name, monkeypatch):
    """Loading a rep, certifying it and verifying the certificate in one
    process scales each input generator once: every integer_rows over Q
    and every poly_rows over Q(t) after the first reads the rows the
    generator keeps.  The scaling calls are keyed by the entries tuple
    they are handed."""
    calls = []
    lcm_of, clear = matrices.denominator_lcm, \
        RationalFunctionField.clear_denominators

    def counted_lcm(values):
        calls.append(values)
        return lcm_of(values)

    def counted_clear(self, values):
        calls.append(values)
        return clear(self, values)

    monkeypatch.setattr(matrices, "denominator_lcm", counted_lcm)
    monkeypatch.setattr(RationalFunctionField, "clear_denominators",
                        counted_clear)
    rep = load_rep(os.path.join(DATA, name + ".json"))
    cert = certify(rep)
    assert cert.conclusion == IRREDUCIBLE_CERTIFIED
    assert verify(cert, rep)
    counts = [sum(v is g.entries for v in calls) for g in rep.generators]
    assert counts == [1] * len(counts), counts


def test_integral_conjugates_match_the_generic_path():
    """B^-1 g B on integer rows equals the generic b.inverse() * g * b over
    Q for bases B = L D U that are not triangular, with 7-digit
    denominators: the generators of S_n come back from g = B g0 B^-1."""
    rng = XorShift64(5)
    KG = GenericQ()
    for n in (2, 3, 4, 5):
        g0s = std_sn(n)
        for big in (False, True):
            b = basis_change(rng, n - 1, big=big)
            gens = [Matrix(QQ, [[Fraction(x) for x in row] for row in g.rows()])
                    for g in conjugated(KG, g0s, b)]
            a = integer_rows(Matrix(QQ, b))[0]
            xs = [x.rows() for x in integral_conjugates(a, gens)]
            assert xs == g0s
            bg = Matrix(KG, b)
            for x, g in zip(xs, gens):
                assert (bg.inverse() * Matrix(KG, g.rows()) * bg).rows() == x


def test_integral_conjugates_reject_non_integral_and_singular():
    """The conjugates before the first non-integral one are yielded; a
    singular basis is refused before any."""
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    out = integral_conjugates([[2, 0], [0, 1]],
                              [Matrix.identity(QQ, 2), swap, swap])
    assert next(out) == Matrix.identity(ZZ, 2)
    with pytest.raises(IntegralityError):
        next(out)  # [[0, 1/2], [2, 0]]
    with pytest.raises(SingularError):
        integral_conjugates([[1, 2], [2, 4]], [swap])


def test_inverse_over_qt():
    K = RationalFunctionField("t")
    m = Matrix(K, [[K.parse(a) for a in row] for row in
                   [["t", "1", "0"], ["1/2", "(1)/(t-1)", "t^2"],
                    ["0", "3", "t+1"]]])
    inv = m.inverse()
    assert (m * inv).is_identity() and (inv * m).is_identity()


def test_matrix_over_poly_ring():
    ZT = PolynomialRingZ("t")
    m = Matrix(ZT, [[(0, 1), (1,)], [(0,), (1,)]])  # [[t, 1], [0, 1]]
    assert m.det() == (0, 1)
    sq = m * m
    assert sq.entry(0, 0) == (0, 0, 1)  # t^2


def test_poly_at_matrix():
    m = Matrix(QQ, [[0, -1], [1, -1]])
    cp = char_poly(m)
    assert poly_at_matrix(QQ, cp, m).is_zero()  # Cayley-Hamilton


def test_kronecker():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    b = Matrix(ZZ, [[0, 1], [1, 0]])
    k = kronecker(a, b)
    assert k.nrows == 4 and k.ncols == 4
    assert k.entry(0, 1) == 1 and k.entry(0, 3) == 2
    # trace multiplicativity
    assert k.trace() == a.trace() * b.trace()


@pytest.mark.parametrize("K", [ExtensionField(2, (1, 1, 0, 1)),
                               ExtensionField(3, (1, 0, 1))],
                         ids=["F8", "F9"])
def test_restrict_scalars_is_a_ring_map(K):
    """Res(xy) = Res(x) Res(y) and Res(x + y) = Res(x) + Res(y) over F_p,
    also for a column vector, whose restriction is its coefficients, and
    Res(alpha I) commutes with every Res(x)."""
    rng = random.Random(repr(K))
    F, k = PrimeField(K.p), K.k

    def rand(nr, nc):
        return Matrix(K, [[K.element(rng.randrange(K.order))
                           for _ in range(nc)] for _ in range(nr)])

    alpha = restrict_scalars(Matrix.identity(K, 3).scale(K.coerce((0, 1))))
    for _ in range(10):
        x, y, v = rand(3, 3), rand(3, 3), rand(3, 1)
        rx, ry, rv = map(restrict_scalars, (x, y, v))
        assert rx.ring == F and (rx.nrows, rx.ncols) == (3 * k, 3 * k)
        assert restrict_scalars(x * y) == rx * ry
        assert restrict_scalars(x + y) == rx + ry
        assert restrict_scalars(x * v) == rx * rv
        assert alpha * rx == rx * alpha
        assert [rv.entry(i * k + s, 0) for i in range(3) for s in range(k)] \
            == [(v.entry(i, 0) + (0,) * k)[s] for i in range(3)
                for s in range(k)]


def test_pow():
    m = Matrix(QQ, [[0, -1], [1, -1]])
    assert (m ** 3).is_identity()
    assert (m ** -3).is_identity()
    assert (m ** 0).is_identity()


class TestPrimeFieldKernels:
    """The packed kernels over PrimeField give exactly the results of the
    generic descriptor code, run on the same entries over GenericFp."""

    @staticmethod
    def _pairs(p, d):
        rng = XorShift64(1000 * p + d)
        Kf, Kg = PrimeField(p), GenericFp(p)
        return rng, Kf, Kg, [(name, Matrix(Kf, rows), Matrix(Kg, rows))
                             for name, rows in matrix_cases(rng, p, d).items()]

    @pytest.mark.parametrize("p,d", FIELD_SIZES)
    def test_products_sums_and_apply(self, p, d):
        rng, Kf, Kg, pairs = self._pairs(p, d)
        dense_f, dense_g = pairs[0][1], pairs[0][2]
        rect = random_rows(rng, p, d, d + 3)
        rect_f, rect_g = Matrix(Kf, rect), Matrix(Kg, rect)
        vec = tuple(rng.randrange(p) for _ in range(d))
        c = rng.randrange(p)
        for name, mf, mg in pairs:
            assert (mf * dense_f).entries == (mg * dense_g).entries, name
            assert (dense_f * mf).entries == (dense_g * mg).entries, name
            assert (mf * rect_f).entries == (mg * rect_g).entries, name
            assert (mf + dense_f).entries == (mg + dense_g).entries, name
            assert mf.scale(c).entries == mg.scale(c).entries, name
            assert mf.apply(vec) == mg.apply(vec), name
            assert mf.transpose().entries == mg.transpose().entries, name

    @pytest.mark.parametrize("p,d", FIELD_SIZES)
    def test_rref_kernel_det_inverse(self, p, d):
        rng, Kf, Kg, pairs = self._pairs(p, d)
        wide = random_rows(rng, p, max(d // 2, 1), d)
        tall = random_rows(rng, p, d + 2, max(d // 2, 1))
        for rows in (wide, tall):
            rf, pf = rref(Matrix(Kf, rows))
            rg, pg = rref(Matrix(Kg, rows))
            assert (rf.entries, pf) == (rg.entries, pg)
        for name, mf, mg in pairs:
            rf, pf = rref(mf)
            rg, pg = rref(mg)
            assert (rf.entries, pf) == (rg.entries, pg), name
            assert kernel_basis(mf) == kernel_basis(mg), name
            assert mf.det() == mg.det(), name
            if mg.det() == 0:
                with pytest.raises(SingularError):
                    mf.inverse()
                with pytest.raises(SingularError):
                    mg.inverse()
            else:
                assert mf.inverse().entries == mg.inverse().entries, name

    @pytest.mark.parametrize("p,d", FIELD_SIZES)
    def test_det_on_the_kept_columns(self, p, d):
        """det eliminates a copy of the packed columns the matrix keeps
        (det m = det m^T): it packs them on first use, a second det reuses
        them, they stay as they were, and det is GenericFp's."""
        _, _, _, pairs = self._pairs(p, d)
        for name, mf, mg in pairs:
            assert mf.det() == mg.det(), name
            kept = mf._cols
            assert kept is not None and packed_columns(mf) is kept, name
            cols = list(kept[1])
            assert mf.det() == mg.det(), name
            assert packed_columns(mf) is kept and kept[1] == cols, name

    @pytest.mark.parametrize("p", [2, 101, 2147483647])
    def test_empty_shapes(self, p):
        # no rows or no columns: nothing to pack
        Kf, Kg = PrimeField(p), GenericFp(p)
        for nr, nc in ((0, 3), (3, 0), (0, 0)):
            rows = [[1] * nc for _ in range(nr)]
            mf = Matrix._raw(Kf, nr, nc, [x for r in rows for x in r])
            mg = Matrix._raw(Kg, nr, nc, [x for r in rows for x in r])
            rf, pf = rref(mf)
            rg, pg = rref(mg)
            assert (rf.entries, pf) == (rg.entries, pg)
            assert rank(mf) == rank(mg) == 0
            assert kernel_basis(mf) == kernel_basis(mg)
            assert mf.apply((1,) * nc) == mg.apply((1,) * nc)
            other = Matrix._raw(Kf, nc, 2, [1] * (2 * nc))
            assert (mf * other).entries == (0,) * (2 * nr)
        assert Matrix._raw(Kf, 0, 0, []).det() == 1

    @pytest.mark.parametrize("p,d", FIELD_SIZES)
    def test_char_poly_and_poly_at_matrix(self, p, d):
        rng, Kf, Kg, pairs = self._pairs(p, d)
        polys = [(), (rng.randrange(p),), (rng.randrange(p), 1),
                 tuple(rng.randrange(p) for _ in range(3)) + (1,),
                 (rng.randrange(p), rng.randrange(p), p - 1)]
        for name, mf, mg in pairs:
            cp = char_poly(mf)
            assert cp == char_poly(mg), name
            assert len(cp) == d + 1 and cp[-1] == 1, name
            if name == "dense":
                assert poly_at_matrix(Kf, cp, mf).is_zero()
            for f in polys:
                assert poly_at_matrix(Kf, f, mf).entries == \
                    poly_at_matrix(Kg, f, mg).entries, (name, f)
            a, b, c = polys[-1]
            assert poly_at_matrix(Kf, polys[-1], mf) == (mf * mf).scale(c) \
                + mf.scale(b) + Matrix.identity(Kf, d).scale(a), name


class TestPackedPolyKernels:
    """Over Q(t) and Z[t] products, det, inverse and integral conjugation
    run on the Z[t] numerators at t = 2^k; over GenericQt the same come
    from the descriptor code (tests/generic_qt.py).  They agree entry for
    entry, and integrality is decided on the unpacked values."""

    @staticmethod
    def _square_cases(rng, ring):
        # the generic inverse over Q(t) grows fast with n, so n <= 3 there
        sizes = (1, 1, 2, 3) if ring == QT else (1, 1, 2, 3, 4)
        cases = [Matrix._raw(ring, 0, 0, [])]
        cases += [random_matrix(rng, ring, n, n, deg=1) for n in sizes
                  for _ in range(2)]
        cases += [singular(rng, ring, n, deg=1) for n in sizes[2:]]
        cases += [Matrix.zeros(ring, 1, 1), Matrix.zeros(ring, 2, 2)]
        if ring == QT:
            # denominators of degree 8 and 9
            cases += [random_matrix(rng, ring, n, n, deg=1, den_deg=8 + n % 2)
                      for n in (1, 2)]
        else:
            cases += [random_matrix(rng, ring, 2, 2, deg=9)]
        # negative coefficients near 2^64
        near = [(-(1 << 64) + rng.randrange(50), rng.randint(-3, 3),
                 -(1 << 64) + 7) for _ in range(9)]
        cases.append(Matrix(ring, [near[:3], near[3:6], near[6:]]))
        return cases

    @pytest.mark.parametrize("ring", [QT, ZT])
    def test_product_det_inverse_match_the_generic_path(self, ring):
        rng = random.Random(12)
        for m in self._square_cases(rng, ring):
            other = random_matrix(rng, ring, m.nrows, m.nrows)
            assert m * other == over(ring, generic(m) * generic(other)), m
            assert m.det() == reference_det(m), m
            if QT.is_zero(generic(m).det()):
                with pytest.raises(SingularError):
                    m.inverse()
                with pytest.raises(SingularError):
                    generic(m).inverse()
            else:
                assert m.inverse() == reference_inverse(m), m
        for n, l, k in ((2, 3, 1), (0, 2, 3), (3, 0, 2), (1, 4, 2)):
            a = random_matrix(rng, ring, n, l)
            b = random_matrix(rng, ring, l, k)
            assert a * b == over(ring, generic(a) * generic(b))

    def test_entries_that_reach_the_slot_bound(self):
        """A product entry sum a b of constants with one sign reaches the
        bound ||sum a b|| <= sum ||a|| ||b|| exactly, so a slot one bit
        narrower, with no room for the sign, misreads it."""
        for ring in (QT, ZT):
            for c in (1, 3, 1 << 32, (1 << 64) - 1):
                for sign in (1, -1):
                    a = Matrix(ring, [[sign * c] * 3] * 2)
                    b = Matrix(ring, [[c] * 2] * 3)
                    assert (a * b).entries == \
                        Matrix(ring, [[sign * 3 * c * c] * 2] * 2).entries
                    assert a * b == over(ring, generic(a) * generic(b))

    def test_integral_conjugates_match_the_generic_path(self):
        """X = B^-1 g B over Z[t] comes back from g = B X B^-1 for bases
        with denominators of degree up to 8; a generator that is not
        integral in the basis raises IntegralityError at its index on both
        paths."""
        rng = random.Random(3)
        bases = [random_matrix(rng, QT, n, n, deg=1, bits=2, den_deg=1)
                 for n in (1, 2, 2)]
        # the generic path is slow on dense bases with many denominators,
        # so the larger ones are a diagonal times a unitriangular matrix
        for dens in ((8, 0), (1, 2, 1)):
            n = len(dens)
            diag = Matrix._raw(QT, n, n, [
                random_qt(rng, 1, 2, dens[i]) if i == j else QT.zero()
                for i in range(n) for j in range(n)])
            bases.append(diag * Matrix(QT, [
                [1 if i == j else (rng.randint(-3, 3) if j < i else 0)
                 for j in range(n)] for i in range(n)]))
        for b in bases:
            n = b.nrows
            if QT.is_zero(b.det()):
                continue
            xs = [random_matrix(rng, ZT, n, n, deg=1) for _ in range(3)]
            bg = generic(b)
            gens = [over(QT, bg * generic(x) * bg.inverse()) for x in xs]
            a = poly_rows(b)[0]
            assert list(integral_conjugates(a, gens)) == xs
            assert reference_conjugates(b, gens) == xs
            bad = gens[:1] + [random_matrix(rng, QT, n, n, den_deg=2)]
            got = integral_conjugates(a, bad)
            assert next(got) == xs[0]
            with pytest.raises(IntegralityError):
                next(got)
            with pytest.raises(IntegralityError):
                reference_conjugates(b, bad)
        with pytest.raises(SingularError):
            integral_conjugates(poly_rows(singular(rng, QT, 3))[0], gens)

    def test_divisible_at_two_to_the_k_is_not_integral(self):
        """B = diag(1, 2) and g = [[1, 0], [t, 1]] give B^-1 g B with the
        entry t/2: its numerator t over c = det B = 2 is divisible at
        t = 2^k, yet the conjugate is not integral.  So is t^2 over 2t for
        B = diag(1, 2t) and g = [[1, 0], [t^2, 1]]."""
        for b, g in ((["1", "2"], [["1", "0"], ["t", "1"]]),
                     (["1", "2*t"], [["1", "0"], ["t^2", "1"]])):
            b = Matrix(QT, [[QT.parse(b[0]), 0], [0, QT.parse(b[1])]])
            g = Matrix(QT, [[QT.parse(a) for a in row] for row in g])
            with pytest.raises(IntegralityError):
                next(integral_conjugates(poly_rows(b)[0], [g]))
            with pytest.raises(IntegralityError):
                reference_conjugates(b, [g])
        # the inverse of [[2, t], [0, 1]] over Z[t] leaves Z[t]
        m = Matrix(ZT, [[(2,), (0, 1)], [(), (1,)]])
        assert m.inverse().ring == QT
        assert m.inverse() == reference_inverse(m)
        assert m.inverse().entry(0, 1) == QT.parse("-1/2*t")
