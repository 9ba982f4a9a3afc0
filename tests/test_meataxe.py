"""Irreducibility engine: Norton spins, witnesses, commutant dimensions."""

import json
from fractions import Fraction
from math import gcd

import pytest

from irredcert import meataxe, polys
from irredcert.errors import AbsIrredUndecided
from irredcert.matrices import Matrix
from irredcert.meataxe import (INCONCLUSIVE, IRREDUCIBLE, REDUCIBLE,
                               _combination, _decide_q, _echelon_rows,
                               _reduce_against, _sample_theta, endo_dim,
                               is_absolutely_irreducible, is_irreducible, spin,
                               subspace_is_invariant)
from irredcert.oracle import count_invariant
from irredcert.prng import XorShift64
from irredcert.reps import Representation, conjugate, direct_sum
from irredcert.rings import QQ, ExtensionField, PrimeField, \
    RationalFunctionField

from generic_fp import FIELD_SIZES, GenericFp, matrix_cases, random_rows
from generic_q import GenericQ, rational_cases

QT = RationalFunctionField("t")


def s3_over(ring):
    relations = [[(0, 1)] * 3, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
    return Representation(ring, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
                          relations, label="s3")


def spin_full_rref(K, mats, v):
    """Oracle for spin: the basis is kept in full reduced echelon form
    after every vector that joins, with descriptor calls only."""
    d = len(v)
    rows, pivots = [], []

    def add(w):
        w = list(w)
        for pi, r in zip(pivots, rows):
            c = w[pi]
            if not K.is_zero(c):
                w = [K.sub(a, K.mul(c, b)) for a, b in zip(w, r)]
        for idx, a in enumerate(w):
            if not K.is_zero(a):
                inv = K.div(K.one(), a)
                w = [K.mul(inv, x) for x in w]
                for j in range(len(rows)):
                    c = rows[j][idx]
                    if not K.is_zero(c):
                        rows[j] = [K.sub(x, K.mul(c, y))
                                   for x, y in zip(rows[j], w)]
                pos = 0
                while pos < len(pivots) and pivots[pos] < idx:
                    pos += 1
                pivots.insert(pos, idx)
                rows.insert(pos, w)
                return True
        return False

    queue = [tuple(v)]
    add(v)
    while queue and len(rows) < d:
        b = queue.pop()
        for m in mats:
            w = m.apply(b)
            if add(list(w)):
                queue.append(tuple(w))
    return tuple(tuple(r) for r in rows)


def random_invertible(K, d, rng, scalar=None):
    if scalar is None:
        elements = list(K.iter_elements())

        def scalar():
            return elements[rng.randrange(len(elements))]
    while True:
        m = Matrix(K, [[scalar() for _ in range(d)] for _ in range(d)])
        if not K.is_zero(m.det()):
            return m


class TestVerdicts:

    def test_one_dimensional(self):
        rep = Representation(QQ, [Matrix(QQ, [[Fraction(7)]])], [])
        assert is_irreducible(rep).status == IRREDUCIBLE

    def test_s3_mod_5_irreducible(self):
        v = is_irreducible(s3_over(PrimeField(5)))
        assert v.status == IRREDUCIBLE
        assert v.witness is None

    def test_s3_mod_3_reducible_pinned_witness(self):
        v = is_irreducible(s3_over(PrimeField(3)))
        assert v.status == REDUCIBLE
        assert v.witness == ((1, 2),)

    def test_block_triangular_over_q(self):
        rep = Representation(QQ, [[[1, 1], [0, 1]], [[2, 3], [0, 1]]], [])
        v = is_irreducible(rep)
        assert v.status == REDUCIBLE
        assert v.witness == ((Fraction(1), Fraction(0)),)

    def test_s3_over_q_irreducible(self):
        v = is_irreducible(s3_over(QQ))
        assert v.status == IRREDUCIBLE
        # decided by an irreducible characteristic polynomial x^2+x+1
        assert v.transcript["decision"]["factor"] == "x^2 + x + 1"

    def test_rotation_mod_5_reducible(self):
        rep = Representation(PrimeField(5), [[[0, -1], [1, 0]]], [])
        v = is_irreducible(rep)
        assert v.status == REDUCIBLE
        assert not is_absolutely_irreducible(rep)

    def test_extension_field(self):
        F4 = ExtensionField(2, (1, 1, 1))  # x^2+x+1
        # multiplication by a generator of F_16 over F_4 is irreducible
        a = F4.coerce((0, 1))
        rep = Representation(F4, [Matrix(F4, [[0, a], [1, 1]])], [])
        assert is_irreducible(rep).status == IRREDUCIBLE

    def test_witnesses_are_reverified_and_invariant(self):
        rng = XorShift64(99)
        F3 = PrimeField(3)
        for _ in range(20):
            # random block upper-triangular pair: always reducible
            mats = []
            for _ in range(2):
                a = 1 + rng.randrange(2)
                b = rng.randrange(3)
                c = 1 + rng.randrange(2)
                mats.append(Matrix(F3, [[a, b], [0, c]]))
            rep = Representation(F3, mats, [])
            v = is_irreducible(rep)
            assert v.status == REDUCIBLE
            assert subspace_is_invariant(F3, list(rep.generators), v.witness)
            assert 0 < len(v.witness) < 2 + 1


class TestOracleAgreement:

    def test_random_reps_match_brute_force(self):
        # 200 seeded random generator pairs, dims 2 and 3 over F_2 and F_3;
        # no Inconclusive is allowed at these sizes
        rng = XorShift64(2024)
        cases = 0
        for p in (2, 3):
            K = PrimeField(p)
            for _ in range(50):
                for d in (2, 3):
                    gens = [random_invertible(K, d, rng) for _ in range(2)]
                    rep = Representation(K, gens, [])
                    v = is_irreducible(rep)
                    assert v.status != INCONCLUSIVE
                    brute_irreducible = count_invariant(rep) == 2
                    assert (v.status == IRREDUCIBLE) == brute_irreducible
                    cases += 1
        assert cases == 200


class TestConjugationInvariance:

    def test_finite_field(self):
        rng = XorShift64(5)
        K = PrimeField(5)
        reps = [s3_over(K),
                Representation(K, [[[0, -1], [1, 0]]], []),
                Representation(K, [[[1, 1], [0, 1]], [[1, 0], [3, 1]]], [])]
        for rep in reps:
            base = is_irreducible(rep).status
            for _ in range(5):
                pmat = random_invertible(K, rep.dim, rng)
                other = conjugate(rep, pmat)
                v = is_irreducible(other)
                assert v.status == base
                if v.status == REDUCIBLE:
                    assert subspace_is_invariant(
                        K, list(other.generators), v.witness)

    def test_rational(self):
        rep = s3_over(QQ)
        pmat = Matrix(QQ, [[1, 2], [1, 3]])
        assert is_irreducible(conjugate(rep, pmat)).status == IRREDUCIBLE


class TestDeterminism:

    def test_byte_identical_transcripts(self):
        rep = s3_over(PrimeField(7))
        a = is_irreducible(rep, seed=42, budget=50)
        b = is_irreducible(rep, seed=42, budget=50)
        dumps = lambda t: json.dumps(t, sort_keys=True)
        assert dumps(a.transcript) == dumps(b.transcript)
        c = is_irreducible(rep, seed=43, budget=50)
        assert c.status == a.status  # verdict stable across seeds


class TestEndoDim:

    def test_identity_rep(self):
        K = PrimeField(5)
        rep = Representation(K, [Matrix.identity(K, 2)], [])
        assert endo_dim(rep) == 4

    def test_s3_mod_5_schur(self):
        assert endo_dim(s3_over(PrimeField(5))) == 1

    def test_sum_of_trivials(self):
        K = PrimeField(3)
        one = Representation(K, [Matrix(K, [[1]])], [])
        assert endo_dim(direct_sum(one, one)) == 4

    def test_rational_s3(self):
        assert endo_dim(s3_over(QQ)) == 1


class TestAbsoluteIrreducibility:

    def test_s3_mod_5_true(self):
        assert is_absolutely_irreducible(s3_over(PrimeField(5)))

    def test_one_dim_true(self):
        K = PrimeField(3)
        rep = Representation(K, [Matrix(K, [[2]])], [])
        assert is_absolutely_irreducible(rep)

    def test_rotation_false(self):
        rep = Representation(PrimeField(5), [[[0, -1], [1, 0]]], [])
        assert not is_absolutely_irreducible(rep)

    def test_requires_finite_field(self):
        with pytest.raises(ValueError):
            is_absolutely_irreducible(s3_over(QQ))

    def test_irreducible_but_not_absolutely(self):
        # rotation by 90 degrees over F_3: x^2+1 is irreducible mod 3, so the
        # rep is irreducible, but its commutant is the field F_9
        rep = Representation(PrimeField(3), [[[0, -1], [1, 0]]], [])
        assert is_irreducible(rep).status == IRREDUCIBLE
        assert endo_dim(rep) == 2
        assert not is_absolutely_irreducible(rep)


class TestFunctionField:

    def test_constant_delegation(self):
        v = is_irreducible(s3_over(QT))
        assert v.status == IRREDUCIBLE
        assert v.transcript.get("delegated_to_Q") is True

    def test_nonconstant_irreducible_by_specialization(self):
        rep = s3_over(QT)
        t = QT.coerce(((0, 1), (1,)))
        c = Matrix.from_columns(QT, [(QT.one(), QT.zero()), (QT.zero(), t)])
        hidden = conjugate(rep, c)
        v = is_irreducible(hidden)
        assert v.status == IRREDUCIBLE
        assert v.transcript["decision"]["rule"] == "irreducible_specialization"

    def test_nonconstant_reducible_witness(self):
        t = QT.coerce(((0, 1), (1,)))
        g = Matrix.from_columns(QT, [(t, QT.zero()), (QT.zero(), QT.one())])
        rep = Representation(QT, [g], [])
        v = is_irreducible(rep)
        assert v.status == REDUCIBLE
        assert subspace_is_invariant(QT, list(rep.generators), v.witness)


class TestPrimeFieldSpin:
    """The one spin over PrimeField (int rows) and over GenericFp (descriptor
    calls) agrees with the full-RREF oracle, as does the invariance check
    on both rings; then the same spin over Q, Q(t) and F_4."""

    @pytest.mark.parametrize("p,d", FIELD_SIZES)
    def test_spin_matches_generic(self, p, d):
        rng = XorShift64(7 * p + d)
        Kf, Kg = PrimeField(p), GenericFp(p)
        cases = matrix_cases(rng, p, d)
        # [[A, X], [0, B]] fixes the span of the first k basis vectors
        k = d // 2
        cases["block"] = [[0] * k + row[k:] if i >= k else row
                          for i, row in enumerate(random_rows(rng, p, d, d))]
        vectors = [tuple(int(i == 0) for i in range(d)),
                   tuple(int(i == d - 1) for i in range(d)),
                   tuple(rng.randrange(p) for _ in range(d)),
                   (0,) * d]
        for names in (("dense", "permutation"), ("block", "dense"),
                      ("block", "low_rank"), ("nilpotent",),
                      ("singular", "identity"), ("zero",)):
            mf = [Matrix(Kf, cases[n]) for n in names]
            mg = [Matrix(Kg, cases[n]) for n in names]
            for v in vectors:
                rows = spin(Kf, mf, v)
                assert rows == spin(Kg, mg, v) == spin_full_rref(Kg, mg, v), \
                    (names, v)
                assert subspace_is_invariant(Kf, mf, rows)
            for n in (1, max(d // 2, 1)):
                rows = _echelon_rows(Kf, random_rows(rng, p, n, d))
                assert subspace_is_invariant(Kf, mf, rows) == \
                    subspace_is_invariant(Kg, mg, rows), names

    @pytest.mark.parametrize("field", ["Q", "Q(t)", "F4"])
    def test_spin_matches_oracle_other_fields(self, field):
        rng = XorShift64(len(field))
        if field == "Q":
            K, d, rounds = QQ, 8, 4

            def scalar():
                return QQ.coerce(Fraction(rng.randint(-5, 5),
                                          rng.randint(1, 3)))
        elif field == "Q(t)":
            K, d, rounds = QT, 4, 2

            def scalar():
                num = tuple(rng.randint(-2, 2) for _ in range(2))
                den = (1, 1) if rng.randrange(4) == 0 else (1,)
                return QT.coerce((num, den))
        else:
            K, d, rounds = ExtensionField(2, [1, 1, 1]), 10, 4
            elements = list(K.iter_elements())

            def scalar():
                return elements[rng.randrange(4)]

        def matrix(zero_block=False):
            k = d // 2
            return Matrix(K, [[K.zero() if zero_block and i >= k and j < k
                               else scalar() for j in range(d)]
                              for i in range(d)])

        e0 = (K.one(),) + (K.zero(),) * (d - 1)
        for _ in range(rounds):
            # c [[A, B], [0, C]] c^-1 fixes the span of the first d/2
            # columns of c, which lies along no coordinate axes
            c = random_invertible(K, d, rng, scalar)
            ci = c.inverse()
            moved = [c * matrix(True) * ci for _ in range(2)]
            for mats, vectors in (
                    ([matrix(), matrix()], [e0, [scalar() for _ in range(d)]]),
                    ([matrix(True), matrix(True)], [e0]),
                    ([matrix(True)], [e0, [scalar() for _ in range(d)]]),
                    (moved, [c.apply(e0)]),
                    ([Matrix.identity(K, d), Matrix.zeros(K, d, d)],
                     [e0, [K.zero()] * d])):
                for v in vectors:
                    rows = spin(K, mats, v)
                    assert rows == spin_full_rref(K, mats, v)
                    assert subspace_is_invariant(K, mats, rows)


def _rational_vectors(rng, d):
    """Start vectors for the spins over Q: unit vectors, small and 7-digit
    denominators, a vector with large content, and zero."""
    def small():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return [
        [Fraction(int(i == 0)) for i in range(d)],
        [Fraction(int(i == d - 1)) for i in range(d)],
        [small() for _ in range(d)],
        [Fraction(rng.randint(-9, 9), rng.choice([1, 1000003, 9999991]))
         for _ in range(d)],
        [Fraction(3 ** 80 * rng.randint(-4, 4)) for _ in range(d)],
        [Fraction(0)] * d,
    ]


class TestRationalIntegerRows:
    """Over QQ the spin, the invariance check, theta and the direct search
    run on integer rows; over GenericQ the same data takes the generic
    descriptor path, which is the reference."""

    KG = GenericQ()

    @pytest.fixture(scope="class")
    def cases(self):
        return rational_cases(XorShift64(2026))

    @staticmethod
    def _mats(K, gens):
        return [Matrix(K, g) for g in gens]

    def test_spin_matches_generic(self, cases):
        rng = XorShift64(31)
        kinds = set()
        for name, gens in cases.items():
            mq, mg = self._mats(QQ, gens), self._mats(self.KG, gens)
            d = mq[0].nrows
            for mats_q, mats_g in ((mq, mg),
                                   ([m.transpose() for m in mq],
                                    [m.transpose() for m in mg]),
                                   (mq[:1], mg[:1])):
                for v in _rational_vectors(rng, d):
                    rows = spin(QQ, mats_q, v)
                    assert rows == spin(self.KG, mats_g, v) == \
                        spin_full_rref(self.KG, mats_g, v), (name, v)
                    assert all(type(a) is Fraction for r in rows for a in r)
                    assert subspace_is_invariant(QQ, mats_q, rows)
                    kinds.add("full" if len(rows) == d else
                              "zero" if not rows else "proper")
        assert kinds == {"full", "proper", "zero"}

    def test_stored_rows_are_primitive(self, cases, monkeypatch):
        # each row the spin keeps is divided by its content
        sizes = []

        def spy(K, rows, pivots, w):
            if K == QQ:
                assert all(gcd(*r) == 1 for r in rows)
                sizes.append(len(rows))
            return _reduce_against(K, rows, pivots, w)

        monkeypatch.setattr(meataxe, "_reduce_against", spy)
        rng = XorShift64(37)
        for gens in cases.values():
            mq = self._mats(QQ, gens)
            for v in _rational_vectors(rng, mq[0].nrows):
                spin(QQ, mq, v)
        assert max(sizes) >= 6

    def test_fraction_free_step(self):
        # w <- (a/g) w - (c/g) r: a = 6, c = 4, g = 2
        assert _reduce_against(QQ, [[6, 1, 0]], [0], [4, 0, 5]) == [0, -2, 15]
        rows, pivots = [[2, 1, 1], [0, 3, 1]], [0, 1]
        assert _reduce_against(QQ, rows, pivots, [4, 5, 7]) == [0, 0, 4]
        assert _reduce_against(QQ, rows, pivots, [0, 0, 0]) == [0, 0, 0]
        assert _reduce_against(QQ, rows, pivots, [-2, 2, 0]) == [0, 0, 0]

    def test_probe_is_a_positive_multiple(self):
        # a probe over Q is a multiple of sum c_i v_i on integer rows
        rng = XorShift64(43)
        for _ in range(30):
            vecs = [[Fraction(rng.randint(-9, 9), rng.choice([1, 3, 1000003]))
                     for _ in range(5)] for _ in range(3)]
            coeffs = [QQ.coerce(rng.randint(-3, 3)) for _ in vecs]
            ref = _combination(self.KG, coeffs, vecs)
            got = _combination(QQ, coeffs, vecs)
            assert all(type(a) is int for a in got)
            k = next((Fraction(g) / r for g, r in zip(got, ref) if r), 1)
            assert k > 0 and [Fraction(g) for g in got] == [k * r for r in ref]

    def test_invariance_matches_generic(self, cases):
        rng = XorShift64(41)
        seen = set()
        for name, gens in cases.items():
            mq, mg = self._mats(QQ, gens), self._mats(self.KG, gens)
            d = mq[0].nrows
            candidates = [spin(self.KG, mg, v)
                          for v in _rational_vectors(rng, d)[:4]]
            for n in range(1, d):
                candidates.append(_echelon_rows(self.KG, [
                    [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 1000003]))
                     for _ in range(d)] for _ in range(n)]))
            for rows in candidates:
                expect = subspace_is_invariant(self.KG, mg, rows)
                assert subspace_is_invariant(QQ, mq, rows) == expect, name
                seen.add(expect)
        assert seen == {True, False}

    def test_theta_matches_generic(self, cases):
        for name, gens in cases.items():
            rq = Representation(QQ, gens, [])
            rg = Representation(self.KG, gens, [])
            a, b = XorShift64(5), XorShift64(5)
            for i in range(12):
                tq, rec_q = _sample_theta(rq, a, i)
                tg, rec_g = _sample_theta(rg, b, i)
                assert tq.ring == QQ and rec_q == rec_g
                assert tq.entries == tg.entries, (name, i)
                assert all(type(x) is Fraction for x in tq.entries)

    def test_decide_q_matches_generic(self, cases):
        statuses = set()
        for name, gens in cases.items():
            for seed in (0, 3):
                vq = _decide_q(Representation(QQ, gens, []), seed, 12)
                vg = _decide_q(Representation(self.KG, gens, []), seed, 12)
                assert vq.status == vg.status, name
                assert vq.witness == vg.witness, name
                assert json.dumps(vq.transcript, sort_keys=True) == \
                    json.dumps(vg.transcript, sort_keys=True), name
                statuses.add(vq.status)
        assert statuses == {IRREDUCIBLE, REDUCIBLE}

    def test_rational_roots_once_per_polynomial(self, cases, monkeypatch):
        # the roots of a sampled characteristic polynomial serve both the
        # irreducibility check and the factor list, and a repeated
        # squarefree part is tried once
        calls = []
        roots = polys.rational_roots

        def counted(f):
            calls.append(tuple(f))
            return roots(f)

        monkeypatch.setattr(polys, "rational_roots", counted)
        rep = Representation(QQ, cases["s4+s5_big"], [])
        for seed in range(4):
            calls.clear()
            assert is_irreducible(rep, seed=seed).status == REDUCIBLE
            assert calls and len(set(calls)) == len(calls), seed
