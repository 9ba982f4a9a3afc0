"""Irreducibility engine: Norton spins, witnesses, commutant dimensions."""

import json
import pathlib
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from irredcert import meataxe, polys
from irredcert.errors import AbsIrredUndecided
from irredcert.fpoly import pack, unpack
from irredcert.lattices import PrimeSpec, reduce_rep, saturate
from irredcert.matrices import (Matrix, char_poly, integer_rows,
                                kernel_basis, packed_columns, poly_at_matrix)
from irredcert.meataxe import (INCONCLUSIVE, IRREDUCIBLE, REDUCIBLE,
                               _combination, _decide, _echelon_rows,
                               _poly_at_q, _reduce_against, _reduce_fp,
                               _sample_theta, endo_dim,
                               is_absolutely_irreducible,
                               is_irreducible, spin, subspace_is_invariant)
from irredcert.oracle import count_invariant
from irredcert.prng import XorShift64
from irredcert.reps import (Representation, adjoint_rep, conjugate,
                            direct_sum, load_rep)
from irredcert.rings import QQ, ZZ, ExtensionField, PrimeField, \
    RationalFunctionField

import two_sided_norton
from generic_fp import FIELD_SIZES, GenericFp, matrix_cases, random_rows
from generic_q import GenericQ, rational_cases, std_sn

QT = RationalFunctionField("t")
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


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


def random_block_triangular(K, d, rng):
    """Two generators with a common invariant subspace of random dimension
    k: block upper triangular, conjugated by one random invertible matrix
    so that the subspace is no coordinate subspace."""
    k = 1 + rng.randrange(d - 1)
    c = random_invertible(K, d, rng)
    gens = []
    for _ in range(2):
        a = random_invertible(K, k, rng)
        b = random_invertible(K, d - k, rng)
        rows = [list(a.row(i)) + [rng.randrange(K.p) for _ in range(d - k)]
                for i in range(k)]
        rows += [[0] * k + list(b.row(i)) for i in range(d - k)]
        gens.append(c * Matrix(K, rows) * c.inverse())
    return gens


def lemma_sweep(n):
    """n seeded reps over F_2 and F_3 of dims 3 to 5, alternately block
    triangular (random_block_triangular) and random pairs, which are
    mostly irreducible."""
    rng = XorShift64(2310)
    for i in range(n):
        K = PrimeField(2 + i % 2)
        d = 3 + rng.randrange(3)
        if i % 4 < 2:
            gens = random_block_triangular(K, d, rng)
        else:
            gens = [random_invertible(K, d, rng) for _ in range(2)]
        yield Representation(K, gens, [])


def norton_spins(monkeypatch, rep):
    """The verdict on rep and, for each Norton test, its primal and dual
    spin counts."""
    counts = []
    spin_, attempt = meataxe.spin, meataxe._norton_attempt

    def counted_attempt(*args):
        counts.append({"primal": 0, "dual": 0})
        return attempt(*args)

    def counted_spin(K, mats, v):
        counts[-1]["primal" if mats[0] is rep.generators[0] else "dual"] += 1
        return spin_(K, mats, v)

    with monkeypatch.context() as m:
        m.setattr(meataxe, "_norton_attempt", counted_attempt)
        m.setattr(meataxe, "spin", counted_spin)
        verdict = is_irreducible(rep)
    return verdict, counts


class TestNortonLemma:
    """After a full primal enumeration the engine spins one dual vector,
    where the reference (tests/two_sided_norton.py) enumerates the whole
    dual kernel: Norton's lemma says the first dual vector decides."""

    def test_matches_two_sided_enumeration(self, monkeypatch):
        ends = {"dual_enumeration_full": 0, "dual_enumeration_proper": 0}
        reps = list(lemma_sweep(3000))
        for rep in reps:
            got = is_irreducible(rep)
            with monkeypatch.context() as m:
                m.setattr(meataxe, "_norton_attempt",
                          two_sided_norton.norton_attempt)
                want = is_irreducible(rep)
            assert got.status == want.status
            assert got.transcript == want.transcript
            assert got.witness == want.witness
            for sample in got.transcript["samples"]:
                for rec in sample["factors"]:
                    if "primal_enumeration_full" in rec["events"]:
                        ends[rec["events"][-1].split(":")[0]] += 1
        assert len(reps) == 3000
        # both branches of the lemma are met
        assert min(ends.values()) > 0, ends

    def test_s7_mod_2_deciding_spins(self, monkeypatch):
        # the S7 standard rep mod 2 is decided by its first sample, x + 1
        # of nullity 5: 2^5 = 32 is within the enumeration bound, so 31
        # projective points, then one dual vector, where the two-sided
        # enumeration spins 31 on each side
        red = Representation(PrimeField(2), std_sn(7), [], label="S7 mod 2")
        verdict, counts = norton_spins(monkeypatch, red)
        assert verdict.status == IRREDUCIBLE
        assert counts == [{"primal": 31, "dual": 1}]
        monkeypatch.setattr(meataxe, "_norton_attempt",
                            two_sided_norton.norton_attempt)
        verdict, counts = norton_spins(monkeypatch, red)
        assert verdict.status == IRREDUCIBLE
        assert counts == [{"primal": 31, "dual": 31}]

    def test_s9_mod_2_takes_a_fresh_sample(self, monkeypatch):
        # the S9 standard rep mod 2 has x + 1 of nullity 7 at its first
        # sample, and 2^7 passes the enumeration bound: the kernel is
        # probed (its 7 basis vectors and 4 combinations, then the 7 dual
        # basis vectors) where 127 points were enumerated, and the second
        # sample decides by one spin on each side at x^2 + x + 1
        int_rep = saturate(load_rep(str(DATA / "s9.json")))[1]
        red = reduce_rep(int_rep, PrimeSpec.parse("(2)", ZZ))
        verdict, counts = norton_spins(monkeypatch, red)
        assert verdict.status == IRREDUCIBLE
        samples = verdict.transcript["samples"]
        assert [(r["poly"], r["nullity"], r["events"])
                for r in samples[0]["factors"]] == \
            [("x + 1", 7, ["undecided_high_multiplicity"])]
        assert verdict.transcript["decision"] == {
            "status": IRREDUCIBLE, "sample": 1, "factor": "x^2 + x + 1"}
        assert counts == [{"primal": 11, "dual": 7}, {"primal": 1, "dual": 1}]


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

    def test_fp_transcript_ignores_the_factoring_draws(self, monkeypatch):
        # B8 + twisted B8 mod 101 splits (x + 1)^8 (x - 1)^8 by a split
        # that draws, then probes kernels by random combinations: the
        # factors do not depend on the split's draws, so neither may the
        # transcript
        rep = load_rep(str(DATA / "fp" / "b8_twisted_sum_mod101.json"))
        plain = is_irreducible(rep)
        split = polys.equal_degree_split

        def drawing_more(K, f, d, rng):
            for _ in range(3):
                rng.randrange(K.order)
            return split(K, f, d, rng)

        monkeypatch.setattr(polys, "equal_degree_split", drawing_more)
        extra = is_irreducible(rep)
        assert plain.status == REDUCIBLE
        assert extra.transcript == plain.transcript


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
        # no commutant over Q: Hom dimensions need a finite field
        with pytest.raises(ValueError, match="finite field"):
            endo_dim(s3_over(QQ))

    def test_sl2_f4_natural_and_adjoint(self):
        # the natural rep of SL2(F_4) over F_4 has scalar commutant; the
        # commutant of its adjoint End(V) is spanned by the identity and
        # X -> tr(X) I, nilpotent in characteristic 2, where tr(I) = 0
        rep = load_rep(DATA / "fq" / "sl2_f4.json")
        assert endo_dim(rep) == 1
        assert endo_dim(adjoint_rep(rep)) == 2

    def test_rotation_over_f9(self):
        # x^2 + 1 is the modulus of F_9, so the rotation by 90 degrees has
        # the eigenvalues x and -x there: two distinct lines, each
        # invariant, and a diagonalizable commutant of dimension 2
        rep = Representation(ExtensionField(3, (1, 0, 1)),
                             [[[0, -1], [1, 0]]], [])
        assert endo_dim(rep) == 2
        assert is_irreducible(rep).status == REDUCIBLE


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

    def test_sl2_f4_natural(self):
        assert is_absolutely_irreducible(load_rep(DATA / "fq" / "sl2_f4.json"))

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
        c = Matrix(QT, [(QT.one(), QT.zero()), (QT.zero(), t)])
        hidden = conjugate(rep, c)
        v = is_irreducible(hidden)
        assert v.status == IRREDUCIBLE
        assert v.transcript["decision"]["rule"] == "irreducible_specialization"

    def test_nonconstant_reducible_witness(self):
        t = QT.coerce(((0, 1), (1,)))
        g = Matrix(QT, [(t, QT.zero()), (QT.zero(), QT.one())])
        rep = Representation(QT, [g], [])
        v = is_irreducible(rep)
        assert v.status == REDUCIBLE
        assert subspace_is_invariant(QT, list(rep.generators), v.witness)


class TestPrimeFieldSpin:
    """The one spin over PrimeField (packed) and over GenericFp (descriptor
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
                   (p - 1,) * d, (0,) * d]
        for names in (("dense", "permutation"), ("block", "dense"),
                      ("full", "dense"),
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

    @pytest.mark.parametrize("p,d", [(3, 40), (3, 64), (101, 64), (2, 24),
                                     (3, 31), (3, 32), (5, 7), (5, 8),
                                     (7, 3), (7, 4)])
    def test_packed_slots_hold_the_spin_bound(self, p, d):
        # every entry p - 1: M w fills each slot to d (p - 1)^2, and the
        # reduction against d - 1 rows whose entries past the pivot are
        # p - 1 adds close to (d - 1)(p - 1)^2 to the last slot; at (3, 40)
        # that passes the one byte that d products alone would need
        K = PrimeField(p)
        full = Matrix(K, [[p - 1] * d] * d)
        assert (full * full).entries == (d * (p - 1) ** 2 % p,) * (d * d)
        nb, cols = packed_columns(full)
        rows = [[0] * k + [1] + [p - 1] * (d - 1 - k) for k in range(d - 1)]
        w = sum(map(mul, [p - 1] * d, cols))
        got = _reduce_fp(w, [pack(r, nb, p) for r in rows],
                         [8 * nb * k for k in range(d - 1)], p, nb)
        want = list(full.apply((p - 1,) * d))
        for k, r in enumerate(rows):
            want = [(x - want[k] * y) % p for x, y in zip(want, r)]
        assert unpack([got], d, nb, p) == want

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


@pytest.mark.parametrize("field", ["F3", "Q", "F4", "Q(t)"])
def test_subspace_is_invariant_on_every_path(field, monkeypatch):
    """The invariance check on each path of the shared loop: packed over
    F_3, integer rows over Q, descriptor calls over F_4 and Q(t).  Turning
    down a line that is not invariant stops at the first image that leaves
    it: one reduction for the seed and at most one per generator."""
    rng = XorShift64(len(field) + 11)
    if field == "F4":
        K = ExtensionField(2, [1, 1, 1])
        elements = list(K.iter_elements())

        def scalar():
            return elements[rng.randrange(4)]
    elif field == "Q(t)":
        K = QT

        def scalar():
            return QT.coerce((tuple(rng.randint(-2, 2) for _ in range(2)),
                              (1,)))
    else:
        K = PrimeField(3) if field == "F3" else QQ

        def scalar():
            return K.coerce(Fraction(rng.randint(-4, 4), rng.choice([1, 2])))

    d, k = 8, 4
    # [[A, B], [0, C]] fixes the span of the first k basis vectors, and the
    # 1 in the corner moves the last basis vector off its line
    mats = []
    for _ in range(3):
        rows = [[K.zero() if i >= k and j < k else scalar() for j in range(d)]
                for i in range(d)]
        rows[0][d - 1] = K.one()
        mats.append(Matrix(K, rows))
    unit = [tuple(K.one() if i == j else K.zero() for j in range(d))
            for i in range(d)]
    proper = spin(K, mats, unit[0])
    assert 0 < len(proper) <= k
    for rows in ((), tuple(unit), proper):
        assert subspace_is_invariant(K, mats, rows)

    name = "_reduce_fp" if field == "F3" else "_reduce_against"
    reduce, calls = getattr(meataxe, name), []

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(meataxe, name, counted)
    assert not subspace_is_invariant(K, mats, [unit[d - 1]])
    assert 1 <= len(calls) <= 1 + len(mats)


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


def _one_factor_apart(got, ref):
    """Whether the vectors got are those of ref times one nonzero factor."""
    if len(got) != len(ref):
        return False
    if not ref:
        return True
    j = next(i for i, x in enumerate(ref[0]) if x)
    k = Fraction(got[0][j]) / ref[0][j]
    return k != 0 and all(Fraction(x) == k * y for v, w in zip(got, ref)
                          for x, y in zip(v, w))


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
        # a probe over Q combines an integer kernel basis, as kernel_basis
        # gives it over Z, on integers: a positive multiple of sum c_i v_i,
        # for rational coefficients too
        rng = XorShift64(43)
        for _ in range(30):
            vecs = [[rng.randint(-9, 9) * rng.choice([1, 3, 1000003])
                     for _ in range(5)] for _ in range(3)]
            coeffs = [QQ.coerce(Fraction(rng.randint(-3, 3),
                                         rng.choice([1, 2, 3])))
                      for _ in vecs]
            ref = _combination(self.KG, coeffs,
                               [[Fraction(a) for a in v] for v in vecs])
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
                # theta over Q is (A, D): integer rows over the least
                # common denominator of the generic theta's entries, which
                # integer_rows keeps as tuples
                tq, rec_q = _sample_theta(rq, a, i)
                tg, rec_g = _sample_theta(rg, b, i)
                assert rec_q == rec_g
                d = tg.nrows
                assert (tuple(map(tuple, tq[0])), tq[1]) == \
                    integer_rows(Matrix._raw(QQ, d, d, tg.entries)), (name, i)
                assert all(type(x) is int for r in tq[0] for x in r)
                assert type(tq[1]) is int and tq[1] > 0

    def test_poly_at_q_is_a_multiple(self, cases):
        # on integer rows, g(theta) comes out as a nonzero multiple over Z,
        # whose kernel bases on both sides are those of g(theta) times one
        # common factor each
        rng = XorShift64(47)
        nullities = set()
        for gens in cases.values():
            rep = Representation(QQ, gens, [])
            d = rep.dim
            for i in range(4):
                theta = _sample_theta(rep, rng, i)[0]
                tm = Matrix._raw(QQ, d, d, [Fraction(a, theta[1])
                                            for r in theta[0] for a in r])
                parts = polys.squarefree_parts(QQ, char_poly(tm))
                for g in parts + [(Fraction(-1, 3), QQ.one())]:
                    ref = poly_at_matrix(QQ, g, tm)
                    got = _poly_at_q(g, theta)
                    assert got.ring == ZZ
                    k = next((b / a for a, b in zip(ref.entries, got.entries)
                              if a), 1)
                    assert k and Matrix(QQ, got.rows()) == ref.scale(k)
                    for m, r in ((got, ref), (got.transpose(),
                                              ref.transpose())):
                        assert _one_factor_apart(kernel_basis(m),
                                                 kernel_basis(r))
                    nullities.add(len(kernel_basis(ref)) > 0)
        assert nullities == {True, False}

    def test_decide_q_matches_generic(self, cases):
        # q8 runs out of budget: its samples repeat characteristic
        # polynomials and probe lines, so a run reuses its analyses and
        # skips the lines that spun full
        runs = [(name, gens, seed, 12) for name, gens in cases.items()
                for seed in (0, 3)]
        q8 = [g.rows() for g in load_rep(str(DATA / "q8.json")).generators]
        runs += [("q8", q8, seed, 40) for seed in (0, 3)]
        statuses = set()
        for name, gens, seed, budget in runs:
            vq = _decide(Representation(QQ, gens, []), seed, budget)
            vg = _decide(Representation(self.KG, gens, []), seed, budget)
            assert vq.status == vg.status, name
            assert vq.witness == vg.witness, name
            assert json.dumps(vq.transcript, sort_keys=True) == \
                json.dumps(vg.transcript, sort_keys=True), name
            statuses.add(vq.status)
            if name == "q8":
                polys_seen = [s["charpoly"] for s in vq.transcript["samples"]]
                assert len(set(polys_seen)) < len(polys_seen) == budget
        assert statuses == {IRREDUCIBLE, REDUCIBLE, INCONCLUSIVE}

    @staticmethod
    def _q8_calls(monkeypatch, sites):
        """The arguments of each call to the given (module, name) sites in
        q8's search over Q at seed 0, the (0) step of its certificate."""
        calls = {name: [] for _, name in sites}
        for module, name in sites:
            def counted(*args, _f=getattr(module, name), _log=calls[name]):
                _log.append(args)
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        verdict = is_irreducible(load_rep(str(DATA / "q8.json")), seed=0)
        assert verdict.status == INCONCLUSIVE
        return verdict, calls

    def test_analysis_once_per_polynomial(self, monkeypatch):
        # each distinct characteristic polynomial is analysed once, on its
        # integer form (integralize_monic), whose integer roots serve the
        # irreducibility check and the factor list; rational_roots is not
        # called, and the irreducibility certificate runs on integers
        verdict, calls = self._q8_calls(monkeypatch, [
            (meataxe, "_analyse_q"), (polys, "integer_roots"),
            (polys, "rational_roots"), (polys, "certify_irreducible_q")])
        seen = calls["_analyse_q"]
        assert len(set(seen)) == len(seen) == len(calls["integer_roots"]) \
            == len({s["charpoly"] for s in verdict.transcript["samples"]}) \
            == 64
        assert all(type(d) is int and all(type(a) is int for a in f)
                   for f, d in seen)
        assert calls["rational_roots"] == []
        assert len(calls["certify_irreducible_q"]) >= 64
        assert all(type(a) is int for f, _ in calls["certify_irreducible_q"]
                   for a in f)

    def test_q8_work_counts(self, monkeypatch):
        # 200 samples, one characteristic polynomial each, over Z from
        # integer rows and never by the Fraction path of char_poly, but 64
        # distinct ones, and every probe line spins at most once per side:
        # 2,400 spins and 379 analyses before a run shared them.  Every
        # g(theta) is a matrix over Z, and its kernels, primal and dual, are
        # taken there: 400, two for each sample's one factor attempt
        _, calls = self._q8_calls(monkeypatch, [
            (meataxe, "_analyse_q"), (meataxe, "spin"),
            (meataxe, "int_char_poly"), (meataxe, "char_poly"),
            (meataxe, "kernel_basis")])
        assert {k: len(v) for k, v in calls.items()} == {
            "_analyse_q": 64, "spin": 567, "int_char_poly": 200,
            "char_poly": 0, "kernel_basis": 400}
        assert all(type(a) is int for (rows,) in calls["int_char_poly"]
                   for r in rows for a in r)
        assert all(m.ring == ZZ for (m,) in calls["kernel_basis"])
