"""Lattice bases, prime specs, saturation, and reduction."""

import math
import os
from fractions import Fraction

import pytest

from irredcert.certify import certify, verify
from irredcert.errors import (BadPrime, BudgetExceeded, IntegralityError,
                              ShapeError)
from irredcert.lattices import (PrimeSpec, _pair_basis, _stable_lattice_z,
                                reduce_rep, saturate)
from irredcert.matrices import Matrix, _constant_q_matrix
from irredcert.prng import XorShift64
from irredcert.reps import (Representation, conjugate, evaluate, load_rep,
                            over_fraction_field)
from irredcert.rings import ZZ, QQ, PolynomialRingZ, PrimeField, \
    RationalFunctionField

from integer_lattices import (IMAGE_FULL, IMAGE_PROPER, IMAGE_ZERO, Lattice,
                              NotSublattice, contains_vector, ideal_mult,
                              index_of, is_standard, lattice_from_columns,
                              lattice_intersect, proper_sublattice_image)

ZT = PolynomialRingZ("t")
QT = RationalFunctionField("t")
DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "data")


def reduction_functorial(int_rep, prime, words, reduced=None):
    """Check evaluate(reduce(w)) = reduce(evaluate(w)) for the given words;
    returns True when every word commutes with reduction."""
    red = reduced if reduced is not None else reduce_rep(int_rep, prime)
    for w in words:
        lhs = evaluate(red, w)
        mid = evaluate(int_rep, w)
        if mid.ring != prime.ring:
            return False  # word left the ring; cannot compare
        rhs = mid.map_entries(prime.reduce_scalar, red.ring)
        if lhs != rhs:
            return False
    return True


def s3_over(ring):
    sigma = [[0, -1], [1, -1]]
    tau = [[0, 1], [1, 0]]
    relations = [[(0, 1)] * 3, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
    return Representation(ring, [Matrix(ring, sigma), Matrix(ring, tau)],
                          relations, label="s3")


class TestPrimeSpec:

    def test_string_round_trips(self):
        cases = [
            (PrimeSpec.zero(ZZ), "(0)", ZZ),
            (PrimeSpec.zero(ZT), "(0)", ZT),
            (PrimeSpec.integer(5), "(5)", ZZ),
            (PrimeSpec.linear(3), "(t-3)", ZT),
            (PrimeSpec.linear(-3), "(t+3)", ZT),
            (PrimeSpec.linear(0), "(t-0)", ZT),
            (PrimeSpec.maximal(2, 0), "(2,t-0)", ZT),
            (PrimeSpec.maximal(5, -1), "(5,t+1)", ZT),
        ]
        for spec, text, ring in cases:
            assert str(spec) == text
            assert PrimeSpec.parse(text, ring) == spec

    def test_parse_extras(self):
        assert PrimeSpec.parse("(t)", ZT) == PrimeSpec.linear(0)
        assert PrimeSpec.parse(" ( 2 , t-1 ) ", ZT) == PrimeSpec.maximal(2, 1)

    def test_rejects(self):
        with pytest.raises(BadPrime):
            PrimeSpec.integer(4)
        with pytest.raises(BadPrime):
            PrimeSpec.integer(1)
        with pytest.raises(BadPrime):
            PrimeSpec.maximal(6, 0)
        with pytest.raises(BadPrime):
            PrimeSpec.parse("(5)", ZT)  # principal (p) of Z[t]: not offered
        with pytest.raises(BadPrime):
            PrimeSpec.parse("(t-3)", ZZ)
        with pytest.raises(BadPrime):
            PrimeSpec.parse("5", ZZ)
        with pytest.raises(BadPrime):
            PrimeSpec.parse("(2*t-1)", ZT)

    def test_residue_rings(self):
        assert PrimeSpec.zero(ZZ).residue_ring() == QQ
        assert PrimeSpec.zero(ZT).residue_ring() == QT
        assert PrimeSpec.integer(7).residue_ring() == PrimeField(7)
        assert PrimeSpec.linear(2).residue_ring() == QQ
        assert PrimeSpec.maximal(3, 1).residue_ring() == PrimeField(3)

    def test_reduce_scalar(self):
        assert PrimeSpec.integer(5).reduce_scalar(12) == 2
        assert PrimeSpec.zero(ZZ).reduce_scalar(-4) == Fraction(-4)
        # t^2 + 2t + 3 at t = -1 is 2
        f = ZT.coerce((3, 2, 1))
        assert PrimeSpec.linear(-1).reduce_scalar(f) == Fraction(2)
        assert PrimeSpec.maximal(3, -1).reduce_scalar(f) == 2
        # t |-> 0 then mod 2
        assert PrimeSpec.maximal(2, 0).reduce_scalar(ZT.coerce((5, 7))) == 1


class TestLatticeBasis:

    def test_standard_and_scalar(self):
        std = Lattice.standard(2)
        assert is_standard(std)
        tripled = Lattice(Matrix(QQ, [[3, 0], [0, 3]]))
        assert tripled == ideal_mult(std, [3])
        assert index_of(std, tripled) == 9

    def test_canonical_invariance_under_column_ops(self):
        # same lattice, many bases: canonical form must agree
        rng = XorShift64(11)
        base = Matrix(QQ, [[Fraction(1), Fraction(1, 2)], [0, Fraction(3, 2)]])
        lat = Lattice(base)
        for _ in range(60):
            # random unimodular: product of elementary column ops
            u = Matrix.identity(ZZ, 2)
            for _ in range(6):
                i = rng.randrange(2)
                j = 1 - i
                c = rng.randrange(7) - 3
                elem = [[1, 0], [0, 1]]
                elem[i][j] = c
                u = u * Matrix(ZZ, elem)
            other = Lattice(base * u.to_fraction_field())
            assert other == lat
            assert other.basis == lat.basis

    def test_containment_and_vectors(self):
        lat = lattice_from_columns([(1, 2), (0, 3)])
        assert contains_vector(lat, (1, 2))
        assert contains_vector(lat, (1, 5))
        assert not contains_vector(lat, (0, 1))
        std = Lattice.standard(2)
        assert std.contains_lattice(lat)
        assert not lat.contains_lattice(std)
        assert index_of(std, lat) == 3

    def test_rank_deficient_span_rejected(self):
        with pytest.raises(ShapeError):
            lattice_from_columns([(1, 2), (2, 4)])


class TestSaturate:

    def test_integral_rep_is_already_saturated(self):
        rep = s3_over(QQ)
        basis, int_rep = saturate(rep)
        assert basis == Matrix.identity(QQ, 2)
        assert int_rep.ring == ZZ
        assert int_rep.generators == s3_over(ZZ).generators

    def test_scaled_s3_two_rounds(self):
        # conjugating by diag(1, 1/2) hides the integral model; saturation
        # recovers the lattice Z(1,0) + Z(0,1/2) and the standard matrices
        rep = s3_over(QQ)
        c = Matrix(QQ, [[1, 0], [0, Fraction(1, 2)]])
        hidden = conjugate(rep, c)
        basis, int_rep = saturate(hidden)
        assert basis == Matrix(QQ, [[1, 0], [0, Fraction(1, 2)]])
        assert int_rep.generators == s3_over(ZZ).generators

    def test_saturation_idempotent(self):
        rep = s3_over(QQ)
        c = Matrix(QQ, [[Fraction(1, 3), 1], [Fraction(2, 3), Fraction(5)]])
        _, int_rep = saturate(conjugate(rep, c))
        basis2, int_rep2 = saturate(int_rep)
        assert basis2 == Matrix.identity(QQ, 2)
        assert int_rep2.generators == int_rep.generators

    def test_budget_exceeded_for_half(self):
        # determinant 1 and no stable lattice: the chain diverges
        rep = Representation(QQ, [Matrix(QQ, [[2, 0], [0, Fraction(1, 2)]])],
                             [])
        with pytest.raises(BudgetExceeded):
            saturate(rep)
        shear = load_rep(os.path.join(DATA, "scaled_shear.json"))
        with pytest.raises(BudgetExceeded):
            saturate(shear)

    @pytest.mark.parametrize("ring,gens,index,det", [
        (QQ, [[[Fraction(1, 2)]]], 0, "1/2"),
        (QQ, [[[2]]], 0, "2"),
        (QQ, [[[0, 2], [1, 0]]], 0, "-2"),
        (ZZ, [[[1, 0], [0, 1]], [[3, 1], [1, 1]]], 1, "2"),
        (QT, [[[((0, 1), (1,)), 0], [0, 1]]], 0, "t"),
        (QT, [[[0, -1], [1, -1]], [[Fraction(1, 2), 0], [0, 1]]], 1, "1/2")])
    def test_non_unit_determinant_message(self, ring, gens, index, det):
        # certificates quote this text as "no-integral-model: ..."; it comes
        # before any round, so no budget reaches the chain
        rep = Representation(ring, gens, [])
        with pytest.raises(IntegralityError) as info:
            saturate(rep, budget=0)
        assert str(info.value) == (
            "generator %d has determinant %s, not \u00b11, so no lattice is "
            "stable under the group it generates" % (index, det))

    def test_qt_constant_delegates(self):
        rep = s3_over(QT)
        basis, int_rep = saturate(rep)
        assert int_rep.ring == ZT
        assert basis.ring == QT and basis.is_identity()
        assert evaluate(int_rep, [(0, 1), (0, 1), (0, 1)]).is_identity()

    def test_qt_nonconstant_two_stage(self):
        # conjugate the constant model by diag(1, t): saturation must undo it
        rep = s3_over(QT)
        t = QT.coerce(((0, 1), (1,)))
        c = Matrix(QT, [(QT.one(), QT.zero()), (QT.zero(), t)])
        hidden = conjugate(rep, c.inverse())  # generators pick up t and 1/t
        basis, int_rep = saturate(hidden)
        assert int_rep.ring == ZT
        expected = tuple(g.change_ring(ZT) for g in s3_over(ZZ).generators)
        assert int_rep.generators == expected
        inv_t = QT.div(QT.one(), t)
        assert basis == Matrix(QT, [(QT.one(), QT.zero()), (QT.zero(), inv_t)])

    def test_qt_nonconstant_generators_constant_lattice(self):
        # non-constant generators take _saturate_qt, whose stage 1 finds
        # the standard Q[t]-lattice; the constant basis it returns is the
        # canonical H / D of stage 2, with no canonicalization after it
        t = QT.coerce(((0, 1), (1,)))
        one, zero = QT.one(), QT.zero()
        rep = Representation(QT, [Matrix(QT, [(one, t), (zero, one)]),
                                  Matrix(QT, [[0, -1], [1, -1]])], [])
        c = Matrix(QT, [[1, 0], [0, Fraction(1, 2)]])
        hidden = conjugate(rep, c.inverse())
        assert any(not QT.is_constant(a) for a in hidden.generators[0].entries)
        basis, int_rep = saturate(hidden)
        assert basis == Matrix(QT, [[Fraction(1, 2), 0], [0, 1]])
        _assert_integral_model(hidden, basis, int_rep, ZT)

    def test_b3_qt_saturates_to_a_nonconstant_lattice(self):
        # the golden b3_qt takes _saturate_qt, not the constant shortcut,
        # and its certificate is checked on the checker's Z[t] branch
        rep = load_rep(os.path.join(DATA, "b3_qt.json"))
        assert any(not QT.is_constant(a)
                   for g in rep.generators for a in g.entries)
        basis, int_rep = saturate(rep)
        assert any(not QT.is_constant(a) for a in basis.entries)
        _assert_integral_model(rep, basis, int_rep, ZT)
        cert = certify(rep)
        assert cert.conclusion == "IrreducibleCertified"
        assert verify(cert, rep)


def _perm(images):
    """Matrix of e_i -> e_images[i]."""
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


def sym_gens(n):
    """The permutation representation of S_n: a transposition and an
    n-cycle."""
    swap = [1, 0] + list(range(2, n))
    cycle = [(i + 1) % n for i in range(n)]
    return [_perm(swap), _perm(cycle)]


def signed_gens(n):
    """The natural representation of the hyperoctahedral group B_n."""
    flip = [[(-1 if i == 0 else 1) * int(i == j) for j in range(n)]
            for i in range(n)]
    return sym_gens(n) + [flip]


def _random_fraction(rng, nonzero=False):
    num = rng.randint(1, 3) * rng.choice((1, -1)) if nonzero \
        else rng.randint(-3, 3)
    return Fraction(num, rng.randint(1, 4))


def _rational_change(rng, d):
    """A random invertible matrix over Q: lower triangular with a nonzero
    diagonal, times upper unitriangular."""
    lower = [[_random_fraction(rng, i == j) if j <= i else 0
              for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (_random_fraction(rng) if j > i else 0)
              for j in range(d)] for i in range(d)]
    return Matrix(QQ, lower) * Matrix(QQ, upper)


def _assert_canonical_z(basis):
    """basis = H / D with H a lower-triangular HNF (positive diagonal,
    entries left of it in [0, diagonal)) and gcd(content(H), D) = 1."""
    d = basis.nrows
    den = math.lcm(*(a.denominator for a in basis.entries))
    h = [[int(a * den) for a in row] for row in basis.rows()]
    content = 0
    for i in range(d):
        assert h[i][i] > 0
        for j in range(d):
            if j > i:
                assert h[i][j] == 0
            elif j < i:
                assert 0 <= h[i][j] < h[i][i]
            content = math.gcd(content, h[i][j])
    assert math.gcd(content, den) == 1


def _assert_integral_model(rep, b, int_rep, ring):
    """B^-1 g B and B^-1 g^-1 B are integral for every generator g, and
    int_rep's generators are the former, computed by generic Matrix
    arithmetic over the field.  So each has a unit determinant, and no
    prime of the ring makes a reduction singular."""
    binv = b.inverse()
    assert int_rep.ring == ring
    for i, g in enumerate(rep.generators):
        assert (binv * g * b).from_fraction_field(ring) == \
            int_rep.generators[i]
        (binv * g.inverse() * b).from_fraction_field(ring)
        assert ring.is_unit(int_rep.generators[i].det())


def generators_alone_basis(rep, budget=64):
    """The end of the chain L + sum_g gL with g over the generators alone,
    not their inverses, for a representation over Q or with constant
    entries over Q(t), or None when budget rounds pass without one."""
    gens = [_constant_q_matrix(g) for g in rep.generators]
    pair = _stable_lattice_z(gens, rep.dim, budget)
    return None if pair is None else _pair_basis(pair, rep.ring)


def long_orbit(n):
    """S_n's permutation representation, each g replaced by c g c^-1 for
    c = diag(2, 1, ..., 1): the chain adds one coordinate vector over 2 per
    round, so it takes about n / 2 rounds with the inverses and n without."""
    rep = Representation(QQ, [Matrix(QQ, g) for g in sym_gens(n)], [])
    c = Matrix(QQ, [[2 if i == j == 0 else int(i == j) for j in range(n)]
                    for i in range(n)])
    return conjugate(rep, c)


def long_orbit_lattice(n):
    """The basis diag(1, 1/2, ..., 1/2) of long_orbit(n)'s stable lattice,
    c (Z^n / 2) for the lattice Z^n / 2 that c^-1 Z^n spans under S_n."""
    return Matrix(QQ, [[Fraction(int(i == j), 1 if i == 0 else 2)
                        for j in range(n)] for i in range(n)])


# the reps in data/ with no integral model: sqrt2 has a generator of
# determinant -2, and the scaled shear's chain diverges
NO_MODEL = ("scaled_shear", "sqrt2")


class TestSaturationInvariants:

    @pytest.mark.parametrize("gens,seed", [
        (sym_gens(3), 1), (sym_gens(5), 2), (sym_gens(7), 3),
        (sym_gens(10), 4), (signed_gens(2), 5), (signed_gens(4), 6),
        (signed_gens(6), 7), (signed_gens(9), 8)])
    def test_disguised_over_q(self, gens, seed):
        d = len(gens[0])
        rep = Representation(QQ, [Matrix(QQ, g) for g in gens], [])
        rep = conjugate(rep, _rational_change(XorShift64(seed), d))
        basis, int_rep = saturate(rep)
        _assert_canonical_z(basis)
        assert Lattice(basis).contains_lattice(Lattice.standard(d))
        _assert_integral_model(rep, basis, int_rep, ZZ)
        # with determinants +-1, gL in L means gL = L, so the chain on the
        # generators alone ends at the same lattice
        assert generators_alone_basis(rep) == basis

    @pytest.mark.parametrize("gens", [sym_gens(3), signed_gens(3)])
    def test_conjugated_over_qt(self, gens):
        # diag(1, 1/2, 3) * U(t) * diag(1, t, 1), U unitriangular: both the
        # Q[t] stage and the constant Z stage have work to do
        t = QT.coerce(((0, 1), (1,)))
        one, zero = QT.one(), QT.zero()
        scale = Matrix(QT, [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 3]])
        unipotent = Matrix(QT, [[one, t, zero],
                                [zero, one, QT.add(t, QT.coerce(-1))],
                                [zero, zero, one]])
        stretch = Matrix(QT, [[one, zero, zero], [zero, t, zero],
                              [zero, zero, one]])
        rep = conjugate(Representation(QT, [Matrix(QT, g) for g in gens], []),
                        scale * unipotent * stretch)
        # some entry has a denominator in t
        assert any(len(den) > 1
                   for g in rep.generators for num, den in g.entries)
        basis, int_rep = saturate(rep)
        _assert_integral_model(rep, basis, int_rep, ZT)

    @pytest.mark.parametrize("name", sorted(
        name[:-len(".json")] for name in os.listdir(DATA)
        if name.endswith(".json") and name[:-len(".json")] not in NO_MODEL))
    def test_data_reps_generators_alone(self, name):
        # b3_qt and s3_sgn_qt have entries in t, which the chain on Z^d
        # does not take: they only saturate
        rep = load_rep(os.path.join(DATA, name + ".json"))
        basis, _ = saturate(rep)
        field_rep = over_fraction_field(rep)
        if all(_constant_q_matrix(g) is not None
               for g in field_rep.generators):
            assert generators_alone_basis(field_rep) == basis

    def test_long_orbit_budget_boundary(self):
        # the inverses stay in the chain for its reach: it needs 7 rounds
        # here, the chain on the generators alone 12
        rep = long_orbit(12)
        with pytest.raises(BudgetExceeded):
            saturate(rep, budget=6)
        basis, _ = saturate(rep, budget=7)
        assert basis == long_orbit_lattice(12)
        assert generators_alone_basis(rep, budget=11) is None
        assert generators_alone_basis(rep, budget=12) == basis

    def test_long_orbit_default_budget(self):
        # about 33 rounds with the inverses, 66 without: past the default
        # budget of 64 on the generators alone
        rep = long_orbit(66)
        basis, _ = saturate(rep)
        assert basis == long_orbit_lattice(66)

    def test_s3_scaled_budget_boundary(self):
        rep = load_rep(os.path.join(DATA, "s3_scaled.json"))
        with pytest.raises(BudgetExceeded):
            saturate(rep, budget=1)
        basis, _ = saturate(rep, budget=2)
        assert basis == Matrix(QQ, [[1, 0], [0, Fraction(1, 2)]])

    def test_budget_exceeded_message(self):
        # certificates quote this text as "no-integral-model: ..."; both
        # inputs have determinant 1, so only the chain's budget stops them
        for gen in ([[2, 0], [0, Fraction(1, 2)]],
                    [[Fraction(1, 2), 1], [0, 2]]):
            rep = Representation(QQ, [Matrix(QQ, gen)], [])
            with pytest.raises(BudgetExceeded) as info:
                saturate(rep, budget=5)
            assert str(info.value) == (
                "lattice chain did not stabilize in 5 rounds; the generated "
                "group probably stabilizes no lattice (infinite image or "
                "non-unit determinants)")


class TestReduce:

    def test_s3_mod_3_pinned(self):
        rep = s3_over(ZZ)
        red = reduce_rep(rep, PrimeSpec.integer(3))
        F3 = PrimeField(3)
        assert red.ring == F3
        assert red.generators[0] == Matrix(F3, [[0, 2], [1, 2]])
        assert red.generators[1] == Matrix(F3, [[0, 1], [1, 0]])

    def test_zero_prime_is_identity_on_matrices(self):
        rep = s3_over(ZZ)
        red = reduce_rep(rep, PrimeSpec.zero(ZZ))
        assert red.ring == QQ
        words = [[(0, 1)], [(1, 1)], [(0, 1), (1, 1)],
                 [(0, 1), (0, 1), (1, 1)], [(0, -1), (1, 1), (0, 1)]]
        for w in words:
            assert evaluate(red, w).trace() == \
                Fraction(evaluate_trace_z(rep, w))

    def test_constant_zt_tower(self):
        # constant-in-t model over Z[t]: (2, t-0) lands straight in F_2
        rep_zt = Representation(
            ZT, [g.change_ring(ZT) for g in s3_over(ZZ).generators],
            s3_over(ZZ).relations, label="s3t")
        red = reduce_rep(rep_zt, PrimeSpec.maximal(2, 0))
        F2 = PrimeField(2)
        assert red.ring == F2
        assert red.generators[0] == Matrix(F2, [[0, 1], [1, 1]])
        mid = reduce_rep(rep_zt, PrimeSpec.linear(0))
        assert mid.ring == QQ
        assert mid.generators[0] == Matrix(QQ, [[0, -1], [1, -1]])

    def test_nonconstant_zt_reduction(self):
        t = ZT.coerce((0, 1))
        g = Matrix(ZT, [[ZT.one(), t], [ZT.zero(), ZT.one()]])
        rep = Representation(ZT, [g], [])
        at2 = reduce_rep(rep, PrimeSpec.linear(2))
        assert at2.generators[0] == Matrix(QQ, [[1, 2], [0, 1]])
        at31 = reduce_rep(rep, PrimeSpec.maximal(3, 1))
        assert at31.generators[0] == Matrix(PrimeField(3), [[1, 1], [0, 1]])

    def test_bad_prime_detected(self):
        rep = Representation(ZZ, [Matrix(ZZ, [[5]])], [])
        with pytest.raises(BadPrime):
            reduce_rep(rep, PrimeSpec.integer(5))

    def test_reduce_from_field_conjugates_first(self):
        rep = s3_over(QQ)
        c = Matrix(QQ, [[1, 0], [0, Fraction(1, 2)]])
        hidden = conjugate(rep, c)
        # reduce_rep takes only the integral model that saturate returns
        _, int_rep = saturate(hidden)
        red = reduce_rep(int_rep, PrimeSpec.integer(3))
        assert red.generators[0] == Matrix(PrimeField(3), [[0, 2], [1, 2]])
        with pytest.raises(ValueError):
            reduce_rep(hidden, PrimeSpec.integer(3))
        with pytest.raises(ValueError):
            reduce_rep(int_rep, PrimeSpec.maximal(3, 0))

    def test_functoriality_random_words(self):
        rep = s3_over(ZZ)
        rng = XorShift64(7)
        words = []
        for _ in range(50):
            words.append([(rng.randrange(2), rng.choice((1, -1)))
                          for _ in range(1 + rng.randrange(5))])
        for p in (2, 3, 5, 7):
            assert reduction_functorial(rep, PrimeSpec.integer(p), words)


def evaluate_trace_z(rep, word):
    m = evaluate(rep, word)
    return m.trace()


class TestIdealMult:

    def test_pinned_examples(self):
        std = Lattice.standard(2)
        assert ideal_mult(std, [2, 3]) == \
            Lattice(Matrix(QQ, [[6, 0], [0, 6]]))
        assert ideal_mult(std, [1]) == std
        lat = lattice_from_columns([(1, 1), (0, 2)])
        twelve = ideal_mult(lat, [4, 6])
        assert twelve == Lattice(lat.basis.scale(Fraction(12)))

    def test_rejects_zero(self):
        std = Lattice.standard(2)
        with pytest.raises(ValueError):
            ideal_mult(std, [4, 0])
        with pytest.raises(ValueError):
            ideal_mult(std, [])

    def test_matches_exact_intersection(self):
        # (lcm n_i) L == intersection of the n_i L, computed independently
        rng = XorShift64(23)
        for _ in range(12):
            cols = None
            while cols is None:
                cand = [(rng.randrange(9) - 4, rng.randrange(9) - 4)
                        for _ in range(2)]
                try:
                    cols = lattice_from_columns(cand).basis
                except ShapeError:
                    cols = None
            lat = Lattice(cols)
            ns = [1 + rng.randrange(12) for _ in range(3)]
            scaled = [Lattice(lat.basis.scale(Fraction(n)))
                      for n in ns]
            meet = scaled[0]
            for other in scaled[1:]:
                meet = lattice_intersect(meet, other)
            assert meet == ideal_mult(lat, ns)
            assert meet.basis == ideal_mult(lat, ns).basis


class TestSublatticeImage:

    def test_enum_cases(self):
        std = Lattice.standard(2)
        assert proper_sublattice_image(std, std, 5) == IMAGE_FULL
        five = ideal_mult(std, [5])
        assert proper_sublattice_image(five, std, 5) == IMAGE_ZERO
        m = lattice_from_columns([(1, 2), (0, 3)])
        assert proper_sublattice_image(m, std, 3) == IMAGE_PROPER

    def test_image_is_line_span(self):
        # the proper image above is the line through (1, 2) in F_3^2
        m = lattice_from_columns([(1, 2), (0, 3)])
        red = [(int(x) % 3, int(y) % 3)
               for x, y in zip(m.basis.row(0), m.basis.row(1))]
        nonzero = [v for v in red if v != (0, 0)]
        assert nonzero and all(v in ((1, 2), (2, 4 % 3)) for v in nonzero)

    def test_not_sublattice(self):
        std = Lattice.standard(2)
        half = Lattice(Matrix(QQ, [[Fraction(1, 2), 0], [0, 1]]))
        with pytest.raises(NotSublattice):
            proper_sublattice_image(half, std, 3)

    def test_prime_spec_argument(self):
        std = Lattice.standard(2)
        m = lattice_from_columns([(1, 2), (0, 3)])
        assert proper_sublattice_image(m, std, PrimeSpec.integer(3)) \
            == IMAGE_PROPER
        with pytest.raises(BadPrime):
            proper_sublattice_image(m, std, 4)
