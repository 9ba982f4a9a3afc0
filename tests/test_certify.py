"""Certification engine: criterion runs, certificates, replay, tampering."""

import importlib
import json
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest

from irredcert import lattices
from irredcert.certify import (Certificate, IRREDUCIBLE_CERTIFIED,
                               INCONCLUSIVE_RUN, REDUCIBLE_WITH_WITNESS,
                               RULE_DIRECT_OVER_K, RULE_HEIGHT_ONE_FAMILY,
                               RULE_REGULAR_ONE_PRIME, TOOLKIT_VERSION,
                               canonical_json, certify, compute_self_digest,
                               rep_digest, replay, verify)
from irredcert.errors import IntegralityError, VersionMismatch
from irredcert.lattices import LIFT_BITS
from irredcert.matrices import Matrix, int_product, rank
from irredcert.meataxe import REDUCIBLE, is_irreducible
from irredcert.prng import XorShift64
from irredcert.reps import Representation, conjugate, direct_sum, load_rep
from irredcert.rings import QQ, RationalFunctionField, ZZ

from generic_fp import GenericFp

# the module, which the package's certify function shadows as an attribute
certify_module = importlib.import_module("irredcert.certify")

ROOT = pathlib.Path(__file__).resolve().parents[1]

S3_RELS = [[(0, 1)] * 3, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]


def s3_over(ring):
    return Representation(ring, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
                          S3_RELS, label="s3")


def q8_rep():
    # left regular action of i and j on the quaternion basis (1, i, j, k):
    # irreducible over Q (division algebra) yet reducible mod every prime
    li = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    lj = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    rels = [[(0, 1)] * 4, [(0, 1), (0, 1), (1, -1), (1, -1)],
            [(1, 1), (0, 1), (1, -1), (0, 1)]]
    return Representation(QQ, [li, lj], rels, label="q8")


def perm_matrix(images):
    """The permutation matrix sending e_j to e_images[j]."""
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


def sn_perms(n):
    """The n-cycle and the transposition (0 1), which generate S_n."""
    return [[(i + 1) % n for i in range(n)], [1, 0] + list(range(2, n))]


def std_sn(n):
    """S_n on the sum-zero vectors, in the basis e_i - e_(n-1), i < n - 1."""
    gens = []
    for s in sn_perms(n):
        # s(e_i - e_(n-1)) = b_s(i) - b_s(n-1), where b_(n-1) = 0
        cols = [[int(s[i] == r) - int(s[n - 1] == r) for r in range(n - 1)]
                for i in range(n - 1)]
        gens.append([list(row) for row in zip(*cols)])
    return Representation(QQ, gens, [], label="S%d standard" % n)


def sign_sn(n):
    return Representation(QQ, [[[(-1) ** (n - 1)]], [[-1]]], [],
                          label="S%d sign" % n)


def signed_perm_bn(n):
    """B_n, the signed permutation matrices: the two S_n generators and the
    sign change of the first coordinate."""
    flip = [[-1 if i == j == 0 else int(i == j) for j in range(n)]
            for i in range(n)]
    return Representation(QQ, [perm_matrix(s) for s in sn_perms(n)]
                           + [flip], [], label="B%d" % n)


def rational_basis(d):
    """A fixed rational basis change of determinant 2, not unimodular."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = Fraction(2 if i == 0 else 1)
        if i + 1 < d:
            rows[i][i + 1] = Fraction(1, 2)
    rows[d - 1][0] += Fraction(1, 3)
    return Matrix(QQ, rows)


# reducible by construction, with summands that are not isomorphic; pieces
# that are isomorphic lift too (ISOMORPHIC_SUMS)
LIFTABLE_SUMS = ([("S%d+sgn" % n, n, None) for n in range(3, 7)]
                 + [("B%d+B%d" % (n, m), n, m)
                    for n, m in ((2, 3), (2, 4), (3, 4))])


# reducible by construction, with isomorphic pieces, so Hom_G(W, V/W) != 0
# at every prime: three sums, and the shear, whose line and quotient are
# both trivial
ISOMORPHIC_SUMS = {
    "B3+B3": direct_sum(signed_perm_bn(3), signed_perm_bn(3)),
    "unipotent": Representation(QQ, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], [],
                                label="ut"),
    "S3+S3": direct_sum(std_sn(3), std_sn(3)),
    "B2+B2": direct_sum(signed_perm_bn(2), signed_perm_bn(2))}


def liftable_sum(n, m):
    if m is None:
        return direct_sum(std_sn(n), sign_sn(n))
    return direct_sum(signed_perm_bn(n), signed_perm_bn(m))


def ends_lifted(cert):
    """The run ends at a reduction step whose witness lifted to Q."""
    *rest, last = cert.steps
    return (cert.conclusion == REDUCIBLE_WITH_WITNESS
            and cert.rule == RULE_DIRECT_OVER_K
            and last["prime"] != "(0)" and last["verdict"] == REDUCIBLE
            and last["lift"]["digits"] >= 2
            and not any("lift" in s for s in rest))


def sylvester_rank(actions, p, cs=None):
    """The rank mod p of H -> (Q_g H - H Z_g)_g over the pairs (Q_g, Z_g),
    with the right-hand sides C_g of cs as a last column if given, by the
    generic F_p path, which shares no kernel with the solver."""
    m, k = len(actions[0][0]), len(actions[0][1])
    rhs = iter(a for cg in cs or () for row in cg for a in row)
    rows = []
    for q, z in actions:
        for a in range(m):
            for b in range(k):
                # entry (a, b) of Q H - H Z, as a row over the entries of H
                row = [0] * (m * k)
                for j in range(m):
                    row[j * k + b] += q[a][j]
                for i in range(k):
                    row[a * k + i] -= z[i][b]
                rows.append([x % p for x in row + ([next(rhs)] if cs else [])])
    return rank(Matrix(GenericFp(p), rows))


def no_lift_certificate(rep, monkeypatch, **kw):
    """The certificate of the run with every lift refused."""
    with monkeypatch.context() as m:
        m.setattr(certify_module, "lift_witness", lambda *a: None)
        return certify(rep, **kw)


class TestCertifyOverQ:

    def test_s3_auto_certifies_at_two(self):
        cert = certify(s3_over(QQ))
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert cert.rule == RULE_REGULAR_ONE_PRIME
        assert cert.steps[0]["prime"] == "(2)"
        assert cert.steps[0]["verdict"] == "irreducible"

    def test_upper_triangular_witness(self):
        rep = Representation(QQ, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], [],
                             label="ut")
        cert = certify(rep)
        assert cert.conclusion == REDUCIBLE_WITH_WITNESS
        assert cert.rule == RULE_DIRECT_OVER_K
        assert cert.witness == [["1", "0"]]  # span{e1}

    def test_restricted_prime_list_inconclusive(self):
        cert = certify(s3_over(QQ), primes=[3])
        assert cert.conclusion == INCONCLUSIVE_RUN
        assert cert.steps[0]["prime"] == "(3)"
        assert cert.steps[0]["verdict"] == "reducible"
        assert cert.reducible_primes == ["(3)"]
        assert "one-sided" in cert.reason

    def test_prime_choice_irrelevance(self):
        # any single good prime certifies S3; 3 is the lone bad one
        for p in (2, 5, 7, 11):
            cert = certify(s3_over(QQ), primes=[p], oracle_check=True)
            assert cert.conclusion == IRREDUCIBLE_CERTIFIED, p
            assert cert.steps[0]["prime"] == "(%d)" % p
            assert cert.steps[0]["oracle_count"] == 2

    def test_scaled_lattice_found(self):
        c = Matrix(QQ, [[Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(1, 2)]])
        cert = certify(conjugate(s3_over(QQ), c))
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert cert.lattice == [["1", "0"], ["0", "1/2"]]

    def test_q8_honestly_inconclusive(self):
        cert = certify(q8_rep())
        assert cert.conclusion == INCONCLUSIVE_RUN
        assert len(cert.reducible_primes) >= 3
        assert cert.steps[-1]["prime"] == "(0)"
        assert "one-sided" in cert.reason

    def test_over_z_input_is_lifted(self):
        cert = certify(s3_over(ZZ))
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert verify(cert, s3_over(ZZ))

    def test_finite_field_rejected(self):
        from irredcert.rings import PrimeField
        with pytest.raises(ValueError):
            certify(s3_over(PrimeField(5)))

    def test_no_integral_model(self):
        rep = Representation(QQ, [Matrix(QQ, [[Fraction(1, 2)]])], [])
        cert = certify(rep)
        assert cert.conclusion == INCONCLUSIVE_RUN
        assert cert.reason.startswith("no-integral-model")
        assert verify(cert, rep)

    def test_non_unit_determinant_reason(self):
        # x^2 - 2 over Q: the determinant test stops saturation before any
        # round, and the one step is the search over Q
        rep = Representation(QQ, [[[0, 2], [1, 0]]], [], label="sqrt2")
        cert = certify(rep)
        assert cert.conclusion == INCONCLUSIVE_RUN
        assert cert.lattice is None and cert.base_ring is None
        assert cert.reason == (
            "no-integral-model: generator 0 has determinant -2, not \u00b11, "
            "so no lattice is stable under the group it generates")
        assert [step["prime"] for step in cert.steps] == ["(0)"]
        assert verify(cert, rep)
        assert replay(cert, rep)

    @pytest.mark.parametrize("name,rep", [
        ("_divexact", load_rep(ROOT / "data" / "s3_sgn_qt.json"))])
    def test_integrality_error_after_the_chain_propagates(self, monkeypatch,
                                                          name, rep):
        # only the determinant test means "no integral model": a conjugate
        # T^-1 g T that fails to be integral over Q[t] once stage 1 over
        # Q(t) is stable is a bug, and no certificate may hide it.  Over Q
        # and in stage 2 the model is read off the confirming round, whose
        # quotients are exact by construction
        # (test_lattices.py::TestModelFromTheConfirmingRound)
        def broken(*args):
            raise IntegralityError("a conjugate is not integral in the basis")
        monkeypatch.setattr(lattices, name, broken)
        with pytest.raises(IntegralityError):
            certify(rep)

    def test_no_integral_model_reducible_probe(self):
        # scaled shear: no stable lattice, but K-level witness still found
        rep = Representation(QQ, [Matrix(QQ, [[Fraction(1, 2), Fraction(1)],
                                              [Fraction(0), Fraction(2)]])],
                             [])
        cert = certify(rep)
        assert cert.conclusion == REDUCIBLE_WITH_WITNESS
        assert verify(cert, rep)


class TestLiftedWitness:

    @pytest.mark.parametrize("disguised", [False, True],
                             ids=["standard", "conjugated"])
    @pytest.mark.parametrize("name,n,m", LIFTABLE_SUMS,
                             ids=[c[0] for c in LIFTABLE_SUMS])
    def test_direct_sum_ends_at_a_reduction(self, name, n, m, disguised):
        rep = liftable_sum(n, m)
        if disguised:
            rep = conjugate(rep, rational_basis(rep.dim))
        cert = certify(rep)
        assert ends_lifted(cert), [(s["prime"], s.get("lift"))
                                   for s in cert.steps]
        assert cert.reducible_primes == [s["prime"] for s in cert.steps]
        assert verify(cert, rep) and replay(cert, rep)

    def test_explicit_primes_lift_too(self):
        rep = conjugate(liftable_sum(4, None), rational_basis(4))
        cert = certify(rep, primes=[3, 5])
        assert ends_lifted(cert) and cert.steps[-1]["prime"] == "(3)"
        assert verify(cert, rep) and replay(cert, rep)

    @pytest.mark.parametrize("name,disguised", [
        (name, disguised) for name in ISOMORPHIC_SUMS
        for disguised in (False, True) if (name, disguised) != ("unipotent",
                                                                True)],
        ids=lambda x: {False: "standard", True: "conjugated"}.get(x, x))
    def test_isomorphic_pieces_lift(self, name, disguised, monkeypatch):
        # Hom_G(W, V/W) != 0 at every prime, so the Sylvester system of
        # each lift is singular; a particular solution per digit still
        # lifts the witness, and the run ends at a reduction.  The
        # conjugated shear is the case it cannot reach
        # (test_double_root_is_refused)
        rep = ISOMORPHIC_SUMS[name]
        if disguised:
            rep = conjugate(rep, rational_basis(rep.dim))
        systems = []
        build = lattices._sylvester_solver

        def spy(actions, p):
            unknowns = len(actions[0][0]) * len(actions[0][1])
            systems.append((p, sylvester_rank(actions, p), unknowns))
            return build(actions, p)
        monkeypatch.setattr(lattices, "_sylvester_solver", spy)
        cert = certify(rep)
        assert ends_lifted(cert), [(s["prime"], s.get("lift"))
                                   for s in cert.steps]
        p, r, unknowns = systems[-1]
        assert cert.steps[-1]["prime"] == "(%d)" % p
        assert r < unknowns, systems
        assert verify(cert, rep) and replay(cert, rep)

    def test_double_root_is_refused(self, monkeypatch):
        # the shear conjugated by rational_basis: its one invariant line is
        # a double root of the Riccati equation, the Sylvester map is 0 at
        # every prime, so each digit's solution is H = 0 and Y stays the
        # witness mod p, which is not the line over Q.  Every lift is
        # refused and the run is the one without lifting
        rep = conjugate(ISOMORPHIC_SUMS["unipotent"], rational_basis(2))
        ranks = []
        build = lattices._sylvester_solver

        def spy(actions, p):
            ranks.append(sylvester_rank(actions, p))
            return build(actions, p)
        monkeypatch.setattr(lattices, "_sylvester_solver", spy)
        cert = certify(rep)
        assert ranks == [0] * 8
        assert cert.conclusion == REDUCIBLE_WITH_WITNESS
        assert cert.steps[-1]["prime"] == "(0)"
        assert not any("lift" in s for s in cert.steps)
        assert canonical_json(cert.to_json()) == canonical_json(
            no_lift_certificate(rep, monkeypatch).to_json())
        assert verify(cert, rep) and replay(cert, rep)

    @pytest.mark.parametrize("gens,p", [
        ([g.rows() for g in std_sn(3).generators], 5),
        ([g.rows() for g in signed_perm_bn(2).generators], 3),
        ([[[1]]], 3)], ids=["S3-mod5", "B2-mod3", "zero-map"])
    def test_singular_sylvester_solver(self, gens, p):
        # L_g(H) = g H - H g has the commutant as its kernel: C = -L(H0)
        # is in the image and solves to some H with L_g(H) = -C_g for
        # every g; a C outside the image solves to None
        mats = [[[int(a) for a in row] for row in g] for g in gens]
        actions = [(g, g) for g in mats]
        m = len(mats[0])
        assert sylvester_rank(actions, p) < m * m
        solve = lattices._sylvester_solver(actions, p)

        def sylvester(h):
            return [[[(a - b) % p for a, b in zip(x, y)]
                     for x, y in zip(int_product(g, h), int_product(h, g))]
                    for g in mats]
        rng = random.Random(p)
        hits = misses = 0
        for _ in range(40):
            if rng.random() < 0.5:
                c = [[[-a % p for a in row] for row in lg]
                     for lg in sylvester([[rng.randrange(p) for _ in range(m)]
                                          for _ in range(m)])]
            else:
                c = [[[rng.randrange(p) for _ in range(m)] for _ in range(m)]
                     for _ in mats]
            h = solve(c)
            if sylvester_rank(actions, p, c) == sylvester_rank(actions, p):
                hits += 1
                assert h is not None
                assert sylvester(h) == [[[-a % p for a in row] for row in cg]
                                        for cg in c]
            else:
                misses += 1
                assert h is None
        assert hits and misses

    def test_zero_prime_over_z_does_not_lift(self, monkeypatch):
        # "(0)" on an explicit list is the search over Q, with no p to lift
        # by: the run is the one without lifting, as before lifts existed
        for rep in (liftable_sum(3, None),
                    conjugate(liftable_sum(2, 3), rational_basis(5))):
            cert = certify(rep, primes=["(0)"])
            assert cert.conclusion == REDUCIBLE_WITH_WITNESS
            assert [s["prime"] for s in cert.steps] == ["(0)"]
            assert not any("lift" in s for s in cert.steps)
            assert canonical_json(cert.to_json()) == canonical_json(
                no_lift_certificate(rep, monkeypatch,
                                    primes=["(0)"]).to_json())
            assert verify(cert, rep) and replay(cert, rep)

    def test_split_over_q7_only_reaches_the_cap(self, monkeypatch):
        # x^2 + x + 1 has its roots in Q_7 but not in Q: the eigenline mod 7
        # lifts to every precision, and no candidate holds over Q
        rep = Representation(QQ, [[[0, -1], [1, -1]]], [], label="C3")
        moduli = []
        rational = lattices._rational

        def spy(x, m, bound):
            moduli.append(m)
            return rational(x, m, bound)
        monkeypatch.setattr(lattices, "_rational", spy)
        start = time.perf_counter()
        cert = certify(rep, primes=[7])
        assert time.perf_counter() - start < 1.0
        assert (max(moduli) ** 2).bit_length() > LIFT_BITS
        assert max(moduli).bit_length() <= LIFT_BITS
        assert cert.conclusion == INCONCLUSIVE_RUN
        assert cert.reducible_primes == ["(7)"]
        assert "lift" not in cert.steps[0]
        assert canonical_json(cert.to_json()) == canonical_json(
            no_lift_certificate(rep, monkeypatch, primes=[7]).to_json())

    def test_q8_lifts_reach_the_cap(self, monkeypatch):
        # q8 is irreducible over Q, but its commutant, the quaternions,
        # splits at every odd prime, so each reduction there is U + U with
        # U of dimension 2: the witness lifts through a singular system to
        # the cap, and no candidate holds over Q.  Mod 2 the first digit
        # has no solution
        prime, moduli, checked = [], {}, []
        build, rational = lattices._sylvester_solver, lattices._rational
        invariant = lattices.subspace_is_invariant

        def solver(actions, p):
            prime[:] = [p]
            return build(actions, p)

        def reconstruct(x, m, bound):
            moduli[prime[0]] = max(moduli.get(prime[0], 0), m)
            return rational(x, m, bound)

        def check(K, gens, rows):
            checked.append(invariant(K, gens, rows))
            return checked[-1]
        monkeypatch.setattr(lattices, "_sylvester_solver", solver)
        monkeypatch.setattr(lattices, "_rational", reconstruct)
        monkeypatch.setattr(lattices, "subspace_is_invariant", check)
        cert = certify(q8_rep())
        assert checked and not any(checked)
        odd = [3, 5, 7, 11, 13, 17, 19]
        assert sorted(moduli) == odd
        for p in odd:
            m = moduli[p]
            assert p ** m.bit_length() % m == 0, p  # a power of p
            assert (m * m).bit_length() > LIFT_BITS >= m.bit_length(), p
        assert cert.conclusion == INCONCLUSIVE_RUN
        assert cert.reducible_primes == ["(%d)" % p for p in [2] + odd]
        assert cert.steps[-1]["prime"] == "(0)"
        assert not any("lift" in s for s in cert.steps)
        assert canonical_json(cert.to_json()) == canonical_json(
            no_lift_certificate(q8_rep(), monkeypatch).to_json())

    def test_wrong_reconstruction_falls_back(self, monkeypatch):
        # every reconstruction is off by one, and the exact check in field
        # coordinates must turn each candidate down
        rep = conjugate(liftable_sum(4, None), rational_basis(4))
        checked = []
        invariant = lattices.subspace_is_invariant

        def check(K, gens, rows):
            out = invariant(K, gens, rows)
            checked.append(out)
            return out
        monkeypatch.setattr(lattices, "_rational",
                            lambda x, m, bound: Fraction(x + 1))
        monkeypatch.setattr(lattices, "subspace_is_invariant", check)
        cert = certify(rep)
        assert checked and not any(checked)
        assert canonical_json(cert.to_json()) == canonical_json(
            no_lift_certificate(rep, monkeypatch).to_json())
        assert cert.steps[-1]["prime"] == "(0)"
        assert verify(cert, rep)

    def test_tampered_lifted_witness_fails(self):
        rep = conjugate(liftable_sum(3, None), rational_basis(3))
        blob = certify(rep).to_json()
        assert blob["steps"][-1].get("lift")
        for i, row in enumerate(blob["witness"]):
            for j, a in enumerate(row):
                edited = json.loads(json.dumps(blob))
                edited["witness"][i][j] = str(Fraction(a) + 1)
                cert = Certificate.from_json(edited)
                cert.self_digest = compute_self_digest(cert)
                assert not verify(cert, rep), (i, j)


class TestCertifyOverQt:

    def qt(self):
        return RationalFunctionField("t")

    def test_constant_path_a(self):
        cert = certify(s3_over(self.qt()), primes=["(2,t-0)"])
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert cert.rule == RULE_REGULAR_ONE_PRIME
        assert cert.steps[0]["prime"] == "(2,t-0)"

    def test_constant_path_b_recursion(self):
        cert = certify(s3_over(self.qt()), primes=["(t-0)"])
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert cert.rule == RULE_HEIGHT_ONE_FAMILY
        [step] = cert.steps
        assert step["prime"] == "(t-0)" and step["verdict"] == "irreducible"
        sub = step["sub_certificate"]
        assert sub["conclusion"] == IRREDUCIBLE_CERTIFIED
        assert sub["rule"] == RULE_REGULAR_ONE_PRIME
        assert [(s["prime"], s["verdict"]) for s in sub["steps"]] == \
            [("(2)", "irreducible")]

    def test_paths_agree_and_verify(self):
        rep = s3_over(self.qt())
        ca = certify(rep, primes=["(2,t-0)"])
        cb = certify(rep, primes=["(t-0)"])
        assert ca.conclusion == cb.conclusion == IRREDUCIBLE_CERTIFIED
        assert verify(ca, rep) and verify(cb, rep)

    def test_auto_mode(self):
        cert = certify(s3_over(self.qt()))
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert cert.rule == RULE_REGULAR_ONE_PRIME

    def test_nonconstant_twist(self):
        K = self.qt()
        t = K.coerce(((0, 1), (1,)))
        c = Matrix(K, [[K.one(), K.zero()], [K.zero(), t]])
        rep = conjugate(s3_over(K), c)
        cert = certify(rep)
        assert cert.conclusion == IRREDUCIBLE_CERTIFIED
        assert verify(cert, rep)

    def test_reducible_fibre_lifts_in_its_sub_certificate(self):
        # the fibre at (t-c) is certified over Q, where a reducible
        # reduction's witness lifts: each sub-certificate ends at (2) with
        # a lift, while the Z[t] run itself ends with the search over Q(t)
        K = self.qt()
        t = K.coerce(((0, 1), (1,)))
        o, z = K.one(), K.zero()
        s3_sgn = direct_sum(s3_over(K), Representation(K, [[[1]], [[-1]]],
                                                       [], label="sgn"))
        rep = conjugate(s3_sgn, Matrix(K, [[o, z, z], [z, t, z],
                                           [z, z, o]]))
        for kw, fibres in (({"primes": ["(t-0)"]}, ["(t-0)"]),
                           ({}, ["(t-0)", "(t-1)", "(t+1)"])):
            cert = certify(rep, **kw)
            assert cert.conclusion == REDUCIBLE_WITH_WITNESS
            assert cert.steps[-1]["prime"] == "(0)"
            assert not any("lift" in s for s in cert.steps)
            subs = [(s["prime"], s["sub_certificate"]) for s in cert.steps
                    if s.get("sub_certificate")]
            assert [prime for prime, _ in subs] == fibres
            for _, sub in subs:
                assert sub["conclusion"] == REDUCIBLE_WITH_WITNESS
                assert sub["rule"] == RULE_DIRECT_OVER_K
                assert [(s["prime"], s.get("lift")) for s in sub["steps"]] \
                    == [("(2)", {"digits": 2})]
            assert verify(cert, rep) and replay(cert, rep)

    def test_reducible_function_field(self):
        K = self.qt()
        t = K.coerce(((0, 1), (1,)))
        rep = Representation(K, [Matrix(K, [[t, K.zero()],
                                            [K.zero(), K.one()]])], [])
        cert = certify(rep)
        assert cert.conclusion == REDUCIBLE_WITH_WITNESS
        assert verify(cert, rep)


class TestCertificateDocument:

    def test_package_version_is_the_toolkit_version(self):
        # read by regex, as tomllib is new in Python 3.11
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        found = re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert found == [TOOLKIT_VERSION]

    def test_round_trip(self):
        cert = certify(s3_over(QQ))
        blob = json.loads(json.dumps(cert.to_json()))
        again = Certificate.from_json(blob)
        assert canonical_json(again.to_json()) == canonical_json(cert.to_json())

    def test_digest_depends_on_rep(self):
        assert rep_digest(s3_over(QQ)) != rep_digest(q8_rep())
        assert rep_digest(s3_over(QQ)) == rep_digest(s3_over(QQ))

    def test_missing_field_rejected(self):
        blob = certify(s3_over(QQ)).to_json()
        del blob["steps"]
        with pytest.raises(ValueError):
            Certificate.from_json(blob)


class TestVerifyReplay:

    def test_replay_true_for_corpus(self):
        K = RationalFunctionField("t")
        corpus = [
            (certify(s3_over(QQ)), s3_over(QQ)),
            (certify(s3_over(QQ), primes=[3]), s3_over(QQ)),
            (certify(q8_rep()), q8_rep()),
            (certify(s3_over(K), primes=["(t-0)"]), s3_over(K)),
        ]
        for cert, rep in corpus:
            assert verify(cert, rep), cert

    def test_version_mismatch_raises(self):
        # a certificate legitimately written by another toolkit version
        # (its own checksum is consistent) must raise, not just fail
        from irredcert.certify import compute_self_digest
        cert = certify(s3_over(QQ))
        blob = cert.to_json()
        blob["toolkit_version"] = "0.0.0"
        old = Certificate.from_json(blob)
        old.self_digest = compute_self_digest(old)
        with pytest.raises(VersionMismatch):
            verify(old, s3_over(QQ))

    def test_tampered_fields_fail(self):
        rep = s3_over(QQ)
        cert = certify(rep)
        base = cert.to_json()
        tampers = [
            ("input_digest", lambda b: b.update(
                input_digest="0" + b["input_digest"][1:])),
            ("conclusion", lambda b: b.update(conclusion=INCONCLUSIVE_RUN)),
            ("rule", lambda b: b.update(rule=RULE_DIRECT_OVER_K)),
            ("label", lambda b: b.update(label="s4")),
            ("lattice", lambda b: b.update(lattice=[["2", "0"], ["0", "1"]])),
            ("reason", lambda b: b.update(reason="looks fine")),
        ]
        for name, mutate in tampers:
            blob = json.loads(json.dumps(base))
            mutate(blob)
            assert not verify(Certificate.from_json(blob), rep), name

    def test_tampered_step_fails(self):
        rep = s3_over(QQ)
        blob = json.loads(json.dumps(certify(rep).to_json()))
        blob["steps"][0]["prime"] = "(5)"
        assert not verify(Certificate.from_json(blob), rep)

    def test_tampered_witness_fails(self):
        rep = Representation(QQ, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], [],
                             label="ut")
        blob = json.loads(json.dumps(certify(rep).to_json()))
        blob["witness"] = [["0", "1"]]  # e2 is not invariant
        assert not verify(Certificate.from_json(blob), rep)

    def test_wrong_rep_fails(self):
        cert = certify(s3_over(QQ))
        assert not verify(cert, q8_rep())

    @pytest.mark.parametrize("path", sorted((ROOT / "data").glob("*.json")),
                             ids=lambda path: path.stem)
    def test_zero_prime_list_verifies(self, path):
        # "(0)" on an explicit list is the search over K that ends every
        # run, not a reduction that could certify: each rep's run is that
        # one step, and an irreducible rep ends Inconclusive
        rep = load_rep(str(path))
        cert = certify(rep, primes=["(0)"])
        assert [s["prime"] for s in cert.steps] == ["(0)"]
        golden = json.loads((ROOT / "tests" / "golden" / (path.stem
                                                           + ".cert.json"))
                            .read_text(encoding="utf-8"))
        if golden["conclusion"] != REDUCIBLE_WITH_WITNESS:
            assert cert.conclusion == INCONCLUSIVE_RUN
        if cert.lattice is not None and cert.conclusion == INCONCLUSIVE_RUN:
            # the run tried no prime, and its reason says so
            assert cert.reason.startswith(
                "undecided: no prime was tried: the explicit prime list has "
                "none besides (0); "), cert.reason
        assert verify(cert, rep) and replay(cert, rep)

    def test_seed_changes_transcript_not_conclusion(self):
        a = certify(s3_over(QQ), seed=1)
        b = certify(s3_over(QQ), seed=2)
        assert a.conclusion == b.conclusion == IRREDUCIBLE_CERTIFIED
        assert verify(a, s3_over(QQ)) and verify(b, s3_over(QQ))


class TestSoundnessSweep:

    def test_certified_never_contradicts_direct_meataxe(self):
        # random integral generators; whenever certify signs off on
        # irreducibility, the field-level MeatAxe must not refute it
        rng = XorShift64(999)
        checked = certified = 0
        for _ in range(120):
            d = 2 + rng.randrange(2)
            gens = []
            while len(gens) < 2:
                m = Matrix(QQ, [[Fraction(rng.randrange(7) - 3)
                                 for _ in range(d)] for _ in range(d)])
                if not QQ.is_zero(m.det()):
                    gens.append(m)
            rep = Representation(QQ, gens, [])
            cert = certify(rep, budget=60)
            checked += 1
            if cert.conclusion == IRREDUCIBLE_CERTIFIED:
                certified += 1
                direct = is_irreducible(rep, seed=7, budget=60)
                assert direct.status != REDUCIBLE, cert.to_json()
        assert checked == 120 and certified > 0
