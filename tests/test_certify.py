"""Certification engine: criterion runs, certificates, replay, tampering."""

import json
from fractions import Fraction

import pytest

from irredcert.certify import (Certificate, IRREDUCIBLE_CERTIFIED,
                               INCONCLUSIVE_RUN, REDUCIBLE_WITH_WITNESS,
                               RULE_DIRECT_OVER_K, RULE_HEIGHT_ONE_FAMILY,
                               RULE_REGULAR_ONE_PRIME, canonical_json,
                               certify, rep_digest, verify)
from irredcert.check import family_condition_trivial_intersection
from irredcert.errors import VersionMismatch
from irredcert.matrices import Matrix
from irredcert.meataxe import REDUCIBLE, is_irreducible
from irredcert.prng import XorShift64
from irredcert.reps import Representation, conjugate
from irredcert.rings import QQ, PolynomialRingZ, RationalFunctionField, ZZ

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

    def test_no_integral_model_reducible_probe(self):
        # scaled shear: no stable lattice, but K-level witness still found
        rep = Representation(QQ, [Matrix(QQ, [[Fraction(1, 2), Fraction(1)],
                                              [Fraction(0), Fraction(2)]])],
                             [])
        cert = certify(rep)
        assert cert.conclusion == REDUCIBLE_WITH_WITNESS
        assert verify(cert, rep)


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
        assert cert.family == ["(t-0)", "(2)"]
        sub = cert.steps[0]["sub_certificate"]
        assert sub["conclusion"] == IRREDUCIBLE_CERTIFIED

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

    def test_reducible_function_field(self):
        K = self.qt()
        t = K.coerce(((0, 1), (1,)))
        rep = Representation(K, [Matrix(K, [[t, K.zero()],
                                            [K.zero(), K.one()]])], [])
        cert = certify(rep)
        assert cert.conclusion == REDUCIBLE_WITH_WITNESS
        assert verify(cert, rep)


class TestCertificateDocument:

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

    def test_family_condition(self):
        ZT = PolynomialRingZ("t")
        assert family_condition_trivial_intersection(["(t-0)", "(2)"], ZT)
        assert family_condition_trivial_intersection(["(2)", "(3)", "(5)"], ZT)
        assert not family_condition_trivial_intersection([], ZT)
        assert not family_condition_trivial_intersection(["(2)", "(2)"], ZT)
        assert not family_condition_trivial_intersection(["(0)"], ZT)
        assert not family_condition_trivial_intersection(["nonsense"], ZT)


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
