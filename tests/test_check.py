"""The certificate checker: acceptance, agreement with the replay, tampered
certifying fields, a checker that runs none of the search, and malformed
documents."""

import importlib
import json
import pathlib
import random

import pytest

from irredcert import meataxe
from irredcert.certify import (Certificate, IRREDUCIBLE_CERTIFIED,
                               RULE_REGULAR_ONE_PRIME, TOOLKIT_VERSION,
                               _make_cert, canonical_json, certify,
                               compute_self_digest, load_certificate,
                               rep_digest, replay, verify)
from irredcert.check import (_check_norton, _integral_generators,
                             _Rejected, rejection)
from irredcert.cli import main
from irredcert.errors import IrredcertError
from irredcert.matrices import Matrix
from irredcert.meataxe import is_irreducible
from irredcert.reps import Representation, load_rep, over_fraction_field
from irredcert.rings import QQ, ZZ, PrimeField, ring_from_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden"

S3_RELS = [[(0, 1)] * 3, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
S3 = [[[0, -1], [1, -1]], [[0, 1], [1, 0]]]


def s3_q():
    return Representation(QQ, S3, S3_RELS, label="s3")


def ut_q():
    return Representation(QQ, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], [],
                          label="ut")


def redigested(blob):
    """The certificate of a document, its self_digest recomputed."""
    cert = Certificate.from_json(blob)
    cert.self_digest = compute_self_digest(cert)
    return cert


def copy(cert):
    return json.loads(json.dumps(cert.to_json()))


def golden_pairs():
    out = []
    for path in sorted(GOLDEN.glob("*.cert.json")):
        name = path.name.split(".")[0]
        out.append((name, load_certificate(str(path)),
                    load_rep(str(DATA / (name + ".json")))))
    return out


def forged(rep, prime, transcript, lattice=None):
    """A RegularOnePrime certificate over Z with an irreducible step at the
    integer prime p carrying the given MeatAxe transcript."""
    d = rep.dim
    lattice = lattice or [[str(int(i == j)) for j in range(d)]
                          for i in range(d)]
    step = {"prime": "(%d)" % prime,
            "residue_field": PrimeField(prime).to_json(),
            "verdict": "irreducible", "meataxe": transcript}
    return _make_cert(rep, {}, base_ring=ZZ.to_json(), lattice=lattice,
                      steps=[step], rule=RULE_REGULAR_ONE_PRIME,
                      conclusion=IRREDUCIBLE_CERTIFIED)


def one_sample(words, coeffs, charpoly, factor):
    return {"samples": [{"words": words, "coeffs": coeffs,
                         "charpoly": charpoly}],
            "decision": {"status": "irreducible", "sample": 0,
                         "factor": factor}}


class TestAccepts:

    def test_golden_certificates(self):
        for name, cert, rep in golden_pairs():
            assert rejection(cert, rep) is None, name

    def test_verify_and_replay_agree(self):
        """Both accept every corpus certificate, the golden ones, a
        height-one family, a second prime, a reducibility witness and a
        rep with no integral model."""
        s3qt = load_rep(str(DATA / "s3_qt.json"))
        pairs = [(cert, rep) for _, cert, rep in golden_pairs()]
        for path in sorted(DATA.glob("*.json")):
            rep = load_rep(str(path))
            pairs.append((certify(rep), rep))
        no_model = Representation(QQ, [[[2, 0], [0, 1]]], [], label="dil")
        pairs += [(certify(s3qt, primes=["(t-0)"]), s3qt),
                  (certify(s3_q(), primes=[5]), s3_q()),
                  (certify(ut_q()), ut_q()),
                  (certify(no_model), no_model)]
        for cert, rep in pairs:
            assert verify(cert, rep), cert
            assert replay(cert, rep), cert

    def test_integral_generators_keep_their_determinants(self):
        # the determinants the lattice check computes are those of the
        # integral model it builds, over its base ring
        for name, cert, rep in golden_pairs():
            if cert.lattice is None:
                continue
            R = ring_from_json(cert.base_ring)
            gens, dets = _integral_generators(cert.lattice,
                                              over_fraction_field(rep), R)
            assert repr(dets) == repr([g.det() for g in gens]), name
            assert all(R.is_unit(a) for a in dets), name

    def test_dimension_one_is_checked_like_any_other(self):
        # the engine decides a 1 x 1 reduction by Norton's test at sample 0,
        # and the checker checks that transcript: emptied, it is rejected
        rep = Representation(QQ, [[[-1]]], [[(0, 1), (0, 1)]], label="sign")
        cert = certify(rep)
        assert cert.steps[0]["meataxe"]["decision"]["sample"] == 0
        assert rejection(cert, rep) is None
        for transcript in ({"samples": [], "decision": {}},
                           {"samples": [], "decision": {
                               "status": "irreducible",
                               "reason": "dimension 1"}}):
            blob = copy(cert)
            blob["steps"][0]["meataxe"] = transcript
            assert rejection(redigested(blob), rep) is not None

    def test_enumeration_whatever_the_events_say(self):
        # theta = 1 on S3 mod 5: the factor x - 1 has nullity 2 > deg 1, so
        # the checker spins the 6 projective points of ker g(theta) and the
        # first vector of ker g(theta)^T
        rep = Representation(QQ, [[[1, 0], [0, 1]]] + S3, [], label="s3i")
        cert = forged(rep, 5, one_sample([[0]], ["1"], "x^2 + 3*x + 1",
                                         "x + 4"))
        assert rejection(cert, rep) is None

    def test_edited_non_certifying_fields_still_verify(self):
        """The claim lives in the lattice, the prime and the deciding
        sample; an edit elsewhere, re-digested, still verifies, and only
        the replay sees it."""
        rep = s3_q()
        blob = copy(certify(rep))
        blob["config"]["seed"] = 99
        blob["steps"][0]["meataxe"]["samples"][0]["factors"][0]["events"] = []
        cert = redigested(blob)
        assert verify(cert, rep)
        assert not replay(cert, rep)


class TestTamperedCertifyingFields:
    """Each tamper recomputes self_digest, so the digest catches none of
    them; the checker must, and says why."""

    def reason(self, cert, rep, edit):
        blob = copy(cert)
        edit(blob)
        return rejection(redigested(blob), rep)

    @staticmethod
    def step(blob):
        return blob["steps"][-1]

    @staticmethod
    def sample(blob):
        return blob["steps"][-1]["meataxe"]["samples"][0]

    def test_prime(self):
        rep, cert = s3_q(), certify(s3_q())

        def at(text):
            return lambda b: self.step(b).update(prime=text)
        # S3 mod 3 is reducible: x^2 + x + 1 = (x - 1)^2 there
        assert "reducible over F_3" in self.reason(cert, rep, at("(3)"))
        assert "not prime" in self.reason(cert, rep, at("(4)"))
        assert "not an integer or maximal prime" in \
            self.reason(cert, rep, at("(0)"))
        assert "needs base ring Z[t]" in self.reason(cert, rep, at("(t-1)"))

    def test_lattice(self):
        rep, cert = s3_q(), certify(s3_q())

        def lat(rows):
            return lambda b: b.update(lattice=rows)
        assert self.reason(cert, rep, lat([["2", "0"], ["0", "1"]])) == \
            "generator 0 is not integral in the recorded lattice"
        assert self.reason(cert, rep, lat([["1", "1"], ["1", "1"]])) == \
            "the lattice basis is singular"
        assert self.reason(cert, rep, lat([["1", "0"], ["0"]])) == \
            "the lattice is not a 2 x 2 matrix"

    def test_lattice_of_a_rep_over_qt(self):
        rep = load_rep(str(DATA / "s3_qt.json"))
        cert = certify(rep)
        reason = self.reason(cert, rep, lambda b: b.update(
            lattice=[["t", "0"], ["0", "1"]]))
        assert reason == "generator 0 is not integral in the recorded lattice"

    def test_non_constant_lattice_of_b3_qt(self):
        """The Z[t] branch of the lattice check, on the golden b3_qt
        certificate, whose lattice has non-constant entries."""
        rep = load_rep(str(DATA / "b3_qt.json"))
        cert = load_certificate(str(GOLDEN / "b3_qt.cert.json"))
        K, t = rep.ring, rep.ring.parse("t")
        b = Matrix(K, [[K.parse(a) for a in row] for row in cert.lattice])
        assert any(not K.is_constant(a) for a in b.entries)

        def lat(m):
            return lambda blob: blob.update(lattice=[
                [K.format(a) for a in m.row(i)] for i in range(m.nrows)])
        stretch = Matrix(K, [[t, 0, 0], [0, 1, 0], [0, 0, 1]])
        # generator 0 is [[-1, 0, 0], [-2, 1, 0], [2, 0, 1]] in the lattice,
        # so it stays integral when the first basis vector is stretched by
        # t; generator 1 has a 1 in its first row and does not
        assert self.reason(cert, rep, lat(b * stretch)) == \
            "generator 1 is not integral in the recorded lattice"
        # the third basis vector replaced by the first
        assert self.reason(cert, rep, lat(b * Matrix(K, [
            [1, 0, 1], [0, 1, 0], [0, 0, 0]]))) == \
            "the lattice basis is singular"
        # a fourth generator that acts in the lattice as diag(t, 1, 1):
        # integral, of determinant t
        extra = b * stretch * b.inverse()
        rep4 = Representation(K, list(rep.generators) + [extra],
                              rep.relations, label=rep.label)
        blob = copy(cert)
        blob["input_digest"] = rep_digest(rep4)
        assert rejection(redigested(blob), rep4) == (
            "generator 3 has determinant t in the recorded lattice, not +-1")

    def test_determinant_must_be_a_unit(self):
        # x^2 - 2 is irreducible mod 3, so only the lattice check can see
        # that g^-1 stabilizes no lattice
        rep = Representation(QQ, [[[0, 2], [1, 0]]], [], label="sqrt2")
        red = Representation(PrimeField(3), [[[0, 2], [1, 0]]])
        cert = forged(rep, 3, is_irreducible(red).transcript)
        assert rejection(cert, rep) == ("generator 0 has determinant -2 in "
                                        "the recorded lattice, not +-1")

    def test_factor(self):
        rep, cert = s3_q(), certify(s3_q())

        def factor(text):
            return lambda b: self.step(b)["meataxe"]["decision"].update(
                factor=text)
        assert "does not divide" in self.reason(cert, rep, factor("x + 1"))
        assert "not in canonical form" in \
            self.reason(cert, rep, factor("x^2+x+1"))
        assert "not monic of positive degree" in \
            self.reason(cert, rep, factor("1"))
        assert "malformed" in self.reason(cert, rep, factor("y + 1"))

    def test_words_and_coeffs(self):
        rep, cert = s3_q(), certify(s3_q())
        assert "no generator index" in self.reason(
            cert, rep, lambda b: self.sample(b).update(words=[[2]]))
        assert "no generator index" in self.reason(
            cert, rep, lambda b: self.sample(b).update(words=[[-1]]))
        # the other generator: charpoly x^2 + 1 over F_2
        assert "characteristic polynomial" in self.reason(
            cert, rep, lambda b: self.sample(b).update(words=[[1]]))
        assert "characteristic polynomial" in self.reason(
            cert, rep, lambda b: self.sample(b).update(coeffs=["0"]))
        assert "not a string" in self.reason(
            cert, rep, lambda b: self.sample(b).update(coeffs=[1]))
        # within the MeatAxe's limits, checked before any product is taken
        assert self.reason(cert, rep, lambda b: self.sample(b).update(
            words=[[0] * 10 ** 6], coeffs=["1"])) == \
            "a word is not a list of 1 to 6 letters"
        assert self.reason(cert, rep, lambda b: self.sample(b).update(
            words=[[]], coeffs=["1"])) == \
            "a word is not a list of 1 to 6 letters"
        assert self.reason(cert, rep, lambda b: self.sample(b).update(
            words=[[0]] * 4, coeffs=["1"] * 4)) == \
            "the sample has 4 words, more than the 3 the MeatAxe draws"

    def test_recorded_charpoly(self):
        rep, cert = s3_q(), certify(s3_q())
        assert "characteristic polynomial" in self.reason(
            cert, rep, lambda b: self.sample(b).update(charpoly="x^2 + 1"))

    def test_decision_sample(self):
        rep, cert = s3_q(), certify(s3_q())
        for bad in (1, -1, "0", True, None):
            assert "names no recorded sample" in self.reason(
                cert, rep, lambda b: self.step(b)["meataxe"][
                    "decision"].update(sample=bad)), bad

    def test_nullity_beyond_the_enumeration_bound(self):
        # theta = 1 mod 101: nullity 2 against deg 1, and 101^2 > 32
        rep = Representation(QQ, [[[1, 0], [0, 1]]] + S3, [], label="s3i")
        cert = forged(rep, 101, one_sample([[0]], ["1"], "x^2 + 99*x + 1",
                                           "x + 100"))
        assert rejection(cert, rep).startswith("nullity 2 ≠ deg 1")

    def test_enumeration_under_the_old_bound(self, monkeypatch):
        # s9's certificate of toolkit 0.6.0, whose enumeration bound was
        # 4096, at the current version: it decides at (2) by enumerating
        # the 127 points of x + 1 of nullity 7, which the bound of 32 no
        # longer allows
        rep = load_rep(str(DATA / "s9.json"))
        with monkeypatch.context() as m:
            m.setattr(meataxe, "ENUM_BOUND", 4096)
            cert = certify(rep)
        events = cert.steps[0]["meataxe"]["samples"][0]["factors"][0]["events"]
        assert events == ["primal_enumeration_full", "dual_enumeration_full"]
        assert rejection(cert, rep) == ("nullity 7 ≠ deg 1, and 2^7 passes "
                                        "the enumeration bound")

    def test_enumeration_finds_a_proper_spin(self):
        # S3 mod 3 has an invariant line, which the enumeration meets
        rep = Representation(QQ, [[[1, 0], [0, 1]]] + S3, [], label="s3i")
        cert = forged(rep, 3, one_sample([[0]], ["1"], "x^2 + x + 1",
                                         "x + 2"))
        assert "spins to a proper subspace" in rejection(cert, rep)

    def test_dual_spin(self):
        # e1 is invariant; theta = g2 = diag(-1, 1) and its factor x - 1
        # have kernel e2, which spins to the whole space, while the dual
        # kernel vector e2 spins to a line under the transposes
        rep = Representation(QQ, [[[1, 1], [0, -1]], [[-1, 0], [0, 1]]], [],
                             label="flag")
        cert = forged(rep, 3, one_sample([[1]], ["1"], "x^2 + 2", "x + 2"))
        assert "ker g(theta)^T spins to a proper subspace" in \
            rejection(cert, rep)

    def test_dual_vector_after_a_full_enumeration(self):
        # block5_mod3 at its deciding sample: every projective point of
        # ker g(theta), x + 1 of nullity 2, spins to the whole space, and
        # the first vector of ker g(theta)^T spins to a proper subspace, so
        # a transcript that claims irreducible there is rejected by it
        rep = load_rep(str(DATA / "fp" / "block5_mod3.json"))
        golden = json.loads((GOLDEN / "block5_mod3.meataxe.json").read_text())
        transcript = golden["transcript"]
        decision = transcript["decision"]
        sample = transcript["samples"][decision["sample"]]
        assert [r["events"] for r in sample["factors"]][-1] == \
            ["primal_enumeration_full", "dual_enumeration_proper:3"]
        transcript["decision"] = {"status": "irreducible",
                                  "sample": decision["sample"],
                                  "factor": decision["factor"]}
        with pytest.raises(_Rejected) as exc:
            _check_norton(rep, transcript)
        assert str(exc.value) == ("ker g(theta)^T spins to a proper subspace "
                                  "under the transposed generators")

    def test_rule(self):
        rep, cert = s3_q(), certify(s3_q())
        for rule in ("DVR", "DirectOverK", None):
            assert self.reason(cert, rep, lambda b: b.update(rule=rule)) == \
                "rule %r does not certify irreducibility" % (rule,)

    def test_conclusion(self):
        rep, cert = s3_q(), certify(s3_q())
        assert self.reason(cert, rep, lambda b: b.update(
            conclusion="ReducibleWithWitness")) == \
            "rule 'RegularOnePrime' does not conclude ReducibleWithWitness"
        assert "names a rule or a witness" in self.reason(
            cert, rep, lambda b: b.update(conclusion="Inconclusive"))
        assert "unknown conclusion" in self.reason(
            cert, rep, lambda b: b.update(conclusion="Irreducible"))

    def test_inconclusive_needs_a_reason(self):
        rep = load_rep(str(DATA / "q8.json"))
        cert = load_certificate(str(GOLDEN / "q8.cert.json"))
        assert "gives no reason" in self.reason(
            cert, rep, lambda b: b.update(reason=""))

    def test_witness(self):
        rep, cert = ut_q(), certify(ut_q())
        for rows in ([["0", "1"]], [["1", "0"], ["0", "1"]], [], None):
            assert self.reason(cert, rep, lambda b: b.update(
                witness=rows)) == ("the witness does not span a proper "
                                   "invariant subspace"), rows

    def test_witness_on_an_irreducibility_certificate(self):
        rep, cert = s3_q(), certify(s3_q())
        assert "carries a reducibility witness" in self.reason(
            cert, rep, lambda b: b.update(witness=[["1", "0"]]))

    def test_height_one_sub_certificate(self):
        rep = load_rep(str(DATA / "s3_qt.json"))
        cert = certify(rep, primes=["(t-0)"])

        def sub_prime(b):
            sub = b["steps"][0]["sub_certificate"]
            sub["steps"][-1]["prime"] = "(3)"
            b["steps"][0]["sub_certificate"] = redigested(sub).to_json()
        assert "sub-certificate at (t-0): " in self.reason(cert, rep,
                                                           sub_prime)

        def sub_inconclusive(b):
            sub = b["steps"][0]["sub_certificate"]
            sub.update(conclusion="Inconclusive", rule=None, reason="none")
            b["steps"][0]["sub_certificate"] = redigested(sub).to_json()
        assert self.reason(cert, rep, sub_inconclusive) == \
            "the sub-certificate concludes 'Inconclusive'"
        # the fibres at (t-0), (t-1) and (t+1) are the same S3 over Q, but a
        # sub-certificate holds only at the prime of its own reduction
        for other in ("(t-1)", "(t+1)"):
            assert self.reason(cert, rep, lambda b: b["steps"][0].update(
                prime=other)) == ("sub-certificate at %s: input_digest does "
                                  "not match the representation" % other)
        moved = certify(rep, primes=["(t-1)"]).steps[0]["sub_certificate"]
        assert self.reason(cert, rep, lambda b: b["steps"][0].update(
            sub_certificate=moved)) == ("sub-certificate at (t-0): "
                                        "input_digest does not match the "
                                        "representation")
        assert "not a height-one prime" in self.reason(
            cert, rep, lambda b: b["steps"][0].update(prime="(2,t-0)"))


class TestNoSearch:

    def test_verify_runs_none_of_the_search(self, monkeypatch):
        pairs = [(cert, rep) for _, cert, rep in golden_pairs()]
        s3qt = load_rep(str(DATA / "s3_qt.json"))
        pairs += [(certify(s3qt, primes=["(t-0)"]), s3qt),
                  (certify(ut_q()), ut_q())]

        def searching(*args, **kwargs):
            raise AssertionError("the checker ran the search")
        # the package exports the function certify under the module's name
        engine = importlib.import_module("irredcert.certify")
        monkeypatch.setattr(engine, "saturate", searching)
        monkeypatch.setattr(engine, "is_irreducible", searching)
        monkeypatch.setattr(importlib.import_module("irredcert.meataxe"),
                            "_sample_theta", searching)
        polys = importlib.import_module("irredcert.polys")
        monkeypatch.setattr(polys, "distinct_irreducible_factors", searching)
        monkeypatch.setattr(polys, "factor_stream", searching)
        for cert, rep in pairs:
            assert verify(cert, rep), cert


# ---------------------------------------------------------------------------
# malformed documents

BAD_LETTERS = [-1, 2, 10 ** 30, "0", 1.5, None, True, [0]]
BAD_SAMPLES = [-1, 1, 10 ** 30, "0", 0.0, None, True, [0]]
BAD_LATTICES = [[["1"]], [["1", "0"], ["0"]], [], "I", None,
                [["a", "b"], ["c", "d"]], [[1, 0], [0, 1]],
                [["1/0", "0"], ["0", "1"]], [["1", "0"], ["0", "1"], ["0"]]]
BAD_FACTORS = ["x^", "", "x^-1", "1/0", 5, None, "x^99999999999",
               "x^2 + x + 1 + x", "x + 1/2"]
BAD_PRIMES = ["(2", "(1e3)", "(%d)" % 10 ** 30, "(2,t-0)", "(-3)", 5, None,
              "(t-x)", "()"]
BAD_VALUES = [None, 5, "x", [], {}, [None], {"ring": "Fp", "p": 4}]
# primes other than (t-0) for a (t-0) step or a copy of it put first
OTHER_LINEAR = ["(t-1)", "(t+1)", "(t-2)", "(2,t-0)", "(2)", "(0)"]
# (words, coeffs) past the MeatAxe's limits of 3 words of 6 letters
LONG_SAMPLES = [([[0] * 7], ["1"]), ([[0]] * 4, ["1"] * 4),
                ([[1] * 10 ** 5], ["1"])]


def _mutations(rng, base, qt_family):
    """Seeded edits of a certificate document, one malformed part each;
    an edit that leaves the document as it was is dropped."""
    def sample(b):
        return b["steps"][-1]["meataxe"]["samples"][0]

    def decision(b):
        return b["steps"][-1]["meataxe"]["decision"]

    edits = [
        lambda b: sample(b).update(words=[[rng.choice(BAD_LETTERS)]]),
        lambda b: sample(b).update(words=rng.choice(BAD_VALUES)),
        lambda b: sample(b).update(coeffs=rng.choice(BAD_VALUES)),
        lambda b: sample(b).update(zip(("words", "coeffs"),
                                       rng.choice(LONG_SAMPLES))),
        lambda b: decision(b).update(sample=rng.choice(BAD_SAMPLES)),
        lambda b: decision(b).update(factor=rng.choice(BAD_FACTORS)),
        lambda b: b.update(lattice=rng.choice(BAD_LATTICES)),
        lambda b: b["steps"][-1].update(prime=rng.choice(BAD_PRIMES)),
        lambda b: b["steps"][-1].update(meataxe=rng.choice(BAD_VALUES)),
        lambda b: b["steps"][-1]["meataxe"].update(
            samples=rng.choice(BAD_VALUES)),
        lambda b: b["steps"][-1]["meataxe"].update(
            decision=rng.choice(BAD_VALUES)),
        lambda b: b.update(steps=rng.choice(BAD_VALUES)),
        lambda b: b.update(base_ring=rng.choice(BAD_VALUES)),
        lambda b: b.update(conclusion=rng.choice(BAD_VALUES)),
        lambda b: b.update(rule=rng.choice(BAD_VALUES)),
        lambda b: b.update(witness=rng.choice(BAD_VALUES)),
    ]
    family_edits = [
        lambda b: b["steps"][0].update(prime=rng.choice(OTHER_LINEAR)),
        lambda b: b["steps"].insert(0, dict(b["steps"][0],
                                            prime=rng.choice(OTHER_LINEAR))),
        lambda b: b["steps"][0].update(
            sub_certificate=rng.choice(BAD_VALUES)),
        lambda b: b["steps"][0]["sub_certificate"].update(
            lattice=rng.choice(BAD_LATTICES)),
    ]
    for count, doc, choices in ((120, base, edits),
                                (20, qt_family, family_edits)):
        for _ in range(count):
            blob = json.loads(json.dumps(doc))
            rng.choice(choices)(blob)
            if canonical_json(blob) != canonical_json(doc):
                yield blob


class TestMalformed:

    def test_fuzzed_documents_are_rejected(self, capsys, tmp_path):
        rng = random.Random(7)
        rep = s3_q()
        s3qt = load_rep(str(DATA / "s3_qt.json"))
        base = copy(certify(rep))
        family = copy(certify(s3qt, primes=["(t-0)"]))
        rep_path = tmp_path / "s3.json"
        rep_path.write_text(json.dumps(
            {"ring": "Q", "dim": 2, "label": "s3",
             "generators": [[[str(a) for a in row] for row in g]
                            for g in S3],
             "relations": [[list(x) for x in w] for w in S3_RELS]}))
        cert_path = tmp_path / "cert.json"
        for i, blob in enumerate(_mutations(rng, base, family)):
            target = s3qt if blob["label"] == s3qt.label else rep
            try:
                cert = redigested(blob)
            except ValueError:
                continue
            assert not verify(cert, target), blob
            if target is rep:
                cert_path.write_text(json.dumps(cert.to_json()))
                assert main(["verify", str(cert_path), str(rep_path)]) == 1
                out = json.loads(capsys.readouterr().out)
                assert out["verified"] is False and out["reason"], out

    def test_cli_prints_a_reason_only_on_rejection(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        rep = str(DATA / "s3.json")
        blob = copy(load_certificate(str(GOLDEN / "s3.cert.json")))
        path.write_text(json.dumps(blob))
        assert main(["verify", str(path), rep]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "verified": True, "conclusion": "IrreducibleCertified",
            "toolkit_version": TOOLKIT_VERSION}
        blob["lattice"] = [["2", "0"], ["0", "1"]]
        path.write_text(json.dumps(redigested(blob).to_json()))
        for argv in ([], ["--replay"]):
            assert main(["verify", str(path), rep] + argv) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["reason"] == ("generator 0 is not integral in the "
                                     "recorded lattice"), argv

    @pytest.mark.parametrize("name,family", [("s3", None),
                                             ("s30_qt", ["(t-0)", "(7)"])])
    def test_cli_rejects_an_unknown_key(self, capsys, tmp_path, name,
                                        family):
        # a key the format does not name is no part of the digest, the
        # checks or the replay, so the document is refused before them
        path = tmp_path / "cert.json"
        rep = str(DATA / (name + ".json"))
        blob = copy(load_certificate(str(GOLDEN / (name + ".cert.json"))))
        path.write_text(json.dumps(blob))
        assert main(["verify", str(path), rep]) == 0
        capsys.readouterr()
        blob["family"] = family
        path.write_text(json.dumps(blob))
        for argv in ([], ["--replay"]):
            assert main(["verify", str(path), rep] + argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "ValueError", "detail": "certificate "
                           "document has unknown keys ['family']"}, argv

    def test_cli_replay_flags_a_non_certifying_edit(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        rep = str(DATA / "s3.json")
        blob = copy(load_certificate(str(GOLDEN / "s3.cert.json")))
        blob["config"]["seed"] = 99
        path.write_text(json.dumps(redigested(blob).to_json()))
        assert main(["verify", str(path), rep]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), rep, "--replay"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["reason"] == ("re-running certify does not reproduce the "
                                 "certificate")

    def test_other_version_is_a_typed_error(self, capsys, tmp_path):
        blob = copy(load_certificate(str(GOLDEN / "s3.cert.json")))
        blob["toolkit_version"] = "0.0.9"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(redigested(blob).to_json()))
        with pytest.raises(IrredcertError):
            verify(Certificate.from_json(json.loads(path.read_text())),
                   load_rep(str(DATA / "s3.json")))
        assert main(["verify", str(path), str(DATA / "s3.json")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "VersionMismatch"
