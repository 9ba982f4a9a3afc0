"""Representation construction, word evaluation, derived representations."""

import copy
import json
import pathlib
import random
from fractions import Fraction

import pytest

from irredcert.errors import IrredcertError, ShapeError, SingularError
from irredcert.matrices import Matrix
from irredcert.prng import XorShift64
from irredcert.reps import (
    Representation, adjoint_rep, conjugate, direct_sum, evaluate,
    rep_from_json, rep_to_json, trivial_rep,
)
from irredcert.rings import ZZ, QQ, PrimeField

F5 = PrimeField(5)

S3_RELATIONS = [[[0, 1]] * 3, [[1, 1]] * 2, [[0, 1], [1, 1]] * 2]


def s3_rep(ring=ZZ):
    return Representation(ring, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
                          relations=S3_RELATIONS, label="S3 standard")


def test_s3_constructs_and_relations_hold():
    rep = s3_rep()
    assert rep.dim == 2
    assert len(rep.generators) == 2


def test_bad_relation_rejected():
    with pytest.raises(ValueError):
        Representation(ZZ, [[[0, -1], [1, -1]]], relations=[[[0, 1]] * 2])


def test_singular_generator_rejected():
    with pytest.raises(SingularError):
        Representation(QQ, [[[1, 1], [2, 2]]])


def test_known_determinants_are_not_recomputed(monkeypatch):
    gens = [Matrix(QQ, [[0, -1], [1, -1]]), Matrix(QQ, [[0, 1], [1, 0]])]
    monkeypatch.setattr(Matrix, "det", None)
    rep = Representation(QQ, gens, determinants=[Fraction(1), Fraction(-1)])
    assert rep.determinants == (1, -1)
    # a zero among them is still refused
    with pytest.raises(SingularError):
        Representation(QQ, gens, determinants=[Fraction(1), Fraction(0)])


def test_evaluate_examples():
    rep = s3_rep()
    assert evaluate(rep, []).is_identity()
    assert evaluate(rep, [[0, 1]] * 3).is_identity()  # sigma^3 = 1
    assert evaluate(rep, [[0, 1], [0, -1]]).is_identity()  # g g^-1
    sigma = evaluate(rep, [[0, 1]])
    assert sigma == rep.generators[0]


def test_evaluate_homomorphism_random_words():
    rep = s3_rep()
    rng = XorShift64(31)
    for _ in range(60):
        w1 = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        w2 = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        lhs = evaluate(rep, list(w1) + list(w2))
        rhs = evaluate(rep, w1) * evaluate(rep, w2)
        assert lhs == rhs


def test_adjoint_dimension_and_relations():
    rep = s3_rep(F5)
    ad = adjoint_rep(rep)
    assert ad.dim == 4
    # every relation of the base rep holds in the adjoint
    for w in rep.relations:
        assert evaluate(ad, w).is_identity()


def test_adjoint_trace_identity():
    # trace(ad g) = trace(g) * trace(g^-1), exactly
    rep = s3_rep(F5)
    ad = adjoint_rep(rep)
    for i, g in enumerate(rep.generators):
        lhs = ad.generators[i].trace()
        rhs = F5.mul(g.trace(), g.inverse().trace())
        assert lhs == rhs


def test_adjoint_one_dim_trivial():
    rep = Representation(F5, [[[3]]])
    ad = adjoint_rep(rep)
    assert all(g.is_identity() for g in ad.generators)


def test_adjoint_of_identity_rep():
    rep = trivial_rep(F5, dim=3)
    ad = adjoint_rep(rep)
    assert ad.dim == 9
    assert all(g.is_identity() for g in ad.generators)


def test_adjoint_fixed_matrices_dim():
    # invariant vectors of ad = commuting matrices; for S3 over F_5 that
    # space is the scalars (checked as a kernel computation in meataxe tests)
    from irredcert.matrices import kernel_basis
    rep = s3_rep(F5)
    ad = adjoint_rep(rep)
    rows = []
    ident = Matrix.identity(F5, 4)
    for g in ad.generators:
        diff = g - ident
        rows.extend(diff.rows())
    ker = kernel_basis(Matrix(F5, rows))
    assert len(ker) == 1


def test_conjugate_examples():
    rep = s3_rep(QQ)
    same = conjugate(rep, Matrix.identity(QQ, 2))
    assert same == rep
    c = Matrix(QQ, [[1, 0], [0, Fraction(1, 2)]])
    conj = conjugate(rep, c)
    assert conj.generators[0] == Matrix(QQ, [[0, -2], [Fraction(1, 2), -1]])
    assert conj.generators[1] == Matrix(QQ, [[0, 2], [Fraction(1, 2), 0]])
    # conjugating back restores the original
    assert conjugate(conj, c.inverse()) == rep


def test_conjugate_singular_rejected():
    rep = s3_rep(QQ)
    with pytest.raises(SingularError):
        conjugate(rep, Matrix(QQ, [[1, 1], [1, 1]]))


def test_conjugate_stays_integral_for_unimodular():
    rep = s3_rep()
    u = Matrix(ZZ, [[1, 1], [0, 1]])
    conj = conjugate(rep, u)
    assert conj.ring == ZZ


def test_direct_sum():
    a = trivial_rep(QQ, dim=1)
    b = trivial_rep(QQ, dim=1)
    s = direct_sum(a, b)
    assert s.dim == 2
    assert s.generators[0].is_identity()
    rep = s3_rep(QQ)
    with pytest.raises(ShapeError):
        direct_sum(rep, trivial_rep(ZZ, 1))


def test_json_roundtrip():
    for rep in (s3_rep(), s3_rep(F5), trivial_rep(QQ, 2)):
        doc = rep_to_json(rep)
        back = rep_from_json(doc)
        assert back == rep
        assert back.relations == rep.relations
        assert back.label == rep.label


def test_json_missing_field():
    with pytest.raises(ValueError):
        rep_from_json({"dim": 2, "generators": []})


# ---------------------------------------------------------------------------
# the loader under seeded mutations of the documents in data/

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

# what a mutated field becomes: every JSON type, and strings the scalar
# grammars of Q, Z[t], Q(t), F_p and F_q meet
FUZZ_VALUES = [None, True, False, 0, 1, -3, 2 ** 70, 1.5, "", " ", "0",
               "1/0", "t", "x", "t^", "x^", "2*", "1/", "t+", "-", "t^2*",
               "(1)/(", "(t)/(0)", "((t))", "t^-1", "1e3", "½", [], {},
               [[]], [None], [[0, 1]], {"ring": "Fp"}, {"ring": "Q(t)"}]


def _paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(rng, doc):
    """doc with one field cut, replaced, dropped, or, for a string, cut short
    or with one character changed."""
    path = rng.choice([p for p in _paths(doc) if p])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = rng.randrange(4)
    if kind == 0 and isinstance(value, str) and value:
        parent[key] = value[:rng.randrange(len(value))]
    elif kind == 1 and isinstance(value, str) and value:
        i = rng.randrange(len(value))
        parent[key] = value[:i] + rng.choice("t^*/+-()x01 ") + value[i + 1:]
    elif kind == 2:
        parent.pop(key)
    else:
        parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))


def test_loader_fuzz():
    # every mutated document loads or ends in a typed error; the CLI turns
    # both error classes into exit code 1 (test_cli.py, MALFORMED_REPS)
    docs = [json.loads(path.read_text())
            for path in sorted(DATA.glob("**/*.json"))]
    rng = random.Random(2030)
    loaded = 0
    for _ in range(500):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.choice((1, 2))):
            _mutate(rng, doc)
        try:
            rep_from_json(doc)
            loaded += 1
        except (IrredcertError, ValueError):
            pass
    # most mutations are malformed, but not all: the test reaches both ends
    assert 0 < loaded < 500
