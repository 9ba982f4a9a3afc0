"""Acceptance criteria, one test per criterion, in order.

Each test prints one "[criterion N] PASS/FAIL ..." line on the real stdout
(via capsys.disabled, so the lines survive pytest's capture) and then
asserts.  Criteria with stated time limits assert elapsed wall time too.
"""

import json
import math
import pathlib
import time
from fractions import Fraction

from irredcert.certify import (IRREDUCIBLE_CERTIFIED, Certificate, certify,
                               verify)
from irredcert.cohomology import (close_group, cohomology_dims, module_action,
                                  obstruction_report)
from irredcert.errors import VersionMismatch
from irredcert.lattices import PrimeSpec, reduce_rep, saturate
from irredcert.matrices import Matrix, kernel_basis
from irredcert.meataxe import (INCONCLUSIVE, IRREDUCIBLE, REDUCIBLE,
                               _echelon_rows, endo_dim, is_irreducible,
                               subspace_is_invariant)
from irredcert.oracle import count_invariant
from irredcert.prng import XorShift64
from irredcert.reps import (Representation, adjoint_rep, load_rep,
                            trivial_rep)
from irredcert.rings import QQ, ZZ, PrimeField, RationalFunctionField

import numpy as np

from bar_complex import _numpy_differential, bar_differential
from integer_lattices import (IMAGE_PROPER, Lattice, hnf, ideal_mult,
                              integer_kernel, lattice_intersect,
                              proper_sublattice_image)

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print("[criterion %d] %s - %s"
              % (number, "PASS" if ok else "FAIL", detail), flush=True)
    assert ok, detail


def random_invertible(rng, K, d, span=7, shift=-3):
    while True:
        m = Matrix(K, [[K.coerce(rng.randrange(span) + shift)
                        for _ in range(d)] for _ in range(d)])
        if not K.is_zero(m.det()):
            return m


def random_unimodular_z(rng, d, steps=8):
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    m = Matrix(QQ, rows)
    for _ in range(steps):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = Fraction(rng.randrange(5) - 2)
        add = Matrix(QQ, [[Fraction(int(a == b)) + (c if (a, b) == (i, j)
                                                    else 0)
                           for b in range(d)] for a in range(d)])
        m = m * add
    return m


def reduced(rep_path, p):
    rep = load_rep(str(rep_path))
    _, int_rep = saturate(rep)
    return reduce_rep(int_rep, PrimeSpec.integer(p))


def _col_span_z(vecs):
    """Canonical fingerprint of the Z-span of integer column vectors."""
    d = len(vecs[0])
    m = Matrix(ZZ, [[int(v[i]) for v in vecs] for i in range(d)])
    h, _ = hnf(m)
    return tuple(tuple(h.column(j)) for j in range(h.ncols)
                 if any(h.column(j)))


class TestAcceptance:

    def test_criterion_01_oracle_equivalence(self, capsys):
        start = time.monotonic()
        rng = XorShift64(101)
        cases = disagreements = 0
        for p in (2, 3):
            K = PrimeField(p)
            for d in (2, 3):
                for _ in range(50):
                    gens = [random_invertible(rng, K, d, span=p, shift=0)
                            for _ in range(2)]
                    rep = Representation(K, gens, [])
                    verdict = is_irreducible(rep, seed=rng.randrange(10000))
                    count = count_invariant(rep)
                    cases += 1
                    if verdict.status == INCONCLUSIVE or \
                            (verdict.status == IRREDUCIBLE) != (count == 2):
                        disagreements += 1
        for name in ("s3", "d4", "q8"):
            for p in (2, 3, 5):
                rep = reduced(DATA / ("%s.json" % name), p)
                verdict = is_irreducible(rep, seed=5)
                count = count_invariant(rep)
                cases += 1
                if verdict.status == INCONCLUSIVE or \
                        (verdict.status == IRREDUCIBLE) != (count == 2):
                    disagreements += 1
        elapsed = time.monotonic() - start
        ok = cases == 209 and disagreements == 0 and elapsed < 30
        report(capsys, 1, ok,
               "meataxe vs exhaustive oracle: %d/%d agree (%.1fs, limit 30s)"
               % (cases - disagreements, cases, elapsed))

    def test_criterion_02_certify_soundness(self, capsys):
        start = time.monotonic()
        rng = XorShift64(202)
        certified = contradictions = 0
        for _ in range(500):
            d = 2 + rng.randrange(2)
            gens = [random_invertible(rng, QQ, d) for _ in range(2)]
            rep = Representation(QQ, gens, [])
            cert = certify(rep, budget=60)
            if cert.conclusion == IRREDUCIBLE_CERTIFIED:
                certified += 1
                direct = is_irreducible(rep, seed=7, budget=60)
                if direct.status == REDUCIBLE:
                    contradictions += 1
        elapsed = time.monotonic() - start
        ok = contradictions == 0 and certified > 0 and elapsed < 120
        report(capsys, 2, ok,
               "500 random integral reps, %d certified, %d contradicted by "
               "the direct MeatAxe (%.1fs, limit 120s)"
               % (certified, contradictions, elapsed))

    def test_criterion_03_one_sidedness(self, capsys):
        rep3 = reduced(DATA / "s3.json", 3)
        v3 = is_irreducible(rep3, seed=0)
        checks = [
            v3.status == REDUCIBLE,
            v3.witness == ((PrimeField(3).coerce(1), PrimeField(3).coerce(2)),),
            count_invariant(rep3) == 3,
        ]
        for p in (2, 5):
            repp = reduced(DATA / "s3.json", p)
            checks.append(is_irreducible(repp, seed=0).status == IRREDUCIBLE)
            checks.append(count_invariant(repp) == 2)
        cert = certify(load_rep(str(DATA / "s3.json")), primes=[2])
        checks.append(cert.conclusion == IRREDUCIBLE_CERTIFIED)
        checks.append(cert.steps[0]["prime"] == "(2)")
        ok = all(checks)
        report(capsys, 3, ok,
               "S3 reducible mod 3 with witness span{(1,2)} (3 invariant "
               "subspaces), irreducible mod 2 and 5 (2 each), certified "
               "over Q at p=2")

    def test_criterion_04_witness_sublattice_equivalence(self, capsys):
        # K-level invariant subspace <-> proper stable sublattice with
        # proper span, the bridge built explicitly as L cap W
        rng = XorShift64(404)
        good = 0
        for case in range(20):
            d = 2 + (case % 2)
            k = d - 1
            tops = []
            for tail in (7, 5):
                a = random_invertible(rng, QQ, k, span=5, shift=-2)
                rows = []
                for i in range(k):
                    rows.append([a.entry(i, j) for j in range(k)]
                                + [Fraction(rng.randrange(5) - 2)])
                rows.append([Fraction(0)] * k + [Fraction(tail)])
                tops.append(Matrix(QQ, rows))
            u = random_unimodular_z(rng, d)
            uinv = u.inverse()
            rep = Representation(QQ, [u * g * uinv for g in tops], [])

            verdict = is_irreducible(rep, seed=11, budget=120)
            if verdict.status != REDUCIBLE:
                continue
            # direction 1: witness W -> sublattice M = L cap W with L = Z^d;
            # span(W) = {v : F v = 0} where F stacks the annihilator
            w = Matrix(QQ, [list(r) for r in verdict.witness])
            f_rows = []
            for f in kernel_basis(w):
                den = math.lcm(*[a.denominator for a in f])
                f_rows.append([int(a * den) for a in f])
            mvecs = [list(v) for v in integer_kernel(Matrix(ZZ, f_rows))]
            if not 0 < len(mvecs) < d:
                continue
            stable = True
            for g in rep.generators:
                for v in mvecs:
                    img = [int(a) for a in g.apply([Fraction(x)
                                                    for x in v])]
                    if _col_span_z(mvecs) != _col_span_z(mvecs + [img]):
                        stable = False
            # direction 2: the sublattice's Q-span is again a K-witness
            span_rows = _echelon_rows(
                QQ, [tuple(Fraction(x) for x in v) for v in mvecs])
            spans_back = (0 < len(span_rows) < d and subspace_is_invariant(
                QQ, rep.generators, span_rows))
            if stable and spans_back:
                good += 1
        ok = good == 20
        report(capsys, 4, ok,
               "constructed reducible reps: witness <-> proper stable "
               "sublattice via L cap W in %d/20 cases" % good)

    def test_criterion_05_ideal_intersection_identity(self, capsys):
        rng = XorShift64(505)
        good = 0
        for _ in range(50):
            d = 2 + rng.randrange(2)
            basis = random_invertible(rng, QQ, d, span=9, shift=-4)
            lat = Lattice(basis)
            ns = [1 + rng.randrange(12) for _ in range(4)]
            lhs = ideal_mult(lat, ns)
            rhs = None
            for n in ns:
                scaled = Lattice(basis.scale(Fraction(n)))
                rhs = scaled if rhs is None else lattice_intersect(rhs, scaled)
            if lhs == rhs:
                good += 1
        ok = good == 50
        report(capsys, 5, ok,
               "(cap_i (n_i)) L = cap_i (n_i L) by independent HNF "
               "intersection in %d/50 random cases" % good)

    def test_criterion_06_nakayama_image(self, capsys):
        rng = XorShift64(606)
        good = 0
        for case in range(20):
            d = 2 + (case % 2)
            p = (2, 3, 5)[case % 3]
            basis = random_invertible(rng, QQ, d, span=7, shift=-3)
            lat = Lattice(basis)
            dmat = Matrix(QQ, [[Fraction(p if (i == j == 0) else
                                         int(i == j))
                                for j in range(d)] for i in range(d)])
            c = random_unimodular_z(rng, d) * dmat * random_unimodular_z(rng, d)
            sub = Lattice(basis * c)
            if proper_sublattice_image(sub, lat, p) == IMAGE_PROPER:
                good += 1
        ok = good == 20
        report(capsys, 6, ok,
               "M proper in L with M not inside pL gives proper nonzero "
               "image in L/pL in %d/20 constructed cases" % good)

    def test_criterion_07_function_field_tower(self, capsys):
        rep = load_rep(str(DATA / "s3_qt.json"))
        ca = certify(rep, primes=["(2,t-0)"])
        cb = certify(rep, primes=["(t-0)"])
        checks = [
            ca.conclusion == IRREDUCIBLE_CERTIFIED,
            ca.rule == "RegularOnePrime",
            cb.conclusion == IRREDUCIBLE_CERTIFIED,
            cb.rule == "HeightOneFamily",
            verify(ca, rep),
            verify(cb, rep),
            ca.conclusion == cb.conclusion,
        ]
        ok = all(checks)
        report(capsys, 7, ok,
               "constant S3 over Q(t) certified via (2,t-0) and via (t-0) "
               "recursion; both certificates verify and agree")

    def test_criterion_08_cohomology(self, capsys):
        start = time.monotonic()
        F3, F5 = PrimeField(3), PrimeField(5)
        z3 = Representation(F5, [[[0, -1], [1, -1]]], [[(0, 1)] * 3])
        s3_rels = [[(0, 1)] * 3, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
        d4_rels = [[(0, 1)] * 4, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
        s4_rels = [[(0, 1)] * 4, [(1, 1)] * 2, [(0, 1), (1, 1)] * 3]
        s3_3 = Representation(F3, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
                              s3_rels)
        s3_5 = Representation(F5, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
                              s3_rels)
        d4_3 = Representation(F3, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
                              d4_rels)
        s4_5 = Representation(F5,
                              [[[0, 0, -1], [1, 0, -1], [0, 1, -1]],
                               [[-1, 1, 0], [0, 1, 0], [0, 0, 1]]], s4_rels)
        checks = []

        # d o d = 0, exactly, for all test groups
        small = [
            (close_group(z3), trivial_rep(F3, 1, ngens=1)),
            (close_group(z3), adjoint_rep(z3)),
            (close_group(s3_3), trivial_rep(F3, 1, ngens=2)),
            (close_group(d4_3), trivial_rep(F3, 1, ngens=2)),
        ]
        for table, module in small:
            d0 = bar_differential(table, module, 0)
            d1 = bar_differential(table, module, 1)
            checks.append((d1 * d0).is_zero())
            n, m = table.order, module.dim
            if (n ** 3 * m) * (n ** 2 * m) <= 65536:
                d2 = bar_differential(table, module, 2)
                checks.append((d2 * d1).is_zero())
        # larger instances (S3 adjoint, D4 adjoint, S4 trivial, |G| = 24)
        # through the integer engine, products reduced mod p
        for rep, module, p in ((s3_3, adjoint_rep(s3_3), 3),
                               (d4_3, adjoint_rep(d4_3), 3),
                               (s4_5, trivial_rep(F5, 1, ngens=2), 5)):
            table = close_group(rep)
            acts = module_action(table, module)
            m = module.dim
            actarr = np.array([[[int(a.entry(i, j)) for j in range(m)]
                                for i in range(m)] for a in acts],
                              dtype=np.int64)
            multarr = np.array(table.mult, dtype=np.int64)
            d0 = _numpy_differential(actarr, multarr, 0, m)
            d1 = _numpy_differential(actarr, multarr, 1, m)
            d2 = _numpy_differential(actarr, multarr, 2, m)
            checks.append(not ((d1 @ d0) % p).any())
            checks.append(not ((d2 @ d1) % p).any())

        # Maschke-type vanishing when gcd(|G|, char) = 1
        for rep, module in ((z3, trivial_rep(F5, 1, ngens=1)),
                            (z3, adjoint_rep(z3)),
                            (s3_5, adjoint_rep(s3_5)),
                            (d4_3, adjoint_rep(d4_3)),
                            (s4_5, trivial_rep(F5, 1, ngens=2))):
            dims = cohomology_dims(close_group(rep), module)
            checks.append(dims[1] == 0 and dims[2] == 0)

        # d0 equals the commutant dimension on adjoint modules
        for rep in (s3_3, s3_5, d4_3, z3):
            dims = cohomology_dims(close_group(rep), adjoint_rep(rep))
            checks.append(dims[0] == endo_dim(rep))

        # pinned modular case: Z/3 with trivial F3 coefficients
        z3_table = close_group(z3)
        checks.append(cohomology_dims(z3_table, trivial_rep(F3, 1, ngens=1))
                      == (1, 1, 1))

        elapsed = time.monotonic() - start
        ok = all(checks) and elapsed < 60
        report(capsys, 8, ok,
               "bar complex: d o d = 0 on all test groups up to |G|=24, "
               "Maschke vanishing, d0 = endo_dim, Z/3 mod 3 gives (1,1,1) "
               "(%.1fs, limit 60s)" % elapsed)

    def test_criterion_09_obstruction_report(self, capsys):
        rep = reduced(DATA / "s3.json", 5)
        rpt = obstruction_report(rep)
        checks = [
            rpt.schur_dim == 1,
            rpt.d2 == 0,
            rpt.unobstructed is True,
            rpt.universal_deformation_irreducible is True,
        ]
        ok = all(checks)
        report(capsys, 9, ok,
               "S3 over F5: schur_dim=1, d2=0, unobstructed, universal "
               "deformation irreducible flag set")

    def test_criterion_10_certificate_replay(self, capsys):
        qt = RationalFunctionField("t")
        corpus = []
        for name in ("s3", "s4", "d4", "q8", "s3_qt", "s3_scaled"):
            rep = load_rep(str(DATA / ("%s.json" % name)))
            corpus.append((certify(rep), rep))
        s3 = load_rep(str(DATA / "s3.json"))
        corpus.append((certify(s3, primes=[3]), s3))
        s3qt = load_rep(str(DATA / "s3_qt.json"))
        corpus.append((certify(s3qt, primes=["(t-0)"]), s3qt))
        ut = Representation(QQ, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], [],
                            label="ut")
        corpus.append((certify(ut), ut))
        replays = sum(1 for cert, rep in corpus if verify(cert, rep))

        # single-field tampering on two stored certificates, one of each
        # conclusion flavor: every touched leaf must flip verify
        flipped = total = 0
        for cert, rep in (corpus[0], corpus[-1]):
            stored = json.loads(json.dumps(cert.to_json()))
            for path in _leaf_paths(stored):
                blob = json.loads(json.dumps(stored))
                _mutate_leaf(blob, path)
                total += 1
                try:
                    if not verify(Certificate.from_json(blob), rep):
                        flipped += 1
                except (VersionMismatch, ValueError):
                    flipped += 1
        ok = replays == len(corpus) and flipped == total and total > 50
        report(capsys, 10, ok,
               "verify(certify(x)) on all %d corpus reps; %d/%d single-field "
               "tampers detected" % (len(corpus), flipped, total))


def _leaf_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaf_paths(val, prefix + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaf_paths(val, prefix + (i,))
    else:
        yield prefix


def _mutate_leaf(obj, path):
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    old = holder[path[-1]]
    if isinstance(old, bool):
        new = not old
    elif isinstance(old, int):
        new = old + 1
    elif isinstance(old, str):
        new = ("~" + old[1:]) if not old.startswith("~") else ("!" + old[1:])
    elif old is None:
        new = "~"
    else:
        new = "~"
    holder[path[-1]] = new
