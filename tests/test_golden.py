"""Golden outputs: fresh CLI runs must match the frozen files byte for byte.

tests/golden/<rep>.cert.json is the stdout of `irredcert certify` on each
corpus rep in data/, tests/golden/<rep>.reduce.<prime>.json the stdout of
`irredcert reduce` at one prime, tests/golden/<rep>.obstruction.<prime>.json
the stdout of `irredcert obstruction` on each of those reductions that
lands in a finite field, tests/golden/<rep>.obstruction.json its stdout on
each rep over an extension field in data/fq/,
tests/golden/<rep>.meataxe.json the stdout of
`irredcert meataxe` on each prime-field rep in data/fp/ (d from 16 to 48
over F_2, F_3, F_101 and F_65521, made once with perfbench/gen.py, and one
block triangular rep of d = 5 over F_3 from a seeded search, and S9's
standard rep mod 2, d = 8, as `irredcert reduce` prints it) and on each
rep over an extension field in data/fq/, and
tests/golden/<rep>.meataxe.<seed>.json its stdout on a rep over Q in data/
at that seed.  A change
that alters a certificate or a transcript must bump TOOLKIT_VERSION; after
such a deliberate change, regenerate the files:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os

import pytest

from irredcert.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(os.path.dirname(HERE), "data")
DATA_FP = os.path.join(DATA, "fp")
DATA_FQ = os.path.join(DATA, "fq")
GOLDEN = os.path.join(HERE, "golden")

# (rep, exit code of `certify`); q8 has no certifying prime and exits 2.
# s9 (standard rep, d = 8) certifies at (2) by one spin on each side at its
# second sample, x^2 + x + 1 of nullity 2, after the probe of x + 1 of
# nullity 7 at its first, past the enumeration bound, left it undecided;
# s6 (d = 5) is split at (3) by a dual spin, whose witness is the
# annihilator _perp_witness computes, and certifies at (5);
# s4_sgn (S4 standard + sign in a non-unimodular basis) is reducible, and
# its witness mod 3 lifts to Q: it ends ReducibleWithWitness by DirectOverK
# at (3).  s3_sgn_qt (S3 standard + sign over Q(t), conjugated by
# diag(1, t, 1)) runs the whole Z[t] search: eight maximal primes, the
# three height-one descents, whose fibres lift in their sub-certificates,
# and the search over Q(t), which splits it.  scaled_shear and sqrt2 have no
# integral model, so base_ring and lattice are null and the search over Q is
# their one step: it splits the shear, whose lattice chain diverges, and
# sqrt2 (x^2 - 2) exits 2, its reason naming generator 0 and its
# determinant -2, which no stable lattice allows.
# s30_qt (S30 standard over Q(t), constant entries, d = 29) is the one
# HeightOneFamily golden: its eight maximal pairs are reducible, since 2, 3
# and 5 divide 30, and the descent at (t-0) certifies, its fibre reducible
# at (2), (3) and (5), where no witness lifts, and irreducible at (7).
# b3_b3 (B3 + B3 over Q, d = 6, disguised by perfbench/gen.py's disguise_q
# under random.Random(2027)) has isomorphic summands, so Hom_G(W, V/W) != 0
# at every prime and the Sylvester system of each lift is singular; its
# reduction at (2) is reducible, and the witness of dim 3 lifts through a
# particular solution per digit, to one that holds over Q after 8 digits,
# so it ends ReducibleWithWitness by DirectOverK at (2).
# c2_sign (the sign character of C2 over Q, d = 1) certifies at (2), where
# its reduction [1] is decided at sample 0 by one spin on each side at
# x + 1, as at any other dimension.
# b8 (B8 signed permutations over Q, d = 8, disguised by perfbench/gen.py's
# disguise_q under random.Random(2021)) takes four rounds of the lattice
# chain, the most of any golden, and certifies at (3), its reduction at (2)
# being reducible; B8 has order 10,321,920, far past GROUP_BOUND, so it has
# no reduction golden and no obstruction report
CERTIFY = [("b3", 0), ("b3_b3", 0), ("b3_qt", 0), ("b8", 0), ("c2_sign", 0),
           ("d4", 0),
           ("q8", 2), ("s3", 0), ("s3_qt", 0),
           ("s3_scaled", 0), ("s3_sgn_qt", 0), ("s30_qt", 0), ("s4", 0),
           ("s4_sgn", 0), ("s6", 0), ("s9", 0), ("scaled_shear", 0),
           ("sqrt2", 2)]

# q8 mod 3 has a 4-dimensional commutant, d0 = 4; b3 (order 48, three
# generators) mod 3 has a relation module of dimension 97, which hom_dim
# packs into two-byte slots; the zero prime (0) returns the integral model
# over the fraction field, of the lattice diag(1, 1/2) over Q for s3_scaled
# and of a non-constant lattice over Q(t) for b3_qt
REDUCE = ([(rep, prime) for rep in ("s3", "s3_scaled", "d4", "s4")
           for prime in ("(2)", "(3)", "(5)")]
          + [(rep, prime) for rep in ("s3_qt", "b3_qt")
             for prime in ("(t-0)", "(2,t-1)")]
          + [("q8", "(3)"), ("b3", "(3)")]
          + [("s3_scaled", "(0)"), ("b3_qt", "(0)")])

# the reductions over a finite field, whose groups close_group tabulates;
# s4 mod 2 and b3_qt at (2,t-1) are the obstructed ones, d2 = 2 and 1
OBSTRUCTION = [(rep, prime) for rep, prime in REDUCE
               if prime not in ("(t-0)", "(0)")]

# the reps over an extension field: the natural rep of SL2(F_4) over F_4
# (order 60), irreducible with scalar commutant and d = (1, 0, 1)
OBSTRUCTION_FQ = ["sl2_f4"]


# the reps over F_p: S27 standard mod 3 and a block triangular rep mod
# 65521 are reducible (witnesses of dim 1 and 10), B32 mod 101 and a random
# rep of dim 48 over F_101 irreducible.  Two pin the random draws that
# follow a factorization.  S25 standard mod 2 probes a kernel of nullity 23
# at its first sample, drawing random combinations, and decides at its
# second.  B8 + B8 twisted by the character that is -1 on the flip, mod
# 101, is reducible: its first characteristic polynomial (x + 1)^8 (x - 1)^8
# takes an equal-degree split that draws from the factoring's own
# generator, and the factors of its first three samples all have nullity 2
# or more, so their probes draw from the sampler's; the witness comes from
# a random combination of the third sample's probe, at x + 10.  A block
# triangular rep of dim 5 mod 3 (invariant subspace of dim 2) has a kernel
# of nullity 2 at its first sample, x + 1, that every proper submodule
# misses: all its projective points spin to the whole space, and the first
# dual vector splits it.  S9 standard mod 2, the reduction that certifies
# s9, is irreducible: x + 1 at its first sample has nullity 7, and 2^7 is
# past the enumeration bound, so its probe draws random combinations and
# the second sample decides at x^2 + x + 1
MEATAXE = ["b32_mod101", "b8_twisted_sum_mod101", "block24_mod65521",
           "block5_mod3", "rand48_mod101", "s25_mod2", "s27_mod3", "s9_mod2"]

# the reps over F_4: SL2(F_4) natural decides by one spin on each side at
# x + alpha.  With the identity as their first generator, sl2_f4_identity
# (irreducible) and c3_split_f4 (reducible, C3 acting by [[0, 1], [1, 1]],
# whose eigenvalues lie in F_4) enumerate the 5 projective points of
# ker(theta + 1), of nullity 2, at sample 0: every point of sl2_f4_identity
# spins to the whole space and so does its first dual vector, while the
# third point of c3_split_f4, (1, alpha), spins to its witness, which pins
# the order of the enumeration
MEATAXE_FQ = ["c3_split_f4", "sl2_f4", "sl2_f4_identity"]

# the MeatAxe over Q that runs out of budget: every other rep over Q in
# data/ decides at its first sample, but q8 spans a quaternion division
# algebra, so g(theta) = 0 for each factor g of every sample, every probe
# spins to the whole space and the run exits 2 after its 200 samples.
# Seed 0 is pinned inside q8.cert.json, as the search over Q that ends its
# certificate; seeds 1 and 2 draw other samples
MEATAXE_Q = [("q8", 1), ("q8", 2)]


def _prime_tag(prime):
    """(2,t-1) -> 2_t-1, a file-name-safe spelling of a prime spec."""
    return prime.strip("()").replace(",", "_")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def certify_case(rep):
    path = os.path.join(GOLDEN, "%s.cert.json" % rep)
    return path, ["certify", os.path.join(DATA, rep + ".json")]


def reduce_case(rep, prime):
    path = os.path.join(GOLDEN, "%s.reduce.%s.json" % (rep, _prime_tag(prime)))
    return path, ["reduce", os.path.join(DATA, rep + ".json"),
                  "--prime", prime]


def obstruction_case(rep, prime):
    reduced, _ = reduce_case(rep, prime)
    path = os.path.join(GOLDEN, "%s.obstruction.%s.json"
                        % (rep, _prime_tag(prime)))
    return path, ["obstruction", reduced]


def obstruction_fq_case(rep):
    path = os.path.join(GOLDEN, "%s.obstruction.json" % rep)
    return path, ["obstruction", os.path.join(DATA_FQ, rep + ".json")]


def meataxe_case(rep):
    path = os.path.join(GOLDEN, "%s.meataxe.json" % rep)
    return path, ["meataxe", os.path.join(DATA_FP, rep + ".json")]


def meataxe_fq_case(rep):
    path = os.path.join(GOLDEN, "%s.meataxe.json" % rep)
    return path, ["meataxe", os.path.join(DATA_FQ, rep + ".json")]


def meataxe_q_case(rep, seed):
    path = os.path.join(GOLDEN, "%s.meataxe.%d.json" % (rep, seed))
    return path, ["meataxe", os.path.join(DATA, rep + ".json"),
                  "--seed", str(seed)]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("rep,code", CERTIFY)
def test_certificate_matches_golden(rep, code):
    path, argv = certify_case(rep)
    got_code, text = run_cli(argv)
    assert got_code == code
    assert text == _read(path)


@pytest.mark.parametrize("rep,prime", REDUCE)
def test_reduction_matches_golden(rep, prime):
    path, argv = reduce_case(rep, prime)
    got_code, text = run_cli(argv)
    assert got_code == 0
    assert text == _read(path)


@pytest.mark.parametrize("rep,prime", OBSTRUCTION)
def test_obstruction_report_matches_golden(rep, prime):
    path, argv = obstruction_case(rep, prime)
    got_code, text = run_cli(argv)
    assert got_code == 0
    assert text == _read(path)


@pytest.mark.parametrize("rep", OBSTRUCTION_FQ)
def test_obstruction_report_over_fq_matches_golden(rep):
    path, argv = obstruction_fq_case(rep)
    got_code, text = run_cli(argv)
    assert got_code == 0
    assert text == _read(path)


@pytest.mark.parametrize("rep", MEATAXE)
def test_meataxe_transcript_matches_golden(rep):
    path, argv = meataxe_case(rep)
    got_code, text = run_cli(argv)
    assert got_code == 0
    assert text == _read(path)


@pytest.mark.parametrize("rep", MEATAXE_FQ)
def test_meataxe_fq_transcript_matches_golden(rep):
    path, argv = meataxe_fq_case(rep)
    got_code, text = run_cli(argv)
    assert got_code == 0
    assert text == _read(path)


@pytest.mark.parametrize("rep,seed", MEATAXE_Q)
def test_meataxe_q_transcript_matches_golden(rep, seed):
    path, argv = meataxe_q_case(rep, seed)
    got_code, text = run_cli(argv)
    assert got_code == 2
    assert text == _read(path)


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    cases = ([certify_case(rep) for rep, _ in CERTIFY]
             + [reduce_case(rep, prime) for rep, prime in REDUCE]
             + [obstruction_case(rep, prime) for rep, prime in OBSTRUCTION]
             + [obstruction_fq_case(rep) for rep in OBSTRUCTION_FQ]
             + [meataxe_case(rep) for rep in MEATAXE]
             + [meataxe_fq_case(rep) for rep in MEATAXE_FQ]
             + [meataxe_q_case(rep, seed) for rep, seed in MEATAXE_Q])
    for path, argv in cases:
        _, text = run_cli(argv)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)


if __name__ == "__main__":
    regenerate()
