"""Golden outputs: fresh CLI runs must match the frozen files byte for byte.

tests/golden/<rep>.cert.json is the stdout of `irredcert certify` on each
corpus rep in data/, and tests/golden/<rep>.reduce.<prime>.json the stdout
of `irredcert reduce` at one prime.  A change that alters a certificate must
bump TOOLKIT_VERSION; after such a deliberate change, regenerate the files:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os

import pytest

from irredcert.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(os.path.dirname(HERE), "data")
GOLDEN = os.path.join(HERE, "golden")

# (rep, exit code of `certify`); q8 has no certifying prime and exits 2
CERTIFY = [("d4", 0), ("q8", 2), ("s3", 0), ("s3_qt", 0), ("s3_scaled", 0),
           ("s4", 0)]

REDUCE = ([(rep, prime) for rep in ("s3", "s3_scaled", "d4", "s4")
           for prime in ("(2)", "(3)", "(5)")]
          + [("s3_qt", "(t-0)"), ("s3_qt", "(2,t-1)")])


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


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    cases = ([certify_case(rep) for rep, _ in CERTIFY]
             + [reduce_case(rep, prime) for rep, prime in REDUCE])
    for path, argv in cases:
        _, text = run_cli(argv)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)


if __name__ == "__main__":
    regenerate()
