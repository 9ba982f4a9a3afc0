#!/usr/bin/env python3
"""Deformation-theoretic obstruction data for residual representations.

For a representation over a finite field the report packages
(d0, d1, d2) = dim H^i(G, ad), the commutant dimension, whether the
deformation problem is unobstructed (d2 = 0), and the predicted shape of
the universal deformation ring.  Three residuals of increasing subtlety:

* S3 mod 5: characteristic coprime to |S3| = 6, so Maschke kills d1 and
  d2, the commutant is scalar, and the ring is Lambda itself.
* S3 mod 3: the residual is reducible, yet d1 = d2 = 0 still holds; the
  adjoint splits as scalars plus a projective module, and the scalar
  summand contributes nothing before degree 3.
* unipotent Z/3 mod 3: honestly obstructed, d2 = 1, no ring predicted.
"""

import json
import pathlib

from irredcert import (
    Matrix,
    PrimeField,
    PrimeSpec,
    Representation,
    load_rep,
    obstruction_report,
    reduce_rep,
    saturate,
)

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def show(title, report):
    print("%s:" % (title,))
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    print()


def main():
    rep = load_rep(DATA / "s3.json")
    _, int_rep = saturate(rep)

    for p in (5, 3):
        red = reduce_rep(int_rep, PrimeSpec.integer(p))
        show("S3 mod %d" % (p,), obstruction_report(red))

    F3 = PrimeField(3)
    shear = Representation(F3, [Matrix(F3, [[1, 1], [0, 1]])],
                           [[(0, 1)] * 3], label="unipotent Z/3 over F_3")
    show("unipotent Z/3 mod 3", obstruction_report(shear))

    print("Only the first case is an absolutely irreducible unobstructed")
    print("residual, so only there is the predicted ring a power series ring")
    print("and the irreducible-deformation flag set.  The last case has a")
    print("one-dimensional obstruction space: d2 = 1, nothing is predicted.")


if __name__ == "__main__":
    main()
