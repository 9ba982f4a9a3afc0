#!/usr/bin/env python3
"""Walk through the one-sided criterion on the standard S3 representation.

The script certifies irreducibility over Q from a single good reduction,
then shows why the criterion cannot be run backwards: mod 3 the same
lattice reduction is reducible, with an explicit invariant line, yet the
representation is irreducible over Q.  The exhaustive oracle counts
invariant subspaces on both sides so nothing rests on the MeatAxe alone.
A rescaled copy of the representation is certified through its own stable
lattice, and a genuinely reducible sum ends with a witness over Q, lifted
from its reduction mod 2.
"""

import json
import pathlib

from irredcert import (
    QQ,
    PrimeSpec,
    certify,
    count_invariant,
    direct_sum,
    load_rep,
    reduce_rep,
    saturate,
    trivial_rep,
    verify,
)

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def main():
    rep = load_rep(DATA / "s3.json")
    print("representation:", rep.label)

    # Auto mode: the primes in ascending order.
    cert = certify(rep)
    print("\ncertify ->", cert.conclusion, "via rule", cert.rule)
    for step in cert.steps:
        print("  step at", step["prime"], "->", step["verdict"])
    assert verify(cert, rep)
    print("verify(cert, rep) -> True")

    # The reduction mod 3 is reducible: the criterion is one-sided.
    _, int_rep = saturate(rep)
    for p in (2, 3, 5):
        red = reduce_rep(int_rep, PrimeSpec.integer(p))
        n = count_invariant(red)
        print("\nmod %d: %d invariant subspaces (oracle)" % (p, n))
        if n > 2:
            restricted = certify(rep, primes=[p])
            print("  certify restricted to {%d} -> %s" % (p, restricted.conclusion))
            print("  reducible primes:", restricted.reducible_primes)
            print("  reason:", restricted.reason)

    # The same group in rescaled coordinates: saturation finds the stable
    # lattice diag(1, 1/2) and the certificate is again irreducible.
    scaled = load_rep(DATA / "s3_scaled.json")
    cert2 = certify(scaled)
    print("\n%s:" % (scaled.label,))
    print("  stable lattice basis:", json.dumps(cert2.lattice))
    print("  conclusion:", cert2.conclusion)
    assert cert2.conclusion == "IrreducibleCertified" and verify(cert2, scaled)

    # A genuinely reducible input.  The reduction mod 2 is reducible, which
    # alone proves nothing; but its invariant subspace lifts 2-adically to
    # one over Q, which is checked exactly, so the run ends there with a
    # witness over Q instead of searching over Q.
    summed = direct_sum(rep, trivial_rep(QQ, 1, ngens=2))
    cert3 = certify(summed)
    last = cert3.steps[-1]
    print("\nS3 standard + trivial:")
    print("  reducible primes:", cert3.reducible_primes)
    print("  witness lifted at %s, %d digits"
          % (last["prime"], last["lift"]["digits"]))
    print("  conclusion:", cert3.conclusion, "via rule", cert3.rule)
    print("  witness:", json.dumps(cert3.witness))
    assert cert3.conclusion == "ReducibleWithWitness" and verify(cert3, summed)
    assert last["prime"] == "(2)" and "lift" in last


if __name__ == "__main__":
    main()
