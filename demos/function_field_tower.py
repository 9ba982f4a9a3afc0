#!/usr/bin/env python3
"""Certify a representation over Q(t) along both routes through Z[t].

A stable Z[t]-lattice can be reduced at a maximal pair (p, t-c), landing
straight in a finite field, or at a linear prime (t-c), landing in Q where
the whole machine recurses.  The script runs the constant S3 representation
over Q(t) both ways, checks the two certificates verify and agree, then
certifies a genuinely t-dependent twist.
"""

import pathlib

from irredcert import Matrix, Representation, certify, load_rep, ring_from_json, verify

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def main():
    rep = load_rep(DATA / "s3_qt.json")
    print("representation:", rep.label)

    a = certify(rep, primes=["(2,t-0)"])
    print("\nroute A, maximal pair (2,t-0):")
    print("  rule:", a.rule, "conclusion:", a.conclusion)

    b = certify(rep, primes=["(t-0)"])
    print("\nroute B, linear prime (t-0), recursion over Q:")
    print("  rule:", b.rule, "conclusion:", b.conclusion)
    step = b.steps[0]
    sub = step["sub_certificate"]
    deciding = [s["prime"] for s in sub["steps"]
                if s["verdict"] == "irreducible"]
    print("  descent at:", step["prime"])
    print("  embedded certificate concludes:", sub["conclusion"],
          "at", deciding[0])

    assert verify(a, rep) and verify(b, rep)
    assert a.conclusion == b.conclusion
    print("\nboth certificates verify; conclusions agree")

    # Twist by diag(1, t): still irreducible, now honestly t-dependent.
    QT = ring_from_json("Q(t)")
    t = QT.parse("t")
    d = Matrix(QT, [[QT.one(), QT.zero()], [QT.zero(), t]])
    dinv = d.inverse()
    twisted = Representation(
        QT,
        [dinv * g * d for g in rep.generators],
        rep.relations,
        label="S3 standard rep twisted by diag(1, t)",
    )
    c = certify(twisted)
    print("\n%s:" % (twisted.label,))
    print("  lattice basis rows:", c.lattice)
    print("  rule:", c.rule, "conclusion:", c.conclusion)
    assert verify(c, twisted)


if __name__ == "__main__":
    main()
