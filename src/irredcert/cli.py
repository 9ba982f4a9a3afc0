"""Command-line interface.

Six subcommands, all reading representation documents (JSON) and writing a
JSON document to stdout:

  certify      run the criterion, print the certificate
  verify       replay a certificate against a representation
  reduce       saturate and reduce at one prime, print the reduced rep
  meataxe      irreducibility verdict over the representation's own field
  obstruction  finite-group deformation obstruction report
  oracle       exhaustive invariant-subspace enumeration (small cases)

Exit codes: 0 when certified/decided, 2 when inconclusive, 1 on error.
"""

import argparse
import functools
import json
import sys

from .certify import (Certificate, INCONCLUSIVE_RUN, TOOLKIT_VERSION,
                      certify, load_certificate, verify)
from .cohomology import obstruction_report
from .errors import IrredcertError
from .lattices import PrimeSpec, reduce_rep, saturate
from .meataxe import INCONCLUSIVE, is_irreducible
from .oracle import invariant_subspaces
from .reps import load_rep, rep_to_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _split_outside_parens(text):
    """Split on commas at parenthesis depth 0, so "(2,t-0)" stays whole."""
    parts, buf, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_primes(text):
    """Comma-separated candidates: bare integers or PrimeSpec strings."""
    out = []
    for part in _split_outside_parens(text):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(part))
        except ValueError:
            out.append(part)
    return out


def _cmd_certify(args):
    rep = load_rep(args.rep)
    primes = _parse_primes(args.primes) if args.primes else None
    cert = certify(rep, primes=primes, seed=args.seed, budget=args.budget,
                   oracle_check=args.oracle)
    _emit(cert.to_json())
    return EXIT_INCONCLUSIVE if cert.conclusion == INCONCLUSIVE_RUN else EXIT_OK


def _cmd_verify(args):
    cert = load_certificate(args.cert)
    rep = load_rep(args.rep)
    ok = verify(cert, rep)
    _emit({"verified": ok, "conclusion": cert.conclusion,
           "toolkit_version": TOOLKIT_VERSION})
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_reduce(args):
    rep = load_rep(args.rep)
    lat, int_rep = saturate(rep)
    prime = PrimeSpec.parse(args.prime, int_rep.ring)
    red = reduce_rep(int_rep, lat, prime)
    doc = rep_to_json(red)
    KL = lat.ring.fraction_field()
    doc["lattice"] = [[KL.format(lat.basis.entry(i, j))
                       for j in range(lat.dim)] for i in range(lat.dim)]
    doc["prime"] = str(prime)
    _emit(doc)
    return EXIT_OK


def _cmd_meataxe(args):
    rep = load_rep(args.rep)
    verdict = is_irreducible(rep, seed=args.seed, budget=args.budget)
    K = rep.ring
    doc = {"status": verdict.status, "transcript": verdict.transcript}
    if verdict.witness is not None:
        doc["witness"] = [[K.format(a) for a in row]
                          for row in verdict.witness]
    _emit(doc)
    return EXIT_INCONCLUSIVE if verdict.status == INCONCLUSIVE else EXIT_OK


def _cmd_obstruction(args):
    rep = load_rep(args.rep)
    report = obstruction_report(rep, seed=args.seed, budget=args.budget)
    _emit(report.to_json())
    return (EXIT_INCONCLUSIVE if report.meataxe_status == INCONCLUSIVE
            else EXIT_OK)


def _cmd_oracle(args):
    rep = load_rep(args.rep)
    K = rep.ring
    subs = invariant_subspaces(rep)
    _emit({
        "count": len(subs),
        "irreducible": len(subs) == 2,
        "subspaces": [[[K.format(a) for a in row] for row in rows]
                      for rows in subs],
    })
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process.  Parsing does not
    change it (each call fills a new namespace), and every build would
    leave a few hundred objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="irredcert",
        description="Irreducibility certificates for integral group "
                    "representations via reduction modulo primes.")
    parser.add_argument("--version", action="version",
                        version="irredcert %s" % TOOLKIT_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the criterion on a rep over "
                                       "Q or Q(t)")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--primes", help="comma-separated candidates, e.g. "
                                    "2,3,5 or \"(t-1)\",\"(2,t-0)\"")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check verdicts by brute force when small")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="replay a certificate")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("rep", help="representation JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="saturate and reduce at one prime")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--prime", required=True,
                   help="prime spec, e.g. \"(5)\", \"(t-1)\", \"(2,t-0)\"")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("meataxe", help="irreducibility verdict over the "
                                       "rep's own field")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(func=_cmd_meataxe)

    p = sub.add_parser("obstruction", help="deformation obstruction report "
                                           "for a finite-group rep")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("oracle", help="enumerate all invariant subspaces "
                                      "(small finite fields only)")
    p.add_argument("rep", help="representation JSON file")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IrredcertError as exc:
        json.dump({"error": type(exc).__name__, "detail": str(exc)},
                  sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return EXIT_ERROR
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        json.dump({"error": type(exc).__name__, "detail": str(exc)},
                  sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
