"""Certification engine: from a representation over Q or Q(t) to an
auditable irreducibility certificate.

The pipeline is the criterion run forward.  Saturation produces a stable
free lattice over Z or Z[t]; reduction at a prime lands in a residue field;
an irreducible reduction at a single prime certifies irreducibility of the
input, because the localization of the base ring at any of the primes we
offer is a regular local ring and the criterion is valid there.  Reduction
is one-sided: a reducible reduction proves nothing about the input, so the
engine keeps a separate direct search over the base field whose only
certifying outcome is a reducibility witness (an invariant subspace over K,
re-verified exactly).  At an integer prime (p) a reducible reduction's
witness is also lifted p-adically before the next prime is tried: a lift
that holds over K ends the run with that witness, and one that fails
changes nothing.  When
neither side lands, the conclusion is Inconclusive and says why.

Certificates carry everything needed for an independent replay: the input
digest, the run configuration (candidate primes, seed, budgets), the
lattice found, and one transcript per reduction step.  verify() checks the
certificate without the search (check.py): the lattice, the prime and the
recorded Norton test of the irreducible step, or the witness.  replay()
re-executes the whole pipeline deterministically and compares byte for
byte, then runs the checker on the certificate.

Rules:
  RegularOnePrime one prime of Z, or one maximal (p, t-c) of Z[t]; the
                  localization there is regular local.
  HeightOneFamily height-one prime (t-c) of Z[t], whose localization is a
                  DVR, with a recursive certificate over its residue field
                  Q; that sub-certificate is the whole proof.
  DirectOverK     reducibility witness over the base field, re-verified
                  exactly: found by the MeatAxe over K itself (the zero
                  ideal), or lifted from a reducible reduction at a prime
                  (p) of Z (lattices.lift_witness), whose step records the
                  digits; a lift is tried whether or not it is unique, as
                  the exact check alone concludes.
"""

import hashlib
import json
from itertools import count, islice

from .errors import (BadPrime, BudgetExceeded, IrredcertError, SizeBound,
                     VersionMismatch)
from .lattices import (PrimeSpec, lift_witness, non_unit_determinant,
                       reduce_rep, saturate)
from .meataxe import INCONCLUSIVE, IRREDUCIBLE, REDUCIBLE, is_irreducible
from .oracle import count_invariant
from .reps import over_fraction_field, rep_to_json
from .rings import PolynomialRingZ, QQ, RationalFunctionField, ZZ, is_prime

TOOLKIT_VERSION = "0.9.0"

RULE_REGULAR_ONE_PRIME = "RegularOnePrime"
RULE_HEIGHT_ONE_FAMILY = "HeightOneFamily"
RULE_DIRECT_OVER_K = "DirectOverK"

IRREDUCIBLE_CERTIFIED = "IrreducibleCertified"
REDUCIBLE_WITH_WITNESS = "ReducibleWithWitness"
INCONCLUSIVE_RUN = "Inconclusive"

# shifts of t tried when expanding a bare integer prime p over Z[t] into
# maximal pairs (p, t-c), and when choosing height-one primes (t-c)
AUTO_SHIFTS = (0, 1, -1)

# reductions the automatic prime search tries before the height-one primes
# (t-c) of Z[t] (see _candidates); explicit lists are honored in full
AUTO_PATIENCE = 8

# largest subspace-lattice size the --oracle cross-check will enumerate
ORACLE_POINTS = 2 ** 12


def canonical_json(obj):
    """Key-sorted, whitespace-free dump; the digest and equality baseline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def rep_digest(rep):
    return digest(rep_to_json(rep))


class Certificate:
    """Audit trail of one certification run.

    steps is a list of dicts, one per reduction attempted, in order:
    {"prime", "residue_field", "verdict", "meataxe"} plus optional
    "oracle_count" and, for height-one recursion, "sub_certificate".
    conclusion is one of IrreducibleCertified / ReducibleWithWitness /
    Inconclusive; rule names the criterion variant that fired.
    """

    __slots__ = ("toolkit_version", "input_digest", "label", "config",
                 "base_ring", "lattice", "steps", "rule", "conclusion",
                 "witness", "reducible_primes", "reason", "self_digest")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError("unknown certificate fields: %s" % sorted(kw))

    def __repr__(self):
        return "Certificate(%s, rule=%s, %d steps)" % (
            self.conclusion, self.rule, len(self.steps))

    def to_json(self):
        doc = {"format": "irredcert-certificate"}
        for name in self.__slots__:
            doc[name] = getattr(self, name)
        return doc

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("certificate document must be a JSON object")
        if obj.get("format") != "irredcert-certificate":
            raise ValueError("not a certificate document")
        unknown = set(obj) - set(cls.__slots__) - {"format"}
        if unknown:
            raise ValueError("certificate document has unknown keys %s"
                             % sorted(unknown))
        kw = {}
        for name in cls.__slots__:
            if name not in obj:
                raise ValueError("certificate document lacks %r" % (name,))
            kw[name] = obj[name]
        return cls(**kw)


def load_certificate(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("certificate document is nested too "
                             "deeply") from None
    return Certificate.from_json(doc)


# ---------------------------------------------------------------------------
# prime candidate selection


def _normalize_prime_list(primes, R):
    """User-supplied candidates as PrimeSpec objects over the base ring R.

    Integers stand for (p) over Z; over Z[t] a bare p expands into the
    maximal pairs (p, t-c) for the automatic shifts c.  Strings go through
    the PrimeSpec grammar, so "(t-1)" or "(5,t+2)" select the exact ideal.
    """
    out = []
    for item in primes:
        if isinstance(item, PrimeSpec):
            if item.ring != R:
                raise BadPrime("prime %s lives over the wrong ring" % (item,))
            out.append(item)
        elif isinstance(item, int):
            if R == ZZ:
                out.append(PrimeSpec.integer(item))
            else:
                for c in AUTO_SHIFTS:
                    out.append(PrimeSpec.maximal(item, c, R))
        elif isinstance(item, str):
            out.append(PrimeSpec.parse(item, R))
        else:
            raise BadPrime("cannot interpret %r as a prime" % (item,))
    return out


def _candidates(primes, R):
    """The primes the run tries before the search over K: an explicit list
    as given, less the zero prime, since (0) there stands for that search;
    else the first AUTO_PATIENCE primes of Z, (2) to (19), or maximal pairs
    (p, t-c) of Z[t], (2,t-0) to (5,t-1), then the height-one primes (t-c).
    saturate admits only generators of determinant +-1, so each integral
    generator's determinant is a unit and every reduction is defined."""
    if primes is not None:
        return [q for q in _normalize_prime_list(primes, R)
                if q.kind != PrimeSpec.ZERO]
    small = filter(is_prime, count(2))
    if R == ZZ:
        return [PrimeSpec.integer(p) for p in islice(small, AUTO_PATIENCE)]
    pairs = (PrimeSpec.maximal(p, c, R) for p in small for c in AUTO_SHIFTS)
    return (list(islice(pairs, AUTO_PATIENCE))
            + [PrimeSpec.linear(c, R) for c in AUTO_SHIFTS])


# ---------------------------------------------------------------------------
# single reduction step


def _transcript_json(rep, verdict):
    K = rep.ring
    out = dict(verdict.transcript)
    if verdict.witness is not None:
        out["witness"] = [[K.format(a) for a in row]
                          for row in verdict.witness]
    return out


def _oracle_count_or_none(red):
    try:
        return count_invariant(red, max_size=ORACLE_POINTS)
    except (SizeBound, ValueError):
        return None


def _run_step(red, prime, seed, budget, oracle_check):
    """MeatAxe the reduced representation; return (step dict, verdict)."""
    verdict = is_irreducible(red, seed=seed, budget=budget)
    step = {
        "prime": str(prime),
        "residue_field": red.ring.to_json(),
        "verdict": verdict.status,
        "meataxe": _transcript_json(red, verdict),
    }
    if oracle_check:
        n = _oracle_count_or_none(red)
        if n is not None:
            step["oracle_count"] = n
            if verdict.status == IRREDUCIBLE and n != 2:
                raise AssertionError("oracle found %d invariant subspaces "
                                     "against verdict %s" % (n, verdict.status))
            if verdict.status == REDUCIBLE and n == 2:
                raise AssertionError("oracle found no proper invariant "
                                     "subspace against a reducible verdict")
    return step, verdict


# ---------------------------------------------------------------------------
# the engine


def compute_self_digest(cert):
    """Integrity checksum over the whole document minus the checksum
    field itself; a cheap first line of tamper evidence.  The checks of
    verify are the real one, for the fields that carry the claim."""
    doc = cert.to_json()
    doc.pop("self_digest", None)
    return digest(doc)


def _make_cert(rep, config, **kw):
    base = {
        "toolkit_version": TOOLKIT_VERSION,
        "input_digest": rep_digest(rep),
        "label": rep.label,
        "config": config,
        "base_ring": None,
        "lattice": None,
        "steps": [],
        "rule": None,
        "conclusion": INCONCLUSIVE_RUN,
        "witness": None,
        "reducible_primes": [],
        "reason": None,
        "self_digest": "",
    }
    base.update(kw)
    cert = Certificate(**base)
    cert.self_digest = compute_self_digest(cert)
    return cert


def _format_rows(K, rows):
    return [[K.format(a) for a in row] for row in rows]


def _inconclusive_reason(candidates, reducible, probe_status):
    parts = []
    if not candidates:
        parts.append("no prime was tried: the explicit prime list has none "
                     "besides (0)")
    elif reducible:
        parts.append("reductions were reducible at %s, which the one-sided "
                     "criterion cannot convert into a conclusion over K"
                     % ", ".join(reducible))
    else:
        parts.append("no candidate prime produced an irreducible reduction")
    if probe_status == INCONCLUSIVE:
        parts.append("the direct search over K found no reducibility witness")
    elif probe_status == IRREDUCIBLE:
        parts.append("the direct factor analysis over K found no invariant "
                     "subspace (not a certifying rule here)")
    return "undecided: " + "; ".join(parts)


def certify(rep, primes=None, seed=0, budget=200, oracle_check=False):
    """Run the criterion on a representation over Q or Q(t).

    primes: optional explicit candidate list (ints, PrimeSpec strings, or
    PrimeSpec objects), where (0) stands for the search over K that ends
    every run; the automatic candidates of _candidates when omitted.  The
    run tries each candidate in order and stops at the first step that
    concludes: an irreducible reduction, a height-one descent whose fibre
    certifies, or a reducible reduction at a prime (p) of Z whose witness
    lifts to an invariant subspace over K (lattices.lift_witness).
    Otherwise it ends with the (0) step, the direct search over K, whose
    only certifying outcome is a witness.  Without an integral model there
    is no candidate, and the (0) step is the run.
    seed and budget feed every MeatAxe call.  oracle_check additionally
    enumerates invariant subspaces of each finite reduction when small
    enough and insists the verdict matches.

    Returns a Certificate; never raises for ordinary non-decisions (those
    become conclusion Inconclusive with a reason).
    """
    K = rep.ring
    if not (K == QQ or isinstance(K, RationalFunctionField)
            or K == ZZ or isinstance(K, PolynomialRingZ)):
        raise ValueError("certify expects a representation over Q or Q(t) "
                         "(or integrally over Z or Z[t]); for finite fields "
                         "use the MeatAxe directly")
    config = {
        "primes": (None if primes is None else
                   [x if isinstance(x, int) else str(x) for x in primes]),
        "seed": seed,
        "budget": budget,
        "oracle": bool(oracle_check),
    }
    field_rep = over_fraction_field(rep)
    steps = []
    reducible = []

    # tested here, as an IntegralityError from saturate itself is a bug
    no_model = non_unit_determinant(field_rep)
    if no_model is None:
        try:
            basis, int_rep = saturate(field_rep)
        except BudgetExceeded as exc:
            no_model = str(exc)
    if no_model is None:
        base_ring = int_rep.ring.to_json()
        lattice = _format_rows(basis.ring, basis.rows())
        candidates = _candidates(primes, int_rep.ring)
    else:
        base_ring = lattice = None
        candidates = []
        no_model = "no-integral-model: %s" % (no_model,)

    def finish(**kw):
        return _make_cert(rep, config, base_ring=base_ring, lattice=lattice,
                          steps=steps, reducible_primes=list(reducible), **kw)

    for prime in candidates:
        if prime.kind == PrimeSpec.LINEAR:
            if _linear_descent(int_rep, prime, steps, seed, budget,
                               oracle_check):
                return finish(rule=RULE_HEIGHT_ONE_FAMILY,
                              conclusion=IRREDUCIBLE_CERTIFIED)
            continue
        red = reduce_rep(int_rep, prime)
        step, verdict = _run_step(red, prime, seed, budget, oracle_check)
        steps.append(step)
        if verdict.status == IRREDUCIBLE:
            return finish(rule=RULE_REGULAR_ONE_PRIME,
                          conclusion=IRREDUCIBLE_CERTIFIED)
        if verdict.status == REDUCIBLE:
            reducible.append(str(prime))
            if prime.kind == PrimeSpec.INTEGER:
                lifted = lift_witness(field_rep, basis, int_rep, prime.p,
                                      verdict.witness)
                if lifted is not None:
                    step["lift"] = {"digits": lifted[0]}
                    return finish(rule=RULE_DIRECT_OVER_K,
                                  conclusion=REDUCIBLE_WITH_WITNESS,
                                  witness=_format_rows(field_rep.ring,
                                                       lifted[1]))

    step, verdict = _run_step(field_rep, "(0)", seed, budget, False)
    steps.append(step)
    if verdict.status == REDUCIBLE:
        return finish(rule=RULE_DIRECT_OVER_K,
                      conclusion=REDUCIBLE_WITH_WITNESS,
                      witness=_format_rows(field_rep.ring, verdict.witness))
    return finish(reason=no_model or _inconclusive_reason(
        candidates, reducible, verdict.status))


def _linear_descent(int_rep, prime, steps, seed, budget, oracle_check):
    """Height-one route: reduce at (t-c) to a representation over Q and
    certify that recursively.  Appends the step, with the sub-certificate
    embedded, and returns whether the fibre certified."""
    red = reduce_rep(int_rep, prime)
    sub = certify(red, primes=None, seed=seed, budget=budget,
                  oracle_check=oracle_check)
    step = {
        "prime": str(prime),
        "residue_field": red.ring.to_json(),
        "verdict": ("irreducible"
                    if sub.conclusion == IRREDUCIBLE_CERTIFIED
                    else "undecided"),
        "meataxe": None,
        "sub_certificate": sub.to_json(),
    }
    steps.append(step)
    return sub.conclusion == IRREDUCIBLE_CERTIFIED


# ---------------------------------------------------------------------------
# verify and replay


def verify(cert, rep):
    """Check the certificate against the representation without re-running
    the search (see check.py); True when it holds.

    Raises VersionMismatch when the certificate was written by a different
    toolkit version (nothing else raises; tampered content returns False).
    check.rejection gives the reason for a False."""
    # imported on first use: check.py imports the format from this module,
    # and the CLI starts without compiling the checker
    from .check import rejection
    return rejection(cert, rep) is None


def replay(cert, rep):
    """Deterministically re-execute the certified run, compare the result
    byte for byte, then check the certificate as verify() does; True only
    when both hold.

    Raises VersionMismatch when the certificate was written by a different
    toolkit version (nothing else raises; tampered content returns False).
    """
    if cert.toolkit_version != TOOLKIT_VERSION:
        raise VersionMismatch("certificate version %r, toolkit %r"
                              % (cert.toolkit_version, TOOLKIT_VERSION))
    try:
        cfg = cert.config
        fresh = certify(rep,
                        primes=cfg.get("primes"),
                        seed=cfg.get("seed", 0),
                        budget=cfg.get("budget", 200),
                        oracle_check=cfg.get("oracle", False))
    except (IrredcertError, AssertionError, ValueError, TypeError, KeyError,
            AttributeError):
        return False
    if canonical_json(fresh.to_json()) != canonical_json(cert.to_json()):
        return False
    from .check import rejection
    return rejection(cert, rep) is None
