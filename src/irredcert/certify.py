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
  HeightOneFamily height-one prime (t-c) of Z[t] with a recursive
                  certificate over its residue field Q; the recorded family
                  is the tower's prime list.
  DirectOverK     reducibility witness over the base field, re-verified
                  exactly: found by the MeatAxe over K itself (the zero
                  ideal), or lifted from a reducible reduction at a prime
                  (p) of Z (lattices.lift_witness), whose step records the
                  digits.
"""

import hashlib
import json
from functools import cache
from itertools import count, islice

from .errors import (BadPrime, BudgetExceeded, IrredcertError, SizeBound,
                     VersionMismatch)
from .lattices import PrimeSpec, lift_witness, reduce_rep, saturate
from .meataxe import INCONCLUSIVE, IRREDUCIBLE, REDUCIBLE, is_irreducible
from .oracle import count_invariant
from .reps import over_fraction_field, rep_to_json
from .rings import PolynomialRingZ, QQ, RationalFunctionField, ZZ, is_prime

TOOLKIT_VERSION = "0.3.0"

RULE_REGULAR_ONE_PRIME = "RegularOnePrime"
RULE_HEIGHT_ONE_FAMILY = "HeightOneFamily"
RULE_DIRECT_OVER_K = "DirectOverK"

IRREDUCIBLE_CERTIFIED = "IrreducibleCertified"
REDUCIBLE_WITH_WITNESS = "ReducibleWithWitness"
INCONCLUSIVE_RUN = "Inconclusive"

# shifts of t tried when expanding a bare integer prime p over Z[t] into
# maximal pairs (p, t-c), and when choosing height-one primes (t-c)
AUTO_SHIFTS = (0, 1, -1)

# auto prime search: stop after this many consecutive non-certifying
# reductions and fall through to the direct search; explicit prime lists
# are always honored in full
AUTO_PATIENCE = 8

# largest subspace-lattice size the --oracle cross-check will enumerate
ORACLE_POINTS = 2 ** 12

# most reductions the automatic prime search attempts; recorded in the
# config of every certificate
MAX_PRIMES = 50


def canonical_json(obj):
    """Key-sorted, whitespace-free dump; the digest and equality baseline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def rep_digest(rep):
    return digest(rep_to_json(rep))


@cache
def _primes_ascending():
    """The first MAX_PRIMES primes, ascending, found on first use."""
    return tuple(islice(filter(is_prime, count(2)), MAX_PRIMES))


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
                 "witness", "family", "reducible_primes", "reason",
                 "self_digest")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError("unknown certificate fields: %s" % sorted(kw))

    def __repr__(self):
        return "Certificate(%s, rule=%s, %d steps)" % (
            self.conclusion, self.rule, len(self.steps))

    def to_json(self):
        return {
            "format": "irredcert-certificate",
            "toolkit_version": self.toolkit_version,
            "input_digest": self.input_digest,
            "label": self.label,
            "config": self.config,
            "base_ring": self.base_ring,
            "lattice": self.lattice,
            "steps": self.steps,
            "rule": self.rule,
            "conclusion": self.conclusion,
            "witness": self.witness,
            "family": self.family,
            "reducible_primes": self.reducible_primes,
            "reason": self.reason,
            "self_digest": self.self_digest,
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("certificate document must be a JSON object")
        if obj.get("format") != "irredcert-certificate":
            raise ValueError("not a certificate document")
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


def _skip_step(prime, exc):
    return {"prime": str(prime), "residue_field": None,
            "verdict": "skipped_bad_prime", "meataxe": None,
            "detail": str(exc)}


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
        "family": None,
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


def _inconclusive_reason(reducible, probe_status):
    parts = []
    if reducible:
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
    PrimeSpec objects); auto-selected ascending when omitted.  Explicit
    lists are tried in full; the automatic search gives up on the prime
    route after AUTO_PATIENCE fruitless reductions or MAX_PRIMES in all.
    Either way the run stops at the first step that concludes: an
    irreducible reduction, or a reducible one at a prime (p) of Z whose
    witness lifts to an invariant subspace over K (lattices.lift_witness).
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
        "max_primes": MAX_PRIMES,
        "oracle": bool(oracle_check),
    }
    field_rep = over_fraction_field(rep)

    try:
        basis, int_rep = saturate(field_rep)
    except BudgetExceeded as exc:
        step, verdict = _run_step(field_rep, "(0)", seed, budget, False)
        if verdict.status == REDUCIBLE:
            return _make_cert(rep, config, steps=[step],
                              rule=RULE_DIRECT_OVER_K,
                              conclusion=REDUCIBLE_WITH_WITNESS,
                              witness=_format_rows(field_rep.ring,
                                                   verdict.witness))
        return _make_cert(rep, config, steps=[step],
                          reason="no-integral-model: %s" % (exc,))

    R = int_rep.ring
    lattice_rows = _format_rows(basis.ring, basis.rows())
    steps = []
    reducible = []
    explicit = primes is not None

    if explicit:
        candidates = _normalize_prime_list(primes, R)
    elif R == ZZ:
        # a saturated generator and its inverse are integral, so each
        # determinant is +-1 and no prime divides one; the specs are built
        # as the loop reaches them, and it stops after AUTO_PATIENCE
        # fruitless ones
        candidates = (PrimeSpec.integer(p) for p in _primes_ascending())
    else:
        candidates = (PrimeSpec.maximal(p, c, R)
                      for p in _primes_ascending() for c in AUTO_SHIFTS)

    def finish(**kw):
        return _make_cert(rep, config, base_ring=R.to_json(),
                          lattice=lattice_rows, steps=steps,
                          reducible_primes=list(reducible), **kw)

    fruitless = 0
    for prime in candidates:
        if not explicit and (fruitless >= AUTO_PATIENCE
                             or len(steps) >= MAX_PRIMES):
            break
        if prime.kind == PrimeSpec.LINEAR:
            fam = _linear_descent(int_rep, prime, steps, seed, budget,
                                  oracle_check)
            if fam is not None:
                return finish(rule=RULE_HEIGHT_ONE_FAMILY,
                              conclusion=IRREDUCIBLE_CERTIFIED,
                              family=fam)
            fruitless += 1
            continue
        try:
            red = reduce_rep(int_rep, prime)
        except BadPrime as exc:
            if explicit:
                steps.append(_skip_step(prime, exc))
            continue
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
        fruitless += 1

    # Z[t] auto mode: try the height-one descent before giving up
    if not explicit and isinstance(R, PolynomialRingZ):
        for c in AUTO_SHIFTS:
            prime = PrimeSpec.linear(c, R)
            fam = _linear_descent(int_rep, prime, steps, seed, budget,
                                  oracle_check)
            if fam is not None:
                return finish(rule=RULE_HEIGHT_ONE_FAMILY,
                              conclusion=IRREDUCIBLE_CERTIFIED,
                              family=fam)

    step, verdict = _run_step(field_rep, "(0)", seed, budget, False)
    steps.append(step)
    if verdict.status == REDUCIBLE:
        return finish(rule=RULE_DIRECT_OVER_K,
                      conclusion=REDUCIBLE_WITH_WITNESS,
                      witness=_format_rows(field_rep.ring, verdict.witness))
    return finish(reason=_inconclusive_reason(reducible, verdict.status))


def _linear_descent(int_rep, prime, steps, seed, budget, oracle_check):
    """Height-one route: reduce at (t-c) to a representation over Q and
    certify that recursively.  On success appends the step (with the
    sub-certificate embedded) and returns the family list; otherwise
    records the failed step and returns None."""
    try:
        red = reduce_rep(int_rep, prime)
    except BadPrime as exc:
        steps.append(_skip_step(prime, exc))
        return None
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
    if sub.conclusion != IRREDUCIBLE_CERTIFIED:
        return None
    if sub.family:
        return [str(prime)] + list(sub.family)
    deciding = [s["prime"] for s in sub.steps if s["verdict"] == IRREDUCIBLE]
    return [str(prime)] + deciding


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
