"""Independent checker for irreducibility certificates.

The criterion needs three things to certify irreducibility over K = frac(R):
a G-stable lattice, one prime with a regular local localization, and an
irreducible reduction there.  A RegularOnePrime certificate records all
three, and this module checks them from the certificate and the
representation alone:

  lattice    for the recorded basis B and every generator g, X = B^-1 g B is
             integral over R with det X = +-1, so L = B R^d is stable under
             g and g^-1 (X^-1 is integral too); X comes from
             matrices.integral_conjugates, on integer rows over Q and on
             Z[t] rows over Q(t), apart from saturation's own model;
  prime      the irreducible step's prime is an integer prime of Z or a
             maximal (p, t-c) of Z[t], where every X reduces;
  reduction  theta is rebuilt from the recorded words and coefficients of
             the deciding sample (within the MeatAxe's limits on words),
             its characteristic polynomial matches the record, the
             recorded factor g is irreducible over F_p (Rabin) and
             divides it, and Norton's test holds for g: the first vector
             of ker g(theta) spins to the whole space when the nullity of
             g(theta) equals deg g (Holt-Rees), every projective point of
             it for a larger nullity, within the MeatAxe's enumeration
             bound, and then the first vector of ker g(theta)^T does
             (Norton's lemma).

HeightOneFamily needs base ring Z[t] and an irreducible step at a prime
(t-c), whose localization is a DVR, so the criterion holds there; the step's
sub-certificate is checked, recursively, against the reduction at (t-c) of
the checked integral model, and that is the whole proof.
ReducibleWithWitness checks that the witness spans a proper invariant
subspace over K.  An Inconclusive certificate claims nothing.

The checker shares the linear algebra with the engine but none of its
search: no saturation, prime selection, sampling, factoring or MeatAxe
verdict.  Parts of the document it does not read (the other steps, the
config, events, reducible primes) carry no claim: edited and re-digested,
they still verify.  certify.replay is the byte-exact check.
"""

from . import fpoly, meataxe, polys
from .certify import (INCONCLUSIVE_RUN, IRREDUCIBLE_CERTIFIED,
                      REDUCIBLE_WITH_WITNESS, RULE_DIRECT_OVER_K,
                      RULE_HEIGHT_ONE_FAMILY, RULE_REGULAR_ONE_PRIME,
                      TOOLKIT_VERSION, Certificate, compute_self_digest,
                      rep_digest)
from .errors import (IntegralityError, IrredcertError, SingularError,
                     VersionMismatch)
from .lattices import PrimeSpec, reduce_rep
from .matrices import (Matrix, char_poly, integer_rows, integral_conjugates,
                       kernel_basis, poly_at_matrix, poly_rows)
from .reps import Representation, evaluate, over_fraction_field
from .rings import ZZ, PolynomialRingZ, parse_poly_string, ring_from_json


class _Rejected(Exception):
    """A failed check; its message is the reason given to the caller."""


def _require(ok, reason, *args):
    if not ok:
        raise _Rejected(reason % args if args else reason)


def rejection(cert, rep):
    """The first failed check of a certificate against a representation, as
    a sentence, or None when the certificate holds.

    Raises VersionMismatch when the certificate was written by a different
    toolkit version; malformed content is a reason, never an exception."""
    if cert.toolkit_version != TOOLKIT_VERSION:
        raise VersionMismatch("certificate version %r, toolkit %r"
                              % (cert.toolkit_version, TOOLKIT_VERSION))
    try:
        _check(cert, rep)
    except _Rejected as exc:
        return str(exc)
    except (IrredcertError, ValueError, TypeError, KeyError, IndexError,
            AttributeError, ArithmeticError) as exc:
        return "malformed certificate (%s: %s)" % (type(exc).__name__, exc)
    return None


def _check(cert, rep):
    _require(cert.self_digest == compute_self_digest(cert),
             "self_digest does not match the document")
    _require(cert.input_digest == rep_digest(rep),
             "input_digest does not match the representation")
    _require(cert.label == rep.label,
             "label differs from the representation's")
    if cert.conclusion == INCONCLUSIVE_RUN:
        _require(cert.rule is None and cert.witness is None,
                 "an Inconclusive certificate names a rule or a witness")
        _require(isinstance(cert.reason, str) and cert.reason,
                 "an Inconclusive certificate gives no reason")
        return
    field_rep = over_fraction_field(rep)
    if cert.conclusion == REDUCIBLE_WITH_WITNESS:
        _require(cert.rule == RULE_DIRECT_OVER_K,
                 "rule %r does not conclude %s", cert.rule,
                 REDUCIBLE_WITH_WITNESS)
        _require(_witness_checks(cert, field_rep),
                 "the witness does not span a proper invariant subspace")
        return
    _require(cert.conclusion == IRREDUCIBLE_CERTIFIED,
             "unknown conclusion %r", cert.conclusion)
    _require(cert.rule in (RULE_REGULAR_ONE_PRIME, RULE_HEIGHT_ONE_FAMILY),
             "rule %r does not certify irreducibility", cert.rule)
    _require(cert.witness is None, "an irreducibility certificate carries a "
             "reducibility witness")
    R = ring_from_json(cert.base_ring)
    _require((R == ZZ or isinstance(R, PolynomialRingZ))
             and R.fraction_field() == field_rep.ring,
             "base ring %r is not Z or Z[t] under the field %r", R,
             field_rep.ring)
    gens, dets = _integral_generators(cert.lattice, field_rep, R)
    int_rep = Representation(R, gens, rep.relations, label=rep.label,
                             determinants=dets)
    if cert.rule == RULE_REGULAR_ONE_PRIME:
        _check_one_prime(cert.steps, int_rep)
    else:
        _check_family(cert, int_rep)


# ---------------------------------------------------------------------------
# the witness


def _witness_checks(cert, field_rep):
    K = field_rep.ring
    try:
        rows = _parse_rows(K, cert.witness, field_rep.dim)
    except (ValueError, TypeError):
        return False
    if not (0 < len(rows) < field_rep.dim):
        return False
    rows = meataxe._echelon_rows(K, rows)
    if len(rows) == 0 or len(rows) >= field_rep.dim:
        return False
    return meataxe.subspace_is_invariant(K, field_rep.generators, rows)


def _parse_rows(K, rows, dim):
    out = []
    for row in rows:
        if len(row) != dim:
            raise ValueError("row length %d, expected %d" % (len(row), dim))
        out.append(tuple(K.parse(s) for s in row))
    return out


# ---------------------------------------------------------------------------
# the lattice


def _integral_generators(lattice, field_rep, R):
    """The matrices X = B^-1 g B over R for the recorded basis B, each
    checked integral with det X = +-1, and their determinants over R: from
    matrices.integral_conjugates, on integer rows over Q and on Z[t] rows
    over Q(t), whatever the entries."""
    K, d = field_rep.ring, field_rep.dim
    _require(isinstance(lattice, list) and len(lattice) == d
             and all(isinstance(row, list) and len(row) == d
                     for row in lattice),
             "the lattice is not a %d x %d matrix", d, d)
    b = Matrix._raw(K, d, d, [a for row in _parse_rows(K, lattice, d)
                              for a in row])
    a = (integer_rows(b) if R == ZZ else poly_rows(b))[0]
    xs = []
    try:
        for x in integral_conjugates(a, field_rep.generators):
            xs.append(x)
    except SingularError:
        raise _Rejected("the lattice basis is singular") from None
    except IntegralityError:
        # the conjugates come in order, so len(xs) names the failing one
        raise _Rejected("generator %d is not integral in the recorded "
                        "lattice" % (len(xs),)) from None
    dets = []
    for i, x in enumerate(xs):
        det = x.det()
        _require(x.ring.is_unit(det), "generator %d has determinant %s in "
                 "the recorded lattice, not +-1", i, x.ring.format(det))
        dets.append(det)
    return xs, dets


# ---------------------------------------------------------------------------
# the certifying step


def _check_one_prime(steps, int_rep):
    """RegularOnePrime: the first irreducible step is at an integer or
    maximal prime, and its transcript proves the reduction irreducible."""
    _require(isinstance(steps, list), "steps is not a list")
    step = next((s for s in steps if isinstance(s, dict)
                 and s.get("verdict") == meataxe.IRREDUCIBLE), None)
    _require(step is not None, "no step has an irreducible reduction")
    prime = _parse_prime(step.get("prime"), int_rep.ring)
    _require(prime.kind in (PrimeSpec.INTEGER, PrimeSpec.MAXIMAL),
             "the irreducible step is at %s, not an integer or maximal prime",
             prime)
    red = reduce_rep(int_rep, prime)
    transcript = step.get("meataxe")
    _require(isinstance(transcript, dict), "the irreducible step at %s has "
             "no MeatAxe transcript", prime)
    _check_norton(red, transcript)


def _parse_prime(text, R):
    _require(isinstance(text, str), "prime %r is not a string", text)
    return PrimeSpec.parse(text, R)


def _check_norton(red, transcript):
    """Norton's test on the deciding sample of a transcript over F_p."""
    K, d = red.ring, red.dim
    decision = transcript["decision"]
    samples = transcript["samples"]
    i = decision["sample"]
    _require(type(i) is int and isinstance(samples, list)
             and 0 <= i < len(samples),
             "decision.sample %r names no recorded sample", i)
    sample = samples[i]
    theta = _theta(red, sample["words"], sample["coeffs"])
    f = char_poly(theta)
    _require(polys.format_poly_generic(K, f, "x") == sample["charpoly"],
             "the characteristic polynomial of theta is not the recorded %r",
             sample["charpoly"])
    g = _parse_factor(K, decision["factor"], d)
    _require(not polys.divmod_poly(K, f, g)[1],
             "the factor %s does not divide the characteristic polynomial",
             decision["factor"])
    _require(polys.degree(g) == 1 or fpoly.is_irreducible(list(g), K.p),
             "the factor %s is reducible over F_%d", decision["factor"], K.p)
    n = poly_at_matrix(K, g, theta)
    ker, dual = kernel_basis(n), kernel_basis(n.transpose())
    nullity, deg = len(ker), polys.degree(g)
    if nullity == deg:
        primal = ker[:1]
    else:
        _require(nullity > deg and K.order ** nullity <= meataxe.ENUM_BOUND,
                 "nullity %d ≠ deg %d, and %d^%d passes the enumeration "
                 "bound", nullity, deg, K.order, nullity)
        primal = meataxe._projective_kernel(K, ker)
    gens = list(red.generators)
    for v in primal:
        _require(len(meataxe.spin(K, gens, v)) == d,
                 "a vector of ker g(theta) spins to a proper subspace")
    tgens = [m.transpose() for m in gens]
    _require(len(meataxe.spin(K, tgens, dual[0])) == d, "ker g(theta)^T "
             "spins to a proper subspace under the transposed generators")


def _theta(red, words, coeffs):
    """sum c rho(w) over the recorded words and coefficients."""
    K, n = red.ring, len(red.generators)
    _require(isinstance(words, list) and isinstance(coeffs, list)
             and len(words) == len(coeffs) > 0,
             "the sample's words and coeffs are not two lists of one length")
    _require(len(words) <= meataxe.SAMPLE_WORDS, "the sample has %d words, "
             "more than the %d the MeatAxe draws", len(words),
             meataxe.SAMPLE_WORDS)
    theta = Matrix.zeros(K, red.dim, red.dim)
    for w, c in zip(words, coeffs):
        _require(isinstance(w, list) and 0 < len(w)
                 <= meataxe.SAMPLE_WORD_LENGTH, "a word is not a list of 1 "
                 "to %d letters", meataxe.SAMPLE_WORD_LENGTH)
        _require(all(type(x) is int and 0 <= x < n for x in w),
                 "word %r has a letter that is no generator index", w)
        _require(isinstance(c, str), "coefficient %r is not a string", c)
        theta = theta + evaluate(red, [(x, 1) for x in w]).scale(K.parse(c))
    return theta


def _parse_factor(K, text, d):
    """The recorded factor as a monic polynomial over F_p of positive
    degree at most d, written as format_poly_generic writes it."""
    _require(isinstance(text, str), "the factor %r is not a string", text)
    terms = parse_poly_string(text, "x")
    _require(max(terms, default=0) <= d, "the factor %s has degree above "
             "the dimension %d", text, d)
    g = [K.zero()] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        g[e] = K.coerce(c)
    g = polys.normalize(K, g)
    _require(polys.format_poly_generic(K, g, "x") == text,
             "the factor %r is not in canonical form", text)
    _require(polys.degree(g) >= 1 and K.is_one(g[-1]),
             "the factor %s is not monic of positive degree", text)
    return g


# ---------------------------------------------------------------------------
# the height-one descent


def _check_family(cert, int_rep):
    """HeightOneFamily: the first irreducible step with a sub-certificate is
    at a prime (t-c) of Z[t], and the sub-certificate, at this version and
    concluding IrreducibleCertified, checks against the reduction of the
    checked integral model there."""
    R = int_rep.ring
    _require(isinstance(R, PolynomialRingZ), "HeightOneFamily needs base "
             "ring Z[t]")
    _require(isinstance(cert.steps, list), "steps is not a list")
    step = next((s for s in cert.steps if isinstance(s, dict)
                 and s.get("verdict") == meataxe.IRREDUCIBLE
                 and "sub_certificate" in s), None)
    _require(step is not None, "no step carries an irreducible "
             "sub-certificate")
    prime = _parse_prime(step.get("prime"), R)
    _require(prime.kind == PrimeSpec.LINEAR, "the sub-certificate's prime %s "
             "is not a height-one prime (t-c)", prime)
    sub = Certificate.from_json(step["sub_certificate"])
    _require(sub.toolkit_version == TOOLKIT_VERSION,
             "the sub-certificate has toolkit version %r", sub.toolkit_version)
    _require(sub.conclusion == IRREDUCIBLE_CERTIFIED, "the sub-certificate "
             "concludes %r", sub.conclusion)
    try:
        _check(sub, reduce_rep(int_rep, prime))
    except _Rejected as exc:
        raise _Rejected("sub-certificate at %s: %s" % (prime, exc)) from None
