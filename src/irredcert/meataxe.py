"""MeatAxe-style irreducibility testing over the implemented fields.

The engine is the Holt-Rees variant with Norton's criterion.  A random
element theta of the enveloping algebra is drawn as a small sum of words in
the generators, the irreducible factors of its characteristic polynomial
are tried smallest degree first, and for an irreducible factor g the
kernel of g(theta) is spun under the generators.  Over a finite field the
factors come one at a time from polys.factor_stream, which splits off no
factor before the test reads it, so a sample that decides at its first
factor never finds the others, and which draws from a generator of its
own, so the sampler's generator draws only theta and the probes; over Q
and Q(t) they are the factors that can be certified cheaply.

When the nullity of g(theta) equals deg g, one primal spin and one dual spin
decide: ker g(theta) is one-dimensional over F[x]/(g), so a proper invariant
subspace W either meets the kernel (then the kernel lies inside W and the
chosen vector spins to a proper subspace) or g divides the characteristic
polynomial of the quotient action, which is the transposed action on the
annihilator of W, and the chosen dual vector spins properly.  Full spins on
both sides therefore certify irreducibility (Norton's criterion).

For higher nullity one primal vector is not decisive; over a finite field
the case closes after enumerating all projective classes of ker g(theta),
which this module does whenever q^nullity is at most ENUM_BOUND (32), and
then one dual vector: once every class spins to the whole space, a proper
invariant subspace lies in the image of g(theta), so the first vector of
ker g(theta)^T spins properly exactly when the module is reducible
(Norton's lemma, docs/background.md).  At the oracle-comparison sizes
(dim <= 3 over F_2, F_3) the bound always holds, so no verdict there is ever
Inconclusive.  Dimension 1 takes the same path and decides at sample 0:
its characteristic polynomial is linear, so over Q it is certified
irreducible, and over a finite field its factor has nullity 1 and one spin
on each side ends the test.  A larger kernel is probed for reducibility
only, and the sampling moves on to the next theta, as Holt and Rees do when
the nullity exceeds the degree.  Over Q and Q(t) enumeration is impossible and
undecided samples simply consume budget; certification is expected to
reduce modulo a prime first and use this path only as a fallback.

The spin and the invariance check share one span-growing loop, _grow: the
spin grows the span of one vector until it is closed or the whole space,
and the check seeds the loop with the rows of a subspace and stops at the
first image that leaves their span.  Over F_p the loop runs on
Kronecker-packed vectors (fpoly.pack): a vector is one int with one slot
per coordinate, M w is a sum of the packed columns of M scaled by the
coordinates of w, and a reduction step adds a multiple of a packed row,
with its factor read from one slot; the slots are reduced mod p once per
vector, when fpoly.monic_slots scales it to a leading 1.  Over Q the loop,
theta and g(theta) run on integer rows: a span, a kernel and an echelon
form do not change when vectors or matrices are scaled, so matrices are
scaled to integer ones, vectors are primitive, and reduction is
fraction-free; the canonical echelon form is taken once, for a proper spin
only.  So do the characteristic polynomial of theta = A / D, det(yI - A)
in Z[y] by CRT, its factor analysis over Z, and the kernels of g(theta),
taken over Z: Fractions are made for the transcript and the witness.  The ring alone selects these paths; Q(t), F_q and any other
descriptor take the generic code, the reference in the tests.  One
sampling loop, _decide, serves finite fields and Q; only where the factors
of the characteristic polynomial come from differs.  A run computes once
what its samples would repeat, each a function of its key: the generators'
integer rows and transposes, over Q each distinct characteristic
polynomial's factors, and the lines its probes spun, which would spin full
again; so no transcript depends on the reuse.  hom_dim spins a module
together with the images of its vectors as packed pairs over F_p, reduced
and scaled as in _grow, and over F_q on the restriction of scalars to F_p;
over Q and Q(t) it raises ValueError.

Each run is deterministic given (rep, seed, budget) and yields a transcript
suitable for embedding in a certificate.  Reducible verdicts always carry a
witness basis that has been re-verified exactly against every generator.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul, neg

from . import polys
from .errors import AbsIrredUndecided, SingularError
from .fpoly import monic_slots, pack, slot_bytes, unpack
from .matrices import (Matrix, _constant_q_matrix, _reduce_fp, char_poly,
                       denominator_lcm, eliminate_fp, int_char_poly,
                       int_product, integer_rows, kernel_basis,
                       packed_columns, poly_at_matrix, restrict_scalars, rref,
                       scaled_rows)
from .prng import XorShift64
from .reps import Representation, evaluate
from .rings import QQ, ZZ, ExtensionField, PrimeField, RationalFunctionField

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
INCONCLUSIVE = "inconclusive"

# cap on q^nullity for exhaustive kernel enumeration in the higher
# multiplicity case: at most 32 spins, which covers the oracle sizes (dim
# <= 3 over F_2 and F_3, 3^3 = 27); past it a probe and a fresh sample are
# cheaper (S9 mod 2 spun all 127 points of a kernel of nullity 7, where its
# next sample decides by two spins)
ENUM_BOUND = 32

# random algebra elements are sums of at most SAMPLE_WORDS words of at most
# SAMPLE_WORD_LENGTH letters each
SAMPLE_WORDS = 3
SAMPLE_WORD_LENGTH = 6


class MeataxeVerdict:
    """Outcome of an irreducibility test: status, optional witness basis
    (echelon rows spanning a proper nonzero invariant subspace), and a
    transcript replayable from the seed."""

    __slots__ = ("status", "witness", "transcript")

    def __init__(self, status, witness, transcript):
        self.status = status
        self.witness = witness
        self.transcript = transcript

    def __repr__(self):
        extra = ""
        if self.witness is not None:
            extra = ", witness dim %d" % (len(self.witness),)
        return "MeataxeVerdict(%s%s)" % (self.status, extra)


# ---------------------------------------------------------------------------
# subspace plumbing


def _echelon_rows(K, vecs):
    """Canonical reduced-echelon basis of the span of the given vectors."""
    red, pivots = rref(Matrix(K, [list(v) for v in vecs]))
    return tuple(red.row(i) for i in range(len(pivots)))


def _packed_echelon(p, d, nb, rows):
    """_echelon_rows over F_p of packed rows of d slots of nb bytes, with
    nb at least slot_bytes(p, min(len(rows), d)); reduces rows in place."""
    k = len(eliminate_fp(rows, d, nb, p)[0])
    flat = unpack(rows[:k], d, nb, p)
    return tuple(tuple(flat[i:i + d]) for i in range(0, k * d, d))


def _apply_int(rows, v):
    return [sum(map(mul, r, v)) for r in rows]


def _content_free(w):
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def _primitive(v):
    """The primitive integer vector on the line of a rational vector."""
    if not all(type(a) is int for a in v):
        v = scaled_rows([v], denominator_lcm(v))[0]
    return _content_free(list(v))


def _reduce_against(K, rows, pivots, w):
    """w minus the multiples of the echelon rows that clear it at each pivot
    in turn.  Each row is zero at the pivots of the rows before it.

    Over Q the rows and w are integer vectors, and the step
    w <- (a/g) w - (c/g) r, with a = r[pivot], c = w[pivot] and
    g = gcd(a, c), is fraction-free: the result is a nonzero multiple of
    the reduction over Q.  Over any other field the rows have leading
    entry 1 (over F_p, _reduce_fp takes packed rows)."""
    if K == QQ:
        for pi, r in zip(pivots, rows):
            c = w[pi]
            if c:
                g = gcd(r[pi], c)
                a, c = r[pi] // g, c // g
                w = [a * x - c * y for x, y in zip(w, r)]
        return w
    w = list(w)
    for pi, r in zip(pivots, rows):
        c = w[pi]
        if not K.is_zero(c):
            w = [K.sub(a, K.mul(c, b)) for a, b in zip(w, r)]
    return w


def _grow(K, mats, vecs, cap):
    """Grow the span of the vectors under the matrices until it is closed
    or holds cap rows: the one loop behind spin and subspace_is_invariant.

    Returns (rows, echelon): semi-echelon rows of the span in the field's
    own form, and a function giving its canonical reduced echelon rows.
    As in the C MeatAxe, each new vector is reduced against the earlier
    rows only, so no row is revisited when one joins, and the loop stops
    at the vector that makes cap rows.

    Over F_p the vectors are packed (packed_columns, _reduce_fp at the
    pivots' slot shifts, fpoly.monic_slots), and the queue holds the
    entries of the reduced vectors, which span the same space as the
    images; slots hold d products from M w and at most d - 1 from the
    reduction, within packed_columns' bound.  Over Q the matrices are the
    integer rows they keep (integer_rows), the vectors primitive integer
    vectors, and each new row is divided by its content.  Over any other
    field the rows have leading entry 1."""
    rows, pivots = [], []
    if isinstance(K, PrimeField):
        p, d = K.p, len(vecs[0]) if vecs else 0
        packed = [packed_columns(m) for m in mats]
        nb = packed[0][0] if packed else slot_bytes(p, 2 * d)
        mats = [c for _, c in packed]
        vecs = [pack([a % p for a in v], nb, p) for v in vecs]
        sh = 8 * nb         # the pivots are kept as slot shifts

        def apply(cols, w):
            return sum(map(mul, w, cols))

        def add(w):
            out = monic_slots(_reduce_fp(w, rows, pivots, p, nb), d, nb, p)
            if out is None:
                return None
            rows.append(out[1])
            pivots.append(sh * out[0])
            return out[2]

        def echelon():
            return _packed_echelon(p, d, nb, rows)
    else:
        if K == QQ:
            mats = [integer_rows(m)[0] for m in mats]
            apply, zero = _apply_int, 0
            vecs = [_primitive(v) for v in vecs]

            def normalize(w, a):
                return _content_free(w)
        else:
            apply, zero, one = Matrix.apply, K.zero(), K.one()

            def normalize(w, a):
                if a == one:
                    return w
                inv = K.inv(a)
                return [K.mul(inv, x) for x in w]

        def add(w):
            r = _reduce_against(K, rows, pivots, w)
            for idx, a in enumerate(r):
                if a != zero:
                    rows.append(normalize(r, a))
                    pivots.append(idx)
                    return w
            return None

        def echelon():
            return _echelon_rows(K, rows)

    queue = [u for u in map(add, vecs) if u is not None]
    while queue and len(rows) < cap:
        b = queue.pop()
        for m in mats:
            u = add(apply(m, b))
            if u is not None:
                queue.append(u)
                if len(rows) == cap:
                    break
    return rows, echelon


def spin(K, mats, v):
    """Smallest subspace containing v closed under the matrices, as reduced
    echelon rows: the identity rows once the span is the whole space, and
    else the canonical form of the rows _grow keeps, taken once."""
    d = len(v)
    rows, echelon = _grow(K, mats, [v], d)
    if len(rows) < d:
        return echelon()
    return _identity_rows(K, d)


@lru_cache(maxsize=64)
def _identity_rows(K, d):
    """The d x d identity as rows, built once per field and dimension."""
    zero, one = K.zero(), K.one()
    return tuple(tuple(one if i == j else zero for j in range(d))
                 for i in range(d))


def subspace_is_invariant(K, mats, rows):
    """Exact check that the span of the linearly independent rows is
    carried into itself by every matrix: _grow seeded with the rows stops
    at the first image that leaves the span."""
    return len(_grow(K, mats, rows, len(rows) + 1)[0]) == len(rows)


def _perp_witness(K, dual_rows):
    """Annihilator of a dual subspace, as echelon rows of column vectors."""
    ker = kernel_basis(Matrix(K, [list(r) for r in dual_rows]))
    return _echelon_rows(K, ker)


# ---------------------------------------------------------------------------
# sampling


def _random_scalar(K, rng):
    if isinstance(K, PrimeField):
        return rng.randrange(K.p)
    if isinstance(K, ExtensionField):
        return K.coerce(tuple(rng.randrange(K.p) for _ in range(K.k)))
    # Q and Q(t): small integer box; over Q a plain int, which _theta_q,
    # _combination and QQ.format read as they read a Fraction
    c = rng.randrange(7) - 3
    return c if K == QQ else K.coerce(c)


def _nonzero_scalar(K, rng):
    for _ in range(8):
        c = _random_scalar(K, rng)
        if not K.is_zero(c):
            return c
    return K.one()


def _sample_theta(rep, rng, index):
    """Algebra element theta = sum c_i * rho(w_i) plus its transcript record;
    over Q theta is (A, D), theta = A / D (_theta_q).

    The first len(generators) samples are the generators themselves; after
    that, 1..SAMPLE_WORDS words of 1..SAMPLE_WORD_LENGTH letters with nonzero
    coefficients."""
    K = rep.ring
    n = len(rep.generators)
    if index < n:
        words = [[index]]
        coeffs = [K.one()]
    else:
        words, coeffs = [], []
        for _ in range(1 + rng.randrange(SAMPLE_WORDS)):
            words.append([rng.randrange(n) for _ in
                          range(1 + rng.randrange(SAMPLE_WORD_LENGTH))])
            coeffs.append(_nonzero_scalar(K, rng))
    if K == QQ:
        theta = _theta_q(rep, words, coeffs)
    else:
        # a generator sample is the generator itself, whose packed columns
        # char_poly and the spins share
        theta = None
        for w, c in zip(words, coeffs):
            term = evaluate(rep, [(l, 1) for l in w])
            if not K.is_one(c):
                term = term.scale(c)
            theta = term if theta is None else theta + term
    record = {"words": words, "coeffs": [K.format(c) for c in coeffs]}
    return theta, record


def _theta_q(rep, words, coeffs):
    """sum c rho(w) over Q as (A, D): integer rows A and the least D > 0
    with theta = A / D.  Each word is multiplied out on the integer rows
    D g its letters keep (integer_rows) under a running denominator, the
    product of their D, and the sum is divided by its content."""
    terms = []
    for w, c in zip(words, coeffs):
        prod, den = None, c.denominator
        for l in w:
            rows, e = integer_rows(rep.generators[l])
            prod = rows if prod is None else int_product(prod, rows)
            den *= e
        terms.append((prod, c.numerator, den))
    common = lcm(*(den for _, _, den in terms))
    acc = [0] * (rep.dim * rep.dim)
    for prod, num, den in terms:
        f = num * (common // den)
        flat = (x for row in prod for x in row)
        acc = [a + f * x for a, x in zip(acc, flat)]
    g, d = gcd(common, *acc), rep.dim
    return [[a // g for a in acc[i:i + d]] for i in range(0, d * d, d)], \
        common // g


# ---------------------------------------------------------------------------
# Norton tests


def _projective_kernel(K, ker):
    """One representative per line of the span of the kernel basis over
    a finite field, for the engine and the checker alike (first nonzero
    coordinate normalized to 1 by construction): for each lead basis
    vector in turn, the lead vector plus every combination of the later
    ones, the coefficient of the first later one changing fastest.  The
    first proper spin picks the witness, so the order is in transcripts."""
    elements, n = list(K.iter_elements()), len(ker)
    for lead in range(n):
        for rest in product(elements, repeat=n - lead - 1):
            yield _combination(K, (K.one(),) + rest[::-1], ker[lead:])


def _combination(K, coeffs, vecs):
    """sum c_i v_i, or over Q, for integer vectors v_i, a positive multiple
    of it: the vector is only spun, and a spin depends only on its line."""
    if K == QQ:
        cs = scaled_rows([coeffs], denominator_lcm(coeffs))[0]
        return [sum(map(mul, cs, col)) for col in zip(*vecs)]
    v = [K.zero()] * len(vecs[0])
    for a, b in zip(coeffs, vecs):
        v = [K.add(x, K.mul(a, y)) for x, y in zip(v, b)]
    return v


def _kernel_vectors(K, kind, ker):
    """The vectors of ker g(theta) that Norton's test of this kind spins:
    the first one, every projective point, or the basis itself."""
    if kind == "spin":
        return ker[:1]
    if kind == "enumeration":
        return _projective_kernel(K, ker)
    return ker


def _poly_at_q(g, theta):
    """A nonzero multiple of g(theta) over Q, as a matrix over Z, which has
    the reduced echelon form of g(theta), so kernel_basis gives the bases of
    g(theta) and its transpose times one common factor: for theta = (A, D),
    L D^k g(theta) = sum L g_i D^(k-i) A^i by Horner, k - 1 products, with
    k = deg g >= 1 and L the least common denominator of g."""
    rows, den = theta
    k, c = len(g) - 1, scaled_rows([g], denominator_lcm(g))[0]
    acc = [[c[k] * x for x in r] for r in rows]
    for i in range(k - 1, -1, -1):
        for j, r in enumerate(acc):
            r[j] += c[i] * den ** (k - i)
        if i:
            acc = int_product(rows, acc)
    return Matrix._raw(ZZ, len(acc), len(acc), [x for r in acc for x in r])


def _new_lines(K, vecs, seen):
    """The vectors whose lines are not in seen, each line joining it as its
    vector is yielded, keyed over Q by the primitive integer vector with a
    positive lead, over any other field by the vector scaled to a lead 1."""
    for v in vecs:
        if K == QQ:
            w = _primitive(v)
            key = tuple(w if next(filter(None, w)) > 0 else map(neg, w))
        else:
            inv = K.inv(next(a for a in v if not K.is_zero(a)))
            key = tuple(K.mul(inv, a) for a in v)
        if key not in seen:
            seen.add(key)
            yield v


def _norton_attempt(rep, tgens, spun, theta, g, rec, rng):
    """Run Norton's test for one irreducible factor g of char_poly(theta):
    one spin on each side when the nullity of g(theta) is deg g; when it
    is larger and affordable, every projective point of ker g(theta) and
    then the first vector of ker g(theta)^T (Norton's lemma); and else a
    probe for reducibility only, which spins each kernel's basis and draws
    its random combinations of ker g(theta) from rng.

    _decide builds tgens, the transposed generators, and spun, the lines
    probes have spun on each side, once per run.  A probe skips a line in
    spun: a proper spin ends the run, so the line spun full and would again.

    Returns (status, witness_rows) on a decision, None when this factor
    cannot decide (higher multiplicity, enumeration too large or field
    infinite and no reducibility found)."""
    K = rep.ring
    d = rep.dim
    N = _poly_at_q(g, theta) if K == QQ else poly_at_matrix(K, g, theta)
    ker = kernel_basis(N)
    nullity = len(ker)
    degg = polys.degree(g)
    rec["degree"] = degg
    rec["nullity"] = nullity
    events = rec.setdefault("events", [])
    if nullity == 0:
        events.append("not_a_factor")
        return None

    q = getattr(K, "order", None)  # finite fields only
    if nullity == degg:
        kind = "spin"
    elif q is not None and q ** nullity <= ENUM_BOUND:
        kind = "enumeration"
    else:
        kind = "probe"
    vectors = _kernel_vectors(K, kind, ker)
    if kind == "probe" and len(ker) > 1:
        combos = [_combination(K, [_random_scalar(K, rng) for _ in ker], ker)
                  for _ in range(4)]
        vectors = ker + [v for v in combos if any(not K.is_zero(a) for a in v)]
    for v in _new_lines(K, vectors, spun[0]) if kind == "probe" else vectors:
        rows = spin(K, rep.generators, v)
        if len(rows) < d:
            events.append("primal_%s_proper:%d" % (kind, len(rows)))
            return REDUCIBLE, rows
    if kind != "probe":
        events.append("primal_%s_full" % (kind,))

    dual = kernel_basis(N.transpose())
    for u in _new_lines(K, dual, spun[1]) if kind == "probe" else dual[:1]:
        drows = spin(K, tgens, u)
        if len(drows) < d:
            events.append("dual_%s_proper:%d" % (kind, len(drows)))
            return REDUCIBLE, _perp_witness(K, drows)
    if kind == "probe":
        events.append("undecided_high_multiplicity")
        return None
    events.append("dual_%s_full" % (kind,))
    return IRREDUCIBLE, None


def _finish(rep, transcript, status, witness, sample_index, factor_str):
    transcript["decision"] = {
        "status": status,
        "sample": sample_index,
        "factor": factor_str,
    }
    if witness is not None:
        if not subspace_is_invariant(rep.ring, rep.generators, witness):
            raise AssertionError("internal error: witness failed exact "
                                 "re-verification")
        transcript["decision"]["witness_dim"] = len(witness)
    return MeataxeVerdict(status, witness, transcript)


def _base_transcript(rep, seed, budget):
    return {
        "seed": seed,
        "budget": budget,
        "field": rep.ring.to_json(),
        "dim": rep.dim,
        "samples": [],
    }


def _analyse_q(F, D):
    """(charpoly, irreducible, factors) for f = descale(F, D) over Q, with
    (F, D) as integralize_monic gives them: f as the transcript writes
    it, whether f is certified irreducible, and else its certainly
    irreducible factors that are cheap to find: linear ones from its
    distinct rational roots, then squarefree parts certified irreducible
    by a good-reduction witness.  The work runs on F in Z[y]: y = Dx maps
    the roots, monic gcds and quotients of f to those of F, so its roots
    are r / D for F's integer roots r and its squarefree parts are F's
    under descale, in the same order."""
    charpoly = polys.format_poly_generic(QQ, polys.descale(F, D), "x")
    roots = polys.integer_roots(F)
    if polys.certify_irreducible_q(F, roots) is True:
        return charpoly, True, []
    out = [(Fraction(-r, D), QQ.one()) for r in roots]
    for s in polys.squarefree_parts(ZZ, F):
        # a linear part is listed already, as the factor of a root
        if 1 < polys.degree(s) < polys.degree(F) and \
                polys.certify_irreducible_q(
                    polys.integralize_monic(s, D)[0],
                    [r for r in roots if not polys.evaluate(ZZ, s, r)]) is True:
            out.append(polys.descale(s, D))
    return charpoly, False, out


def _decide(rep, seed, budget):
    """The sampling loop over a finite field or Q: draw theta, factor its
    characteristic polynomial and run Norton's test on each factor until
    one decides or the budget runs out.  Over a finite field the factors
    are the distinct irreducible ones, smallest degree first, from
    polys.factor_stream: it splits off only the factors that are read, and
    draws from no generator but its own, so rng draws only theta and the
    probes' combinations.  Over Q they are those _analyse_q finds, after
    the check that the characteristic polynomial itself is irreducible,
    once per distinct polynomial in a run, from det(yI - A) in Z[y] for
    theta = A / D: both are functions of it, so their reuse changes no
    transcript.  See also _norton_attempt."""
    K = rep.ring
    rng = XorShift64(seed)
    transcript = _base_transcript(rep, seed, budget)
    tgens = [m.transpose() for m in rep.generators]
    spun = (set(), set())
    analysed = {}   # over Q: integralize_monic(F, D) -> _analyse_q of it
    for i in range(budget):
        theta, srec = _sample_theta(rep, rng, i)
        if K.characteristic > 0:
            f = char_poly(theta)
            charpoly, irreducible = polys.format_poly_generic(K, f, "x"), False
            factors = polys.factor_stream(K, f)
        else:
            key = polys.integralize_monic(int_char_poly(theta[0]),
                                          theta[1]) if K == QQ else \
                polys.integralize_monic(char_poly(theta))   # test descriptors
            if key not in analysed:
                analysed[key] = _analyse_q(*key)
            charpoly, irreducible, factors = analysed[key]
        srec["charpoly"] = charpoly
        srec["factors"] = []
        transcript["samples"].append(srec)
        # an irreducible characteristic polynomial leaves theta no invariant
        # subspace at all, let alone a G-invariant one
        if irreducible:
            srec["factors"].append({"poly": charpoly,
                                    "events": ["charpoly_irreducible"]})
            return _finish(rep, transcript, IRREDUCIBLE, None, i, charpoly)
        for g in factors:
            rec = {"poly": polys.format_poly_generic(K, g, "x")}
            srec["factors"].append(rec)
            out = _norton_attempt(rep, tgens, spun, theta, g, rec, rng)
            if out is not None:
                return _finish(rep, transcript, out[0], out[1], i, rec["poly"])
    transcript["decision"] = {"status": INCONCLUSIVE,
                              "reason": "budget exhausted"}
    return MeataxeVerdict(INCONCLUSIVE, None, transcript)


def _specialize_qt(rep, c):
    """The rep over Q obtained by t -> c; None if a pole or a vanishing
    determinant makes c a bad parameter value."""
    K = rep.ring
    mats = []
    try:
        for g in rep.generators:
            mats.append(g.map_entries(lambda a: K.evaluate(a, c), QQ))
        return Representation(QQ, mats, rep.relations, label=rep.label)
    except (SingularError, ValueError):
        return None


def _decide_qt(rep, seed, budget):
    K = rep.ring
    const = [_constant_q_matrix(g) for g in rep.generators]
    if all(m is not None for m in const):
        inner = _decide(Representation(QQ, const, rep.relations,
                                       label=rep.label), seed, budget)
        witness = None
        if inner.witness is not None:
            witness = tuple(tuple(K.coerce(a) for a in row)
                            for row in inner.witness)
        transcript = {"delegated_to_Q": True, "inner": inner.transcript}
        return MeataxeVerdict(inner.status, witness, transcript)

    # specialization certificate: a subspace over Q(t) has coprime
    # polynomial Pluecker coordinates, which cannot all vanish at any c, so
    # it specializes to an invariant subspace at every good c.  Hence an
    # irreducible specialization forces irreducibility over Q(t).
    transcript = _base_transcript(rep, seed, budget)
    transcript["specializations"] = []
    reducible_at = []
    for c in (0, 1, -1, 2, -2, 3, -3, 5, -5, 7):
        spec = _specialize_qt(rep, c)
        if spec is None:
            transcript["specializations"].append({"t": c, "status": "bad"})
            continue
        inner = _decide(spec, seed, max(budget // 4, 8))
        transcript["specializations"].append({"t": c, "status": inner.status})
        if inner.status == IRREDUCIBLE:
            transcript["decision"] = {
                "status": IRREDUCIBLE,
                "rule": "irreducible_specialization",
                "t": c,
                "inner": inner.transcript,
            }
            return MeataxeVerdict(IRREDUCIBLE, None, transcript)
        if inner.status == REDUCIBLE:
            reducible_at.append((c, inner))
            break

    # hunt for a genuine Q(t)-witness: constant eigenvalue candidates of
    # sampled algebra elements come from the roots of a specialized
    # characteristic polynomial
    rng = XorShift64(seed)
    for i in range(min(budget, 24)):
        theta, srec = _sample_theta(rep, rng, i)
        transcript["samples"].append(srec)
        f = char_poly(theta)
        candidates = set()
        for c in (0, 1, -1, 2):
            try:
                fc = tuple(K.evaluate(a, c) for a in f)
            except SingularError:
                continue
            candidates.update(polys.rational_roots(fc))
        srec["eigenvalue_candidates"] = [str(v) for v in sorted(candidates)]
        srec["factors"] = []
        for lam in sorted(candidates):
            g = (K.neg(K.coerce(lam)), K.one())
            rec = {"poly": polys.format_poly_generic(K, g, "x")}
            srec["factors"].append(rec)
            ker = kernel_basis(poly_at_matrix(K, g, theta))
            rec["nullity"] = len(ker)
            for v in ker:
                rows = spin(K, rep.generators, v)
                if len(rows) < rep.dim:
                    rec["events"] = ["primal_spin_proper:%d" % (len(rows),)]
                    return _finish(rep, transcript, REDUCIBLE, rows, i,
                                   rec["poly"])
    reason = "budget exhausted"
    if reducible_at:
        reason = ("specialization at t=%d is reducible but no witness "
                  "lifted to Q(t)" % (reducible_at[0][0],))
    transcript["decision"] = {"status": INCONCLUSIVE, "reason": reason}
    return MeataxeVerdict(INCONCLUSIVE, None, transcript)


def is_irreducible(rep, seed=0, budget=200):
    """Decide irreducibility of a representation over a field.

    Returns a MeataxeVerdict; Reducible verdicts carry an exactly verified
    echelon witness basis, Irreducible means Norton's criterion succeeded,
    and Inconclusive means the sampling budget ran out (possible only over
    Q and Q(t), or over a finite field when every sample's factors have
    nullity above their degree and q^nullity above ENUM_BOUND).  A 1 x 1
    rep takes the same path and decides at its first sample."""
    K = rep.ring
    if not K.is_field:
        raise ValueError("the irreducibility test works over a field; "
                         "reduce modulo a prime first")
    if isinstance(K, (PrimeField, ExtensionField)) or K == QQ:
        return _decide(rep, seed, budget)
    if isinstance(K, RationalFunctionField):
        return _decide_qt(rep, seed, budget)
    raise ValueError("no irreducibility test for %r" % (K,))


def hom_dim(K, src_gens, dst_gens):
    """dim Hom_G(A, M) for modules A and M over the finite field K, given by
    the matrices a_j and rho_j of the same generators, by spinning A with
    images (Holt, Eick and O'Brien, ch. 7).

    The seeds are the unit vectors of A that the spin of the earlier seeds
    does not reach; a homomorphism X is fixed by their images, so with S
    seeds and m = dim M the unknowns are the m S entries of those images.
    Each vector b of the spin carries X b as an m x m S matrix in the
    unknowns, so a_j b carries rho_j X b, and the pair [vector | image] is
    reduced as one against the kept pairs and scaled to a leading 1.  A
    vector that stays nonzero is kept, and its image defines X on it; one
    that reduces to 0 leaves an image that X must send to 0, m equations.
    X is a homomorphism exactly when all of them hold, so the answer is
    m S minus their rank, the size of their span under _grow with no
    matrices.

    The image is kept column by column, so a new seed appends its m
    columns.  As in _grow, the pair is one packed int, reduced by
    _reduce_fp and pivoted and scaled by fpoly.monic_slots: the vector
    fills the low a slots, so the pivot falls among them exactly when the
    vector is nonzero mod p, and otherwise the m equations share one
    nonzero factor, which leaves their rank alone.  rho_j acts on all
    columns at once: row k of the image, read off every m-th slot, times
    the packed column k of rho_j.

    Over F_q = F_p(alpha), q = p^k, the F_q-maps A -> M are the F_p-maps
    Res A -> Res M (matrices.restrict_scalars) that commute with alpha, an
    F_p-space of k times their F_q-dimension; so the F_p count runs on the
    restricted generators and one more pair, alpha on A and on M."""
    if not isinstance(K, (PrimeField, ExtensionField)):
        raise ValueError("hom_dim needs a finite field, not %r" % (K,))
    if len(src_gens) != len(dst_gens):
        raise ValueError("hom_dim got %d source and %d target generators"
                         % (len(src_gens), len(dst_gens)))
    a, m = src_gens[0].nrows, dst_gens[0].nrows
    if not a or not m:
        return 0
    if isinstance(K, ExtensionField):
        alpha = K.coerce((0, 1))
        src, dst = ([restrict_scalars(g) for g in gens]
                    + [restrict_scalars(Matrix.identity(K, d).scale(alpha))]
                    for gens, d in ((src_gens, a), (dst_gens, m)))
        return hom_dim(PrimeField(K.p), src, dst) // K.k
    p = K.p
    # slots meet a products from a_j or m from rho_j, a from reduction
    nb = slot_bytes(p, a + max(a, m))
    sh = 8 * nb                 # as in _grow, the pivots are slot shifts
    # every m-th slot, for as many image columns as there can be
    spread = int.from_bytes((b"\xff" * nb + bytes(nb * (m - 1))) * m * a,
                            "little")
    gens = [(pack(x.transpose().entries, nb, p, a),
             pack(r.transpose().entries, nb, p, m))
            for x, r in zip(src_gens, dst_gens)]
    rows, pivots = [], []
    n = 0                       # unknowns so far, m per seed
    eqs = {}                    # equations as tuples, each once
    for t in range(a):
        if len(rows) == a:
            break
        # e_t with X e_t = y, m new unknowns y that the kept pairs do not
        # involve; a new seed unless the spin so far reaches e_t, when it
        # is the first pair to reduce to 0, before any is kept
        before, width = len(rows), a + m * (n + m)
        todo = [(1 << sh * t) + sum(1 << sh * (a + m * (n + i) + i)
                                    for i in range(m))]
        while todo:
            out = monic_slots(_reduce_fp(todo.pop(), rows, pivots, p, nb),
                              width, nb, p)
            if out is None:
                continue
            idx, w, u = out
            if idx >= a:
                if len(rows) > before:
                    for i in range(m):
                        eqs[tuple(u[a + i::m])] = None
                continue
            # kept: push the pairs of a_j b, with rho_j times its image
            rows.append(w)
            pivots.append(sh * idx)
            v, img = u[:a], w >> sh * a
            for xcols, rcols in gens:
                todo.append(sum(map(mul, v, xcols)) + (sum(
                    c * (img >> sh * k & spread)
                    for k, c in enumerate(rcols)) << sh * a))
        if len(rows) > before:
            n += m
    return n - len(_grow(K, [], [e + (0,) * (n - len(e)) for e in eqs],
                         0)[0])


def endo_dim(rep):
    """Dimension over the finite base field of the commutant
    {X : Xg = gX for all generators}."""
    return hom_dim(rep.ring, rep.generators, rep.generators)


def is_absolutely_irreducible(rep, seed=0, budget=200):
    """Over a finite field: irreducible with one-dimensional commutant.

    By Schur and the finite-field converse (Wedderburn: a finite division
    algebra is a field) this matches absolute irreducibility; see the
    background notes for the reference."""
    K = rep.ring
    if not isinstance(K, (PrimeField, ExtensionField)):
        raise ValueError("absolute irreducibility test expects a finite field")
    verdict = is_irreducible(rep, seed=seed, budget=budget)
    if verdict.status == INCONCLUSIVE:
        raise AbsIrredUndecided("irreducibility test was inconclusive")
    return verdict.status == IRREDUCIBLE and endo_dim(rep) == 1
