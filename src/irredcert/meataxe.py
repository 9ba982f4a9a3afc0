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
which this module does whenever q^nullity stays under a fixed bound, and
then one dual vector: once every class spins to the whole space, a proper
invariant subspace lies in the image of g(theta), so the first vector of
ker g(theta)^T spins properly exactly when the module is reducible
(Norton's lemma, docs/background.md).  At the oracle-comparison sizes
(dim <= 3 over F_2, F_3) the bound always holds, so no verdict there is ever
Inconclusive.  Over Q and Q(t) enumeration is impossible and undecided
samples simply consume budget; certification is expected to reduce modulo a
prime first and use this path only as a fallback.

The spin and the invariance check share one span-growing loop, _grow: the
spin grows the span of one vector until it is closed or the whole space,
and the check seeds the loop with the rows of a subspace and stops at the
first image that leaves their span.  Over F_p the loop runs on
Kronecker-packed vectors (fpoly.pack): a vector is one int with one slot
per coordinate, M w is a sum of the packed columns of M scaled by the
coordinates of w, and a reduction step adds a multiple of a packed row,
with its factor read from one slot; the slots are reduced mod p once per
vector, when fpoly.monic_slots scales it to a leading 1.  Over Q the loop
and theta run on integer rows: a span does not change when its vectors or
the matrices are scaled, so each generator is scaled once to an integer
matrix, vectors are primitive integer vectors, and reduction is
fraction-free.  The canonical reduced echelon form is taken once, for a
proper spin only.  The ring alone selects these paths; Q(t), F_q and any
other descriptor take the generic code, the reference in the tests.  One
sampling loop, _decide, serves finite fields and Q; only where the
factors of the characteristic polynomial come from differs.  hom_dim
spins a module together with the images of its vectors in two forms:
packed pairs over F_p, reduced and scaled as in _grow, and rows of
scalars over every other field, Q included.

Each run is deterministic given (rep, seed, budget) and yields a transcript
suitable for embedding in a certificate.  Reducible verdicts always carry a
witness basis that has been re-verified exactly against every generator.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from . import polys
from .errors import AbsIrredUndecided, SingularError
from .fpoly import monic_slots, pack, slot_bytes, unpack
from .matrices import (Matrix, _constant_q_matrix, _reduce_fp, char_poly,
                       denominator_lcm, eliminate_fp, int_product,
                       integer_rows, kernel_basis, packed_columns,
                       poly_at_matrix, rref, scaled_rows)
from .prng import XorShift64
from .reps import Representation, evaluate
from .rings import QQ, ExtensionField, PrimeField, RationalFunctionField

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
INCONCLUSIVE = "inconclusive"

# cap on q^nullity for exhaustive kernel enumeration in the higher
# multiplicity case; 4096 keeps the worst case at 4,096 spins
ENUM_BOUND = 4096

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
    return _content_free(scaled_rows([v], denominator_lcm(v))[0])


def _reduce_against(K, rows, pivots, w):
    """w minus the multiples of the echelon rows that clear it at each pivot
    in turn.  Each row is zero at the pivots of the rows before it.

    Over Q the rows and w are integer vectors, and the step
    w <- (a/g) w - (c/g) r, with a = r[pivot], c = w[pivot] and
    g = gcd(a, c), is fraction-free: the result is a nonzero multiple of
    the reduction over Q.  A row with a = 1 takes w - c r without the gcd,
    so the monic Fraction rows of hom_dim reduce here too.  Over any other
    field the rows have leading entry 1 (over F_p, _reduce_fp takes packed
    rows)."""
    if K == QQ:
        for pi, r in zip(pivots, rows):
            c = w[pi]
            if c:
                a = r[pi]
                if a != 1:
                    g = gcd(a, c)
                    a, c = a // g, c // g
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

    Over F_p the vectors are packed: M w is the sum of the packed columns
    of M (packed_columns) scaled by the entries of w, each vector is
    reduced against the packed rows (_reduce_fp) at their pivots' slot
    shifts and made monic once (fpoly.monic_slots, in C for p < 256), and
    the queue holds the entries of the reduced vectors, which span the
    same space as the images.  Slots hold d products from M w and at most
    d - 1 from the reduction, within packed_columns' bound.  A span does not change when its vectors or the matrices are
    scaled (Holt-Rees), so over Q the loop runs on integer rows: each
    matrix is scaled once to D m over the least common denominator D of
    its entries, the vectors become primitive integer vectors, the
    reduction is fraction-free, and each new row is divided by its
    content.  Over any other field the rows have leading entry 1."""
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
    # Q and Q(t): small integer box
    return K.coerce(rng.randrange(7) - 3)


def _nonzero_scalar(K, rng):
    for _ in range(8):
        c = _random_scalar(K, rng)
        if not K.is_zero(c):
            return c
    return K.one()


def _sample_theta(rep, rng, index):
    """Algebra element theta = sum c_i * rho(w_i) plus its transcript record.

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
    """sum c rho(w) over Q.  Each word is multiplied out on the integer
    rows D g of its letters under a running denominator, the product of
    their D; one Fraction per entry is built at the end."""
    scaled = {}
    terms = []
    for w, c in zip(words, coeffs):
        prod, den = None, c.denominator
        for l in w:
            if l not in scaled:
                scaled[l] = integer_rows(rep.generators[l])
            rows, e = scaled[l]
            prod = rows if prod is None else int_product(prod, rows)
            den *= e
        terms.append((prod, c.numerator, den))
    common = lcm(*(den for _, _, den in terms))
    acc = [0] * (rep.dim * rep.dim)
    for prod, num, den in terms:
        f = num * (common // den)
        flat = (x for row in prod for x in row)
        acc = [a + f * x for a, x in zip(acc, flat)]
    return Matrix._raw(QQ, rep.dim, rep.dim,
                       [Fraction(a, common) for a in acc])


# ---------------------------------------------------------------------------
# Norton tests


def _projective_kernel(K, ker):
    """One representative per line of the span of the kernel basis (finite
    fields only; first nonzero coordinate normalized to 1 by construction):
    for each lead basis vector in turn, the lead vector plus every
    combination of the later ones, the coefficient of the first later one
    changing fastest."""
    if isinstance(K, PrimeField):
        yield from _projective_kernel_fp(K.p, ker)
        return
    elements = list(K.iter_elements())
    n = len(ker)
    d = len(ker[0])
    for lead in range(n):
        tail = n - lead - 1
        counters = [0] * tail
        while True:
            coeffs = [K.zero()] * lead + [K.one()] + \
                [elements[c] for c in counters]
            v = [K.zero()] * d
            for a, b in zip(coeffs, ker):
                if not K.is_zero(a):
                    v = [K.add(x, K.mul(a, y)) for x, y in zip(v, b)]
            yield v
            i = 0
            while i < tail:
                counters[i] += 1
                if counters[i] < len(elements):
                    break
                counters[i] = 0
                i += 1
            else:
                break


def _projective_kernel_fp(p, ker):
    """_projective_kernel over F_p, in the same order, on the packed basis:
    each point is one packed sum of a point of the later basis vectors and
    a multiple of the next one, and each lead's points unpack at once.  A
    point sums the lead vector and n - 1 multiples, within
    slot_bytes(p, n)."""
    n, d = len(ker), len(ker[0])
    nb = slot_bytes(p, n)
    basis = pack([a for v in ker for a in v], nb, p, d)
    for lead in range(n):
        points = [basis[lead]]
        for b in reversed(basis[lead + 1:]):
            multiples = [c * b for c in range(p)]
            points = [x + y for x in points for y in multiples]
        flat = unpack(points, d, nb, p)
        for i in range(0, len(flat), d):
            yield flat[i:i + d]


def _combination(K, coeffs, vecs):
    """sum c_i v_i, or over Q a positive multiple of it on integer rows:
    the vector is only spun, and a spin depends only on its line."""
    if K == QQ:
        cs = scaled_rows([coeffs], denominator_lcm(coeffs))[0]
        rows = scaled_rows(vecs, denominator_lcm(a for v in vecs for a in v))
        return [sum(map(mul, cs, col)) for col in zip(*rows)]
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


def _norton_attempt(rep, theta, g, rec, rng):
    """Run Norton's test for one irreducible factor g of char_poly(theta):
    one spin on each side when the nullity of g(theta) is deg g; when it
    is larger and affordable, every projective point of ker g(theta) and
    then the first vector of ker g(theta)^T (Norton's lemma); and else a
    probe for reducibility only, which spins each kernel's basis and draws
    its random combinations of ker g(theta) from rng.

    Returns (status, witness_rows) on a decision, None when this factor
    cannot decide (higher multiplicity, enumeration too large or field
    infinite and no reducibility found)."""
    K = rep.ring
    d = rep.dim
    gens = list(rep.generators)
    N = poly_at_matrix(K, g, theta)
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
    for v in vectors:
        rows = spin(K, gens, v)
        if len(rows) < d:
            events.append("primal_%s_proper:%d" % (kind, len(rows)))
            return REDUCIBLE, rows
    if kind != "probe":
        events.append("primal_%s_full" % (kind,))

    dual = kernel_basis(N.transpose())
    tgens = [m.transpose() for m in gens]
    for u in dual if kind == "probe" else dual[:1]:
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
        K = rep.ring
        if not subspace_is_invariant(K, list(rep.generators), witness):
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


def _certified_factors_q(f, roots):
    """Certainly-irreducible factors of a monic f over Q that we can find
    cheaply: linear factors from its rational roots (given, as computed
    once per sample), plus any squarefree part certified irreducible by a
    good-reduction witness.  Sorted with linear factors first."""
    out = []
    seen = set()
    for r in roots:
        g = (QQ.neg(QQ.coerce(r)), QQ.one())
        if g not in seen:
            seen.add(g)
            out.append(g)
    for s in polys.squarefree_parts(QQ, f):
        # a part already listed as a root's linear factor is not tried again
        if polys.degree(s) in (0, polys.degree(f)) or s in seen:
            continue
        seen.add(s)
        if polys.certify_irreducible_q(s) is True:
            out.append(s)
    return out


def _decide(rep, seed, budget):
    """The sampling loop over a finite field or Q: draw theta, factor its
    characteristic polynomial and run Norton's test on each factor until
    one decides or the budget runs out.  Over a finite field the factors
    are the distinct irreducible ones, smallest degree first, from
    polys.factor_stream: it splits off only the factors that are read, and
    draws from no generator but its own, so rng draws only theta and the
    probes' combinations.  Over Q they are those
    _certified_factors_q finds, after the check that the characteristic
    polynomial itself is irreducible."""
    K = rep.ring
    rng = XorShift64(seed)
    transcript = _base_transcript(rep, seed, budget)
    for i in range(budget):
        theta, srec = _sample_theta(rep, rng, i)
        f = char_poly(theta)
        srec["charpoly"] = polys.format_poly_generic(K, f, "x")
        srec["factors"] = []
        transcript["samples"].append(srec)
        if K.characteristic > 0:
            factors = polys.factor_stream(K, f)
        else:
            # an irreducible characteristic polynomial leaves theta no
            # invariant subspace at all, let alone a G-invariant one
            roots = polys.rational_roots(f)
            if polys.certify_irreducible_q(f, roots) is True:
                srec["factors"].append({"poly": srec["charpoly"],
                                        "events": ["charpoly_irreducible"]})
                return _finish(rep, transcript, IRREDUCIBLE, None, i,
                               srec["charpoly"])
            factors = _certified_factors_q(f, roots)
        for g in factors:
            rec = {"poly": polys.format_poly_generic(K, g, "x")}
            srec["factors"].append(rec)
            out = _norton_attempt(rep, theta, g, rec, rng)
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
    gens = list(rep.generators)
    d = rep.dim
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
            N = poly_at_matrix(K, g, theta)
            ker = kernel_basis(N)
            rec["nullity"] = len(ker)
            if not ker:
                continue
            for v in ker:
                rows = spin(K, gens, v)
                if len(rows) < d:
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
    Q and Q(t), or past the enumeration bound over big finite fields)."""
    K = rep.ring
    if not K.is_field:
        raise ValueError("the irreducibility test works over a field; "
                         "reduce modulo a prime first")
    if rep.dim == 1:
        return MeataxeVerdict(
            IRREDUCIBLE, None,
            {"seed": seed, "budget": budget, "field": K.to_json(), "dim": 1,
             "samples": [],
             "decision": {"status": IRREDUCIBLE, "reason": "dimension 1"}})
    if isinstance(K, (PrimeField, ExtensionField)) or K == QQ:
        return _decide(rep, seed, budget)
    if isinstance(K, RationalFunctionField):
        return _decide_qt(rep, seed, budget)
    raise ValueError("no irreducibility test for %r" % (K,))


def hom_dim(K, src_gens, dst_gens):
    """dim Hom_G(A, M) for modules A and M over the field K, given by the
    matrices a_j and rho_j of the same generators, by spinning A with
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
    columns.  As in _grow, over F_p the pair is one packed int, reduced by
    _reduce_fp and pivoted and scaled by fpoly.monic_slots: the vector
    fills the low a slots, so the pivot falls among them exactly when the
    vector is nonzero mod p, and otherwise the m equations share one
    nonzero factor, which leaves their rank alone.  rho_j acts on all
    columns at once: row k of the image, read off every m-th slot, times
    the packed column k of rho_j.  Every other field, Q included, takes
    the descriptor form: rows of scalars, Matrix.apply and _reduce_against."""
    a, m = src_gens[0].nrows, dst_gens[0].nrows
    if not a or not m:
        return 0
    rows, pivots = [], []
    # each form gives seed(t, n), the pair of e_t after n unknowns;
    # step(b, gen), the pair of a_j b; and reduce(w, n), the pair w over n
    # unknowns reduced and scaled: (its entries or None when it is 0, the
    # queue item when it is kept)
    if isinstance(K, PrimeField):
        p, zero = K.p, 0
        # slots meet a products from a_j or m from rho_j, a from reduction
        nb = slot_bytes(p, a + max(a, m))
        sh = 8 * nb
        # every m-th slot, for as many image columns as there can be
        spread = int.from_bytes((b"\xff" * nb + bytes(nb * (m - 1))) * m * a,
                                "little")
        gens = [(pack(x.transpose().entries, nb, p, a),
                 pack(r.transpose().entries, nb, p, m))
                for x, r in zip(src_gens, dst_gens)]

        def seed(t, n):
            return (1 << sh * t) + sum(1 << sh * (a + m * (n + i) + i)
                                       for i in range(m))

        def step(b, gen):
            v, img = b
            xcols, rcols = gen
            img = sum(c * (img >> sh * k & spread)
                      for k, c in enumerate(rcols))
            return sum(map(mul, v, xcols)) + (img << sh * a)

        def reduce(w, n):
            out = monic_slots(_reduce_fp(w, rows, pivots, p, nb), a + m * n,
                              nb, p)
            if out is None:
                return None, None
            idx, w, u = out
            if idx >= a:
                return u, None
            rows.append(w)
            pivots.append(sh * idx)     # as in _grow, slot shifts
            return u, (u[:a], w >> sh * a)
    else:
        zero, one = K.zero(), K.one()
        gens = list(zip(src_gens, dst_gens))

        def seed(t, n):
            w = [zero] * (a + m * (n + m))
            for r in rows:
                r.extend(w[len(r):])
            w[t] = one
            for i in range(m):
                w[a + m * (n + i) + i] = one
            return w

        def step(b, gen):
            x, r = gen
            w = list(x.apply(b[:a]))
            for i in range(a, len(b), m):
                w.extend(r.apply(b[i:i + m]))
            return w

        def reduce(w, n):
            u = _reduce_against(K, rows, pivots, w)
            idx = next((i for i, c in enumerate(u) if c != zero), None)
            if idx is None:
                return None, None
            if u[idx] != one:
                inv = K.inv(u[idx])
                u = [K.mul(inv, c) for c in u]
            if idx >= a:
                return u, None
            rows.append(u)
            pivots.append(idx)
            return u, u

    n = 0                   # unknowns so far, m per seed
    eqs = {}                # equations as tuples, each once
    for t in range(a):
        if len(rows) == a:
            break
        # e_t with X e_t = y, m new unknowns y that the kept pairs do not
        # involve (their rows are padded with zeros); a new seed when the
        # spin so far misses e_t
        b = reduce(seed(t, n), n + m)[1]
        if b is None:
            continue
        n += m
        queue = [b]
        while queue:
            b = queue.pop()
            for gen in gens:
                u, kept = reduce(step(b, gen), n)
                if kept is not None:
                    queue.append(kept)
                elif u is not None:
                    for i in range(m):
                        eqs[tuple(u[a + i::m])] = None
    eqs = [list(e) + [zero] * (n - len(e)) for e in eqs]
    return n - len(_grow(K, [], eqs, 0)[0])


def endo_dim(rep):
    """Dimension over the base field of the commutant {X : Xg = gX for all
    generators}."""
    if not rep.ring.is_field:
        raise ValueError("endo_dim works over a field")
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
