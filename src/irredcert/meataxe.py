"""MeatAxe-style irreducibility testing over the implemented fields.

The engine is the Holt-Rees variant with Norton's criterion.  A random
element theta of the enveloping algebra is drawn as a small sum of words in
the generators, its characteristic polynomial is factored (fully over finite
fields; partially over Q and Q(t)), and for an irreducible factor g the
kernel of g(theta) is spun under the generators.

When the nullity of g(theta) equals deg g, one primal spin and one dual spin
decide: ker g(theta) is one-dimensional over F[x]/(g), so a proper invariant
subspace W either meets the kernel (then the kernel lies inside W and the
chosen vector spins to a proper subspace) or g divides the characteristic
polynomial of the quotient action, which is the transposed action on the
annihilator of W, and the chosen dual vector spins properly.  Full spins on
both sides therefore certify irreducibility (Norton's criterion).

For higher nullity the single-vector test is not decisive; over a finite
field the same two-sided argument still closes the case after enumerating
all projective classes of both kernels, which this module does whenever
q^nullity stays under a fixed bound.  At the oracle-comparison sizes
(dim <= 3 over F_2, F_3) the bound always holds, so no verdict there is ever
Inconclusive.  Over Q and Q(t) enumeration is impossible and undecided
samples simply consume budget; certification is expected to reduce modulo a
prime first and use this path only as a fallback.

Over Q the spin, the invariance check and theta run on integer rows: a
span does not change when its vectors or the matrices are scaled, so each
generator is scaled once to an integer matrix, vectors are primitive
integer vectors, and reduction is fraction-free.  The canonical reduced
echelon form over Q is taken once, for a proper spin only.  The ring alone
selects this path; Q(t), F_q and any other descriptor take the generic
code, the reference in the tests.

Each run is deterministic given (rep, seed, budget) and yields a transcript
suitable for embedding in a certificate.  Reducible verdicts always carry a
witness basis that has been re-verified exactly against every generator.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import polys
from .errors import AbsIrredUndecided, SingularError
from .lattices import _constant_q_matrix, _denominator_lcm, _scaled_rows
from .matrices import Matrix, char_poly, kernel_basis, poly_at_matrix, \
    rank, rref
from .prng import XorShift64
from .reps import Representation, evaluate
from .rings import QQ, ExtensionField, PrimeField, RationalFunctionField

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
INCONCLUSIVE = "inconclusive"

# cap on q^nullity for exhaustive kernel enumeration in the higher
# multiplicity case; 4096 keeps the worst case around 10^4 spins
ENUM_BOUND = 4096


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


def _integer_rows(m):
    """(rows of D m as plain ints, D) for a matrix m over Q and the least
    common denominator D of its entries."""
    e, n = m.entries, m.ncols
    den = _denominator_lcm(e)
    flat = _scaled_rows([e], den)[0]
    return [flat[i:i + n] for i in range(0, len(flat), n)], den


def _apply_int(rows, v):
    return [sum(map(mul, r, v)) for r in rows]


def _content_free(w):
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def _primitive(v):
    """The primitive integer vector on the line of a rational vector."""
    return _content_free(_scaled_rows([v], _denominator_lcm(v))[0])


def _reduce_against(K, rows, pivots, w):
    """w minus the multiples of the echelon rows that clear it at each pivot
    in turn.  Each row is zero at the pivots of the rows before it.

    Over Q the rows and w are integer vectors, and the step
    w <- (a/g) w - (c/g) r, with a = r[pivot], c = w[pivot] and
    g = gcd(a, c), is fraction-free: the result is a nonzero multiple of
    the reduction over Q.  Over any other field the rows have leading
    entry 1."""
    if isinstance(K, PrimeField):
        # one reduction mod p per entry, at the end; reducing each
        # coefficient keeps the entries below len(rows) * p^2 meanwhile
        p = K.p
        for pi, r in zip(pivots, rows):
            c = w[pi] % p
            if c:
                w = [a - c * b for a, b in zip(w, r)]
        return [a % p for a in w]
    if K == QQ:
        for pi, r in zip(pivots, rows):
            c = w[pi]
            if c:
                a = r[pi]
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


def spin(K, mats, v):
    """Smallest subspace containing v closed under the matrices, as reduced
    echelon rows.  Stops early once the whole space is reached.

    The basis is kept in semi-echelon form, as in the C MeatAxe: each new
    vector is reduced against the earlier rows only, so no row is revisited
    when one joins.  The canonical reduced form is taken once at the end,
    and a full spin needs none.

    A span does not change when its vectors or the matrices are scaled
    (Holt-Rees), so over Q the spin runs on integer rows: each matrix is
    scaled once to D m over the least common denominator D of its entries,
    v becomes a primitive integer vector, the reduction is fraction-free,
    and each new row is divided by its content."""
    d = len(v)
    rows, pivots = [], []
    if K == QQ:
        mats = [_integer_rows(m)[0] for m in mats]
        apply, zero = _apply_int, 0
        v = _primitive(v)

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
        w = _reduce_against(K, rows, pivots, w)
        for idx, a in enumerate(w):
            if a != zero:
                rows.append(normalize(w, a))
                pivots.append(idx)
                return True
        return False

    queue = [v]
    add(v)
    while queue and len(rows) < d:
        b = queue.pop()
        for m in mats:
            w = apply(m, b)
            if add(w):
                queue.append(w)
    if len(rows) == d:
        zero, one = K.zero(), K.one()
        return tuple(tuple(one if i == j else zero for j in range(d))
                     for i in range(d))
    return _echelon_rows(K, rows)


def subspace_is_invariant(K, mats, rows):
    """Exact check that the row span is carried into itself by every matrix.
    The rows are in semi-echelon form; over Q the check runs on the same
    integer rows as spin."""
    apply = Matrix.apply
    if K == QQ:
        mats = [_integer_rows(m)[0] for m in mats]
        rows = [_primitive(r) for r in rows]
        apply = _apply_int
    pivots = []
    for r in rows:
        for idx, a in enumerate(r):
            if not K.is_zero(a):
                pivots.append(idx)
                break
    for m in mats:
        for r in rows:
            w = _reduce_against(K, rows, pivots, apply(m, r))
            if any(not K.is_zero(a) for a in w):
                return False
    return True


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
    that, 1..3 words of length 1..6 with nonzero coefficients."""
    K = rep.ring
    n = len(rep.generators)
    if index < n:
        words = [[index]]
        coeffs = [K.one()]
    else:
        words, coeffs = [], []
        for _ in range(1 + rng.randrange(3)):
            words.append([rng.randrange(n) for _ in range(1 + rng.randrange(6))])
            coeffs.append(_nonzero_scalar(K, rng))
    if K == QQ:
        theta = _theta_q(rep, words, coeffs)
    else:
        theta = Matrix.zeros(K, rep.dim, rep.dim)
        for w, c in zip(words, coeffs):
            theta = theta + evaluate(rep, [(l, 1) for l in w]).scale(c)
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
                scaled[l] = _integer_rows(rep.generators[l])
            rows, e = scaled[l]
            prod = rows if prod is None else _mul_int(prod, rows)
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


def _mul_int(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, r, col)) for col in cols] for r in a]


# ---------------------------------------------------------------------------
# Norton tests


def _projective_kernel(K, ker):
    """One representative per line of the span of the kernel basis (finite
    fields only; first nonzero coordinate normalized to 1 by construction)."""
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


def _combination(K, coeffs, vecs):
    """sum c_i v_i, or over Q a positive multiple of it on integer rows:
    the vector is only spun, and a spin depends only on its line."""
    if K == QQ:
        cs = _scaled_rows([coeffs], _denominator_lcm(coeffs))[0]
        rows = _scaled_rows(vecs, _denominator_lcm(a for v in vecs for a in v))
        return [sum(map(mul, cs, col)) for col in zip(*rows)]
    v = [K.zero()] * len(vecs[0])
    for a, b in zip(coeffs, vecs):
        v = [K.add(x, K.mul(a, y)) for x, y in zip(v, b)]
    return v


def _norton_attempt(rep, theta, g, rec, rng):
    """Run Norton's test for one irreducible factor g of char_poly(theta).

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
    tgens = [m.transpose() for m in gens]

    if nullity == degg:
        rows = spin(K, gens, ker[0])
        if len(rows) < d:
            events.append("primal_spin_proper:%d" % (len(rows),))
            return REDUCIBLE, rows
        events.append("primal_spin_full")
        dual_ker = kernel_basis(N.transpose())
        drows = spin(K, tgens, dual_ker[0])
        if len(drows) < d:
            events.append("dual_spin_proper:%d" % (len(drows),))
            return REDUCIBLE, _perp_witness(K, drows)
        events.append("dual_spin_full")
        return IRREDUCIBLE, None

    # higher multiplicity: exhaustive two-sided enumeration when affordable
    q = getattr(K, "order", None)  # finite fields only
    if q is not None and q ** nullity <= ENUM_BOUND:
        for v in _projective_kernel(K, ker):
            rows = spin(K, gens, v)
            if len(rows) < d:
                events.append("primal_enumeration_proper:%d" % (len(rows),))
                return REDUCIBLE, rows
        events.append("primal_enumeration_full")
        dual_ker = kernel_basis(N.transpose())
        for u in _projective_kernel(K, dual_ker):
            drows = spin(K, tgens, u)
            if len(drows) < d:
                events.append("dual_enumeration_proper:%d" % (len(drows),))
                return REDUCIBLE, _perp_witness(K, drows)
        events.append("dual_enumeration_full")
        return IRREDUCIBLE, None

    # infinite field or oversized kernel: probe for reducibility only
    probes = list(ker)
    if len(ker) > 1:
        for _ in range(4):
            v = _combination(K, [_random_scalar(K, rng) for _ in ker], ker)
            if any(not K.is_zero(a) for a in v):
                probes.append(v)
    for v in probes:
        rows = spin(K, gens, v)
        if len(rows) < d:
            events.append("primal_probe_proper:%d" % (len(rows),))
            return REDUCIBLE, rows
    dual_ker = kernel_basis(N.transpose())
    for u in dual_ker:
        drows = spin(K, tgens, u)
        if len(drows) < d:
            events.append("dual_probe_proper:%d" % (len(drows),))
            return REDUCIBLE, _perp_witness(K, drows)
    events.append("undecided_high_multiplicity")
    return None


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


def _decide_finite(rep, seed, budget):
    K = rep.ring
    rng = XorShift64(seed)
    transcript = _base_transcript(rep, seed, budget)
    for i in range(budget):
        theta, srec = _sample_theta(rep, rng, i)
        f = char_poly(theta)
        srec["charpoly"] = polys.format_poly_generic(K, f, "x")
        srec["factors"] = []
        transcript["samples"].append(srec)
        for g in polys.distinct_irreducible_factors(K, f, rng):
            rec = {"poly": polys.format_poly_generic(K, g, "x")}
            srec["factors"].append(rec)
            out = _norton_attempt(rep, theta, g, rec, rng)
            if out is not None:
                return _finish(rep, transcript, out[0], out[1], i, rec["poly"])
    transcript["decision"] = {"status": INCONCLUSIVE,
                              "reason": "budget exhausted"}
    return MeataxeVerdict(INCONCLUSIVE, None, transcript)


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
        # the parts may repeat, as for (x-1)^5 (x+1)^2; each is tried once
        if polys.degree(s) in (0, polys.degree(f)) or s in seen:
            continue
        seen.add(s)
        if polys.certify_irreducible_q(s) is True:
            out.append(s)
    return out


def _decide_q(rep, seed, budget):
    K = rep.ring
    rng = XorShift64(seed)
    transcript = _base_transcript(rep, seed, budget)
    for i in range(budget):
        theta, srec = _sample_theta(rep, rng, i)
        f = char_poly(theta)
        srec["charpoly"] = polys.format_poly_generic(K, f, "x")
        srec["factors"] = []
        transcript["samples"].append(srec)
        # an irreducible characteristic polynomial leaves theta no invariant
        # subspace at all, let alone a G-invariant one
        roots = polys.rational_roots(f)
        if polys.certify_irreducible_q(f, roots) is True:
            srec["factors"].append({"poly": srec["charpoly"],
                                    "events": ["charpoly_irreducible"]})
            return _finish(rep, transcript, IRREDUCIBLE, None, i,
                           srec["charpoly"])
        for g in _certified_factors_q(f, roots):
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
        inner = _decide_q(Representation(QQ, const, rep.relations,
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
        inner = _decide_q(spec, seed, max(budget // 4, 8))
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
    if isinstance(K, (PrimeField, ExtensionField)):
        return _decide_finite(rep, seed, budget)
    if K == QQ:
        return _decide_q(rep, seed, budget)
    if isinstance(K, RationalFunctionField):
        return _decide_qt(rep, seed, budget)
    raise ValueError("no irreducibility test for %r" % (K,))


def hom_dim(K, src_gens, dst_gens):
    """dim Hom_G(A, M) for modules A and M over the field K, given by the
    matrices a_j and rho_j of the same generators: the nullity of the
    stacked system X a_j = rho_j X in the unknown dim M x dim A matrix X."""
    s = src_gens[0].nrows
    m = dst_gens[0].nrows
    zero = K.zero()
    rows = []
    # row-major vec: vec(rho X) = (rho (x) I) vec X, vec(X a) = (I (x) a^T)
    # vec X.  The equations of entry (i, t) of X sit together, one per
    # generator: that order eliminates faster than one block per generator
    for i in range(m):
        for t in range(s):
            for a, rho in zip(src_gens, dst_gens):
                row = [zero] * (m * s)
                for i2 in range(m):
                    row[i2 * s + t] = rho.entry(i, i2)
                for t2 in range(s):
                    c = i * s + t2
                    row[c] = K.sub(row[c], a.entry(t2, t))
                rows.append(row)
    return m * s - rank(Matrix._raw(K, len(rows), m * s,
                                    [x for row in rows for x in row]))


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
