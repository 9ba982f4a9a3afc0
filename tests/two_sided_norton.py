"""Reference for Norton's test: the two-sided enumeration.

norton_attempt is meataxe._norton_attempt as it was before Norton's lemma
cut the dual side short: when the nullity of g(theta) exceeds deg g and
q^nullity is within the enumeration bound, it spins every projective point
of ker g(theta) and then every projective point of ker g(theta)^T.  The
engine spins only the first dual vector after a full primal enumeration;
the tests require the same status, transcript and witness from both.
"""

from irredcert import meataxe, polys
from irredcert.matrices import kernel_basis, poly_at_matrix


def norton_attempt(rep, tgens, spun, theta, g, rec, rng):
    """Norton's test for one irreducible factor g of char_poly(theta),
    enumerating both projective kernels; the signature and return value of
    meataxe._norton_attempt.  It transposes the generators itself and
    ignores the run's sets of lines that spun full."""
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

    q = getattr(K, "order", None)
    if nullity == degg:
        kind = "spin"
    elif q is not None and q ** nullity <= meataxe.ENUM_BOUND:
        kind = "enumeration"
    else:
        kind = "probe"
    vectors = meataxe._kernel_vectors(K, kind, ker)
    if kind == "probe" and len(ker) > 1:
        combos = [meataxe._combination(
            K, [meataxe._random_scalar(K, rng) for _ in ker], ker)
            for _ in range(4)]
        vectors = ker + [v for v in combos if any(not K.is_zero(a) for a in v)]
    for v in vectors:
        rows = meataxe.spin(K, gens, v)
        if len(rows) < d:
            events.append("primal_%s_proper:%d" % (kind, len(rows)))
            return meataxe.REDUCIBLE, rows
    if kind != "probe":
        events.append("primal_%s_full" % (kind,))

    tgens = [m.transpose() for m in gens]
    for u in meataxe._kernel_vectors(K, kind, kernel_basis(N.transpose())):
        drows = meataxe.spin(K, tgens, u)
        if len(drows) < d:
            events.append("dual_%s_proper:%d" % (kind, len(drows)))
            return meataxe.REDUCIBLE, meataxe._perp_witness(K, drows)
    if kind == "probe":
        events.append("undecided_high_multiplicity")
        return None
    events.append("dual_%s_full" % (kind,))
    return meataxe.IRREDUCIBLE, None
