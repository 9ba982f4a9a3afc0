"""G-stable free lattices, prime ideals of Z and Z[t], and reduction.

A full-rank free lattice L = B * R^d inside K^d, K = frac(R), is given by
its d x d basis matrix B over K.  Over Z it has a canonical basis: write
B = H / D with D the least positive common denominator and H the
column-style HNF of D*B, normalized so gcd(content(H), D) = 1; two bases
span the same lattice iff their canonical forms coincide.

A PrimeSpec names a prime of the base ring from the supported menu:

    (0)        the zero ideal             residue field  frac(R)
    (p)        p prime, ring Z            residue field  F_p
    (t-c)      c integer, ring Z[t]       residue field  Q
    (p, t-c)   maximal ideal of Z[t]      residue field  F_p

The principal primes (p) of Z[t] are deliberately not offered: reducing at
(p, t-c) reaches a finite field in one step, with the localization still a
regular local ring, so nothing is gained by stopping at F_p(t).

saturate() finds a G-stable lattice for a representation over Q or Q(t)
and returns its basis and the integral model, the action rewritten over Z
or Z[t] in that basis; reduce_rep() applies the residue map of a PrimeSpec
entrywise to an integral model; lift_witness() lifts an invariant subspace
of a reduction mod p back to one over Q, p-adically and by rational
reconstruction, taking a particular solution per digit when the lift is not
unique.

The saturation's Z-lattice chain runs on plain ints, a lattice held as its
canonical pair (H, D) and a matrix as integer rows over a denominator: a
round tests each image for membership by forward substitution against the
triangular H, and only the images that leave the lattice enter an integer
HNF.  The round where none leaves confirms the lattice, and its quotients
are the integral model H^-1 g H.  The Q(t) case runs on Z[t] numerators
over one denominator (matrices.poly_rows) and their products at t = 2^k,
then on the same integer chain.
"""

import math
from fractions import Fraction
from operator import mul

from . import polys
from .errors import BadPrime, BudgetExceeded, IntegralityError, SingularError
from .matrices import (Matrix, _divexact, _pmul, _row_hnf,
                       conjugate_numerators, eliminate_fp,
                       fraction_free_inverse, from_poly_rows, int_product,
                       integer_rows, poly_rows, zt_product)
from .meataxe import _echelon_rows, subspace_is_invariant
from .fpoly import pack, slot_bytes, trim, unpack
from .rings import (ZZ, QQ, PolynomialRingZ, PrimeField, RationalFunctionField,
                    is_prime)
from .reps import Representation, over_fraction_field

class PrimeSpec:
    """A prime ideal of Z or Z[t] from the supported menu, with its residue
    field and entrywise residue map."""

    __slots__ = ("ring", "kind", "p", "c")

    ZERO = "zero"
    INTEGER = "integer"
    LINEAR = "linear"
    MAXIMAL = "maximal"

    def __init__(self, ring, kind, p=None, c=None):
        if kind == self.ZERO:
            if ring not in (ZZ,) and not isinstance(ring, PolynomialRingZ):
                raise BadPrime("the zero prime needs base ring Z or Z[t]")
        elif kind == self.INTEGER:
            if ring != ZZ:
                raise BadPrime("(p) primes live in Z")
            if not is_prime(p):
                raise BadPrime("%r is not prime" % (p,))
        elif kind == self.LINEAR:
            if not isinstance(ring, PolynomialRingZ):
                raise BadPrime("(t-c) primes live in Z[t]")
            c = int(c)
        elif kind == self.MAXIMAL:
            if not isinstance(ring, PolynomialRingZ):
                raise BadPrime("(p, t-c) primes live in Z[t]")
            if not is_prime(p):
                raise BadPrime("%r is not prime" % (p,))
            c = int(c)
        else:
            raise BadPrime("unknown prime kind %r" % (kind,))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeSpec is immutable")

    @classmethod
    def zero(cls, ring):
        return cls(ring, cls.ZERO)

    @classmethod
    def integer(cls, p):
        return cls(ZZ, cls.INTEGER, p=p)

    @classmethod
    def linear(cls, c, ring=None):
        return cls(ring or PolynomialRingZ("t"), cls.LINEAR, c=c)

    @classmethod
    def maximal(cls, p, c, ring=None):
        return cls(ring or PolynomialRingZ("t"), cls.MAXIMAL, p=p, c=c)

    def residue_ring(self):
        if self.kind == self.ZERO:
            return self.ring.fraction_field()
        if self.kind == self.INTEGER or self.kind == self.MAXIMAL:
            return PrimeField(self.p)
        return QQ

    def reduce_scalar(self, a):
        """Apply the residue map to a base-ring element."""
        if self.kind == self.ZERO:
            return self.ring.to_fraction_field(a)
        if self.kind == self.INTEGER:
            return a % self.p
        value = self.ring.evaluate(a, self.c)  # t -> c, an integer
        if self.kind == self.LINEAR:
            return Fraction(value)
        return value % self.p

    def _linear_str(self):
        var = self.ring.var
        return "%s-%d" % (var, self.c) if self.c >= 0 \
            else "%s+%d" % (var, -self.c)

    def __str__(self):
        if self.kind == self.ZERO:
            return "(0)"
        if self.kind == self.INTEGER:
            return "(%d)" % (self.p,)
        if self.kind == self.LINEAR:
            return "(%s)" % (self._linear_str(),)
        return "(%d,%s)" % (self.p, self._linear_str())

    @classmethod
    def parse(cls, text, ring):
        """Inverse of str(): "(0)", "(5)", "(t-3)", "(t+3)", "(2,t-0)"."""
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise BadPrime("prime %r is not parenthesized" % (text,))
        body = s[1:-1].strip()
        parts = [p.strip() for p in body.split(",")]

        def parse_linear(part):
            var = ring.var
            if part == var:
                return 0
            for sep, sign in (("-", 1), ("+", -1)):
                head, mid, tail = part.partition(sep)
                if mid and head.strip() == var:
                    try:
                        return sign * int(tail.strip())
                    except ValueError:
                        break
            raise BadPrime("cannot parse linear prime part %r" % (part,))

        if len(parts) == 1:
            part = parts[0]
            if part == "0":
                return cls.zero(ring)
            try:
                p = int(part)
            except ValueError:
                p = None
            if p is not None:
                if ring == ZZ:
                    return cls.integer(p)
                raise BadPrime("principal primes (p) of Z[t] are not supported; "
                               "use (p, t-c)")
            if not isinstance(ring, PolynomialRingZ):
                raise BadPrime("prime %r needs base ring Z[t]" % (text,))
            return cls.linear(parse_linear(part), ring)
        if len(parts) == 2:
            if not isinstance(ring, PolynomialRingZ):
                raise BadPrime("prime %r needs base ring Z[t]" % (text,))
            return cls.maximal(int(parts[0]), parse_linear(parts[1]), ring)
        raise BadPrime("cannot parse prime %r" % (text,))

    def __eq__(self, other):
        return (isinstance(other, PrimeSpec) and self.ring == other.ring
                and self.kind == other.kind and self.p == other.p
                and self.c == other.c)

    def __hash__(self):
        return hash((self.ring, self.kind, self.p, self.c))

    def __repr__(self):
        return "PrimeSpec(%s of %r)" % (self, self.ring)


# ---------------------------------------------------------------------------
# lattices


def _canonical_pair(columns, den):
    """Canonical pair (H, D) of the lattice span_Z(columns) / den, for integer
    columns and den > 0.  H is the tuple of nonzero columns of the column
    HNF (lower triangular when the span has full rank) and D > 0 with
    gcd(content(H), D) = 1.  The pair is unique for the lattice, so two
    lattices are equal iff their pairs are."""
    rows, r = _row_hnf(columns, len(columns[0]))
    g = den
    for col in rows[:r]:
        if g == 1:
            break
        g = math.gcd(g, *col)
    return tuple(tuple(a // g for a in col) for col in rows[:r]), den // g


def _pair_basis(pair, K):
    """The basis matrix H / D of a full-rank canonical pair, over K = Q or
    Q(t)."""
    h, den = pair
    d = len(h)
    return Matrix._raw(K, d, d, [K.coerce(Fraction(h[j][i], den))
                                 for i in range(d) for j in range(d)])


# ---------------------------------------------------------------------------
# saturation


def _test_images(rows, e, h, failed):
    """Forward substitution with floor quotients, row by row: M H = e H X + R
    with 0 <= R_ij < e H_ii, for m = M / e (the integer rows of M) and a
    lower triangular H (its columns h).  m h_j lies in span_Z(H) iff column
    j of R is 0; each other column goes to failed with e.  Returns X."""
    w = [[sum(map(mul, row, col)) for col in h] for row in rows]
    xs, rs = [], []
    for i, hrow in enumerate(zip(*h)):
        acc = w[i]
        for x, c in zip(xs, hrow):
            if c:
                c *= e
                acc = [a - c * b for a, b in zip(acc, x)]
        p = e * hrow[i]
        xs.append([a // p for a in acc])
        rs.append([a % p for a in acc])
    failed.extend((r, e) for r in zip(*rs) if any(r))
    return xs


def _stable_lattice_z(mats, d, budget, more=None):
    """Run the Z-lattice chain L_0 = Z^d, L_{k+1} = L_k + sum_m m L_k on
    plain ints, for matrices m = M / e over Q as pairs (rows of M, e > 0).
    With L_k = H / D, a round tests each image m h, h a column of H, for
    membership in L_k (_test_images); only those that fail enter the HNF of
    E H and them over D E, E the common denominator, which still gives
    L_{k+1}.  The round where none fails confirms L_k, and its quotients
    are H^-1 m H.  more() returns matrices that keep every lattice those of
    mats keep (their inverses, at determinant +-1): untested in the
    confirming round, they join every round from the first that grows.
    Returns ((H, D), [H^-1 m H as rows per m in mats]) for the first stable
    L_k, or None after budget rounds without one."""
    pair = (tuple(tuple(int(i == j) for i in range(d)) for j in range(d)), 1)
    extra = None
    for _ in range(budget):
        h, den = pair
        failed = []
        models = [_test_images(rows, e, h, failed) for rows, e in mats]
        if not failed:
            return pair, models
        if extra is None:
            extra = list(more()) if more is not None else []
        for rows, e in extra:
            _test_images(rows, e, h, failed)
        E = math.lcm(*(e for _, e in mats + extra))
        cols = [[E * a for a in col] for col in h]
        cols.extend([E // e * a for a in r] for r, e in failed)
        pair = _canonical_pair(cols, den * E)
    return None


def _qt_column_hnf(cols):
    """Column HNF over Q[t] of a list of Fraction-tuple columns; pivots monic,
    entries left of a pivot reduced to lower degree.  Returns the canonical
    nonzero columns, pivot rows first ordering preserved."""
    cols = [list(col) for col in cols]
    nrows = len(cols[0]) if cols else 0
    r = 0
    for i in range(nrows):
        while True:
            nz = [j for j in range(r, len(cols)) if cols[j][i]]
            if not nz:
                piv = None
                break
            if len(nz) == 1:
                piv = nz[0]
                break
            j0 = min(nz, key=lambda j: len(cols[j][i]))
            for j in nz:
                if j == j0:
                    continue
                q, _ = polys.divmod_poly(QQ, cols[j][i], cols[j0][i])
                if q:
                    cols[j] = [polys.sub(QQ, a, polys.mul(QQ, q, b))
                               for a, b in zip(cols[j], cols[j0])]
        if piv is None:
            continue
        cols[r], cols[piv] = cols[piv], cols[r]
        lead = cols[r][i][-1]
        if lead != 1:
            inv = 1 / lead
            cols[r] = [polys.scale(QQ, inv, a) for a in cols[r]]
        for j in range(r):
            q, _ = polys.divmod_poly(QQ, cols[j][i], cols[r][i])
            if q:
                cols[j] = [polys.sub(QQ, a, polys.mul(QQ, q, b))
                           for a, b in zip(cols[j], cols[r])]
        r += 1
    return [tuple(col) for col in cols[:r]]


def _in_qt_span(cols, w):
    """Whether the Z[t] column w lies in the Q[t]-span of the columns cols
    of a full-rank lower triangular Z[t] matrix, by forward substitution
    over Q[t]: False at the first division that leaves a remainder."""
    r = list(w)
    for i, col in enumerate(cols):
        q, rem = polys.divmod_poly(QQ, r[i], tuple(map(Fraction, col[i])))
        if rem:
            return False
        r[i + 1:] = [polys.sub(QQ, v, polys.mul(QQ, q, c))
                     for v, c in zip(r[i + 1:], col[i + 1:])]
    return True


def non_unit_determinant(rep):
    """Why no lattice is stable under rep's group over Q or Q(t), from the
    first generator of determinant other than +-1, or None if there is none."""
    K = rep.ring
    for i, det in enumerate(rep.determinants):
        if det not in (K.one(), K.neg(K.one())):
            return ("generator %d has determinant %s, not ±1, so no lattice "
                    "is stable under the group it generates"
                    % (i, K.format(det)))


def _saturate_qt(rep, budget):
    """Saturation over Q(t), in two stages, on Z[t] numerators over one
    denominator (matrices.poly_rows) and their packed products.

    Stage 1 works over the PID Q[t]: grow the Q[t]-span of the standard basis
    under all generators and inverses, canonicalizing by column HNF over Q[t]
    after clearing a global denominator, until the chain stabilizes.  The
    generators and inverses share one denominator E, so a round is one
    product of [E I; G_1; ...] by the basis numerators A, over E D; its
    images are tested for membership first (_in_qt_span), and only those
    that fail enter the HNF.  The stable basis T conjugates every generator
    into GL_d(Q[t]).

    Stage 2 restores Z-integrality with a constant basis change: the matrices
    T^-1 g T have polynomial entries, and a constant S works iff S^-1 A_j S is
    integral for every coefficient matrix A_j of every T^-1 g T.  So the
    standard Z-lattice is grown under all those coefficient matrices until
    stable, by _stable_lattice_z, whose confirming round gives the model
    X_g = sum_j t^j H^-1 A_j H.  If either chain fails to stabilize the input
    has no reachable integral model and BudgetExceeded propagates.  T^-1 g T
    is matrices.conjugate_numerators, divided in Z[t] by the primitive part
    of the divisor (Gauss's lemma).

    Returns the basis T H / D over Q(t), for the stable pair (H, D) of stage
    2, and the integral model over Z[t].  T is invertible, as stage 1 keeps
    full rank, and when T is constant it is the identity (a constant
    full-rank HNF over Q[t]), so a constant basis is the canonical H / D.
    With constant generators stage 1 stops after one round with T = I, and
    stage 2 is the chain over Q on the same matrices: same basis and model."""
    K = rep.ring
    ZT = PolynomialRingZ(K.var)
    d, n = rep.dim, len(rep.generators)
    gens = list(rep.generators) + [g.inverse() for g in rep.generators]
    stacked, E = poly_rows(Matrix._raw(K, d * len(gens), d,
                                       [a for g in gens for a in g.entries]))
    images = [[E if i == j else () for j in range(d)]
              for i in range(d)] + list(stacked)

    def canonical_qt(columns, den):
        # columns: Z[t] numerators over the Z[t] denominator den; make den
        # monic (a constant factor does not change the Q[t]-span), HNF,
        # then strip the common polynomial content into the denominator
        den = polys.monic(QQ, tuple(Fraction(c) for c in den))
        h = _qt_column_hnf([[tuple(Fraction(c) for c in a) for a in col]
                            for col in columns])
        content = ()
        for col in h:
            for a in col:
                content = polys.gcd_monic(QQ, content, a)
        g = polys.gcd_monic(QQ, content, den)
        if polys.degree(g) > 0:
            h = [tuple(polys.divmod_poly(QQ, a, g)[0] for a in col) for col in h]
            den = polys.divmod_poly(QQ, den, g)[0]
        return tuple(tuple(col) for col in h), tuple(den)

    def basis_rows(h, den):
        # the basis h / den of a canonical Q[t] pair as Z[t] rows over a
        # denominator in Z[t]
        return poly_rows(Matrix._raw(K, d, d, [(h[j][i], den) for i in range(d)
                                               for j in range(d)]))

    ident = [tuple((Fraction(1),) if i == j else () for i in range(d))
             for j in range(d)]
    current = (tuple(ident), (Fraction(1),))
    for _ in range(budget):
        a, den = basis_rows(*current)
        prod = zt_product(images, a)
        cols = [[prod[b + i][j] for i in range(d)]
                for b in range(0, len(prod), d) for j in range(d)]
        # cols[:d] are E A, the basis over E D; as over Q, the inverses'
        # images are tested only in a round where a generator's leave L
        base = cols[:d]
        failed = [w for w in cols[d:d * (n + 1)] if not _in_qt_span(base, w)]
        if not failed:
            break
        failed += [w for w in cols[d * (n + 1):] if not _in_qt_span(base, w)]
        current = canonical_qt(base + failed, _pmul(den, E))
    else:
        raise BudgetExceeded("Q[t]-lattice chain did not stabilize in %d rounds"
                             % (budget,))

    # stage 2: T^-1 g T = x / q = sum_j t^j A_j, each A_j as (integer rows,
    # content of q); the inverses' maps keep what the generators' keep
    maps = []
    for x, q in conjugate_numerators(a, gens):
        content = math.gcd(*q)
        prim = tuple(c // content for c in q)
        x = [[_divexact(v, prim) for v in row] for row in x]
        maps.append([([[v[j] if j < len(v) else 0 for v in row] for row in x],
                      content)
                     for j in range(max(len(v) for row in x for v in row))])
    found = _stable_lattice_z([m for ms in maps[:n] for m in ms], d, budget,
                              lambda: (m for ms in maps[n:] for m in ms))
    if found is None:
        raise BudgetExceeded("coefficient lattice did not stabilize in %d "
                             "rounds; no Z[t]-integral model with a constant "
                             "basis change was found" % (budget,))

    # the model from the confirming round, and B = T H / D_H for the stable
    # pair (H, D_H): numerators A H over den D_H
    (h, den_h), models = found
    models = iter(models)
    ints = [Matrix._raw(ZT, d, d, [tuple(trim(list(v))) for rows in zip(*xs)
                                   for v in zip(*rows)])
            for xs in ([next(models) for _ in ms] for ms in maps[:n])]
    a = zt_product(a, [[(h[j][i],) if h[j][i] else () for j in range(d)]
                       for i in range(d)])
    int_rep = Representation(ZT, ints, rep.relations, label=rep.label,
                             determinants=map(ZT.from_fraction_field,
                                              rep.determinants))
    return from_poly_rows(K, a, tuple(den_h * c for c in den)), int_rep


def saturate(rep, budget=64):
    """Find a G-stable free lattice for a representation over Q or Q(t).

    Returns (basis, int_rep): basis is the d x d matrix over the field whose
    columns span the lattice, and int_rep acts integrally (over Z or Z[t])
    in that basis and is conjugate to rep over the field.  A generator of
    determinant other than +-1 stabilizes no lattice that its inverse does,
    and raises IntegralityError with the reason of non_unit_determinant.
    Otherwise the chain L + sum_g gL, g over the generators and inverses,
    grows from the standard lattice; for a finite matrix group it
    stabilizes within the orbit length, and the budget (default 64 rounds)
    converts divergence into BudgetExceeded (docs/background.md).  int_rep
    is read off the round that confirms the lattice (_stable_lattice_z).
    Over Q(t), whatever the entries, _saturate_qt runs it."""
    K = rep.ring
    if K == ZZ or isinstance(K, PolynomialRingZ):
        return saturate(over_fraction_field(rep), budget)
    if K != QQ and not isinstance(K, RationalFunctionField):
        raise ValueError("saturate expects a representation over Q or Q(t)")
    reason = non_unit_determinant(rep)
    if reason is not None:
        raise IntegralityError(reason)
    if K != QQ:
        return _saturate_qt(rep, budget)
    # with det g = +-1, [L : gL] = 1, so gL in L forces gL = L and
    # g^-1 L = L: the confirming round tests the generators alone, and the
    # inverses, g^-1 = e R / c for g = G / e and G R = c I, join the rounds
    # that grow (docs/background.md)
    gens = [integer_rows(g) for g in rep.generators]

    def inverses():
        for rows, e in gens:
            r, c = fraction_free_inverse(rows)
            s = c // abs(c) * math.gcd(c, *(e * a for row in r for a in row))
            yield [[e * a // s for a in row] for row in r], c // s

    found = _stable_lattice_z(gens, rep.dim, budget, inverses)
    if found is None:
        raise BudgetExceeded(
            "lattice chain did not stabilize in %d rounds: the group "
            "stabilizes no lattice, or the chain reaches one only after more "
            "rounds" % (budget,))
    pair, models = found
    ints = [Matrix._raw(ZZ, rep.dim, rep.dim, [a for row in x for a in row])
            for x in models]
    return (_pair_basis(pair, K),
            Representation(ZZ, ints, rep.relations, label=rep.label,
                           determinants=map(ZZ.from_fraction_field,
                                            rep.determinants)))


def reduce_rep(int_rep, prime):
    """Reduce an integral model modulo a PrimeSpec.

    int_rep must be over the prime's base ring R, as saturate returns it.
    The zero prime returns the representation over frac(R).  BadPrime is
    raised when some generator determinant dies in the residue field."""
    R = prime.ring
    if int_rep.ring != R:
        raise ValueError("reduce_rep needs a representation over %r" % (R,))
    mats = int_rep.generators
    k = prime.residue_ring()
    # the residue map is a ring map: it reduces the determinants too
    dets = [prime.reduce_scalar(a) for a in int_rep.determinants]
    if prime.kind == PrimeSpec.ZERO:
        return Representation(k, [m.to_fraction_field() for m in mats],
                              int_rep.relations, label=int_rep.label,
                              determinants=dets)
    reduced = [m.map_entries(prime.reduce_scalar, k) for m in mats]
    label = "%s mod %s" % (int_rep.label, prime) if int_rep.label else ""
    try:
        return Representation(k, reduced, int_rep.relations, label=label,
                              determinants=dets)
    except SingularError:
        # the only check of Representation that raises it is on the
        # generator determinants, made before the relations are evaluated
        raise BadPrime("generator determinant vanishes at %s"
                       % (prime,)) from None


# ---------------------------------------------------------------------------
# lifting a reduction's witness to Q

# a witness is lifted p-adically while p^N stays within this many bits; a
# lift with no candidate holding by then gives up, and the run goes on to
# the next prime
LIFT_BITS = 256


def _rational(x, m, bound):
    """The fraction a/b with |a| <= bound, 0 < b <= bound and a = b x mod m,
    or None: Wang's rational reconstruction, by the extended Euclidean
    algorithm on (m, x) stopped at the first remainder within the bound."""
    r0, r1, s0, s1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _sylvester_solver(actions, p):
    """The solver mod p of the stacked Sylvester system L_g(H) = -C_g, for
    L_g(H) = Q_g H - H Z_g over the pairs (Q_g, Z_g) of integer matrices,
    m x m and k x k.

    The n = m k unknowns are the entries of H (m x k), the equations the
    entries of every C_g.  One packed elimination of the transposed system
    next to the identity, [M^T | I], gives n rows [R | S].  The r rows with
    a pivot among the equations are kept: R is then the reduced echelon
    basis of the image of M, with pivots at r equations P, and S M_P^T = I.
    The other rows have R = 0, and their S spans the kernel of M, which is
    Hom_G(W, V/W) in lift_witness; they are dropped.  For c = -vec(C), the
    sum of c_P times the kept rows is [c_P R | S^T c_P]: c lies in the
    image exactly when c_P R = c, and then H = S^T c_P solves M H = c, the
    one solution when r = n and a particular one otherwise.  So one packed
    sum both checks a digit and solves it; the solver returns H, or None
    when C is outside the image."""
    m, k = len(actions[0][0]), len(actions[0][1])
    n = m * k
    neq = len(actions) * n
    flat = []
    for j in range(m):
        for i in range(k):
            # the column of unknown (j, i): L_g(e_j e_i^T) for every g
            row = [0] * (neq + n)
            for base, (q, z) in zip(range(0, neq, n), actions):
                for a in range(m):
                    row[base + a * k + i] = q[a][j]
                for b, c in enumerate(z[i]):
                    row[base + j * k + b] -= c
            row[neq + j * k + i] = 1
            flat += [a % p for a in row]
    nb = slot_bytes(p, n)
    rows = pack(flat, nb, p, neq + n)
    pivots, _ = eliminate_fp(rows, neq + n, nb, p)
    rank = sum(c < neq for c in pivots)
    pivots = pivots[:rank]
    rows = pack(unpack(rows[:rank], neq + n, nb, p), nb, p, neq + n)

    def solve(cs):
        c = [a % p for cg in cs for row in cg for a in row]
        w = unpack([sum((p - c[e]) % p * r for e, r in zip(pivots, rows))
                    + pack(c, nb, p)], neq + n, nb, p)
        if any(w[:neq]):
            return None
        return [w[neq + j * k:neq + (j + 1) * k] for j in range(m)]
    return solve


def _combine(*terms):
    """sum c x over pairs (c, x) of an int and an integer matrix as rows."""
    cs = [c for c, _ in terms]
    return [[sum(map(mul, cs, xs)) for xs in zip(*rows)]
            for rows in zip(*(x for _, x in terms))]


def lift_witness(field_rep, basis, int_rep, p, witness):
    """Lift an invariant subspace of the reduction mod p of an integral
    model over Z to one over Q, or None.

    witness holds the reduced echelon rows over F_p of W, an invariant
    subspace of int_rep mod p.  With the pivot coordinates first, W is the
    span of the columns of [I; Y0], and [I; Y] spans a g-invariant subspace
    exactly when Y solves the Riccati equation
        F_g(Y) = g21 + g22 Y - Y g11 - Y g12 Y = 0
    for g = [[g11, g12], [g21, g22]] in those blocks.  In the basis [I; Y]
    and the complement, g has the blocks [[Z_g, g12], [F_g(Y), Q_g]], with
    Z_g = g11 + g12 Y its action on W and Q_g = g22 - Y g12 that on V/W.
    The linearization of F_g at Y is the Sylvester map L_g(H) = Q_g H -
    H Z_g, and the lift runs digit by digit (Dixon, Numer. Math. 40, 1982):
    Y_(N+1) = Y_N + p^N H with L_g(H) = -F_g(Y_N) / p^N mod p, from the one
    elimination of _sylvester_solver at Y0.  The map is injective on all g
    together mod p exactly when Hom_G(W, V/W) = 0 mod p, and then W has at
    most one p-adic lift; otherwise each digit takes the solver's
    particular solution, one lift among many, which may fail where another
    would not.  Z_g and F_g(Y_N) / p^N are carried exactly from digit to
    digit, so that a digit costs four products with H per generator.  At
    N = 2, 4, 8, ... the entries of Y are reconstructed over Q (_rational),
    and the candidate is moved to field coordinates by the lattice basis and
    checked by meataxe.subspace_is_invariant, as the checker does.

    Returns (N, rows): the digits lifted and the canonical echelon rows over
    Q of the first candidate that holds.  None when a digit has no solution
    (Y_N has no lift to Z/p^(N+1)), or when p^N would pass 2^LIFT_BITS: a
    refused lift proves nothing either way."""
    d, k = int_rep.dim, len(witness)
    piv = [next(i for i, a in enumerate(row) if a) for row in witness]
    perm = piv + [i for i in range(d) if i not in piv]
    y = [[row[j] for row in witness] for j in perm[k:]]
    carried = []        # per generator [g12, g22, Z_g, F_g(Y) / p^N]
    actions = []        # per generator (Q_g, Z_g) at Y0
    ycols = list(zip(*y))
    for g in int_rep.generators:
        e = g.entries
        top, bottom = ([e[r * d:r * d + d] for r in rows]
                       for rows in (perm[:k], perm[k:]))
        g11, g12, g21, g22 = ([[r[c] for c in cols] for r in rows]
                              for rows in (top, bottom)
                              for cols in (perm[:k], perm[k:]))
        z = [[a + sum(map(mul, r12, c)) for a, c in zip(r11, ycols)]
             for r11, r12 in zip(g11, g12)]
        zcols = list(zip(*z))
        f = [[a + sum(map(mul, r22, c)) - sum(map(mul, ry, cz))
              for a, c, cz in zip(r21, ycols, zcols)]
             for r21, r22, ry in zip(g21, g22, y)]
        if any(a % p for row in f for a in row):
            return None
        q = [[a - sum(map(mul, ry, c)) for a, c in zip(r22, zip(*g12))]
             for r22, ry in zip(g22, y)]
        actions.append((q, z))
        carried.append([g12, g22, z, [[a // p for a in row] for row in f]])
    solve = _sylvester_solver(actions, p)
    K, gens, b = field_rep.ring, field_rep.generators, basis.rows()
    digits, pn = 1, p
    while True:
        h = solve([c[3] for c in carried])
        if h is None:
            return None
        y = _combine((1, y), (pn, h))
        # F(Y + p^N H) / p^N = F(Y) / p^N + g22 H - (Y + p^N H) g12 H - H Z
        for c in carried:
            g12, g22, z, f = c
            g12h = int_product(g12, h)
            f = _combine((1, f), (1, int_product(g22, h)),
                         (-1, int_product(y, g12h)), (-1, int_product(h, z)))
            c[2:] = (_combine((1, z), (pn, g12h)),
                     [[a // p for a in row] for row in f])
        digits, pn = digits + 1, pn * p
        if digits & (digits - 1):
            continue
        bound = math.isqrt(pn // 2)
        cand = [[_rational(a, pn, bound) for a in row] for row in y]
        if all(a is not None for row in cand for a in row):
            vecs = [[r[perm[i]] + sum(c[i] * r[j] for c, j
                                      in zip(cand, perm[k:]))
                     for r in b] for i in range(k)]
            rows = _echelon_rows(K, vecs)
            if subspace_is_invariant(K, gens, rows):
                return digits, rows
        if (pn * pn).bit_length() > LIFT_BITS:
            return None
