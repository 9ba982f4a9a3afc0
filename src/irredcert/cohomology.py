"""Group cohomology of finite matrix groups and the obstruction report.

A representation over a finite field generates a finite matrix group; close
it into a multiplication table, then compute H^0, H^1, H^2 with coefficients
in any module for the same generators by dimension shifting along the start
of the free resolution of the trivial module F over FG,

    FG^k --d--> FG --eps--> F --> 0,    d(h e_i) = h g_i - h,

where g_1, ..., g_k are the generators and eps sums the coefficients.  The
image of d is the augmentation ideal I = ker eps, since the g_i generate G;
let R = ker d.  FG is free, so Ext^q(FG, M) = 0 for q >= 1, and the long
exact Ext sequences of 0 -> I -> FG -> F -> 0 and 0 -> R -> FG^k -> I -> 0
give, with h(A) = dim Hom_G(A, M) and m = dim M,

    d0 = h(F),    d1 = h(I) - m + d0,    d2 = h(R) - k m + h(I).

I and R are submodules of permutation modules; their generator matrices are
read off the echelon kernel basis.  Every h(A) comes from meataxe.hom_dim,
which spins A from a few seed vectors and carries their images, so its
unknowns are the m entries of each seed's image (27 for B3's I on its
9-dimensional adjoint, 45 for its R) rather than the m dim A entries of a
whole homomorphism (Brown, "Cohomology of Groups", III.5-6).  Over
F_q = F_p(alpha), q = p^k, I and R are defined over F_p, and H^i(G, Res M)
is H^i(G, M) seen as an F_p-space, so the whole computation runs over F_p
on the restriction of scalars of M and divides each dimension by k.

The obstruction report packages the deformation-theoretic numbers for the
adjoint module: d_i = dim H^i(G, ad), the commutant dimension, the
unobstructedness verdict (d_2 = 0), the power-series shape of the universal
deformation ring it predicts, and, when the input is irreducible with scalar
commutant, the flag that the universal deformation stays irreducible.
"""

from .errors import GroupTooLarge
from .matrices import Matrix, kernel_basis, restrict_scalars
from .meataxe import INCONCLUSIVE, IRREDUCIBLE, hom_dim, is_irreducible
from .reps import Representation, adjoint_rep
from .rings import ExtensionField, PrimeField

# close_group tabulates groups of at most this order
GROUP_BOUND = 64


class FiniteGroupTable:
    """A finite matrix group as a lookup structure, holding what the
    cohomology reads: elements in BFS order from the identity, the
    multiplication table, and the index of each generator."""

    __slots__ = ("elements", "mult", "gen_indices")

    def __init__(self, elements, mult, gen_indices):
        self.elements = tuple(elements)
        self.mult = tuple(tuple(row) for row in mult)
        self.gen_indices = tuple(gen_indices)

    @property
    def order(self):
        return len(self.elements)

    def __repr__(self):
        return "FiniteGroupTable(order %d, %d generators)" \
            % (self.order, len(self.gen_indices))


def close_group(rep):
    """BFS closure of the matrix group generated by rep's generators.

    The closure meets e g for every element e and generator g, and the
    multiplication table follows from those products alone: element j is
    first met as e g, for its parent e and its last generator g, so
    x j = (x e) g.

    Raises GroupTooLarge past GROUP_BOUND elements."""
    K = rep.ring
    if not isinstance(K, (PrimeField, ExtensionField)):
        raise ValueError("group closure needs a finite field (infinite "
                         "matrix groups are not tabulated)")
    ident = Matrix.identity(K, rep.dim)
    elements = [ident]
    index = {ident: 0}
    parent, last = [None], [None]
    right = []          # right[x][gi]: the index of element x times g_gi
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            e = elements[ei]
            right.append([])
            for gi, g in enumerate(rep.generators):
                f = e * g
                if f not in index:
                    if len(elements) >= GROUP_BOUND:
                        raise GroupTooLarge("group closure exceeded %d "
                                            "elements" % (GROUP_BOUND,))
                    index[f] = len(elements)
                    elements.append(f)
                    parent.append(ei)
                    last.append(gi)
                    nxt.append(index[f])
                right[ei].append(index[f])
        frontier = nxt
    n = len(elements)
    mult = []
    for i in range(n):
        row = [i]
        for j in range(1, n):
            row.append(right[row[parent[j]]][last[j]])
        mult.append(row)
    gen_indices = [index[g] for g in rep.generators]
    return FiniteGroupTable(elements, mult, gen_indices)


def module_action(table, module):
    """Action matrix of every table element on the module, built along the
    table's BFS tree: the elements are numbered in the order the closure
    first reached them, each as e g for an earlier element e, so the first
    (element, generator) pair to reach an element gives its matrix.

    Multiplicativity is verified on every other pair; by induction along
    the BFS words that forces it on all pairs, so a module whose
    generators do not satisfy the group's relations is rejected."""
    if len(module.generators) != len(table.gen_indices):
        raise ValueError("module and table have different generator counts")
    acts = [None] * table.order
    acts[0] = Matrix.identity(module.ring, module.dim)
    for i in range(table.order):
        for slot, gelem in enumerate(table.gen_indices):
            prod = acts[i] * module.generators[slot]
            j = table.mult[i][gelem]
            if acts[j] is None:
                acts[j] = prod
            elif acts[j] != prod:
                raise ValueError(
                    "module generators do not satisfy the group's relations "
                    "(action is not well defined)")
    return acts


# ---------------------------------------------------------------------------
# cohomology by dimension shifting


def _kernel_action(K, boundary, perms):
    """Generator matrices on ker(boundary) inside a permutation module.

    perms[j][x] is the coordinate that generator j sends coordinate x to,
    and boundary must commute with that action.  The kernel_basis vector of
    a free column f is 1 at f and 0 at the other free columns, and f is its
    last nonzero coordinate; so the coordinates of a kernel vector in that
    basis are its entries at the free columns, and (g v)[f] = v[g^-1 f]."""
    basis = kernel_basis(boundary)
    free = [next(x for x in range(len(v) - 1, -1, -1) if not K.is_zero(v[x]))
            for v in basis]
    mats = []
    for perm in perms:
        back = [0] * len(perm)
        for x, y in enumerate(perm):
            back[y] = x
        mats.append(Matrix._raw(K, len(free), len(free),
                                [v[back[f]] for f in free for v in basis]))
    return mats


def cohomology_dims(table, module):
    """(dim H^0, dim H^1, dim H^2) of the module over the table group; over
    F_q, those of its restriction to F_p divided by k."""
    K = module.ring
    if not K.is_field:
        raise ValueError("cohomology needs field coefficients")
    if isinstance(K, ExtensionField):
        # H^i(G, Res M) is H^i(G, M) as an F_p-space, k times as large
        res = Representation(PrimeField(K.p),
                             [restrict_scalars(g) for g in module.generators])
        return tuple(d // K.k for d in cohomology_dims(table, res))
    module_action(table, module)        # rejects a module G does not act on
    n, k, m = table.order, len(table.gen_indices), module.dim
    rho = module.generators
    left = [table.mult[g] for g in table.gen_indices]      # h -> g_j h
    aug_ideal = _kernel_action(K, Matrix(K, [[1] * n]), left)
    # d: FG^k -> FG with h e_i at coordinate i n + h
    d = [[0] * (n * k) for _ in range(n)]
    for i, g in enumerate(table.gen_indices):
        for h in range(n):
            d[table.mult[h][g]][i * n + h] += 1
            d[h][i * n + h] -= 1
    relations = _kernel_action(
        K, Matrix(K, d),
        [[i * n + p[h] for i in range(k) for h in range(n)] for p in left])
    d0 = hom_dim(K, [Matrix.identity(K, 1)] * k, rho)
    h_i = hom_dim(K, aug_ideal, rho)
    h_r = hom_dim(K, relations, rho)
    return d0, h_i - m + d0, h_r - k * m + h_i


# ---------------------------------------------------------------------------
# obstruction report


class ObstructionReport:
    """Deformation-theoretic obstruction data of a mod-p representation.

    unobstructed means dim H^2(G, ad) = 0; in that case the universal
    deformation ring is the power series ring in d1 variables over the
    coefficient ring, reported syntactically in predicted_ring (only when
    the commutant is scalar, so the deformation functor is representable
    in the straightforward way).  universal_deformation_irreducible is True
    when irreducibility, scalar commutant, and d2 = 0 are all verified; None
    when the irreducibility test was inconclusive; False otherwise (meaning
    not established by this criterion, not a disproof)."""

    __slots__ = ("group_order", "d0", "d1", "d2", "schur_dim", "unobstructed",
                 "predicted_ring", "universal_deformation_irreducible",
                 "meataxe_status")

    def __init__(self, group_order, dims, schur_dim, meataxe_status):
        d0, d1, d2 = dims
        self.group_order = group_order
        self.d0 = d0
        self.d1 = d1
        self.d2 = d2
        self.schur_dim = schur_dim
        self.unobstructed = (d2 == 0)
        self.meataxe_status = meataxe_status
        if self.unobstructed and schur_dim == 1:
            if d1 == 0:
                self.predicted_ring = "Lambda"
            elif d1 == 1:
                self.predicted_ring = "Lambda[[x_1]]"
            else:
                self.predicted_ring = "Lambda[[x_1,...,x_%d]]" % (d1,)
        else:
            self.predicted_ring = None
        if meataxe_status == INCONCLUSIVE:
            self.universal_deformation_irreducible = None
        else:
            self.universal_deformation_irreducible = (
                meataxe_status == IRREDUCIBLE and schur_dim == 1
                and self.unobstructed)

    def to_json(self):
        return {
            "group_order": self.group_order,
            "d0": self.d0,
            "d1": self.d1,
            "d2": self.d2,
            "schur_dim": self.schur_dim,
            "unobstructed": self.unobstructed,
            "predicted_ring": self.predicted_ring,
            "universal_deformation_irreducible":
                self.universal_deformation_irreducible,
            "meataxe_status": self.meataxe_status,
        }

    def __repr__(self):
        return ("ObstructionReport(|G|=%d, d=(%d,%d,%d), schur=%d, "
                "unobstructed=%s)" % (self.group_order, self.d0, self.d1,
                                      self.d2, self.schur_dim,
                                      self.unobstructed))


def obstruction_report(rep, seed=0, budget=200):
    """Close the group, compute (d0, d1, d2) for the adjoint module, the
    commutant dimension, and the flags of the report.  The adjoint module
    is all of End(V) under conjugation, so H^0(G, End V) = End_G(V) and the
    commutant dimension is d0."""
    table = close_group(rep)
    dims = cohomology_dims(table, adjoint_rep(rep))
    verdict = is_irreducible(rep, seed=seed, budget=budget)
    return ObstructionReport(table.order, dims, dims[0], verdict.status)
