"""meataxe.hom_dim against the stacked reference system (hom_system.py).

hom_dim spins A from a few seed unit vectors and carries their images, on
packed vectors over F_p and over F_q by restriction of scalars to F_p;
the reference solves X a_j = rho_j X in all dim M * dim A unknowns with
descriptor arithmetic over the field itself.  The cases are pairs of
modules for the same generators, built from seeded random blocks over
F_2, F_3, F_101, F_4, F_8 and F_9: a 0-dimensional A, A = M,
dim A != dim M, direct sums, extensions, conjugates of them by small
integer matrices, and modules that need several seeds.  The modules that
cohomology_dims hands to hom_dim (F, the augmentation ideal and the
relation module) are checked the same way.  Over Q and Q(t) hom_dim
raises ValueError.
"""

import random

import pytest

from irredcert import cohomology
from irredcert.cohomology import close_group, cohomology_dims
from irredcert.matrices import Matrix
from irredcert.meataxe import _grow, endo_dim, hom_dim
from irredcert.reps import Representation, adjoint_rep
from irredcert.rings import (QQ, ExtensionField, PrimeField,
                             RationalFunctionField)

from hom_system import stacked_hom_dim

FIELDS = {
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F101": PrimeField(101),
    "F4": ExtensionField(2, (1, 1, 1)),
    "F9": ExtensionField(3, (1, 0, 1)),
    "F8": ExtensionField(2, (1, 1, 0, 1)),
}

NGENS = 2


def scalar(K, rng):
    if isinstance(K, PrimeField):
        return rng.randrange(K.p)
    return K.coerce(tuple(rng.randrange(K.p) for _ in range(K.k)))


def block(K, rng, d):
    """A random module of dimension d: NGENS random d x d matrices."""
    return [Matrix(K, [[scalar(K, rng) for _ in range(d)] for _ in range(d)])
            for _ in range(NGENS)]


def trivial(K, d):
    return [Matrix.identity(K, d)] * NGENS


def zero_module(K):
    return [Matrix(K, [])] * NGENS


def upper(K, x, c, y):
    """The block matrix [[x, c], [0, y]]."""
    n, m = x.nrows, y.nrows
    z = K.zero()
    rows = [list(x.row(i)) + list(c[i]) for i in range(n)]
    rows += [[z] * n + list(y.row(i)) for i in range(m)]
    return Matrix(K, rows)


def dsum(K, xs, ys):
    """The direct sum of two modules."""
    zero = [[K.zero()] * ys[0].nrows for _ in range(xs[0].nrows)]
    return [upper(K, x, zero, y) for x, y in zip(xs, ys)]


def extension(K, rng, xs, ys):
    """An extension with submodule xs and quotient ys, by random
    off-diagonal blocks."""
    return [upper(K, x, [[scalar(K, rng) for _ in range(y.nrows)]
                         for _ in range(x.nrows)], y)
            for x, y in zip(xs, ys)]


def conjugate(K, rng, xs):
    """P x P^-1 for one random invertible P with small integer entries."""
    d = xs[0].nrows
    while True:
        c = Matrix(K, [[K.coerce(rng.randint(-2, 2)) for _ in range(d)]
                       for _ in range(d)])
        if not K.is_zero(c.det()):
            break
    ci = c.inverse()
    return [c * x * ci for x in xs]


def module_pairs(K, rng):
    """(name, A, M) for the shapes named in the module docstring."""
    b1, b2, c2 = block(K, rng, 1), block(K, rng, 2), block(K, rng, 2)
    b12 = dsum(K, b1, b2)
    e12 = extension(K, rng, b1, b2)
    return [
        ("A zero", zero_module(K), b2),
        ("A zero, M trivial", zero_module(K), trivial(K, 3)),
        ("A = M", b2, b2),
        ("A = M, a sum", b12, b12),
        ("A = M, an extension", e12, e12),
        ("A smaller", b2, b12),
        ("A larger", b12, b2),
        ("A unrelated", b2, c2),
        ("A a sum of two copies", dsum(K, b2, b2), b2),
        ("M a sum of two copies", b2, dsum(K, b2, b2)),
        ("A a sum, conjugated", conjugate(K, rng, b12), dsum(K, b2, b1)),
        ("both conjugated", conjugate(K, rng, dsum(K, b2, b2)),
         conjugate(K, rng, b2)),
        ("A an extension, M its quotient", e12, b2),
        ("A a quotient, M the extension", b2, e12),
        ("A the extension, M its submodule", e12, b1),
        ("three seeds", trivial(K, 3), trivial(K, 2)),
        ("three seeds, conjugated", conjugate(K, rng, trivial(K, 3)), b12),
        ("sum of three", dsum(K, dsum(K, b1, b2), b1), b12),
    ]


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("seed", [1, 2])
def test_hom_dim_matches_stacked_system(field, seed):
    K = FIELDS[field]
    rng = random.Random("%s-%d" % (field, seed))
    for name, src, dst in module_pairs(K, rng):
        assert hom_dim(K, src, dst) == stacked_hom_dim(K, src, dst), name


@pytest.mark.parametrize("field", list(FIELDS))
def test_known_dimensions(field):
    K = FIELDS[field]
    rng = random.Random(field)
    b2 = block(K, rng, 2)
    assert hom_dim(K, zero_module(K), b2) == 0
    # the identity action: every unit vector of A is a seed of its own
    assert hom_dim(K, trivial(K, 3), trivial(K, 2)) == 6
    assert hom_dim(K, trivial(K, 2), trivial(K, 3)) == 6
    rep = Representation(K, trivial(K, 2), [])
    assert endo_dim(rep) == 4


@pytest.mark.parametrize("K", [QQ, RationalFunctionField("t")],
                         ids=["Q", "Q(t)"])
def test_infinite_fields_raise(K):
    with pytest.raises(ValueError, match="finite field"):
        hom_dim(K, trivial(K, 2), trivial(K, 3))
    with pytest.raises(ValueError, match="finite field"):
        endo_dim(Representation(K, trivial(K, 2), []))


def test_generator_counts_must_match():
    """One matrix per generator on each side: a missing one is an error,
    not a silently smaller group."""
    K = FIELDS["F3"]
    rng = random.Random("F3")
    src, dst = block(K, rng, 2), block(K, rng, 2)
    with pytest.raises(ValueError, match="target generators"):
        hom_dim(K, src[:1], dst)
    with pytest.raises(ValueError, match="target generators"):
        hom_dim(K, src, dst[:1])


def small_group(K, gens):
    return Representation(K, [Matrix(K, g) for g in gens])


def seed_count(K, mats):
    """The number of seeds hom_dim spins A from: the unit vectors, in
    order, that the spin of the earlier seeds does not reach."""
    a = mats[0].nrows
    seeds, dim = [], 0
    for t in range(a):
        unit = [K.one() if i == t else K.zero() for i in range(a)]
        grown = len(_grow(K, mats, seeds + [unit], a)[0])
        if grown > dim:
            seeds.append(unit)
            dim = grown
    return len(seeds)


@pytest.mark.parametrize("K, gens", [
    (PrimeField(2), [[[-1]]]),                                  # order 1
    (PrimeField(2), [[[0, -1], [1, -1]], [[0, 1], [1, 0]]]),    # S3
    (PrimeField(3), [[[0, -1], [1, -1]], [[0, 1], [1, 0]]]),
    (PrimeField(3), [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]),    # D4
    (PrimeField(5), [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]),
    (ExtensionField(2, (1, 1, 1)), [[[0, -1], [1, 0]]]),        # C4 on F_4
    (ExtensionField(3, (1, 0, 1)), [[[0, -1], [1, -1]]]),       # C3 on F_9
], ids=["C2-F2", "S3-F2", "S3-F3", "D4-F3", "D4-F5", "C4-F4", "C3-F9"])
def test_cohomology_modules_match_stacked_system(monkeypatch, K, gens):
    """Each hom_dim that cohomology_dims makes, on F, the augmentation
    ideal and the relation module of the adjoint, agrees with the stacked
    system.  Over F_q these are F_p modules, on the restriction of the
    adjoint.  With two generators and more than one element, the relation
    module needs several seeds."""
    rep = small_group(K, gens)
    table, module = close_group(rep), adjoint_rep(rep)
    sources = []

    def checked(F, src, dst):
        got = hom_dim(F, src, dst)
        assert got == stacked_hom_dim(F, src, dst)
        assert F == PrimeField(K.p)
        sources.append((F, src))
        return got

    monkeypatch.setattr(cohomology, "hom_dim", checked)
    cohomology_dims(table, module)
    n, k = table.order, len(gens)
    assert [src[0].nrows for _, src in sources] \
        == [1, n - 1, n * (k - 1) + 1]
    if n > 1 and k > 1:
        assert seed_count(*sources[2]) > 1
