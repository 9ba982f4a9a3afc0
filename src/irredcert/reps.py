"""Representations of finitely generated groups by matrix generators.

A Representation packages a dimension, a ring descriptor, a nonempty list of
invertible generator matrices, and optional defining relations (words that
must evaluate to the identity; they are verified at construction and are
otherwise advisory, since irreducibility only depends on the matrices).

A Word is a tuple of (generator index, exponent) pairs with exponents +-1.
`evaluate` multiplies the corresponding matrices, inverting a generator
only for a -1 letter (a Representation stores no inverses; it checks the
determinants); over a non-field ring the product of inverses may leave the
ring, in which case the result is returned over the fraction field instead.

The JSON file format for representations is documented in docs/formats.md.
"""

import json

from .errors import IntegralityError, ShapeError, SingularError
from .matrices import Matrix, kronecker
from .rings import PrimeField, json_int, ring_from_json


def normalize_word(word):
    """Validate and normalize a word into ((index, exp), ...) with exp +-1."""
    out = []
    for item in word:
        try:
            idx, exp = map(json_int, item)
        except (TypeError, ValueError):
            raise ValueError("word letter %r is not a pair [index, +-1]"
                             % (item,)) from None
        if exp not in (1, -1):
            raise ValueError("word exponents must be +1 or -1, got %r" % (exp,))
        out.append((idx, exp))
    return tuple(out)


class Representation:
    """Immutable: ring, dim, generators (tuple of Matrix), their
    determinants (a tuple over ring), relations, label."""

    __slots__ = ("ring", "dim", "generators", "determinants", "relations",
                 "label")

    def __init__(self, ring, generators, relations=(), label=""):
        if not generators:
            raise ValueError("need at least one generator")
        gens = []
        for g in generators:
            if not isinstance(g, Matrix):
                g = Matrix(ring, g)
            if g.ring != ring:
                g = g.change_ring(ring)
            if g.nrows != g.ncols:
                raise ShapeError("generators must be square")
            gens.append(g)
        dim = gens[0].nrows
        if any(g.nrows != dim for g in gens):
            raise ShapeError("generators must share one dimension")
        dets = tuple(g.det() for g in gens)
        for g, det in zip(gens, dets):
            if ring.is_zero(det):
                raise SingularError("generator %r is singular" % (g,))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "determinants", dets)
        object.__setattr__(self, "relations",
                           tuple(normalize_word(w) for w in relations))
        object.__setattr__(self, "label", str(label))
        for w in self.relations:
            for idx, _ in w:
                if not 0 <= idx < len(gens):
                    raise ValueError("relation index %d out of range" % (idx,))
            if not evaluate(self, w).is_identity():
                raise ValueError("relation %r does not evaluate to the identity"
                                 % (w,))

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.ring == other.ring
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        tag = " %r" % (self.label,) if self.label else ""
        return "<Representation%s dim %d over %r, %d generators>" \
            % (tag, self.dim, self.ring, len(self.generators))


def evaluate(rep, word):
    """Product of generator matrices along the word; empty word = identity.

    Over a non-field ring the result is converted back into the base ring
    when possible and otherwise returned over the fraction field."""
    word = normalize_word(word)
    R = rep.ring
    for idx, _ in word:
        if not 0 <= idx < len(rep.generators):
            raise ValueError("generator index %d out of range" % (idx,))
    gens = rep.generators
    if R.is_field or all(exp == 1 for _, exp in word):
        # from the right, so that each product has a letter on the left:
        # over F_p a generator's packed columns are then computed once
        acc = None
        for idx, exp in reversed(word):
            g = gens[idx] if exp == 1 else gens[idx].inverse()
            acc = g if acc is None else g * acc
        return Matrix.identity(R, rep.dim) if acc is None else acc
    K = R.fraction_field()
    acc = Matrix.identity(K, rep.dim)
    for idx, exp in word:
        g = gens[idx] if exp == 1 else gens[idx].inverse()
        acc = acc * (g.to_fraction_field() if g.ring != K else g)
    try:
        return acc.from_fraction_field(R)
    except IntegralityError:
        return acc


def over_fraction_field(rep):
    """The representation with its generators viewed over the fraction
    field of its ring (rep itself when the ring is a field)."""
    R = rep.ring
    if R.is_field:
        return rep
    return Representation(R.fraction_field(),
                          [g.to_fraction_field() for g in rep.generators],
                          rep.relations, label=rep.label)


def adjoint_rep(rep):
    """Conjugation action on d x d matrices, flattened to d^2 x d^2.

    With row-major vec, X -> g X g^-1 becomes vec(X) -> (g (x) (g^-1)^T) vec(X).
    Requires field coefficients (inverses must stay in the ring)."""
    if not rep.ring.is_field:
        raise ValueError("adjoint_rep needs a representation over a field")
    gens = []
    for g in rep.generators:
        gens.append(kronecker(g, g.inverse().transpose()))
    return Representation(rep.ring, gens, rep.relations,
                          label=("ad(%s)" % rep.label) if rep.label else "ad")


def conjugate(rep, c):
    """Replace each generator g by c g c^-1; c must be invertible.

    c may live over the base ring or its fraction field.  The result is over
    the base ring when every conjugated entry lands there, and over the
    fraction field otherwise."""
    big = rep.ring.fraction_field()
    if not isinstance(c, Matrix):
        c = Matrix(big, c)
    if c.nrows != c.ncols or c.nrows != rep.dim:
        raise ShapeError("conjugating matrix has wrong shape")
    cb = c if c.ring == big else c.change_ring(big)
    cib = cb.inverse()  # raises SingularError if singular
    new = [cb * g.to_fraction_field() * cib for g in rep.generators]
    if big != rep.ring:
        try:
            back = [h.from_fraction_field(rep.ring) for h in new]
        except IntegralityError:
            pass
        else:
            return Representation(rep.ring, back, rep.relations, label=rep.label)
    return Representation(big, new, rep.relations, label=rep.label)


def direct_sum(a, b):
    """Block-diagonal sum; the two inputs must have matching generator lists
    over the same ring (they present actions of the same group)."""
    if a.ring != b.ring:
        raise ShapeError("ring mismatch in direct_sum")
    if len(a.generators) != len(b.generators):
        raise ShapeError("generator count mismatch in direct_sum")
    R = a.ring
    z = R.zero()
    gens = []
    for g, h in zip(a.generators, b.generators):
        n, m = g.nrows, h.nrows
        rows = []
        for i in range(n):
            rows.append(list(g.row(i)) + [z] * m)
        for i in range(m):
            rows.append([z] * n + list(h.row(i)))
        gens.append(Matrix(R, rows))
    rels = a.relations if a.relations == b.relations else ()
    return Representation(R, gens, rels,
                          label=("%s + %s" % (a.label, b.label)).strip(" +"))


def trivial_rep(ring, dim=1, ngens=1):
    """dim-dimensional representation sending every generator to the identity."""
    return Representation(ring, [Matrix.identity(ring, dim)] * ngens,
                          label="trivial")


# ---------------------------------------------------------------------------
# JSON serialization (schema in docs/formats.md)


def rep_to_json(rep):
    R = rep.ring
    return {
        "ring": R.to_json(),
        "dim": rep.dim,
        "generators": [[[R.format(a) for a in g.row(i)] for i in range(g.nrows)]
                       for g in rep.generators],
        "relations": [[[idx, exp] for idx, exp in w] for w in rep.relations],
        "label": rep.label,
    }


def rep_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("representation document must be a JSON object")
    for key in ("ring", "dim", "generators"):
        if key not in obj:
            raise ValueError("representation document lacks %r" % (key,))
    R = ring_from_json(obj["ring"])
    try:
        dim = json_int(obj["dim"])
    except ValueError:
        raise ValueError("dim %r is not an integer" % (obj["dim"],)) from None
    if dim < 1:
        raise ValueError("dim must be positive, got %d" % (dim,))
    if not isinstance(obj["generators"], list):
        raise ValueError("generators must be a list of matrices")
    gens = []
    for g in obj["generators"]:
        if not isinstance(g, list) or len(g) != dim or \
                any(not isinstance(row, list) or len(row) != dim for row in g):
            raise ShapeError("generator is not a %d x %d matrix" % (dim, dim))
        # parse and coerce both return canonical scalars, so the entries
        # need no second coercion
        gens.append(Matrix._raw(R, dim, dim, _entries_from_json(
            R, [s for row in g for s in row])))
    relations = obj.get("relations", [])
    if not isinstance(relations, list) or \
            not all(isinstance(w, list) for w in relations):
        raise ValueError("relations must be a list of words")
    relations = [normalize_word(w) for w in relations]
    return Representation(R, gens, relations, label=obj.get("label", ""))


def _entries_from_json(R, flat):
    """The entries of one generator.  Over F_p, string entries are read at
    once: joined by commas, split and read by int.  int reads what
    PrimeField.parse reads (parse calls it) and more only by an underscore
    between digits, so text without one that splits into as many entries
    as there are is read as parse would read it.  A generator with an
    entry that is no string (join raises TypeError), holds an underscore
    or a comma, or fails int (which, unlike str.strip, keeps the ASCII
    separators 28 to 31) takes the entry-by-entry path of
    _scalar_from_json, which reads it as before or names the entry that
    fails."""
    if isinstance(R, PrimeField):
        try:
            text = ",".join(flat)
            if "_" not in text and text.count(",") == len(flat) - 1:
                return [a % R.p for a in map(int, text.split(","))]
        except (TypeError, ValueError):
            pass
    return [_scalar_from_json(R, s) for s in flat]


def _scalar_from_json(R, s):
    """A matrix entry: a string in the scalar grammar, or a JSON value the
    ring accepts as it is (an integer, or a coefficient list)."""
    if isinstance(s, str):
        return R.parse(s)
    try:
        return R.coerce(s)
    except TypeError:
        raise ValueError("matrix entry %r is not a scalar of %r"
                         % (s, R)) from None


def load_rep(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("representation document is nested too "
                             "deeply") from None
    return rep_from_json(doc)
