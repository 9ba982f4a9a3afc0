"""Exact scalar arithmetic for every base ring and residue field in the package.

A ring is a small immutable descriptor object; its elements are plain Python
data manipulated through the descriptor's methods:

    Z        int
    Q        fractions.Fraction (always in lowest terms)
    Z[t]     tuple of int coefficients, ascending degree, no trailing zeros;
             the zero polynomial is the empty tuple ()
    Q(t)     pair (num, den) of Fraction-coefficient tuples with den monic
             and gcd(num, den) = 1; zero is ((), (Fraction(1),))
    F_p      int in [0, p)
    F_{p^k}  tuple of ints in [0, p), ascending, trimmed, length < k

Keeping elements as unboxed data makes matrices cheap (tuples of values) and
gives structural equality and hashing for free.  No floating point is used
anywhere: certified results must be bit-exact.

This module holds no polynomial kernels of its own.  The sums and products
of Z[t] run on polys over ZZ, and those of Q(t), with the gcd and division
that normalize a value and the lcm of clear_denominators, on polys over
QQ; F_{p^k} runs on fpoly.  Matrix products, determinants, inverses and
conjugations over Z[t] and Q(t) do not go through these descriptors per
scalar: they run on packed integers (see matrices).

String formats for all of these ("3/4", "t^2+2*t+1/3", "x^2+x+1 mod 2") are
documented in docs/formats.md; parse() and format() implement that grammar.
"""

from fractions import Fraction
from math import lcm

from . import fpoly, polys
from .errors import BadPrime, IntegralityError, SingularError
from .fpoly import trim

# ---------------------------------------------------------------------------
# integer utilities


# The witness set {2,3,5,7,11,13,17} is known to be deterministic for
# n < 3.4e14 (Pomerance-Selfridge-Wagstaff style verification); we stop a bit
# short of the published bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_MR_BOUND = 330 * 10 ** 12


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e14; larger inputs raise BadPrime."""
    if n >= _MR_BOUND:
        raise BadPrime("cannot certify primality of %d: beyond the deterministic "
                       "witness bound %d" % (n, _MR_BOUND))
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial string grammar (shared by Z[t], Q(t) and F_{p^k} elements)
#
#   poly   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := number | var ['^' nat]
#   number := nat ['/' nat]
#
# Whitespace is ignored.  Multiplication must be explicit ("2*t", not "2t").
# A term's exponent is at most MAX_EXPONENT: the determinant that checks a
# Z[t] generator is quadratic in the degree, so "t^1000000" would not finish.

MAX_EXPONENT = 1000


def _tokenize_poly(s):
    tokens = []
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^":
            tokens.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            tokens.append(int(s[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            tokens.append(s[i:j])
            i = j
        else:
            raise ValueError("bad character %r in polynomial %r" % (c, s))
    return tokens


def parse_poly_string(s, var):
    """Parse the polynomial grammar above; returns {exponent: Fraction}."""
    tokens = _tokenize_poly(s)
    if not tokens:
        raise ValueError("empty polynomial string")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("polynomial %r ends too early" % (s,))
        pos += 1
        return tokens[pos - 1]

    def parse_factor():
        t = take()
        if isinstance(t, int):
            num = t
            if peek() == "/":
                take()
                d = take()
                if not isinstance(d, int) or d == 0:
                    raise ValueError("bad denominator in %r" % (s,))
                return Fraction(num, d), 0
            return Fraction(num), 0
        if isinstance(t, str):
            if t != var:
                raise ValueError("unknown symbol %r (variable is %r)" % (t, var))
            e = 1
            if peek() == "^":
                take()
                e = take()
                if not isinstance(e, int) or e < 0:
                    raise ValueError("bad exponent in %r" % (s,))
            return Fraction(1), e
        raise ValueError("unexpected token %r in %r" % (t, s))

    def parse_term():
        coef, exp = parse_factor()
        while peek() == "*":
            take()
            c2, e2 = parse_factor()
            coef *= c2
            exp += e2
        if exp > MAX_EXPONENT:
            raise ValueError("exponent %d above %d in %r"
                             % (exp, MAX_EXPONENT, s))
        return coef, exp

    coeffs = {}
    first = True
    while pos < len(tokens):
        sign = 1
        t = peek()
        if t == "+" or t == "-":
            take()
            sign = -1 if t == "-" else 1
        elif not first:
            raise ValueError("missing operator in %r" % (s,))
        coef, exp = parse_term()
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        first = False
    return {e: c for e, c in coeffs.items() if c != 0}


def format_poly(coeffs, var):
    """Format ascending coefficients (ints or Fractions) per the grammar."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        neg = c < 0
        a = -c if neg else c
        if e == 0:
            body = str(a)
        else:
            v = var if e == 1 else "%s^%d" % (var, e)
            body = v if a == 1 else "%s*%s" % (a, v)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# descriptors


class RingDescriptor:
    """Base class; subclasses fill in arithmetic on their raw element type."""

    kind = None
    is_field = False
    characteristic = 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return a == self.zero()

    def is_one(self, a):
        return a == self.one()

    def pow(self, a, e):
        """a^e by square-and-multiply; negative e inverts first (fields/units)."""
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one()
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def div(self, a, b):
        if not self.is_field:
            raise SingularError("division is only defined over fields, "
                                "not over %s" % (self,))
        return self.mul(a, self.inv(b))

    def fraction_field(self):
        return self

    def to_fraction_field(self, a):
        return a

    def from_fraction_field(self, a):
        return a

    def __repr__(self):
        return self.kind


class IntegerRing(RingDescriptor):
    """The ring Z; elements are Python ints."""

    kind = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("bool is not an integer scalar")
        if isinstance(a, int):
            return a
        if isinstance(a, Fraction):
            if a.denominator != 1:
                raise IntegralityError("%s is not an integer" % (a,))
            return int(a)
        raise TypeError("cannot coerce %r into Z" % (a,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if not self.is_unit(a):
            raise SingularError("%d is not a unit in Z" % (a,))
        return a

    def fraction_field(self):
        return QQ

    def to_fraction_field(self, a):
        return Fraction(a)

    def from_fraction_field(self, a):
        if a.denominator != 1:
            raise IntegralityError("%s is not an integer" % (a,))
        return int(a)

    def format(self, a):
        return str(a)

    def parse(self, s):
        s = s.strip()
        body = s[1:] if s[:1] in "+-" else s
        if not body.isdigit():
            raise ValueError("bad integer literal %r" % (s,))
        return int(s)

    def to_json(self):
        return {"ring": "Z"}

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class RationalField(RingDescriptor):
    """The field Q; elements are Fractions in lowest terms.

    zero() and one() hand out shared constants (a Fraction is immutable),
    and is_zero is a truth test, so neither builds a Fraction per call.
    The MeatAxe's spin, invariance check and theta sampling over Q do not
    go through this descriptor per scalar: they run on integer rows (see
    meataxe.py), and a Fraction is built only for what they return."""

    kind = "Q"
    is_field = True

    def zero(self):
        return _Q_ZERO

    def one(self):
        return _Q_ONE

    def is_zero(self, a):
        return not a

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("bool is not a rational scalar")
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            return a
        raise TypeError("cannot coerce %r into Q" % (a,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise SingularError("division by zero in Q")
        return _Q_ONE / a

    def format(self, a):
        return str(a)

    def parse(self, s):
        s = s.strip()
        num, slash, den = s.partition("/")
        try:
            if slash:
                return Fraction(int(num), int(den))
            return Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            raise ValueError("bad rational literal %r" % (s,)) from None

    def to_json(self):
        return {"ring": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PolynomialRingZ(RingDescriptor):
    """Z[t]; elements are tuples of int coefficients, ascending, trimmed."""

    kind = "Z[t]"

    def __init__(self, var="t"):
        self.var = var

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("bool is not a polynomial scalar")
        if isinstance(a, int):
            return (a,) if a else ()
        if isinstance(a, Fraction):
            if a.denominator != 1:
                raise IntegralityError("%s is not in Z[%s]" % (a, self.var))
            return self.coerce(int(a))
        if isinstance(a, (tuple, list)):
            out = []
            for c in a:
                if isinstance(c, Fraction):
                    if c.denominator != 1:
                        raise IntegralityError("%s is not in Z[%s]" % (c, self.var))
                    c = int(c)
                elif isinstance(c, bool) or not isinstance(c, int):
                    raise TypeError("bad coefficient %r" % (c,))
                out.append(c)
            return tuple(trim(out))
        raise TypeError("cannot coerce %r into Z[%s]" % (a, self.var))

    def add(self, a, b):
        return polys.add(ZZ, a, b)

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return polys.mul(ZZ, a, b)

    def is_unit(self, a):
        return a == (1,) or a == (-1,)

    def inv(self, a):
        if not self.is_unit(a):
            raise SingularError("%r is not a unit in Z[%s]" % (a, self.var))
        return a

    def degree(self, a):
        return len(a) - 1

    def evaluate(self, a, c):
        """Evaluate at an integer c (the residue map t -> c)."""
        acc = 0
        for coef in reversed(a):
            acc = acc * c + coef
        return acc

    def fraction_field(self):
        return RationalFunctionField(self.var)

    def to_fraction_field(self, a):
        return (tuple(Fraction(c) for c in a), (Fraction(1),))

    def from_fraction_field(self, a):
        num, den = a
        if len(den) != 1:
            raise IntegralityError("denominator is not constant")
        d = den[0]
        out = []
        for c in num:
            q = c / d
            if q.denominator != 1:
                raise IntegralityError("%s has non-integral coefficients" % (q,))
            out.append(int(q))
        return tuple(trim(out))

    def format(self, a):
        return format_poly(a, self.var)

    def parse(self, s):
        coeffs = parse_poly_string(s, self.var)
        deg = max(coeffs) if coeffs else 0
        out = [0] * (deg + 1)
        for e, c in coeffs.items():
            if c.denominator != 1:
                raise IntegralityError("%r is not in Z[%s]" % (s, self.var))
            out[e] = int(c)
        return tuple(trim(out))

    def to_json(self):
        return {"ring": "Z[t]", "var": self.var}

    def __repr__(self):
        return "Z[%s]" % (self.var,)

    def __eq__(self, other):
        return isinstance(other, PolynomialRingZ) and other.var == self.var

    def __hash__(self):
        return hash(("Z[t]", self.var))


class RationalFunctionField(RingDescriptor):
    """Q(t); elements are (num, den) pairs of Fraction tuples, den monic,
    gcd(num, den) = 1."""

    kind = "Q(t)"
    is_field = True

    def __init__(self, var="t"):
        self.var = var

    def _normalize(self, num, den):
        num, den = list(num), list(den)
        trim(num)
        trim(den)
        if not den:
            raise SingularError("zero denominator in Q(%s)" % (self.var,))
        if not num:
            return ((), (Fraction(1),))
        if len(den) == 1:
            # a constant denominator only divides the coefficients
            inv = 1 / den[0]
            return (tuple(x * inv for x in num), (_Q_ONE,))
        g = polys.gcd_monic(QQ, num, den)
        if len(g) > 1:
            num = polys.divmod_poly(QQ, num, g)[0]
            den = polys.divmod_poly(QQ, den, g)[0]
        inv = 1 / den[-1]
        return polys.scale(QQ, inv, num), polys.scale(QQ, inv, den)

    def quotient(self, num, den):
        """The canonical element num / den for Z[t] values num and den != 0
        (integer coefficient sequences)."""
        return self._normalize([Fraction(c) for c in num],
                               [Fraction(c) for c in den])

    def clear_denominators(self, values):
        """(numerators, D) for some elements a of Q(t): D in Z[t] and each
        D a in Z[t], all as integer coefficient tuples.  D is the lcm of
        the monic denominators, times the least positive integer that makes
        it and every numerator integral.  When every denominator is
        constant, as in most inputs, no polynomial gcd is taken."""
        dens = set(a[1] for a in values)
        common = (_Q_ONE,)
        for den in dens:
            if len(den) > 1:
                g = polys.gcd_monic(QQ, common, den)
                common = polys.mul(QQ, common,
                                   polys.divmod_poly(QQ, den, g)[0])
        if len(common) > 1:
            cofactor = {den: polys.divmod_poly(QQ, common, den)[0]
                        for den in dens}
            nums = [polys.mul(QQ, num, cofactor[den]) for num, den in values]
        else:
            nums = [num for num, _ in values]
        scale = lcm(*(c.denominator for f in nums for c in f),
                    *(c.denominator for c in common))

        def cleared(f):
            return tuple(c.numerator * (scale // c.denominator) for c in f)

        return [cleared(f) for f in nums], cleared(common)

    def zero(self):
        return ((), (Fraction(1),))

    def one(self):
        return ((Fraction(1),), (Fraction(1),))

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(a, int) or isinstance(a, Fraction):
            a = Fraction(a)
            return ((a,), (Fraction(1),)) if a else self.zero()
        if isinstance(a, tuple) and len(a) == 2 and isinstance(a[0], (tuple, list)) \
                and isinstance(a[1], (tuple, list)):
            num = [Fraction(c) for c in a[0]]
            den = [Fraction(c) for c in a[1]]
            return self._normalize(num, den)
        if isinstance(a, (tuple, list)):
            return self._normalize([Fraction(c) for c in a], [Fraction(1)])
        raise TypeError("cannot coerce %r into Q(%s)" % (a, self.var))

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        num = polys.add(QQ, polys.mul(QQ, an, bd), polys.mul(QQ, bn, ad))
        return self._normalize(num, polys.mul(QQ, ad, bd))

    def neg(self, a):
        return (tuple(-x for x in a[0]), a[1])

    def mul(self, a, b):
        return self._normalize(polys.mul(QQ, a[0], b[0]),
                               polys.mul(QQ, a[1], b[1]))

    def is_unit(self, a):
        return bool(a[0])

    def inv(self, a):
        if not a[0]:
            raise SingularError("division by zero in Q(%s)" % (self.var,))
        return self._normalize(a[1], a[0])

    def is_constant(self, a):
        return len(a[1]) == 1 and len(a[0]) <= 1

    def as_constant(self, a):
        """Return the element as a Fraction, or raise if it involves t."""
        if not self.is_constant(a):
            raise IntegralityError("%s is not constant" % (self.format(a),))
        return a[0][0] if a[0] else Fraction(0)

    def evaluate(self, a, c):
        """Specialize t -> c (a Fraction/int); SingularError at a pole."""
        c = Fraction(c)
        num = sum(coef * c ** i for i, coef in enumerate(a[0]))
        den = sum(coef * c ** i for i, coef in enumerate(a[1]))
        if den == 0:
            raise SingularError("pole at %s = %s" % (self.var, c))
        return num / den

    def format(self, a):
        num, den = a
        if len(den) == 1:
            return format_poly(num, self.var)
        return "(%s)/(%s)" % (format_poly(num, self.var),
                              format_poly(den, self.var))

    def parse(self, s):
        s = s.strip()
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            i = s.index(")/(")
            ns, ds = s[1:i], s[i + 3:-1]
            if "(" in ns or ")" in ns or "(" in ds or ")" in ds:
                raise ValueError("bad rational function literal %r" % (s,))
            num = parse_poly_string(ns, self.var)
            den = parse_poly_string(ds, self.var)
        else:
            num = parse_poly_string(s, self.var)
            den = {0: Fraction(1)}

        def todense(d):
            deg = max(d) if d else 0
            out = [Fraction(0)] * (deg + 1)
            for e, c in d.items():
                out[e] = c
            return out

        return self._normalize(todense(num), todense(den))

    def to_json(self):
        return {"ring": "Q(t)", "var": self.var}

    def __repr__(self):
        return "Q(%s)" % (self.var,)

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.var == self.var

    def __hash__(self):
        return hash(("Q(t)", self.var))


class PrimeField(RingDescriptor):
    """F_p; elements are ints in [0, p)."""

    kind = "Fp"
    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise BadPrime("%r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.order = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("bool is not a field scalar")
        if isinstance(a, int):
            return a % self.p
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise BadPrime("denominator of %s vanishes mod %d" % (a, self.p))
            return a.numerator * pow(a.denominator, self.p - 2, self.p) % self.p
        raise TypeError("cannot coerce %r into F_%d" % (a, self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise SingularError("division by zero in F_%d" % (self.p,))
        return pow(a, self.p - 2, self.p)

    def iter_elements(self):
        return iter(range(self.p))

    def format(self, a):
        return str(a)

    def parse(self, s):
        s = s.strip()
        body = s[1:] if s[:1] in "+-" else s
        if not body.isdigit():
            raise ValueError("bad F_%d literal %r" % (self.p, s))
        return int(s) % self.p

    def to_json(self):
        return {"ring": "Fp", "p": self.p}

    def __repr__(self):
        return "F_%d" % (self.p,)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class ExtensionField(RingDescriptor):
    """F_{p^k} = F_p[x]/(modulus); elements are trimmed coefficient tuples.

    The modulus must be monic of degree 2..8 and irreducible over F_p
    (checked with Rabin's gcd test at construction); p is capped at 2^31.
    """

    kind = "Fq"
    is_field = True

    def __init__(self, p, modulus, var="x"):
        if not is_prime(p):
            raise BadPrime("%r is not prime" % (p,))
        if p > 2 ** 31:
            raise BadPrime("extension-field characteristic %d exceeds 2^31" % (p,))
        mod = [c % p for c in modulus]
        trim(mod)
        k = len(mod) - 1
        if k < 2 or k > 8:
            raise ValueError("modulus degree must be between 2 and 8, got %d" % (k,))
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if not fpoly.is_irreducible(mod, p):
            raise BadPrime("modulus %s is reducible over F_%d"
                           % (format_poly(mod, var), p))
        self.p = p
        self.k = k
        self.modulus = tuple(mod)
        self.var = var
        self.characteristic = p
        self.order = p ** k

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def _reduce(self, c):
        c = [x % self.p for x in c]
        if len(c) > self.k:
            c = fpoly.quo_rem(c, list(self.modulus), self.p)[1]
        return tuple(trim(c))

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("bool is not a field scalar")
        if isinstance(a, int):
            a = a % self.p
            return (a,) if a else ()
        if isinstance(a, (tuple, list)):
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in a):
                raise TypeError("bad coefficient in %r" % (a,))
            return self._reduce(list(a))
        raise TypeError("cannot coerce %r into %r" % (a, self))

    def add(self, a, b):
        return tuple(fpoly.add(list(a), list(b), self.p))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        c = fpoly.mul(list(a), list(b), self.p)
        return tuple(fpoly.quo_rem(c, list(self.modulus), self.p)[1])

    def is_unit(self, a):
        return bool(a)

    def inv(self, a):
        if not a:
            raise SingularError("division by zero in %r" % (self,))
        g, u, _ = fpoly.xgcd(list(a), list(self.modulus), self.p)
        if len(g) != 1:
            raise SingularError("non-invertible element %r" % (a,))
        inv_g = pow(g[0], self.p - 2, self.p)
        return tuple(trim([x * inv_g % self.p for x in u]))

    def element(self, n):
        """The element of index n in [0, q): the coefficients are the
        base-p digits of n, lowest first, trimmed."""
        p, digits = self.p, []
        for _ in range(self.k):
            n, r = divmod(n, p)
            digits.append(r)
        return tuple(trim(digits))

    def iter_elements(self):
        return map(self.element, range(self.order))

    def format(self, a):
        return format_poly(a, self.var)

    def parse(self, s):
        s = s.strip()
        body, sep, tail = s.partition(" mod ")
        if sep:
            if not tail.strip().isdigit() or int(tail) != self.p:
                raise ValueError("modulus suffix %r does not match p = %d"
                                 % (tail, self.p))
            s = body
        coeffs = parse_poly_string(s, self.var)
        deg = max(coeffs) if coeffs else 0
        out = [0] * (deg + 1)
        for e, c in coeffs.items():
            if c.denominator != 1:
                raise ValueError("non-integer coefficient in %r" % (s,))
            out[e] = c.numerator % self.p
        return self._reduce(out)

    def to_json(self):
        return {"ring": "Fq", "p": self.p, "modulus": list(self.modulus),
                "var": self.var}

    def __repr__(self):
        return "F_%d^%d" % (self.p, self.k)

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.modulus == self.modulus and other.var == self.var)

    def __hash__(self):
        return hash(("Fq", self.p, self.modulus, self.var))


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_json(obj):
    """Inverse of RingDescriptor.to_json; also accepts the bare strings
    "Z", "Q", "Z[t]", "Q(t)" for convenience."""
    if isinstance(obj, str):
        obj = {"ring": obj}
    if not isinstance(obj, dict) or "ring" not in obj:
        raise ValueError("bad ring description %r" % (obj,))
    tag = obj["ring"]
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if tag == "Z[t]":
        return PolynomialRingZ(obj.get("var", "t"))
    if tag == "Q(t)":
        return RationalFunctionField(obj.get("var", "t"))
    if tag == "Fp":
        return PrimeField(_int_field(obj, "p"))
    if tag == "Fq":
        try:
            modulus = [json_int(c) for c in obj["modulus"]]
        except (KeyError, TypeError, ValueError):
            raise ValueError("ring 'Fq' needs an integer list 'modulus'") \
                from None
        return ExtensionField(_int_field(obj, "p"), modulus,
                              obj.get("var", "x"))
    raise ValueError("unknown ring tag %r" % (tag,))


def json_int(x):
    """An integer of a JSON document: an int, or a string that int() reads.
    A float or a bool raises ValueError, where int() would truncate it."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError("%r is not an integer" % (x,))
    return int(x)


def _int_field(obj, key):
    try:
        return json_int(obj[key])
    except (KeyError, ValueError):
        raise ValueError("ring %r needs an integer %r"
                         % (obj["ring"], key)) from None
