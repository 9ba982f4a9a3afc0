"""Byte-slot kernels over F_p against references.

With one-byte slots (fpoly.slot_bytes) a packed vector is reduced, pivoted
and scaled by bytes.translate (fpoly.monic_slots, fpoly.unpack); with wider
slots by lists.  The spin, the invariance check, rref, kernel_basis and det
are compared with GenericFp on both sides of the switch through
generic_fp.FIELD_SIZES; here unpack and monic_slots meet a descriptor-call
reference on random slots, on slots at their bound and on vectors whose
entries are all p - 1, the enumeration of a kernel gives the same points
over PrimeField and GenericFp, and products reach the one-byte bound.
"""

import pytest

from irredcert import fpoly, polys
from irredcert.fpoly import monic_slots, pack, slot_bytes, unpack
from irredcert.matrices import Matrix, kernel_basis, packed_columns, \
    poly_at_matrix
from irredcert.meataxe import _projective_kernel, spin
from irredcert.prng import XorShift64
from irredcert.rings import PrimeField

from generic_fp import GenericFp

# (p, d, bytes per slot of a d x d matrix's packed columns)
SIZES = [(2, 1, 1), (2, 9, 1), (2, 24, 1), (3, 5, 1), (3, 31, 1),
         (3, 32, 2), (5, 7, 1), (5, 8, 2), (7, 3, 1), (7, 4, 2), (11, 1, 1),
         (11, 2, 2), (13, 1, 2), (13, 6, 2)]


def reference_monic(u, p):
    """(pivot, entries) of the vector u of ints reduced mod p and scaled to
    a leading 1, or None, with descriptor calls."""
    K = GenericFp(p)
    u = [K.coerce(a) for a in u]
    idx = next((i for i, a in enumerate(u) if a), None)
    if idx is None:
        return None
    inv = K.inv(u[idx])
    return idx, [K.mul(inv, a) for a in u]


@pytest.mark.parametrize("p,d,nb", SIZES)
def test_slot_width_switch(p, d, nb):
    assert packed_columns(Matrix(PrimeField(p), [[1] * d] * d))[0] == nb
    assert slot_bytes(p, 2 * d) == nb


@pytest.mark.parametrize("p,d,nb", SIZES)
def test_unpack_and_monic_slots_match_the_reference(p, d, nb):
    """Slots anywhere in [0, 256^nb), every one at its top value, at p or
    at p - 1, zero, and a single nonzero slot at either end."""
    rng = XorShift64(31 * p + d)
    top = (1 << 8 * nb) - 1
    cases = [[rng.randrange(top + 1) for _ in range(d)] for _ in range(20)]
    cases += [[rng.randrange(p) for _ in range(d)] for _ in range(20)]
    cases += [[top] * d, [p - 1] * d, [0] * d, [p] * d,
              [0] * (d - 1) + [p - 1], [p + 1] + [0] * (d - 1)]
    for vals in cases:
        w = int.from_bytes(b"".join(a.to_bytes(nb, "little") for a in vals),
                           "little")
        assert unpack([w], d, nb, p) == [a % p for a in vals], vals
        got = monic_slots(w, d, nb, p)
        want = reference_monic(vals, p)
        if want is None:
            assert got is None, vals
            continue
        idx, packed, entries = got
        assert (idx, list(entries)) == want, vals
        assert packed == pack(want[1], nb, p), vals
    # several vectors at once
    xs = [pack([rng.randrange(p) for _ in range(d)], nb, p) for _ in range(5)]
    assert unpack(xs, d, nb, p) == [a for x in xs for a in
                                    unpack([x], d, nb, p)]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 7), (3, 2), (3, 4),
                                 (5, 3), (7, 2), (13, 2)])
def test_projective_kernel_order_matches_generic(p, n):
    """The one enumeration of a kernel's projective points yields the same
    points in the same order over PrimeField as over GenericFp, for a
    basis with entries p - 1, one point per line."""
    rng = XorShift64(p * n)
    d = n + 3
    basis = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(n - 1)]
    basis.append((p - 1,) * d)
    got = [list(v) for v in _projective_kernel(PrimeField(p), basis)]
    want = [list(v) for v in _projective_kernel(GenericFp(p), basis)]
    assert got == want
    assert len(got) == (p ** n - 1) // (p - 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_enumeration_of_theta_matches_generic(p):
    """The permutation rep of S_5 (reducible) with theta a transposition:
    ker(theta - 1) has nullity 4, and the enumeration and the spin of each
    of its points agree on both rings."""
    n = 5
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(n)]
            for i in range(n)]
    out = []
    for K in (PrimeField(p), GenericFp(p)):
        gens = [Matrix(K, g) for g in (cycle, swap)]
        ker = kernel_basis(poly_at_matrix(K, (p - 1, 1), gens[1]))
        assert len(ker) == n - 1
        out.append([spin(K, gens, v) for v in _projective_kernel(K, ker)])
    assert out[0] == out[1]
    assert len(out[0]) == (p ** (n - 1) - 1) // (p - 1)


@pytest.mark.parametrize("p,t", [(2, 254), (2, 256), (3, 63), (3, 64),
                                 (5, 15), (5, 16)])
def test_products_at_the_one_byte_bound(p, t):
    """A product of two polynomials with every coefficient p - 1 and t
    terms reaches t (p - 1)^2 in its middle slot: within one byte below
    the switch, past it above."""
    top = (p - 1,) * t
    assert fpoly.mul(top, top, p) == list(polys.mul(GenericFp(p), top, top))
