"""Group closure, cohomology by dimension shifting, obstruction reports.

The bar complex in bar_complex.py is the independent oracle for
cohomology_dims.
"""

import pathlib

import numpy as np
import pytest

from irredcert.cohomology import (close_group, cohomology_dims, module_action,
                                  obstruction_report)
from irredcert.errors import GroupTooLarge
from irredcert.matrices import Matrix
from irredcert.meataxe import endo_dim
from irredcert.reps import Representation, adjoint_rep, load_rep, trivial_rep
from irredcert.rings import ExtensionField, PrimeField

from bar_complex import (_numpy_differential, bar_differential, exact_dims,
                         numpy_dims)

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
F4 = ExtensionField(2, (1, 1, 1))
F9 = ExtensionField(3, (1, 0, 1))


def s3_over(ring):
    relations = [[(0, 1)] * 3, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
    return Representation(ring, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
                          relations, label="s3")


def s4_over(ring):
    relations = [[(0, 1)] * 4, [(1, 1)] * 2, [(0, 1), (1, 1)] * 3]
    s = [[0, 0, -1], [1, 0, -1], [0, 1, -1]]
    t = [[-1, 1, 0], [0, 1, 0], [0, 0, 1]]
    return Representation(ring, [s, t], relations, label="s4")


def z3_over(ring):
    return Representation(ring, [[[0, -1], [1, -1]]], [[(0, 1)] * 3],
                          label="z3")


# integer generators of small groups; reduced mod p the order may drop
GROUPS = {
    "C2": [[[-1]]],
    "C3": [[[0, -1], [1, -1]]],
    "C4": [[[0, -1], [1, 0]]],
    "C6": [[[0, -1], [1, 1]]],
    "S3": [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
    "D4": [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
    "C5": [[[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]],
    "Q8": [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
           [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]],
    "B3": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
           [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
           [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
}

SMALL = ("C2", "C3", "C4", "C6", "S3", "D4", "C5", "Q8")

# (group, field, module) through the int64 assembler over F_p ...
NUMPY_CASES = [(g, p, mod) for g in SMALL for p in (2, 3, 5)
               for mod in ("trivial", "adjoint")]
NUMPY_CASES += [("B3", 2, "trivial"), ("B3", 2, "adjoint")]
# ... and through the exact one, whose degree-2 differential must stay
# under its cell cap: every trivial module, the adjoint of the smallest
EXACT_CASES = [(g, F, "trivial") for g in SMALL for F in (F4, F9)]
EXACT_CASES += [(g, F4, "adjoint") for g in ("C2", "C3", "C4", "C6", "D4")]
EXACT_CASES += [(g, F9, "adjoint") for g in ("C2", "C3", "C4")]
EXACT_CASES += [("C3", PrimeField(3), "trivial")]


def group_and_module(name, K, kind):
    rep = Representation(K, GROUPS[name], label=name)
    if kind == "adjoint":
        module = adjoint_rep(rep)
    else:
        module = trivial_rep(K, 1, ngens=len(rep.generators))
    return close_group(rep), module


class TestCloseGroup:

    def test_order_three(self):
        table = close_group(z3_over(PrimeField(5)))
        assert table.order == 3
        assert table.mult[0] == (0, 1, 2)
        # the table is a group: every row is a permutation
        for row in table.mult:
            assert sorted(row) == [0, 1, 2]

    def test_identity_only(self):
        K = PrimeField(3)
        rep = Representation(K, [Matrix.identity(K, 2)], [])
        assert close_group(rep).order == 1

    def test_s3_has_six(self):
        table = close_group(s3_over(PrimeField(5)))
        assert table.order == 6

    def test_s4_has_24(self):
        assert close_group(s4_over(PrimeField(5))).order == 24

    def test_too_large(self):
        K = PrimeField(97)
        rep = Representation(K, [[[1, 1], [0, 1]]], [])  # order 97
        with pytest.raises(GroupTooLarge):
            close_group(rep)

    def test_infinite_field_rejected(self):
        from irredcert.rings import QQ
        with pytest.raises(ValueError):
            close_group(s3_over(QQ))


class TestModuleAction:

    def test_action_covers_group(self):
        table = close_group(s3_over(PrimeField(5)))
        acts = module_action(table, s3_over(PrimeField(5)))
        assert len(acts) == 6
        assert acts[0].is_identity()

    def test_rejects_wrong_relations(self):
        table = close_group(z3_over(PrimeField(5)))
        K = PrimeField(5)
        bad = Representation(K, [Matrix(K, [[4]])], [])  # order 2, not 3
        with pytest.raises(ValueError):
            module_action(table, bad)


class TestCohomologyDims:

    def test_z3_trivial_f5(self):
        table = close_group(z3_over(PrimeField(7)))
        module = trivial_rep(PrimeField(5), 1, ngens=1)
        assert cohomology_dims(table, module) == (1, 0, 0)

    def test_z3_trivial_f3_modular(self):
        table = close_group(z3_over(PrimeField(7)))
        module = trivial_rep(PrimeField(3), 1, ngens=1)
        assert cohomology_dims(table, module) == (1, 1, 1)

    def test_trivial_group(self):
        K = PrimeField(3)
        rep = Representation(K, [Matrix.identity(K, 1)], [])
        table = close_group(rep)
        module = trivial_rep(PrimeField(5), 3, ngens=1)
        assert cohomology_dims(table, module) == (3, 0, 0)

    def test_extension_field_module(self):
        table = close_group(z3_over(PrimeField(7)))
        module = trivial_rep(F4, 1, ngens=1)
        assert cohomology_dims(table, module) == (1, 0, 0)

    def test_s4_adjoint_pinned(self):
        # S4 on data/s4.json: beyond the bar complex's cell cap at every
        # prime; H^2 at p = 2 checked once as H^1(G, CoInd(M)/M)
        for p, dims in ((2, (1, 1, 2)), (3, (1, 0, 0)), (5, (1, 0, 0))):
            rep = s4_over(PrimeField(p))
            assert cohomology_dims(close_group(rep), adjoint_rep(rep)) == dims

    def test_b3_adjoint_mod_3_pinned(self):
        # the hyperoctahedral group of order 48: the bar complex agrees in
        # degrees 0 and 1; d2 = 0 checked once as H^1(G, CoInd(M)/M) and by
        # restriction to a Sylow 3-subgroup
        table, ad = group_and_module("B3", PrimeField(3), "adjoint")
        assert table.order == 48
        assert cohomology_dims(table, ad) == (1, 0, 0)


class TestBarComplexOracle:

    @pytest.mark.parametrize(
        "group, p, kind", NUMPY_CASES,
        ids=["%s-F%d-%s-numpy" % case for case in NUMPY_CASES])
    def test_agrees_with_numpy_bar_complex(self, group, p, kind):
        table, module = group_and_module(group, PrimeField(p), kind)
        assert cohomology_dims(table, module) == numpy_dims(table, module)

    @pytest.mark.parametrize(
        "group, K, kind", EXACT_CASES,
        ids=["%s-F%d-%s-exact" % (g, K.order, kind)
             for g, K, kind in EXACT_CASES])
    def test_agrees_with_exact_bar_complex(self, group, K, kind):
        table, module = group_and_module(group, K, kind)
        assert cohomology_dims(table, module) == exact_dims(table, module)


class TestComplexProperty:

    def cases(self):
        F3, F5 = PrimeField(3), PrimeField(5)
        out = []
        for rep, module in [
            (z3_over(F5), trivial_rep(F3, 1, ngens=1)),
            (z3_over(F5), trivial_rep(F5, 2, ngens=1)),
            (s3_over(F3), adjoint_rep(s3_over(F3))),
            (s3_over(F5), adjoint_rep(s3_over(F5))),
        ]:
            out.append((close_group(rep), module))
        return out

    def test_d_compose_d_is_zero(self):
        for table, module in self.cases():
            d0 = bar_differential(table, module, 0)
            d1 = bar_differential(table, module, 1)
            assert (d1 * d0).is_zero()
            n, m = table.order, module.dim
            if (n ** 3 * m) * (n ** 2 * m) <= 65536:
                d2 = bar_differential(table, module, 2)
                assert (d2 * d1).is_zero()

    def test_d_compose_d_is_zero_numpy_large(self):
        # S3 adjoint mod 3: check d2 d1 = 0 with the integer matrices
        rep = s3_over(PrimeField(3))
        table = close_group(rep)
        ad = adjoint_rep(rep)
        acts = module_action(table, ad)
        m = ad.dim
        actarr = np.array([[[int(a.entry(i, j)) for j in range(m)]
                            for i in range(m)] for a in acts], dtype=np.int64)
        multarr = np.array(table.mult, dtype=np.int64)
        d1 = _numpy_differential(actarr, multarr, 1, m)
        d2 = _numpy_differential(actarr, multarr, 2, m)
        assert not ((d2 @ d1) % 3).any()


class TestMaschkeVanishing:

    def test_coprime_order_forces_zero(self):
        F3, F5 = PrimeField(3), PrimeField(5)
        d4_rels = [[(0, 1)] * 4, [(1, 1)] * 2, [(0, 1), (1, 1)] * 2]
        d4 = Representation(F3, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
                            d4_rels, label="d4")  # order 8, char 3
        cases = [
            (z3_over(F5), trivial_rep(F5, 1, ngens=1)),      # |G|=3, p=5
            (z3_over(F5), adjoint_rep(z3_over(F5))),
            (s3_over(F5), adjoint_rep(s3_over(F5))),         # |G|=6, p=5
            (d4, adjoint_rep(d4)),                           # |G|=8, p=3
            (s4_over(F5), trivial_rep(F5, 1, ngens=2)),      # |G|=24, p=5
        ]
        for rep, module in cases:
            table = close_group(rep)
            dims = cohomology_dims(table, module)
            assert dims[1] == 0 and dims[2] == 0, (rep.label, dims)


class TestObstructionReport:

    def test_s3_mod_5_unobstructed(self):
        report = obstruction_report(s3_over(PrimeField(5)))
        assert report.schur_dim == 1
        assert report.d2 == 0
        assert report.unobstructed
        assert report.universal_deformation_irreducible is True
        assert report.predicted_ring is not None

    def test_sl2_f4_bounded_by_its_sylow_subgroup(self):
        # restriction to a Sylow p-subgroup P is injective on H^i for
        # i >= 1 (Brown, Cohomology of Groups, III.10.4), so d1 and d2 of
        # SL2(F_4) are at most those of P, its upper unitriangular
        # matrices (order 4), which the bar complex computes
        rep = load_rep(DATA / "fq" / "sl2_f4.json")
        report = obstruction_report(rep)
        assert (report.group_order, report.d0, report.d1, report.d2) \
            == (60, 1, 0, 1)
        x = F4.coerce((0, 1))
        sylow = Representation(F4, [[[1, 1], [0, 1]], [[1, x], [0, 1]]])
        table = close_group(sylow)
        assert table.order == 4
        _, p1, p2 = exact_dims(table, adjoint_rep(sylow))
        assert (p1, p2) == (2, 2)
        assert report.d1 <= p1 and report.d2 <= p2

    def test_trivial_group(self):
        K = PrimeField(5)
        rep = Representation(K, [Matrix.identity(K, 1)], [])
        report = obstruction_report(rep)
        assert report.d1 == 0 and report.d2 == 0
        assert report.unobstructed
        assert report.predicted_ring == "Lambda"

    def test_s3_mod_3_consistency(self):
        # no pinned values: the bar complex is the oracle; check the
        # internal consistency promises instead
        rep = s3_over(PrimeField(3))
        report = obstruction_report(rep)
        assert report.d0 == endo_dim(rep)
        assert report.unobstructed == (report.d2 == 0)
        if not (report.unobstructed and report.schur_dim == 1):
            assert report.predicted_ring is None

    def test_d0_is_commutant_dimension(self):
        for p in (3, 5, 7):
            rep = s3_over(PrimeField(p))
            table = close_group(rep)
            dims = cohomology_dims(table, adjoint_rep(rep))
            assert dims[0] == endo_dim(rep)

    def test_json_shape(self):
        report = obstruction_report(s3_over(PrimeField(5)))
        blob = report.to_json()
        for key in ("group_order", "d0", "d1", "d2", "schur_dim",
                    "unobstructed", "predicted_ring",
                    "universal_deformation_irreducible"):
            assert key in blob
        assert blob["group_order"] == 6
