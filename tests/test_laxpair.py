"""Lax coefficient series: construction of b, derivation of a and c, and the
coefficient-matching residuals that reproduce the recursion."""

import pytest

from fractions import Fraction

from p3lenard.hierarchy import boundary_jet_sequence
from p3lenard.laxpair import (LaurentPoly, SeedMismatch, _b_jet, build_b,
                              build_lax_matrices, c_relation_residual,
                              compatibility_residual, derive_a_c)
from p3lenard.lenard import IndexOutOfRange, SeedCondition, symbolic


@pytest.fixture
def jet_seq():
    """l_0 = s/2 with l_1 as a plain jet unknown (no recursion rules)."""
    return boundary_jet_sequence(1)


class TestBuildB:
    def test_k1_coefficients(self, jet_seq):
        ring = jet_seq.ring
        b = build_b(jet_seq, 1)
        assert b.powers() == [-2, -1]
        assert b.coeff(-2) == ring.var("l1", 0) * Fraction(1, 4)
        assert b.coeff(-1) == ring.s() * Fraction(1, 2)

    def test_k0_single_term(self, jet_seq):
        b = build_b(jet_seq, 0)
        assert b.powers() == [-1]
        assert b.coeff(-1) == jet_seq.ring.s() * Fraction(1, 2)

    def test_coefficient_count(self):
        for k in (1, 2, 3):
            seq = symbolic(SeedCondition.painleve3(), k + 1)
            assert len(build_b(seq, k).powers()) == k + 1

    def test_requires_enough_entries(self, jet_seq):
        with pytest.raises(IndexOutOfRange):
            build_b(jet_seq, 5)


class TestDeriveAC:
    def test_k1_a_coefficients(self, jet_seq):
        ring = jet_seq.ring
        b = build_b(jet_seq, 1)
        a, _ = derive_a_c(b, jet_seq.u, jet_seq)
        assert a.coeff(-2) == ring.var("l1", 1) * Fraction(-1, 8)
        assert a.coeff(-1) == ring.const(Fraction(-1, 4))

    def test_zero_b(self, jet_seq):
        zero = LaurentPoly.zero(jet_seq.ring)
        a, c = derive_a_c(zero, jet_seq.u, jet_seq)
        assert a.is_zero() and c.is_zero()

    def test_derivative_composes(self, jet_seq):
        # the series D^i(b) built from the jet table, against total_derivative
        # applied i times to each coefficient of b
        for seq, k in ((jet_seq, 1), (symbolic(SeedCondition.painleve3(), 3), 3)):
            b = build_b(seq, k)
            coeffs = dict(b.coeffs)
            for i in (1, 2, 3):
                coeffs = {n: p.total_derivative(seq.rules or None)
                          for n, p in coeffs.items()}
                assert _b_jet(seq, b.powers(), i) == LaurentPoly(seq.ring, coeffs)


class TestCompatibilityResidual:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_for_recursion_sequences(self, k):
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        assert compatibility_residual(seq, k).is_zero()

    def test_standard_seed_mismatch(self):
        seq = symbolic(SeedCondition.standard(), 2)
        with pytest.raises(SeedMismatch):
            compatibility_residual(seq, 1)

    def test_needs_next_entry(self):
        seq = symbolic(SeedCondition.painleve3(), 2)
        with pytest.raises(IndexOutOfRange):
            compatibility_residual(seq, 2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_corrupt_top_entry_hits_lowest_power(self, k):
        # adding s to l_{k+1} changes only the z^-(k+1) coefficient
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        bad = seq.with_entry(k + 1, seq.ell(k + 1) + seq.ring.s())
        resid = compatibility_residual(bad, k)
        assert resid.powers() == [-(k + 1)]

    def test_corrupt_middle_entry_hits_predicted_power(self):
        # constant added to l_j feeds the recursion term 2u'*l_j only, so the
        # residual lives at z^-(j+1) alone
        k, j = 3, 2
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        bad = seq.with_entry(j, seq.ell(j) + seq.ring.one())
        resid = compatibility_residual(bad, k)
        assert resid.powers() == [-(j + 1)]


class TestCRelationResidual:
    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_for_recursion_sequences(self, k):
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        assert c_relation_residual(seq, k).is_zero()

    def test_twice_the_b_relation(self):
        # on a corrupted sequence both residuals are nonzero with ratio 2
        seq = symbolic(SeedCondition.painleve3(), 2)
        bad = seq.with_entry(2, seq.ell(2) + seq.ring.s())
        from p3lenard.laxpair import _b_relation_residual
        b_res = _b_relation_residual(bad, 1)
        ac_res = c_relation_residual(bad, 1)
        assert not b_res.is_zero()
        assert ac_res.powers() == b_res.powers()
        for n in b_res.powers():
            assert ac_res.coeff(n) == 2 * b_res.coeff(n)


class TestLaxMatrices:
    def test_structure(self, jet_seq):
        ring = jet_seq.ring
        mats = build_lax_matrices(jet_seq, 1)
        assert mats.trace_A().is_zero()
        assert mats.B[0][0].is_zero() and mats.B[1][1].is_zero()
        assert mats.B[0][1] == LaurentPoly(ring, {0: ring.one()})
        z_minus_u = mats.B[1][0]
        assert z_minus_u.coeff(1) == ring.one()
        assert z_minus_u.coeff(0) == -jet_seq.u

    def test_off_diagonals_are_b_and_c(self, jet_seq):
        b = build_b(jet_seq, 1)
        a, c = derive_a_c(b, jet_seq.u, jet_seq)
        mats = build_lax_matrices(jet_seq, 1)
        assert mats.A[0][1] == b
        assert mats.A[1][0] == c
        assert mats.A[0][0] == a
        assert mats.A[1][1] == -a
