"""Lax coefficient series: construction of b, derivation of a and c, and the
coefficient-matching residuals that reproduce the recursion."""

import pytest

from fractions import Fraction

from p3lenard import cli
from p3lenard.hierarchy import boundary_jet_sequence
from p3lenard.laxpair import (LaurentPoly, SeedMismatch, _b_jet, build_b,
                              c_relation_residual, compatibility_residual,
                              derive_a_c)
from p3lenard.lenard import LenardSequence, SeedCondition, symbolic


def prefix(seq, count):
    """l_0 .. l_{count-1} of ``seq``, with its ring and rules."""
    return LenardSequence(seq.ells[:count], seq.ring, seq.rules)


@pytest.fixture
def jet_seq():
    """l_0 = s/2 with l_1 as a plain jet unknown (no recursion rules)."""
    return prefix(boundary_jet_sequence(1), 2)


class TestBuildB:
    def test_k1_coefficients(self, jet_seq):
        ring = jet_seq.ring
        b = build_b(jet_seq)
        assert b.powers() == [-2, -1]
        assert b.coeff(-2) == ring.var("l1", 0) * Fraction(1, 4)
        assert b.coeff(-1) == ring.s() * Fraction(1, 2)

    def test_k0_single_term(self, jet_seq):
        b = build_b(prefix(jet_seq, 1))
        assert b.powers() == [-1]
        assert b.coeff(-1) == jet_seq.ring.s() * Fraction(1, 2)

    def test_coefficient_count(self):
        for k in (1, 2, 3):
            seq = symbolic(SeedCondition.painleve3(), k)
            assert len(build_b(seq).powers()) == k + 1


class TestDeriveAC:
    def test_k1_a_coefficients(self, jet_seq):
        ring = jet_seq.ring
        a, _ = derive_a_c(jet_seq)
        assert a.coeff(-2) == ring.var("l1", 1) * Fraction(-1, 8)
        assert a.coeff(-1) == ring.const(Fraction(-1, 4))

    def test_derivative_composes(self, jet_seq):
        # the series D^i(b) built from the jet table, against total_derivative
        # applied i times to each coefficient of b
        for seq in (jet_seq, symbolic(SeedCondition.painleve3(), 3)):
            coeffs = dict(build_b(seq).coeffs)
            for i in (1, 2, 3):
                coeffs = {n: p.total_derivative(seq.rules or None)
                          for n, p in coeffs.items()}
                assert _b_jet(seq, i) == LaurentPoly(seq.ring, coeffs)


class TestCompatibilityResidual:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_for_recursion_sequences(self, k):
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        assert compatibility_residual(seq).is_zero()

    def test_standard_seed_mismatch(self):
        seq = symbolic(SeedCondition.standard(), 2)
        with pytest.raises(SeedMismatch):
            compatibility_residual(seq)

    @pytest.mark.parametrize("k", [1, 2])
    def test_corrupt_top_entry_hits_lowest_power(self, k):
        # adding s to l_{k+1} changes only the z^-(k+1) coefficient
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        bad = seq.with_entry(k + 1, seq.ell(k + 1) + seq.ring.s())
        resid = compatibility_residual(bad)
        assert resid.powers() == [-(k + 1)]

    def test_corrupt_middle_entry_hits_predicted_power(self):
        # constant added to l_j feeds the recursion term 2u'*l_j only, so the
        # residual lives at z^-(j+1) alone
        k, j = 3, 2
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        bad = seq.with_entry(j, seq.ell(j) + seq.ring.one())
        resid = compatibility_residual(bad)
        assert resid.powers() == [-(j + 1)]


class TestCRelationResidual:
    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_for_recursion_sequences(self, k):
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        assert c_relation_residual(seq).is_zero()

    def test_twice_the_b_relation(self):
        # on a corrupted sequence both residuals are nonzero with ratio 2
        seq = symbolic(SeedCondition.painleve3(), 2)
        bad = seq.with_entry(2, seq.ell(2) + seq.ring.s())
        b_res = compatibility_residual(bad)
        ac_res = c_relation_residual(bad)
        assert not b_res.is_zero()
        assert ac_res.powers() == b_res.powers()
        for n in b_res.powers():
            assert ac_res.coeff(n) == 2 * b_res.coeff(n)


class TestBoundaryLengths:
    """One or two entries give only the orders they determine: z^0 from l_0
    alone, and z^-1 once l_1 is there."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_exact_prefixes_are_zero(self, count):
        seq = prefix(symbolic(SeedCondition.painleve3(), 2), count)
        assert compatibility_residual(seq).is_zero()
        assert c_relation_residual(seq).is_zero()

    def test_one_entry_keeps_only_z0(self):
        # l_0 = 1/2: c' - 1 - 2 (z - u) a = -1 - u'/(2z), cut at z^0
        seq = prefix(symbolic(SeedCondition.standard(), 1), 1)
        resid = c_relation_residual(seq)
        assert resid == LaurentPoly(seq.ring, {0: seq.ring.const(-1)})

    def test_two_entries_read_l1_at_z_minus_1(self, jet_seq):
        # z^-1: (l_1' - (l_0''' + 4 u l_0' + 2 u' l_0)) / 4 with l_0 = s/2
        ring = jet_seq.ring
        resid = compatibility_residual(jet_seq)
        expected = (ring.var("l1", 1) - 2 * ring.var("u", 0)
                    - ring.s() * ring.var("u", 1)) * Fraction(1, 4)
        assert resid == LaurentPoly(ring, {-1: expected})
        assert c_relation_residual(jet_seq) == resid * 2


class TestVerifyLax:
    """Each `verify --suite lax` line is read off one residual pair; it must
    give the verdict of the residuals on the prefix l_0 .. l_{k+1}."""

    @staticmethod
    def _verify(capsys, monkeypatch, corrupt, max_index):
        symbolic_seq = cli.symbolic
        monkeypatch.setattr(cli, "symbolic",
                            lambda seed, count: corrupt(symbolic_seq(seed, count)))
        code = cli.run(["verify", "--suite", "lax", "--max-index", str(max_index)])
        return code, capsys.readouterr().out.splitlines()[:-1]

    @pytest.mark.parametrize("j", [1, 2, 3, 5])
    @pytest.mark.parametrize("how", ["+ s", "* l2"])
    def test_each_line_is_the_verdict_on_its_prefix(self, capsys, monkeypatch, j, how):
        def corrupt(seq):
            extra = seq.ell(j) * seq.ell(2) if how == "* l2" else seq.ell(j) + seq.ring.s()
            return seq.with_entry(j, extra)

        max_index = 4
        code, lines = self._verify(capsys, monkeypatch, corrupt, max_index)
        seq = corrupt(symbolic(SeedCondition.painleve3(), max_index + 2))
        expected = []
        for k in range(1, max_index + 2):
            part = prefix(seq, k + 2)
            for name, resid in (("compat", compatibility_residual),
                                ("c-relation", c_relation_residual)):
                verdict = "PASS" if resid(part).is_zero() else "FAIL"
                expected.append(f"{verdict} lax {name} k={k}")
        assert lines == expected
        # l_j is first read at z^-j, inside the check at k = j - 1
        assert [line.startswith("FAIL") for line in lines[::2]] == [
            k >= j - 1 for k in range(1, max_index + 2)]
        assert code == cli.EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("max_index", [1, 2, 4])
    def test_one_residual_pair_per_run(self, capsys, monkeypatch, max_index):
        calls = []
        for name in ("compatibility_residual", "c_relation_residual"):
            def counted(seq, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(seq)
            monkeypatch.setattr(cli, name, counted)
        code, lines = self._verify(capsys, monkeypatch, lambda seq: seq, max_index)
        assert code == cli.EXIT_OK and len(lines) == 2 * (max_index + 1)
        assert sorted(calls) == ["c_relation_residual", "compatibility_residual"]
