"""Lenard sequence generation, the closed-form route, and the lattice
identities (master, shift, anti-diagonal transport)."""

import os
import subprocess
import sys

import pytest

from fractions import Fraction

import p3lenard
from p3lenard import lenard
from p3lenard.diffpoly import NotExactDerivative, u, s, const
from p3lenard.lenard import (IndexOutOfRange, SeedCondition, closed_form_standard,
                             generate, master_identity_residual, omega,
                             shift_identity_residual, symbolic,
                             transport_residual)

L1 = u()
L2 = u(2) + 3 * u() ** 2
L3 = u(4) + 10 * u() * u(2) + 5 * u(1) ** 2 + 10 * u() ** 3

SEEDS = {
    "standard": SeedCondition.standard(),
    "painleve3": SeedCondition.painleve3(),
    "custom": SeedCondition.custom(s() ** 2 * Fraction(1, 2)),
}


@pytest.fixture(scope="module")
def std_seq():
    return generate(SeedCondition.standard(), 6, [0] * 6)


@pytest.fixture(scope="module", params=sorted(SEEDS))
def sym_seq(request):
    return symbolic(SEEDS[request.param], 6)


class TestGenerate:
    def test_first_entries(self, std_seq):
        assert std_seq.ell(0) == const(Fraction(1, 2))
        assert std_seq.ell(1) == L1
        assert std_seq.ell(2) == L2

    def test_third_entry(self, std_seq):
        assert std_seq.ell(3) == L3

    def test_integration_constants_are_recorded(self):
        seq = generate(SeedCondition.standard(), 2, [1, Fraction(1, 3)])
        assert seq.ell(1) == L1 + const(1)
        assert seq.constants == [1, Fraction(1, 3)]

    def test_painleve3_seed_leaves_the_ring(self):
        # RHS at step 0 is 2u + s*u', whose u-term has no differential-
        # polynomial antiderivative
        with pytest.raises(NotExactDerivative) as exc:
            generate(SeedCondition.painleve3(), 1, [0])
        assert exc.value.step_index == 0

    def test_wrong_antiderivative_is_rejected(self, monkeypatch):
        exact = lenard.formal_integral
        monkeypatch.setattr(lenard, "formal_integral", lambda p: exact(p) + u())
        with pytest.raises(NotExactDerivative) as info:
            generate(SeedCondition.standard(), 2, [0, 0])
        assert info.value.step_index == 0

    def test_wrong_antiderivative_is_rejected_under_optimize(self):
        script = (
            "from p3lenard import lenard\n"
            "from p3lenard.diffpoly import NotExactDerivative, u\n"
            "exact = lenard.formal_integral\n"
            "lenard.formal_integral = lambda p: exact(p) + u()\n"
            "print('debug', __debug__)\n"
            "try:\n"
            "    lenard.generate(lenard.SeedCondition.standard(), 2, [0, 0])\n"
            "except NotExactDerivative:\n"
            "    print('raised')\n")
        src = os.path.dirname(os.path.dirname(p3lenard.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.splitlines() == ["debug False", "raised"], done.stderr

    def test_count_constants_mismatch(self):
        with pytest.raises(ValueError):
            generate(SeedCondition.standard(), 2, [0])

    def test_index_out_of_range(self, std_seq):
        with pytest.raises(IndexOutOfRange):
            std_seq.ell(99)

    def test_weight_grading(self, std_seq):
        # entry p is graded of weight 2p with u^(i) carrying weight i+2;
        # coefficients are positive integers
        for p in range(1, 5):
            for (s_pow, jets, _), c in std_seq.ell(p).terms.items():
                assert s_pow == 0
                assert sum(e * (o + 2) for (_, o), e in jets) == 2 * p
                assert c.denominator == 1 and c > 0


class TestClosedForm:
    def test_goldens(self):
        assert closed_form_standard(1) == L1
        assert closed_form_standard(2) == L2
        assert closed_form_standard(3) == L3

    def test_route_equivalence(self, std_seq):
        for p in range(1, 7):
            assert closed_form_standard(p) == std_seq.ell(p)

    def test_requires_positive_index(self):
        with pytest.raises(IndexOutOfRange):
            closed_form_standard(0)


class TestOmega:
    def test_standard_base(self, std_seq):
        assert omega(std_seq, 0, 0) == u()

    def test_painleve3_base(self):
        seq = symbolic(SeedCondition.painleve3(), 2)
        ring = seq.ring
        assert omega(seq, 0, 0) == (ring.s(2) * ring.var("u", 0)
                                    - ring.const(Fraction(1, 4)))

    def test_symmetry(self, sym_seq):
        for n in range(5):
            for m in range(5):
                assert omega(sym_seq, n, m) == omega(sym_seq, m, n)


class TestIdentities:
    def test_master_residual_zero(self, sym_seq):
        for n in range(4):
            for m in range(4):
                assert master_identity_residual(sym_seq, n, m).is_zero()

    def test_shift_residual_zero(self, sym_seq):
        for n in range(1, 5):
            for m in range(4):
                assert shift_identity_residual(sym_seq, n, m).is_zero()

    def test_shift_requires_positive_n(self, sym_seq):
        with pytest.raises(IndexOutOfRange):
            shift_identity_residual(sym_seq, 0, 0)

    def test_transport_residual_zero(self, sym_seq):
        for m in range(3):
            for n in range(4):
                for r in range(min(n, 5 - m) + 1):
                    assert transport_residual(sym_seq, m, n, r).is_zero()

    def test_transport_r1_equals_shift(self, sym_seq):
        assert (transport_residual(sym_seq, 0, 2, 1)
                == shift_identity_residual(sym_seq, 2, 0))

    def test_transport_r0_trivial(self, sym_seq):
        assert transport_residual(sym_seq, 1, 3, 0).is_zero()

    def test_transport_range_errors(self, sym_seq):
        with pytest.raises(IndexOutOfRange):
            transport_residual(sym_seq, 0, 2, 3)
        with pytest.raises(IndexOutOfRange):
            transport_residual(sym_seq, 0, 2, -1)

    def test_identities_hold_on_generated_sequence(self, std_seq):
        # same identities on the explicitly integrated representation
        for n in range(3):
            for m in range(3):
                assert master_identity_residual(std_seq, n, m).is_zero()

    def test_corrupted_sequence_breaks_master(self, std_seq):
        bad = std_seq.with_entry(2, std_seq.ell(2) + u())
        assert not master_identity_residual(bad, 1, 1).is_zero()
