"""Lenard sequence generation, the closed-form route, and the lattice
identities (master, shift, anti-diagonal transport)."""

import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractions import Fraction

import p3lenard
from p3lenard import cli, jetring, lenard
from p3lenard.diffpoly import NotExactDerivative, u, s, const
from p3lenard.hierarchy import boundary_jet_sequence
from p3lenard.laxpair import c_relation_residual, compatibility_residual
from p3lenard.lenard import (IndexOutOfRange, LenardSequence, SeedCondition,
                             closed_form_standard, generate,
                             master_identity_residual, omega,
                             shift_identity_residual, symbolic,
                             transport_residual)

from oracles import sorted_terms

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
        # each constant is added to its own entry: l_2 moves by c_1 alone
        seq = generate(SeedCondition.standard(), 2, [1, Fraction(1, 3)])
        assert seq.ell(1) == L1 + const(1)
        bare = generate(SeedCondition.standard(), 2, [1, 0])
        assert seq.ell(2) - bare.ell(2) == const(Fraction(1, 3))

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

    @pytest.mark.parametrize("count", [1, 2, 6])
    def test_spent_jets_are_released(self, count):
        """Only the jets of the last entry are kept, D(l_n) from its check,
        and a jet read afterwards is the D chain of its entry."""
        seq = generate(SeedCondition.standard(), count,
                       [Fraction(1 - j, 3) for j in range(count)])
        assert sorted(seq._jets) == [(count, 1)]
        for j in range(count + 1):
            chain = seq.ell(j)
            for i in range(1, 4):
                chain = seq.D(chain)
                assert seq.jet(j, i) == chain

    def test_weight_grading(self, std_seq):
        # entry p is graded of weight 2p with u^(i) carrying weight i+2;
        # coefficients are positive integers
        for p in range(1, 5):
            for (s_pow, jets, _), c in sorted_terms(std_seq.ell(p)):
                assert s_pow == 0
                assert sum(e * (o + 2) for (_, o), e in jets) == 2 * p
                assert c.denominator == 1 and c > 0


class TestClosedForm:
    def test_goldens(self):
        assert closed_form_standard(3) == [const(Fraction(1, 2)), L1, L2, L3]

    def test_route_equivalence(self, std_seq):
        assert closed_form_standard(6) == std_seq.ells

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

    def test_each_jet_is_read_once_per_sum(self, monkeypatch):
        """A bracket diagonal reads each (j, i), i <= 2, of its Omegas once."""
        seq = symbolic(SeedCondition.painleve3(), 7)
        reads = Counter()
        jet = LenardSequence.jet

        def counted(self, j, i):
            reads[j, i] += 1
            return jet(self, j, i)

        lenard.bracket_diagonal(seq, 6, 0)             # fills the jet table
        monkeypatch.setattr(LenardSequence, "jet", counted)
        lenard.bracket_diagonal(seq, 6, 0)
        assert reads == Counter({(j, i): 1 for j in range(7) for i in range(3)})

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
        for m, n in ((len(sym_seq), 0), (-1, 2), (0, len(sym_seq))):
            with pytest.raises(IndexOutOfRange):
                transport_residual(sym_seq, m, n, 0)

    def test_identities_hold_on_generated_sequence(self, std_seq):
        # same identities on the explicitly integrated representation
        for n in range(3):
            for m in range(3):
                assert master_identity_residual(std_seq, n, m).is_zero()

    def test_corrupted_sequence_breaks_master(self, std_seq):
        bad = std_seq.with_entry(2, std_seq.ell(2) + u())
        assert not master_identity_residual(bad, 1, 1).is_zero()

    def test_master_returns_the_reference_residual(self, std_seq):
        """The residual is built only when the check fails, and is then the
        whole difference; on a pass it is the zero of the ring."""
        bad = _corrupted_p3()
        for seq in (std_seq.with_entry(2, std_seq.ell(2) + u()), bad, std_seq):
            for n in range(3):
                for m in range(3):
                    resid = master_identity_residual(seq, n, m)
                    assert resid == _ref_master(seq, n, m)
                    assert resid.ring is seq.ring
        assert sum(not master_identity_residual(bad, n, m).is_zero()
                   for n in range(3) for m in range(3)) > 0


# -- paired routes -----------------------------------------------------------------
# The master, shift and transport residuals are sums of one unit step, so
# the route that checks them is an oracle: the unmemoized references below,
# which differentiate whole products.  The Lax c-relation residual is twice
# the b-relation (compatibility) residual.  Both are algebra, not recursion,
# so they hold on sequences that break it: free jets, and a corrupted entry.

def _corrupted_p3():
    seq = symbolic(SeedCondition.painleve3(), 5)
    return seq.with_entry(2, seq.ell(2) + seq.u)


PAIRED_SEQS = {"free jets": boundary_jet_sequence(6), "corrupted p3": _corrupted_p3()}


def oracle_cases(seq):
    """(name, args) of every master, shift and transport residual the
    sequence reaches."""
    top = len(seq) - 1
    cases = [("master", (n, m)) for n in range(top) for m in range(top)]
    cases += [("shift", (n, m)) for n in range(1, top + 1) for m in range(top)]
    return cases + [("transport", (m, n, r)) for m in range(top) for n in range(top + 1)
                    for r in range(min(n, top - m) + 1)]


def oracle_mismatches(seq):
    """The cases of ``oracle_cases`` whose residual differs from its reference."""
    return [(name, args) for name, args in oracle_cases(seq)
            if RESIDUALS[name][0](seq, *args) != RESIDUALS[name][1](seq, *args)]


class TestPairedRoutes:
    @pytest.mark.parametrize("label, nonzero", [("corrupted p3", 16), ("free jets", 49)],
                             ids=["corrupted p3", "free jets"])
    def test_residuals_match_the_references(self, label, nonzero):
        # a fresh sequence: nothing kept from another test
        seq = {"free jets": boundary_jet_sequence(6), "corrupted p3": _corrupted_p3()}[label]
        assert oracle_mismatches(seq) == []
        top = len(seq) - 1
        assert sum(not master_identity_residual(seq, n, m).is_zero()
                   for n in range(top) for m in range(top)) == nonzero

    @pytest.mark.parametrize("label", sorted(PAIRED_SEQS))
    def test_c_relation_is_twice_the_b_relation(self, label):
        # a z^p coefficient reads only l_{-p} and l_{-p-1}, so each prefix
        # gives the orders of the whole residual that it reaches
        seq = PAIRED_SEQS[label]
        whole = compatibility_residual(seq)
        assert c_relation_residual(seq) == whole * 2
        for k in range(1, len(seq) - 1):
            part = LenardSequence(seq.ells[:k + 2], seq.ring, seq.rules)
            b_rel = compatibility_residual(part)
            assert b_rel == whole.truncate(-k - 1) and not b_rel.is_zero()
            assert c_relation_residual(part) == b_rel * 2

    def test_a_bracket_term_verify_cannot_see_breaks_the_pair(self, capsys, monkeypatch):
        # l_m (l_n' - recursion_rhs(n - 1)) is zero on every symbolic
        # sequence, so verify still passes with it added to the unit step;
        # on free jets it is not, and the oracle parts from the residuals
        step = lenard._step

        def widened(seq, m, n):
            return step(seq, m, n) + seq.ell(m) * (seq.jet(n, 1) - seq.recursion_rhs(n - 1))

        monkeypatch.setattr(lenard, "_step", widened)
        assert cli.run(["verify", "--suite", "all", "--max-index", "3"]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("\n195 passed, 0 failed\n")
        assert len(oracle_mismatches(boundary_jet_sequence(6))) == 238


# -- memo ------------------------------------------------------------------------
# Reference copies of the unmemoized formulas: every derivative is taken
# afresh, and transport differentiates the summed bracket.

def _ref_omega(seq, n, m):
    ln, lm = seq.ell(n), seq.ell(m)
    prod = ln * lm
    return (seq.D(seq.D(prod)) - 3 * seq.D(ln) * seq.D(lm)
            + 4 * seq.u * prod)


def _ref_master(seq, n, m):
    lhs = seq.ell(m) * seq.D(seq.ell(n + 1)) + seq.ell(n) * seq.D(seq.ell(m + 1))
    return lhs - seq.D(_ref_omega(seq, n, m))


def _ref_shift(seq, n, m):
    bracket = _ref_omega(seq, n - 1, m) - seq.ell(n - 1) * seq.ell(m + 1)
    return (seq.ell(m) * seq.D(seq.ell(n))
            - seq.ell(m + 1) * seq.D(seq.ell(n - 1))
            - seq.D(bracket))


def _ref_transport(seq, m, n, r):
    bracket = seq.ring.zero()
    for q in range(r):
        bracket += (_ref_omega(seq, n - q - 1, m + q)
                    - seq.ell(n - q - 1) * seq.ell(m + q + 1))
    return (seq.ell(m) * seq.D(seq.ell(n))
            - seq.ell(m + r) * seq.D(seq.ell(n - r))
            - seq.D(bracket))


RESIDUALS = {
    "master": (master_identity_residual, _ref_master),
    "shift": (shift_identity_residual, _ref_shift),
    "transport": (transport_residual, _ref_transport),
}
MAX_INDEX = 5


def _lattice_cases():
    """Every master, shift and transport check with indices <= MAX_INDEX on
    a sequence l_0 .. l_{MAX_INDEX+1}."""
    for n in range(MAX_INDEX):
        for m in range(MAX_INDEX):
            yield "master", (n, m)
    for n in range(1, MAX_INDEX + 1):
        for m in range(MAX_INDEX):
            yield "shift", (n, m)
    for n in range(MAX_INDEX + 1):
        for m in range(MAX_INDEX):
            for r in range(min(n, MAX_INDEX + 1 - m) + 1):
                yield "transport", (m, n, r)


class TestMemo:
    @pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
    @pytest.mark.parametrize("label", sorted(SEEDS))
    def test_residuals_equal_unmemoized_reference(self, label, corrupt):
        seq = symbolic(SEEDS[label], MAX_INDEX + 1)
        if corrupt:
            seq = seq.with_entry(3, seq.ell(3) + seq.u)
        nonzero = 0
        for name, args in _lattice_cases():
            memoized, reference = RESIDUALS[name]
            got = memoized(seq, *args)
            assert got == reference(seq, *args), (name, args)
            nonzero += not got.is_zero()
        assert (nonzero > 0) == corrupt

    def test_with_entry_starts_an_empty_memo(self):
        seq = symbolic(SEEDS["standard"], 4)
        for name, args in (("master", (1, 1)), ("shift", (2, 1)),
                           ("transport", (0, 3, 2))):
            memoized, reference = RESIDUALS[name]
            assert memoized(seq, *args).is_zero()
            bad = seq.with_entry(2, seq.ell(2) + seq.u)
            got = memoized(bad, *args)
            assert not got.is_zero()
            assert got == reference(bad, *args)
            assert memoized(seq, *args).is_zero()

    @pytest.mark.parametrize("name, args, j", [
        ("master", (1, 1), 1), ("master", (1, 1), 2), ("shift", (2, 1), 2),
        ("transport", (0, 3, 2), 1)])
    def test_in_place_entry_change_is_recomputed(self, name, args, j):
        memoized, reference = RESIDUALS[name]
        # on ``warm`` every lattice suite has run first, so every step and
        # factor it reads is kept before l_j changes
        fresh, warm = (symbolic(SEEDS["painleve3"], 4) for _ in range(2))
        for suite in LATTICE_SUITES:
            assert all(ok for ok, _ in cli._SUITES[suite][0](warm, 3))
        for seq in (fresh, warm):
            assert memoized(seq, *args).is_zero()
            seq.ells[j] = seq.ell(j) + seq.u
            got = memoized(seq, *args)
            assert not got.is_zero()
            assert got == reference(seq, *args)
        for suite in LATTICE_SUITES:
            assert list(cli._SUITES[suite][0](warm, 3)) == _ref_suite(suite, warm, 3)

    def test_transport_sweep_derivative_count(self, monkeypatch):
        # The `verify --suite transport --max-index 4` sweep over one seed,
        # construction included: at most 3 derivatives per entry, the jets
        # D^i(l_j), i <= 3.
        max_index = 4
        calls = []
        derivative = jetring.Poly.total_derivative

        def counted(self, rules=None):
            calls.append(None)
            return derivative(self, rules)

        monkeypatch.setattr(jetring.Poly, "total_derivative", counted)
        seq = symbolic(SeedCondition.painleve3(), max_index + 1)
        for n in range(max_index + 1):
            for m in range(max_index):
                for r in range(min(n, max_index + 1 - m) + 1):
                    assert transport_residual(seq, m, n, r).is_zero()
        assert len(calls) <= 3 * len(seq)

    # Each unit step T(m, n, 1) holds one bracket derivative, B_{n-1,m}'.
    @staticmethod
    def _count_brackets(monkeypatch):
        """(seed, m, n) of every unit step built, not read back from the
        sequence's table, from here on."""
        built = []
        kept = lenard.LenardSequence._kept

        def counted(seq, table, key, reads, build):
            def build_counted():
                built.append((str(seq.ell(0)), *key))
                return build()

            return kept(seq, table, key, reads,
                        build_counted if table is seq._steps else build)

        monkeypatch.setattr(lenard.LenardSequence, "_kept", counted)
        return built

    def test_transport_suite_takes_one_bracket_per_step(self, monkeypatch):
        # `verify --suite transport --max-index 4` on one seed reads every
        # (m, n, r) from the sequence's steps, 19 distinct ones built once
        # each, not the 66 reads that its transport residuals sum
        built = self._count_brackets(monkeypatch)
        seq = symbolic(SeedCondition.painleve3(), 5)
        checks = list(cli._SUITES["transport"][0](seq, 4))
        assert len(checks) == 56 and all(ok for ok, _ in checks)
        assert len(built) == len(set(built)) == len(seq._steps) == 19

    @pytest.mark.parametrize("suite, max_index, builds", [
        ("transport", 4, 57), ("transport", 8, 213),
        ("conservation", 2, 27), ("conservation", 8, 243)])
    def test_suite_builds_each_bracket_once_per_seed(self, capsys, monkeypatch,
                                                     suite, max_index, builds):
        built = self._count_brackets(monkeypatch)
        code = cli.run(["verify", "--suite", suite, "--max-index", str(max_index)])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert len(built) == len(set(built)) == builds

    def test_all_suites_build_each_step_once_per_seed(self, capsys, monkeypatch):
        # master (n, m) is the step (m, n + 1) that shift (n + 1, m) reads,
        # and transport and conservation sum steps: under --suite all the
        # four lattice suites share one table per seed, whose 49 steps (m, n)
        # are m = 0..6 and n = 1..7
        built = self._count_brackets(monkeypatch)
        code = cli.run(["verify", "--suite", "all", "--max-index", "6"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert len(built) == len(set(built))
        per_seed = Counter(seed for seed, _, _ in built)
        assert sorted(per_seed.values()) == [49] * 3

    @pytest.mark.parametrize("suite", ["master", "transport", "shift", "conservation"])
    def test_a_wrong_table_entry_fails_the_suite(self, capsys, monkeypatch, suite):
        # T(1, 2, 1) + l_1 l_1' for the one step every suite reads at index
        # 2: master (1, 1), shift (2, 1), transport (1, 2, 1) and tau k=1
        # p=0 each read it, so each suite fails
        step = lenard._step

        def wrong(seq, m, n):
            value = step(seq, m, n)
            return value + seq.ell(1) * seq.jet(1, 1) if (m, n) == (1, 2) else value

        monkeypatch.setattr(lenard, "_step", wrong)
        code = cli.run(["verify", "--suite", suite, "--max-index", "2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_VERIFY_FAILED
        assert f"FAIL {suite} " in out

    def test_single_transport_takes_r_brackets(self, monkeypatch):
        built = self._count_brackets(monkeypatch)
        for m, n in ((0, 5), (2, 4), (3, 3)):
            for r in range(min(n, 6 - m) + 1):
                seq = symbolic(SeedCondition.standard(), 6)
                built.clear()
                assert transport_residual(seq, m, n, r).is_zero()
                assert [key[1:] for key in built] == [(m + q, n - q) for q in range(r)]


# -- the suites against the references ------------------------------------------------
# Each lattice suite of `verify`, run through cli._SUITES on exact and corrupted
# sequences, prints the verdicts of the unmemoized residuals above.

def _ref_bracket_sum(seq, keys):
    return sum((_ref_omega(seq, a, b) - seq.ell(a) * seq.ell(b + 1) for a, b in keys),
               seq.ring.zero())


def _ref_conservation(seq, k, p, kind):
    """D(tau_p) + 2 l_{k-p} D(l_{k+1}) or D(sigma_p) + 2 l_p D(l_0), from the
    whole sums as defined."""
    if kind == "tau":
        keys = [(k - q, k - p + q) for q in range(p + 1)]
        tau = -(seq.ell(k + 1) * seq.ell(k - p) + _ref_bracket_sum(seq, keys))
        return seq.D(tau) + 2 * seq.ell(k - p) * seq.D(seq.ell(k + 1))
    keys = [(p - 1 - q, q) for q in range(p)]
    sigma = _ref_bracket_sum(seq, keys) - seq.ell(0) * seq.ell(p)
    return seq.D(sigma) + 2 * seq.ell(p) * seq.D(seq.ell(0))


def _ref_suite(suite, seq, top):
    """The (ok, description) list of ``suite`` at --max-index ``top``."""
    if suite == "master":
        cases = [(_ref_master, (n, m), f"n={n} m={m}")
                 for n in range(top) for m in range(top)]
    elif suite == "shift":
        cases = [(_ref_shift, (n, m), f"n={n} m={m}")
                 for n in range(1, top + 1) for m in range(top)]
    elif suite == "transport":
        cases = [(_ref_transport, (m, n, r), f"m={m} n={n} r={r}")
                 for n in range(top + 1) for m in range(top)
                 for r in range(min(n, top + 1 - m) + 1)]
    else:
        cases = [(_ref_conservation, (k, p, "tau"), f"tau k={k} p={p}")
                 for k in range(1, top + 1) for p in range(k + 1)]
        cases += [(_ref_conservation, (0, p, "sigma"), f"sigma p={p}")
                  for p in range(top + 2)]
    return [(ref(seq, *args).is_zero(), desc) for ref, args, desc in cases]


def _count_factors(monkeypatch):
    """(seed, j) of every factor pair (P_j, Q_j) built from here on."""
    built = []
    factors = lenard._factors

    def counted(seq, j):
        built.append((str(seq.ell(0)), j))
        return factors(seq, j)

    monkeypatch.setattr(lenard, "_factors", counted)
    return built


CORRUPTIONS = {
    "exact": lambda seq: seq,
    "l2+u": lambda seq: seq.with_entry(2, seq.ell(2) + seq.u),
    "l3+u*l2+u'": lambda seq: seq.with_entry(3, seq.ell(3) + seq.u * seq.ell(2) + seq.du),
}
LATTICE_SUITES = ("master", "shift", "transport", "conservation")


class TestSuitePath:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("label", sorted(SEEDS))
    def test_suites_print_the_reference_verdicts(self, label, corruption):
        seq = CORRUPTIONS[corruption](symbolic(SEEDS[label], 5))
        for suite in LATTICE_SUITES:
            got = list(cli._SUITES[suite][0](seq, 4))
            assert got == _ref_suite(suite, seq, 4), suite
            assert (corruption == "exact") == all(ok for ok, _ in got), suite

    @pytest.mark.parametrize("label", sorted(SEEDS))
    def test_factors_from_the_next_entry_hide_failures(self, monkeypatch, label):
        # P_a = l_{a+1}' + 2 u' l_a holds only where the recursion does, so
        # built that way it hides failures that the checks exist to find
        bad = CORRUPTIONS["l2+u"](symbolic(SEEDS[label], 5))
        want = {suite: _ref_suite(suite, bad, 4) for suite in ("transport", "shift")}
        factors = lenard._factors

        def leaky(seq, j):
            return seq.jet(j + 1, 1) + 2 * seq.du * seq.ell(j), factors(seq, j)[1]

        monkeypatch.setattr(lenard, "_factors", leaky)
        fails = {}
        for suite, verdicts in want.items():
            got = list(cli._SUITES[suite][0](bad, 4))
            assert got != verdicts
            fails[suite] = [sum(not ok for ok, _ in v) for v in (verdicts, got)]
        assert fails == {"transport": [32, 25], "shift": [12, 8]}

    @pytest.mark.parametrize("suite", (*LATTICE_SUITES, "all"))
    def test_suite_builds_each_factor_once_per_seed(self, capsys, monkeypatch, suite):
        # under --suite all, once for the whole run: the suites share the
        # factors kept on each seed's sequence
        built = _count_factors(monkeypatch)
        code = cli.run(["verify", "--suite", suite, "--max-index", "6"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize("corruption", ["l2+u", "l3+u*l2+u'"])
    def test_all_suites_print_each_suite_alone(self, capsys, monkeypatch, corruption):
        # the suites of one run share each seed's kept steps and factors,
        # building each factor once; on corrupted sequences the run prints,
        # FAIL lines included, what each suite prints alone
        monkeypatch.setattr(cli, "symbolic", lambda seed, count: CORRUPTIONS[corruption](
            symbolic(seed, count)))
        built = _count_factors(monkeypatch)

        def lines(suite):
            code = cli.run(["verify", "--suite", suite, "--max-index", "4"])
            *checks, _ = capsys.readouterr().out.splitlines()
            failed = any(line.startswith("FAIL") for line in checks)
            assert code == (cli.EXIT_VERIFY_FAILED if failed else cli.EXIT_OK)
            return checks

        alone = [line for suite in cli.SUITES for line in lines(suite)]
        built.clear()
        assert lines("all") == alone
        assert built and len(built) == len(set(built))
        assert set(LATTICE_SUITES) <= {line.split()[1] for line in alone
                                       if line.startswith("FAIL")}


# -- the jet table's premise -------------------------------------------------------
# Omega' and B' are built from jets by Leibniz, which holds only if seq.D is
# a derivation: D(pq) == D(p) q + p D(q).

DERIVATION_SEQS = {
    **{label: symbolic(seed, 3) for label, seed in SEEDS.items()},
    "boundary": boundary_jet_sequence(2),
}


def _atoms(seq):
    """s, the parameters, u, u', u'' and the entry symbols; a rule-defined
    entry enters at order 0 only, since its rule gives only its first
    derivative."""
    ring = seq.ring
    atoms = [ring.s(), *(ring.param(name) for name in ring.params)]
    for name in ring.dependents:
        orders = (0,) if name in seq.rules else (0, 1, 2)
        atoms += [ring.var(name, i) for i in orders]
    return atoms


@st.composite
def _polys(draw, atoms):
    ring = atoms[0].ring
    p = ring.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = ring.const(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))))
        for atom in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            term = term * atom
        p = p + term
    return p


def _leibniz_defect(D, p, q):
    return D(p * q) - (D(p) * q + p * D(q))


class TestDerivation:
    @pytest.mark.parametrize("label", sorted(DERIVATION_SEQS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_D_is_a_derivation(self, label, data):
        seq = DERIVATION_SEQS[label]
        atoms = _atoms(seq)
        p, q = data.draw(_polys(atoms)), data.draw(_polys(atoms))
        assert _leibniz_defect(seq.D, p, q).is_zero()

    @pytest.mark.parametrize("label", sorted(DERIVATION_SEQS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_non_derivation_fails(self, label, data):
        # p -> D(p) + p leaves the defect -p q
        seq = DERIVATION_SEQS[label]
        atoms = _atoms(seq)
        p, q = data.draw(_polys(atoms)), data.draw(_polys(atoms))
        assume(p and q)
        assert not _leibniz_defect(lambda e: seq.D(e) + e, p, q).is_zero()
