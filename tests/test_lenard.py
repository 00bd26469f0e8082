"""Lenard sequence generation, the closed-form route, and the lattice
identities (master, shift, anti-diagonal transport)."""

import os
import subprocess
import sys
from collections import Counter
from itertools import starmap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractions import Fraction

import p3lenard
from p3lenard import cli, jetring, lenard
from p3lenard.diffpoly import NotExactDerivative, u, s, const
from p3lenard.hierarchy import boundary_jet_sequence
from p3lenard.laxpair import c_relation_residual, compatibility_residual
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

    def test_weight_grading(self, std_seq):
        # entry p is graded of weight 2p with u^(i) carrying weight i+2;
        # coefficients are positive integers
        for p in range(1, 5):
            for (s_pow, jets, _), c in std_seq.ell(p).sorted_terms():
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
        for top in (3, -1):
            with pytest.raises(IndexOutOfRange):
                lenard.Lattice(sym_seq, [(0, 2, 1), (0, 2, top)])

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
# verify checks two polynomials each by two hand-factored routes: the master
# residual is the shift residual one index up, since B_{n,m}' = Omega_{n,m}'
# - l_n' l_{m+1} - l_n l_{m+1}', and the Lax c-relation residual is twice the
# b-relation (compatibility) residual.  Both are algebra, not recursion, so
# they hold on sequences that break it: free jets, and a corrupted entry.

def _corrupted_p3():
    seq = symbolic(SeedCondition.painleve3(), 5)
    return seq.with_entry(2, seq.ell(2) + seq.u)


PAIRED_SEQS = {"free jets": boundary_jet_sequence(6), "corrupted p3": _corrupted_p3()}


def master_shift_pairs(seq):
    """(master(n, m), shift(n + 1, m)) for every n, m the sequence reaches."""
    top = len(seq) - 1
    return [(master_identity_residual(seq, n, m), shift_identity_residual(seq, n + 1, m))
            for n in range(top) for m in range(top)]


def lax_pairs(seq):
    """(c-relation(k), 2 compatibility(k)) for every k the sequence reaches."""
    return [(c_relation_residual(seq, k), compatibility_residual(seq, k) * 2)
            for k in range(1, len(seq) - 1)]


class TestPairedRoutes:
    @pytest.mark.parametrize("label", sorted(PAIRED_SEQS))
    def test_master_is_the_shift_one_index_up(self, label):
        pairs = master_shift_pairs(PAIRED_SEQS[label])
        assert all(master == shift for master, shift in pairs)
        assert sum(not master.is_zero() for master, _ in pairs) >= len(pairs) // 2

    @pytest.mark.parametrize("label", sorted(PAIRED_SEQS))
    def test_c_relation_is_twice_the_b_relation(self, label):
        pairs = lax_pairs(PAIRED_SEQS[label])
        assert all(c_rel == b_rel for c_rel, b_rel in pairs)
        assert not any(b_rel.is_zero() for _, b_rel in pairs)

    def test_a_bracket_term_verify_cannot_see_breaks_the_pair(self, capsys, monkeypatch):
        # l_b (l_{a+1}' - recursion_rhs(a)) is zero on every symbolic
        # sequence, so verify still passes with it added to B'; on free jets
        # it is not, and the master and shift routes part
        bracket = lenard.Lattice._bracket

        def widened(table, a, b):
            seq = table.seq
            extra = seq.ell(b) * (seq.jet(a + 1, 1) - seq.recursion_rhs(a))
            return bracket(table, a, b) + extra

        monkeypatch.setattr(lenard.Lattice, "_bracket", widened)
        assert cli.run(["verify", "--suite", "shift", "--max-index", "2"]) == cli.EXIT_OK
        capsys.readouterr()
        pairs = master_shift_pairs(PAIRED_SEQS["free jets"])
        assert sum(master != shift for master, shift in pairs) > 0


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
        refs = {}
        for name, args in _lattice_cases():
            memoized, reference = RESIDUALS[name]
            got = memoized(seq, *args)
            refs[name, args] = reference(seq, *args)
            assert got == refs[name, args], (name, args)
            nonzero += not got.is_zero()
        assert (nonzero > 0) == corrupt
        # one table per (m, n) gives every r from one run of the sum
        for m in range(MAX_INDEX):
            for n in range(MAX_INDEX + 1):
                checks = [(m, n, r) for r in range(min(n, MAX_INDEX + 1 - m) + 1)]
                table = lenard.Lattice(seq, checks)
                assert [start - end for start, end in starmap(table.sides, checks)] == [
                    refs["transport", check] for check in checks], (m, n)
                assert not table

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
        seq = symbolic(SEEDS["painleve3"], 4)
        assert memoized(seq, *args).is_zero()
        seq.ells[j] = seq.ell(j) + seq.u
        got = memoized(seq, *args)
        assert not got.is_zero()
        assert got == reference(seq, *args)

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

    @staticmethod
    def _count_brackets(monkeypatch):
        calls = []
        bracket = lenard.Lattice._bracket

        def counted(table, a, b):
            calls.append((str(table.seq.ell(0)), a, b))
            return bracket(table, a, b)

        monkeypatch.setattr(lenard.Lattice, "_bracket", counted)
        return calls

    def test_transport_suite_takes_one_bracket_per_step(self, monkeypatch):
        # `verify --suite transport --max-index 4` on one seed reads every
        # (m, n, r) from one table, whose running sums build its 19 distinct
        # B' once each, not the 66 that one transport_residual per r takes
        calls = self._count_brackets(monkeypatch)
        seq = symbolic(SeedCondition.painleve3(), 5)
        checks = list(cli._SUITES["transport"][0](seq, 4))
        assert len(checks) == 56 and all(ok for ok, _ in checks)
        assert len(calls) == len(set(calls)) == 19

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

    def test_table_drops_each_entry_after_its_last_read(self, capsys,
                                                        monkeypatch):
        # the transport suite at index 8 reads 87 distinct sums G_c(t) and
        # 26 factors per seed; dropped after their last read, at most 54 G
        # and 16 factors are held at once, and nothing is left once the
        # seed's checks are done
        tables = []

        class Spy(lenard.Lattice):
            def __init__(self, seq, checks=(), pairs=()):
                super().__init__(seq, checks, pairs)
                self.planned = Counter(isinstance(key[0], int) for key in self.reads)
                self.live = []
                tables.append(self)

            def _take(self, key):
                value = super()._take(key)
                self.live.append(Counter(isinstance(entry[0], int) for entry in self))
                return value

        monkeypatch.setattr(cli, "Lattice", Spy)
        code = cli.run(["verify", "--suite", "transport", "--max-index", "8"])
        capsys.readouterr()
        assert code == cli.EXIT_OK and len(tables) == 3
        for t in tables:
            assert t.planned == {True: 87, False: 26}
            assert max(live[True] for live in t.live) <= 54
            assert max(live[False] for live in t.live) <= 16
            assert not t and not t.runs and not +t.reads

    @pytest.mark.parametrize("suite", ["transport", "shift", "conservation"])
    def test_a_wrong_table_entry_fails_the_suite(self, capsys, monkeypatch, suite):
        # B'_{1,1} + l_1 l_1' for the one key every suite reads at index 2:
        # the checks compare the sums the table adds it into, so each suite
        # fails
        bracket = lenard.Lattice._bracket

        def wrong(self, a, b):
            value = bracket(self, a, b)
            return value + self.seq.ell(1) * self.seq.jet(1, 1) if (a, b) == (1, 1) \
                else value

        monkeypatch.setattr(lenard.Lattice, "_bracket", wrong)
        code = cli.run(["verify", "--suite", suite, "--max-index", "2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_VERIFY_FAILED
        assert f"FAIL {suite} " in out

    def test_a_step_no_check_spans_builds_no_bracket(self, monkeypatch):
        # on the diagonal c = 6 the checks span the steps j = 0, 3 and 4 but
        # not 1 and 2: the table builds three B', and each residual is the
        # reference one on a corrupted sequence
        calls = self._count_brackets(monkeypatch)
        seq = symbolic(SeedCondition.painleve3(), 6)
        bad = seq.with_entry(2, seq.ell(2) + seq.u)
        checks = [(0, 6, 1), (3, 3, 2), (0, 6, 0)]
        table = lenard.Lattice(bad, checks)
        got = [start - end for start, end in starmap(table.sides, checks)]
        assert got == [_ref_transport(bad, *check) for check in checks]
        assert not all(resid.is_zero() for resid in got)
        assert [key[1:] for key in calls] == [(5, 0), (2, 3), (1, 4)]
        assert not table and not table.runs

    def test_single_transport_takes_r_brackets(self, monkeypatch):
        calls = self._count_brackets(monkeypatch)
        seq = symbolic(SeedCondition.standard(), 6)
        for m, n in ((0, 5), (2, 4), (3, 3)):
            for r in range(min(n, 6 - m) + 1):
                calls.clear()
                assert transport_residual(seq, m, n, r).is_zero()
                assert [key[1:] for key in calls] == [(n - q - 1, m + q) for q in range(r)]


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

    @pytest.mark.parametrize("suite", LATTICE_SUITES)
    def test_suite_builds_each_factor_once_per_seed(self, capsys, monkeypatch, suite):
        built = []
        factors = lenard._factors

        def counted(seq, j):
            built.append((str(seq.ell(0)), j))
            return factors(seq, j)

        monkeypatch.setattr(lenard, "_factors", counted)
        code = cli.run(["verify", "--suite", suite, "--max-index", "6"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert built and len(built) == len(set(built))


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
