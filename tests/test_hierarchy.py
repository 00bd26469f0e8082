"""Hierarchy system generation, golden comparisons with the reference display
forms, and the constants of motion."""

import pytest

from fractions import Fraction

from p3lenard import hierarchy, jetring, lenard
from p3lenard.diffpoly import U_RING, s as s_poly
from p3lenard.hierarchy import (boundary_jet_sequence, build_p3_system,
                                conservation_residual, conserved_tau,
                                hierarchy_ring)
from p3lenard.jetring import RatExpr, ZeroDenominator
from p3lenard.lenard import (IndexOutOfRange, LenardSequence, SeedCondition,
                             bracket_diagonal, closed_form_standard, generate, omega,
                             symbolic)

from oracles import conserved_sigma, equation_equivalent


def _symbols(ring):
    """Polynomial constructors over a hierarchy ring: jet variables, s and
    the tau parameters."""
    def var(name):
        return lambda order=0: ring.var(name, order)
    taus = [ring.param(f"tau{p}") for p in range(len(ring.params))]
    return var, ring.s(), taus


@pytest.fixture(scope="module")
def sys1():
    return build_p3_system(1)


@pytest.fixture(scope="module")
def sys2():
    return build_p3_system(2)


def reference_k1(ring):
    """l1'' = (l1')^2/l1 - l1'/s - l1^2/s - tau0/l1 + tau1/s, as the
    difference of its sides times s*l1."""
    var, S, (T0, T1) = _symbols(ring)
    L1 = var("l1")
    return RatExpr(S * L1() * L1(2) - S * L1(1) ** 2 + L1() * L1(1) + L1() ** 3
                   + S * T0 - L1() * T1)


def reference_k2_first(ring):
    """0 = tau1/(2 l1 l2) - tau0/l2^2 + (l2')^2/l2^2 - l1' l2'/(l1 l2)
    + l1''/l1 - l2''/l2 - l2/(2 l1), times 2*l1*l2^2."""
    var, S, (T0, T1, T2) = _symbols(ring)
    L1, L2 = var("l1"), var("l2")
    return RatExpr(T1 * L2() - 2 * T0 * L1() + 2 * L1() * L2(1) ** 2
                   - 2 * L1(1) * L2(1) * L2() + 2 * L1(2) * L2() ** 2
                   - 2 * L1() * L2(2) * L2() - L2() ** 3)


def reference_k2_second(ring, flip_tau2=True):
    """0 = l1^2 (l2')^2/l2^2 - (l1')^2 + s (l2')^2/l2 - l2' - tau0 l1^2/l2^2
    - s tau0/l2 - tau2 - (2 l1^2 l2''/l2 - 2 l1 l1'' + s l2'' + 2 l2 l1),
    times l2^2.  Its published form carries the opposite sign on tau_2
    relative to the defining sum (see the repo notes), so the golden
    comparison normalizes that sign."""
    var, S, (T0, T1, T2) = _symbols(ring)
    L1, L2 = var("l1"), var("l2")
    tau_term = T2 if flip_tau2 else -T2
    return RatExpr(L1() ** 2 * L2(1) ** 2 - L1(1) ** 2 * L2() ** 2
                   + S * L2(1) ** 2 * L2() - L2(1) * L2() ** 2
                   - T0 * L1() ** 2 - S * T0 * L2() + tau_term * L2() ** 2
                   - (2 * L1() ** 2 * L2(2) * L2() - 2 * L1() * L1(2) * L2() ** 2
                      + S * L2(2) * L2() ** 2 + 2 * L2() ** 3 * L1()))


class TestBuildSystem:
    def test_k1_golden(self, sys1):
        assert equation_equivalent(sys1.equations[0], reference_k1(sys1.ring))

    def test_k1_perturbed_parameter_differs(self, sys1):
        # tau1 -> tau1 + 1 adds -1/s to the display, -l1 once cleared
        perturbed = reference_k1(sys1.ring) + RatExpr(-sys1.ring.var("l1", 0))
        assert not equation_equivalent(sys1.equations[0], perturbed)

    def test_k1_cleared_form_is_polynomial(self, sys1):
        # s*l1*(equation) clears every denominator
        ring = sys1.ring
        cleared = sys1.equations[0] * RatExpr.of(ring.s() * ring.var("l1", 0), ring)
        assert cleared.den == ring.one()

    def test_k2_goldens(self, sys2):
        assert equation_equivalent(sys2.equations[0], reference_k2_first(sys2.ring))
        assert equation_equivalent(sys2.equations[1], reference_k2_second(sys2.ring))

    def test_k2_published_tau2_sign_differs(self, sys2):
        # documents the sign normalization applied in reference_k2_second
        literal = reference_k2_second(sys2.ring, flip_tau2=False)
        assert not equation_equivalent(sys2.equations[1], literal)

    def test_second_order_after_elimination(self, sys2):
        for eq in sys2.equations:
            for name in ("l1", "l2"):
                for part in (eq.num, eq.den):
                    order = part.max_order(name)
                    assert order is None or order <= 2

    def test_u_not_present_after_elimination(self, sys2):
        for eq in sys2.equations:
            assert eq.num.max_order("u") is None
            assert eq.den.max_order("u") is None

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_u_expr_is_the_tau0_equation_solved(self, k):
        # u from -Omega_{k,k} - tau_0 = 0, written out by hand
        system = build_p3_system(k)
        ring = system.ring
        lk = ring.var(f"l{k}", 0)
        lk2 = lk * lk
        num = (lk2.total_derivative().total_derivative()
               - 3 * lk.total_derivative() ** 2 + ring.param("tau0"))
        want = RatExpr(-num, 4 * lk2)
        assert (system.u_expr.num, system.u_expr.den) == (want.num, want.den)
        assert system.u_expr != RatExpr(num, 4 * lk2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            build_p3_system(0)


class TestEquationEquivalent:
    def test_scaling_invariance(self, sys1):
        ring = sys1.ring
        scale = RatExpr.of(ring.s() * ring.var("l1", 0), ring)
        eq = sys1.equations[0]
        assert equation_equivalent(eq, eq * scale)

    def test_symmetric(self, sys1):
        eq = sys1.equations[0]
        ref = reference_k1(sys1.ring)
        assert equation_equivalent(eq, ref) == equation_equivalent(ref, eq)

    def test_zero_denominator_raises(self, sys1):
        ring = sys1.ring
        with pytest.raises(ZeroDenominator):
            RatExpr(ring.one(), ring.zero())


class TestConservedQuantities:
    def test_tau0_is_minus_omega_kk(self):
        for k in (1, 2):
            seq = symbolic(SeedCondition.painleve3(), k + 1)
            seq = seq.with_entry(k + 1, seq.ring.zero())
            tau0 = conserved_tau(seq, k, 0)
            assert tau0 == -omega(seq, k, k)

    def test_tau1_k1_expansion(self):
        seq = symbolic(SeedCondition.painleve3(), 2)
        seq = seq.with_entry(2, seq.ring.zero())
        expected = seq.ell(1) ** 2 - 2 * omega(seq, 0, 1)
        assert conserved_tau(seq, 1, 1) == expected

    def test_sigma0_standard(self):
        seq = generate(SeedCondition.standard(), 1, [0])
        assert conserved_sigma(seq, 0) == -s_poly(0) * Fraction(1, 4)

    def test_sigma_vanishes_standard(self):
        seq = generate(SeedCondition.standard(), 5, [0] * 5)
        for p in range(1, 6):
            assert conserved_sigma(seq, p).is_zero()

    def test_index_errors(self):
        seq = symbolic(SeedCondition.painleve3(), 2)
        with pytest.raises(IndexOutOfRange):
            conserved_tau(seq, 1, 2)
        with pytest.raises(IndexOutOfRange):
            conserved_tau(seq, 3, 0)
        with pytest.raises(IndexOutOfRange):
            conserved_sigma(seq, -1)


class TestConservationResiduals:
    @pytest.mark.parametrize("seed", ["standard", "painleve3", "custom"])
    def test_tau_residual_zero(self, seed):
        seq = _seed_sequence(seed, 5)
        for k in range(1, 4):
            for p in range(k + 1):
                assert conservation_residual(seq, k, p, "tau").is_zero()

    @pytest.mark.parametrize("seed", ["standard", "painleve3", "custom"])
    def test_sigma_residual_zero(self, seed):
        seq = _seed_sequence(seed, 5)
        for p in range(5):
            assert conservation_residual(seq, 0, p, "sigma").is_zero()

    def test_unknown_kind(self):
        seq = _seed_sequence("standard", 3)
        with pytest.raises(ValueError):
            conservation_residual(seq, 1, 0, "rho")

    def test_index_errors(self):
        # transport with r = 0 is a literal zero, so tau p = -1 must be
        # refused before it gets there
        seq = _seed_sequence("painleve3", 4)
        for k, p in ((2, -1), (2, 3), (0, -1), (0, 1)):
            with pytest.raises(IndexOutOfRange):
                conservation_residual(seq, k, p, "tau")
        with pytest.raises(IndexOutOfRange):
            conservation_residual(seq, 0, -1, "sigma")

    @pytest.mark.parametrize("seed", ["standard", "painleve3", "custom"])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_equals_derivative_of_whole_sum(self, seed, corrupt):
        # the residuals are transport residuals; compare them with D of the
        # spelled-out sums, on exact and corrupted sequences
        seq = _seed_sequence(seed, 6)
        if corrupt:
            seq = seq.with_entry(2, seq.ell(2) + seq.u)
        nonzero = 0
        for k in range(5):
            for p in range(k + 1):
                got = conservation_residual(seq, k, p, "tau")
                assert got == _reference_residual(seq, k, p, "tau")
                assert conserved_tau(seq, k, p) == _reference_tau(seq, k, p)
                nonzero += not got.is_zero()
        for p in range(6):
            got = conservation_residual(seq, 0, p, "sigma")
            assert got == _reference_residual(seq, 0, p, "sigma")
            nonzero += not got.is_zero()
        assert (nonzero > 0) == corrupt

    def test_sweep_derivative_count(self, monkeypatch):
        # The `verify --suite conservation --max-index 4` sweep over one
        # seed, construction included: at most 3 derivatives per entry, the
        # jets D^i(l_j), i <= 3.
        max_index = 4
        calls = []
        derivative = jetring.Poly.total_derivative

        def counted(self, rules=None):
            calls.append(None)
            return derivative(self, rules)

        monkeypatch.setattr(jetring.Poly, "total_derivative", counted)
        seq = symbolic(SeedCondition.painleve3(), max_index + 2)
        for k in range(1, max_index + 1):
            for p in range(k + 1):
                assert conservation_residual(seq, k, p, "tau").is_zero()
        for p in range(max_index + 2):
            assert conservation_residual(seq, 0, p, "sigma").is_zero()
        assert len(calls) <= 3 * len(seq)


def _seed_sequence(label, count):
    seeds = {
        "standard": SeedCondition.standard(),
        "painleve3": SeedCondition.painleve3(),
        "custom": SeedCondition.custom(s_poly() ** 2 * Fraction(1, 2)),
    }
    return symbolic(seeds[label], count)


def _reference_tau(seq, k, p):
    """tau_p with each Omega spelled out, a second form of the bracket sum
    of ``conserved_tau``."""
    acc = -seq.ell(k + 1) * seq.ell(k - p)
    for q in range(p + 1):
        acc += (seq.ell(k - q) * seq.ell(k - p + q + 1)
                - omega(seq, k - p + q, k - q))
    return acc


def _reference_residual(seq, k, p, kind):
    """D of the whole tau_p or sigma_p sum plus its boundary term."""
    if kind == "tau":
        return (seq.D(_reference_tau(seq, k, p))
                + 2 * seq.ell(k - p) * seq.D(seq.ell(k + 1)))
    return (seq.D(conserved_sigma(seq, p))
            + 2 * seq.ell(p) * seq.D(seq.ell(0)))


class TestRecoveryProperty:
    """Setting the boundary entries in conserved_tau and equating with the
    parameter reproduces equation p of the generated system."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_recover_equations(self, k):
        system = build_p3_system(k)
        ring = system.ring
        seq = boundary_jet_sequence(k)
        for p in range(1, k + 1):
            expr = RatExpr.of(conserved_tau(seq, k, p)
                              - ring.param(f"tau{p}"), ring)
            expr = expr.subs_var("u", 0, system.u_expr)
            assert equation_equivalent(expr, system.equations[p - 1])

    def test_hierarchy_ring_shape(self):
        ring = hierarchy_ring(2)
        assert ring.dependents == ("u", "l1", "l2")
        assert ring.params == ("tau0", "tau1", "tau2")


# -- the anti-diagonal sums against a plain sum of brackets ----------------------

def plain_brackets(seq, a, b, count):
    """sum_{q<count} B_{a-q,b+q}, every Omega built on its own."""
    return sum((omega(seq, a - q, b + q) - seq.ell(a - q) * seq.ell(b + q + 1)
                for q in range(count)), seq.ring.zero())


def plain_closed_form(count):
    """l_1..l_count of the standard seed from sigma_p = 0 spelled out:
    l_p = sum_{q<p-1} B_{p-1-q,q} + Omega_{0,p-1}."""
    seq = LenardSequence([SeedCondition.standard().poly], U_RING)
    for p in range(1, count + 1):
        seq.ells.append(plain_brackets(seq, p - 1, 0, p - 1) + omega(seq, 0, p - 1))
    return seq.ells


def wrong_mirror(seq, a, b):
    """``bracket_diagonal`` with the Omega at step q counted again at step
    p - q - 1 (p = a - b) in place of its mirror p - q: a corruption that
    the checks below must catch."""
    count = max(a - b + 1, 0)
    acc = seq.ring.zero()
    for q in range(count // 2):
        r = count - 2 - q
        acc += omega(seq, a - q, b + q) + omega(seq, a - r, b + r)
    if count % 2:
        acc += omega(seq, a - count // 2, b + count // 2)
    return acc - sum((seq.ell(a - q) * seq.ell(b + q + 1) for q in range(count)),
                     seq.ring.zero())


OMEGA_SUM = lenard._omega_sum


def wrong_pair_weight(seq, pairs, products=()):
    """``lenard._omega_sum`` with the outermost mirrored pair (a, 0) of a
    diagonal weighted once instead of twice: a corruption that the checks
    below must catch."""
    return OMEGA_SUM(seq, [(1 if w == 2 and m == 0 else w, n, m) for w, n, m in pairs],
                     products)


def diagonal_sum_mismatches(top=6):
    """(kind, sequence label, k, p) where tau_p, sigma_p or the closed form
    differ from the plain sum of brackets, for k, p <= ``top``."""
    found = []
    for label in ("boundary", "standard", "painleve3", "custom"):
        for k in range(1, top + 1):
            seq = (boundary_jet_sequence(k) if label == "boundary"
                   else _seed_sequence(label, k + 1))
            found += [("tau", label, k, p) for p in range(k + 1)
                      if conserved_tau(seq, k, p) != -(plain_brackets(seq, k, k - p, p + 1)
                                                       + seq.ell(k + 1) * seq.ell(k - p))]
        if label != "boundary":
            seq = _seed_sequence(label, top + 1)
            found += [("sigma", label, 0, p) for p in range(top + 2)
                      if conserved_sigma(seq, p) != (plain_brackets(seq, p - 1, 0, p)
                                                     - seq.ell(0) * seq.ell(p))]
    ells, closed = plain_closed_form(top), closed_form_standard(top)
    found += [("closedform", "standard", 0, p) for p in range(top + 1)
              if closed[p] != ells[p]]
    return found


SUM_PRODUCTS = jetring.Ring.sum_products


def listed_products(seq, run, monkeypatch):
    """(outer, pairs) for each ``bracket_diagonal`` over ``seq`` that
    ``run()`` sums: the factors of each product of its outer accumulate, and
    of each product of its u cofactor, as frozensets of jets (j, i)."""
    calls = []

    def recorded(ring, triples):
        calls.append(list(triples))
        return SUM_PRODUCTS(ring, calls[-1])

    monkeypatch.setattr(jetring.Ring, "sum_products", recorded)
    run()
    monkeypatch.setattr(jetring.Ring, "sum_products", SUM_PRODUCTS)
    jets = {id(seq.jet(j, i)): (j, i) for j in range(len(seq)) for i in range(3)}
    # the u cofactor is summed just before the outer accumulate that reads it
    return [tuple([frozenset(jets[id(f)] for f in fs) for _, *fs in triples
                   if id(fs[0]) in jets] for triples in (outer, cofactor))
            for cofactor, outer in zip(calls, calls[1:])
            if any(f is seq.u for _, f, _ in outer)]


class TestDiagonalSums:
    """tau_p, sigma_p and the closed form list each product of a mirrored
    pair once, in one accumulate; each must still equal the plain sum of
    brackets."""

    def test_each_sum_equals_the_plain_sum_of_brackets(self):
        assert diagonal_sum_mismatches() == []

    def test_each_product_is_listed_once(self, monkeypatch):
        """tau_p lists each distinct jet product once: ceil((p+1)/2) Omegas,
        each with its u cofactor, and ceil(p/2) + 1 of its p + 1 lifts."""
        for k in range(1, 7):
            seq = boundary_jet_sequence(k)
            for p in range(k + 1):
                (outer, pairs), = listed_products(seq, lambda: conserved_tau(seq, k, p),
                                                  monkeypatch)
                omegas = (p + 2) // 2
                lifts = [pair for pair in outer if {i for _, i in pair} == {0}]
                assert len(pairs) == len(set(pairs)) == omegas
                assert len(outer) == len(set(outer))
                assert len(lifts) == (p + 1) // 2 + 1
                assert len(outer) - len(lifts) == 3 * omegas - (p % 2 == 0)

    def test_the_k32_system_lists_305_lifts(self, monkeypatch):
        """Lift q of the diagonal from (a, b), l_{a-q} l_{b+q+1}, is lift
        a - b - 1 - q: the k = 32 system lists 305 of its 561 lifts and 289
        of its 561 Omegas."""
        seq = boundary_jet_sequence(32)
        monkeypatch.setattr(hierarchy, "boundary_jet_sequence", lambda k: seq)
        listed = listed_products(seq, lambda: build_p3_system(32), monkeypatch)
        assert sum(len(pairs) for _, pairs in listed) == 289
        assert sum(1 for outer, _ in listed for pair in outer
                   if {i for _, i in pair} == {0}) == 305

    def test_a_wrong_pair_weight_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(lenard, "_omega_sum", wrong_pair_weight)
        kinds = {kind for kind, *_ in diagonal_sum_mismatches(4)}
        assert kinds == {"tau", "sigma", "closedform"}

    @pytest.mark.parametrize("seq", [
        generate(SeedCondition.standard(), 6,
                 [Fraction(1, 3), Fraction(-2, 7), 0, Fraction(5, 4), 1, Fraction(-1, 6)]),
        symbolic(SeedCondition.custom(s_poly() * Fraction(2, 3)
                                      + U_RING.var("u") * Fraction(-1, 5)), 7),
    ], ids=["seeded constants", "fractional custom seed"])
    def test_sums_equal_plain_brackets_over_fractions(self, seq):
        assert seq.ell(2).den != 1 or seq.jet(1, 1).den != 1
        for a in range(len(seq) - 1):
            for b in range(a + 1):
                assert bracket_diagonal(seq, a, b) == plain_brackets(seq, a, b, a - b + 1)

    def test_a_wrong_mirror_fails_the_check(self, monkeypatch):
        for module in (lenard, hierarchy):
            monkeypatch.setattr(module, "bracket_diagonal", wrong_mirror)
        kinds = {kind for kind, *_ in diagonal_sum_mismatches(4)}
        assert kinds == {"tau", "sigma", "closedform"}
