"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Symbolic criteria are exact (literal zero polynomials); numerical criteria
use the stated tolerances. Run with `pytest -s tests/test_acceptance.py` to
see the criterion lines on passing runs as well.
"""

import math
import random
import time

import pytest

from fractions import Fraction

from p3lenard.diffpoly import s as s_poly, u
from p3lenard.hierarchy import (build_p3_system, conservation_residual,
                                conserved_sigma, equation_equivalent)
from p3lenard.laxpair import SeedMismatch, compatibility_residual
from p3lenard.lenard import (SeedCondition, closed_form_standard, generate,
                             master_identity_residual, shift_identity_residual,
                             symbolic, transport_residual)
from p3lenard.odesolve import (SolverConfig, compile_k1, compile_k2,
                               drift_report, integrate)

from test_hierarchy import reference_k1, reference_k2_first, reference_k2_second


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _seeds():
    return (SeedCondition.standard(), SeedCondition.painleve3(),
            SeedCondition.custom(s_poly() ** 2 * Fraction(1, 2)))


def test_criterion_1_hierarchy_golden_k1():
    start = time.perf_counter()
    system = build_p3_system(1)
    ok = equation_equivalent(system.equation(1), reference_k1(system.ring))
    elapsed = time.perf_counter() - start
    _report(1, "k=1 system matches the reference ODE display "
               f"({elapsed:.3f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_hierarchy_golden_k2():
    start = time.perf_counter()
    system = build_p3_system(2)
    ok = (equation_equivalent(system.equation(1),
                              reference_k2_first(system.ring))
          and equation_equivalent(system.equation(2),
                                  reference_k2_second(system.ring)))
    elapsed = time.perf_counter() - start
    _report(2, "k=2 system matches both reference displays "
               f"({elapsed:.3f}s < 5s)", ok and elapsed < 5.0)


def test_criterion_3_lenard_identity_suite():
    start = time.perf_counter()
    checks = 0
    ok = True
    for seed in _seeds():
        seq = symbolic(seed, 6)
        for n in range(5):
            for m in range(5):
                ok &= master_identity_residual(seq, n, m).is_zero()
                checks += 1
                if n >= 1:
                    ok &= shift_identity_residual(seq, n, m).is_zero()
                    checks += 1
                for r in range(min(n, 5 - m) + 1):
                    ok &= transport_residual(seq, m, n, r).is_zero()
                    checks += 1
    elapsed = time.perf_counter() - start
    _report(3, f"master/shift/transport residuals all zero ({checks} checks, "
               f"3 seeds, indices <= 4, {elapsed:.2f}s < 30s)",
            ok and checks >= 27 and elapsed < 30.0)


def test_criterion_4_conservation_residuals():
    start = time.perf_counter()
    ok = True
    for seed in _seeds():
        seq = symbolic(seed, 5)
        for k in range(1, 4):
            for p in range(k + 1):
                ok &= conservation_residual(seq, k, p, "tau").is_zero()
        for p in range(5):
            ok &= conservation_residual(seq, 0, p, "sigma").is_zero()
    elapsed = time.perf_counter() - start
    _report(4, "conservation residuals exactly zero (k <= 3, all p, both "
               f"kinds, 3 seeds, {elapsed:.2f}s < 60s)", ok and elapsed < 60.0)


def test_criterion_5_closed_form_route():
    seq = generate(SeedCondition.standard(), 6, [0] * 6)
    ok = all(closed_form_standard(p) == seq.ell(p) for p in range(1, 7))
    ok &= seq.ell(1) == u()
    ok &= seq.ell(2) == u(2) + 3 * u() ** 2
    ok &= seq.ell(3) == (u(4) + 10 * u() * u(2) + 5 * u(1) ** 2
                         + 10 * u() ** 3)
    _report(5, "closed-form route equals integration route for p <= 6, "
               "first three entries as expected", ok)


def test_criterion_6_lax_coefficient_matching():
    ok = True
    for k in (1, 2, 3):
        seq = symbolic(SeedCondition.painleve3(), k + 1)
        ok &= compatibility_residual(seq, k).is_zero()
    # single corruption lights up exactly the predicted z-power
    seq = symbolic(SeedCondition.painleve3(), 3)
    bad = seq.with_entry(3, seq.ell(3) + seq.ring.s())
    ok &= compatibility_residual(bad, 2).powers() == [-3]
    try:
        compatibility_residual(symbolic(SeedCondition.standard(), 2), 1)
        ok = False
    except SeedMismatch:
        pass
    _report(6, "compatibility residual zero for k <= 3; corruption localizes; "
               "wrong seed rejected", ok)


def test_criterion_7_numerical_conservation_k1():
    # The stated demo data has a genuine zero of l1 at s ~ 3.611 (crossing
    # slope -> -1), where the compiled rational form is singular.  The solver
    # does not detect the sign change: it steps through the zero and stops
    # only at a later non-finite evaluation (ROADMAP open item 5).  The stated
    # tolerances are asserted on every recorded sample of the stated run and
    # on a completed run over the regular subinterval [1, 3.5].
    start = time.perf_counter()
    system = compile_k1(1, 2)

    def bounds(traj):
        _, tau1_rel = drift_report(traj, "tau1")
        idx = traj.monitor_names.index("l2_reconstructed")
        l2_max = max(abs(row[2][idx]) for row in traj.samples)
        return tau1_rel, l2_max

    stated = integrate(system, (1.0, 0.0), SolverConfig(1.0, 5.0, 1e-4))
    tau1_rel, l2_max = bounds(stated)
    ok = tau1_rel < 1e-8 and l2_max < 1e-6
    pole_note = ""
    if stated.status != "completed":
        ok &= stated.abort_s is not None and 3.5 < stated.abort_s < 5.0
        pole_note = (f"; stated [1,5] run reports a pole at "
                     f"s={stated.abort_s:.4g} (zero of l1 near s=3.61)")
    regular = integrate(system, (1.0, 0.0), SolverConfig(1.0, 3.5, 1e-4))
    reg_tau1, reg_l2 = bounds(regular)
    ok &= (regular.status == "completed" and reg_tau1 < 1e-8
           and reg_l2 < 1e-6)
    elapsed = time.perf_counter() - start
    _report(7, f"k=1 demo: tau1 relative drift {max(tau1_rel, reg_tau1):.2e} "
               f"< 1e-8, |reconstructed l2| <= {max(l2_max, reg_l2):.2e} "
               f"< 1e-6 on all recorded samples ({elapsed:.1f}s < 10s)"
               + pole_note,
            ok and elapsed < 10.0)


def test_criterion_8_numerical_k2():
    # demo data found empirically: tau=(1,2,3), l1=l2=1, derivatives 0 at s=1
    system = compile_k2((1, 2, 3))
    traj = integrate(system, (1.0, 0.0, 1.0, 0.0),
                     SolverConfig(1.0, 2.0, 1e-3))
    ok = traj.status == "completed"
    drifts = {}
    for name in ("tau1", "tau2", "dl_next"):
        _, rel = drift_report(traj, name)
        drifts[name] = rel
        ok &= rel < 1e-6

    from p3lenard.hierarchy import build_p3_system
    symbolic_system = build_p3_system(2)
    taus = {"tau0": 1.0, "tau1": 2.0, "tau2": 3.0}
    rng = random.Random(8)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0.5, 3.0)
        state = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                 rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        _, dd1, _, dd2 = system.rhs(s, state)
        jets = {"l1": [state[0], state[1], dd1],
                "l2": [state[2], state[3], dd2]}
        for eq in symbolic_system.equations:
            worst = max(worst, abs(eq.eval(s, jets, taus)))
    ok &= worst < 1e-12
    _report(8, "k=2 demo run completes with conservation-monitor drifts "
               f"{max(drifts.values()):.2e} < 1e-6; rhs round-trip residual "
               f"{worst:.2e} < 1e-12 at 100 random states", ok)


def test_criterion_9_rk4_order():
    system = compile_k1(1, 2)
    ends = []
    for h in (0.02, 0.01, 0.005):
        traj = integrate(system, (1.0, 0.0),
                         SolverConfig(1.0, 2.0, h, decimate=10 ** 6))
        ends.append(traj.samples[-1][1][0])
    ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
    _report(9, f"endpoint self-difference ratio under step halving = "
               f"{ratio:.2f}, within [12, 20]", 12.0 <= ratio <= 20.0)


def test_criterion_10_sigma_degeneration():
    seq = generate(SeedCondition.standard(), 5, [0] * 5)
    ok = all(conserved_sigma(seq, p).expr.is_zero() for p in range(1, 6))
    # p = 0 is the one nonzero member: sigma_0 = -l_0^2 = -1/4
    ok &= conserved_sigma(seq, 0).expr == -seq.ring.const(Fraction(1, 4))
    _report(10, "sigma_p normalizes to exactly 0 for p = 1..5 "
                "(and sigma_0 = -1/4)", ok)
