"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Symbolic criteria are exact (literal zero polynomials); numerical criteria
use the stated tolerances. Run with `pytest -s tests/test_acceptance.py` to
see the criterion lines on passing runs as well.
"""

import csv
import random
import time

import pytest

from fractions import Fraction

from p3lenard.diffpoly import s as s_poly, u
from p3lenard.hierarchy import build_p3_system, conservation_residual
from p3lenard.laxpair import SeedMismatch, compatibility_residual
from p3lenard.lenard import (SeedCondition, closed_form_standard, generate,
                             master_identity_residual, shift_identity_residual,
                             symbolic, transport_residual)
from p3lenard.odesolve import SolverConfig, compile_k1, compile_k2, write_csv

from oracles import conserved_sigma, equation_equivalent, evaluate
from test_hierarchy import reference_k1, reference_k2_first, reference_k2_second
from test_odesolve import collect


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _seeds():
    return (SeedCondition.standard(), SeedCondition.painleve3(),
            SeedCondition.custom(s_poly() ** 2 * Fraction(1, 2)))


def test_criterion_1_hierarchy_golden_k1():
    start = time.perf_counter()
    system = build_p3_system(1)
    ok = equation_equivalent(system.equations[0], reference_k1(system.ring))
    elapsed = time.perf_counter() - start
    _report(1, "k=1 system matches the reference ODE display "
               f"({elapsed:.3f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_hierarchy_golden_k2():
    start = time.perf_counter()
    system = build_p3_system(2)
    ok = (equation_equivalent(system.equations[0],
                              reference_k2_first(system.ring))
          and equation_equivalent(system.equations[1],
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
    ok = closed_form_standard(6) == seq.ells
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


def _constant_cells_hold(system, traj, path) -> bool:
    """Every CSV row carries the proved constants: tau_p, then 0."""
    write_csv([(traj.samples, traj.abort_s)], system, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    width = len(system.constants)
    expected = [float(v) for v in system.constants.values()]
    return (rows[0][-width:] == list(system.constants)
            and len(rows) == len(traj.samples) + 1
            and all([float(v) for v in row[-width:]] == expected
                    for row in rows[1:]))


# largest end-state distance, relative to max(1, |value|), between RK4 and
# DOP853 at rtol = atol = 1e-12.  Measured: 1.6e-13 (k = 1, h = 1e-4) and
# 9.1e-14 (k = 2, h = 1e-3); with the 2 * weights swapped onto k1 and k4,
# 5.6e-11 and 2.3e-8.
ORACLE_BOUND = 5e-12


def _dop853_distance(system, init, cfg) -> float:
    scipy_integrate = pytest.importorskip("scipy.integrate")
    end = collect(system, init, cfg).samples[-1]
    ref = scipy_integrate.solve_ivp(
        lambda s, y: system.rhs(s, tuple(y)), (cfg.s_start, cfg.s_end), init,
        method="DOP853", rtol=1e-12, atol=1e-12)
    assert end[0] == cfg.s_end and ref.status == 0
    return max(abs(a - b) / max(1.0, abs(b))
               for a, b in zip(end[1], ref.y[:, -1]))


def test_criterion_7_numerical_conservation_k1(tmp_path):
    # The stated demo data has a genuine zero of l1 at s ~ 3.6203 (DOP853;
    # crossing slope -> -1), where the compiled rational form is singular.
    # The solver does not detect the sign change: it steps through the zero
    # and stops only at a later non-finite evaluation (ROADMAP open item
    # "Continue through the zeros of l_k").
    # tau1 and the next recursion step are proved exact at compile time, so
    # their CSV cells are constants; the stepper itself is checked against
    # DOP853 below.
    start = time.perf_counter()
    system = compile_k1(1, 2)
    ok = system.constants == {"tau1": 2, "ell_next_drift": 0}
    stated = collect(system, (1.0, 0.0), SolverConfig(1.0, 5.0, 1e-4))
    ok &= _constant_cells_hold(system, stated, tmp_path / "stated.csv")
    pole_note = ""
    if stated.status != "completed":
        ok &= stated.abort_s is not None and 3.5 < stated.abort_s < 5.0
        pole_note = (f"; stated [1,5] run stepped through the zero of l1 "
                     f"near s=3.6203 and stopped at a non-finite evaluation "
                     f"near s={stated.abort_s:.4g}")
    regular = collect(system, (1.0, 0.0), SolverConfig(1.0, 3.5, 1e-4))
    ok &= regular.status == "completed"
    ok &= _constant_cells_hold(system, regular, tmp_path / "regular.csv")
    elapsed = time.perf_counter() - start
    _report(7, "k=1 demo: tau1 = 2 and l2' = 0 proved exactly at compile "
               "time and written on every CSV row "
               f"({elapsed:.1f}s < 10s)" + pole_note,
            ok and elapsed < 10.0)


def test_criterion_7_dop853_oracle():
    cfg = SolverConfig(1.0, 3.5, 1e-4)
    distance = _dop853_distance(compile_k1(1, 2), (1.0, 0.0), cfg)
    _report(7, f"k=1 demo end state on [1, 3.5] within {distance:.2e} "
               f"< {ORACLE_BOUND:.0e} of DOP853", distance < ORACLE_BOUND)


def test_criterion_8_numerical_k2(tmp_path):
    # demo data found empirically: tau=(1,2,3), l1=l2=1, derivatives 0 at s=1
    system = compile_k2((1, 2, 3))
    traj = collect(system, (1.0, 0.0, 1.0, 0.0), SolverConfig(1.0, 2.0, 1e-3))
    ok = traj.status == "completed"
    ok &= system.constants == {"tau1": 2, "tau2": 3, "ell_next_drift": 0}
    ok &= _constant_cells_hold(system, traj, tmp_path / "k2.csv")

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
            worst = max(worst, abs(evaluate(eq, s, jets, taus)))
    ok &= worst < 1e-12
    _report(8, "k=2 demo run completes; tau1 = 2, tau2 = 3 and l3' = 0 "
               "proved exactly and written on every CSV row; rhs round-trip "
               f"residual {worst:.2e} < 1e-12 at 100 random states", ok)


def test_criterion_8_dop853_oracle():
    cfg = SolverConfig(1.0, 2.0, 1e-3)
    distance = _dop853_distance(compile_k2((1, 2, 3)), (1.0, 0.0, 1.0, 0.0),
                                cfg)
    _report(8, f"k=2 demo end state on [1, 2] within {distance:.2e} "
               f"< {ORACLE_BOUND:.0e} of DOP853", distance < ORACLE_BOUND)


def test_criterion_9_rk4_order():
    system = compile_k1(1, 2)
    ends = []
    for h in (0.02, 0.01, 0.005):
        traj = collect(system, (1.0, 0.0),
                       SolverConfig(1.0, 2.0, h, decimate=10 ** 6))
        ends.append(traj.samples[-1][1][0])
    ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
    _report(9, f"endpoint self-difference ratio under step halving = "
               f"{ratio:.2f}, within [12, 20]", 12.0 <= ratio <= 20.0)


def test_criterion_10_sigma_degeneration():
    seq = generate(SeedCondition.standard(), 5, [0] * 5)
    ok = all(conserved_sigma(seq, p).is_zero() for p in range(1, 6))
    # p = 0 is the one nonzero member: sigma_0 = -l_0^2 = -1/4
    ok &= conserved_sigma(seq, 0) == -seq.ring.const(Fraction(1, 4))
    _report(10, "sigma_p normalizes to exactly 0 for p = 1..5 "
                "(and sigma_0 = -1/4)", ok)
