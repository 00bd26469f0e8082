"""Numerical layer: the generic compile path (exact constants, Cramer solve,
derived guard), RK4 behaviour, and the trajectory CSV."""

import ast
import csv
import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import p3lenard
from p3lenard import odesolve
from p3lenard.hierarchy import build_p3_system
from p3lenard.jetring import Poly, RatExpr
from p3lenard.odesolve import (CompiledSystem, ConstantMismatch, DomainError,
                               SingularMassMatrix, SolverConfig,
                               StepSizeUnderflow, Trajectory, _compile_system,
                               _exact_system, _generate, _materialize,
                               _step_source, compile_k1, compile_k2, integrate,
                               write_csv)


@pytest.fixture(scope="module")
def k1_demo():
    return compile_k1(1, 2)


@pytest.fixture(scope="module")
def k2_demo():
    return compile_k2((1, 2, 3))


def _double(rhs, dimension=1):
    return CompiledSystem(k=1, dimension=dimension,
                          state_names=tuple(f"y{i}" for i in range(dimension)),
                          rhs=rhs)


class TestCompileK1:
    def test_rhs_golden_minus_one(self):
        sys = compile_k1(0, 0)
        assert sys.dimension == 2
        _, ddl1 = sys.rhs(1.0, (1.0, 0.0))
        assert ddl1 == pytest.approx(-1.0, abs=1e-14)

    def test_rhs_golden_zero(self, k1_demo):
        # (l1')^2/l1 - l1'/s - l1^2/s - tau0/l1 + tau1/s at the demo point
        _, ddl1 = k1_demo.rhs(1.0, (1.0, 0.0))
        assert ddl1 == pytest.approx(0.0, abs=1e-14)

    def test_monitors_present(self, k1_demo):
        assert tuple(k1_demo.monitors) == ("u",)

    def test_u_monitor_finite_off_zero(self, k1_demo):
        assert math.isfinite(k1_demo.monitors["u"](1.3, (0.7, 0.2)))

    def test_tau_monitor_matches_parameter(self, k1_demo):
        # the on-shell tau1 is proved equal to the parameter at compile time,
        # so it is carried as an exact constant, not a float monitor
        assert k1_demo.constants == {"tau1": 2, "ell_next_drift": 0}


class TestCompileK2:
    def test_dimension_and_monitors(self, k2_demo):
        assert k2_demo.dimension == 4
        assert tuple(k2_demo.monitors) == ("u",)
        assert k2_demo.constants == {"tau1": 2, "tau2": 3, "ell_next_drift": 0}

    def test_determinant_nonzero_at_generic_state(self, k2_demo):
        out = k2_demo.rhs(1.0, (1.0, 0.0, 1.0, 0.0))
        assert all(math.isfinite(v) for v in out)

    def test_only_l2_zero_is_singular(self, k2_demo):
        # no k = 2 equation divides by l1, so l1 = 0 is a regular state
        assert all(math.isfinite(v) for v in k2_demo.rhs(1.0, (0.0, 0.0, 1.0, 0.0)))
        with pytest.raises(SingularMassMatrix):
            k2_demo.rhs(1.0, (1.0, 0.0, 0.0, 0.0))

    def test_round_trip_residual(self, k2_demo):
        # compiled (l1'', l2'') substituted back into the symbolic equations
        taus = {"tau0": 1.0, "tau1": 2.0, "tau2": 3.0}
        system = build_p3_system(2)
        rng = random.Random(20240824)
        for _ in range(100):
            s = rng.uniform(0.5, 3.0)
            state = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            _, dd1, _, dd2 = k2_demo.rhs(s, state)
            jets = {"l1": [state[0], state[1], dd1],
                    "l2": [state[2], state[3], dd2]}
            for eq in system.equations:
                assert abs(eq.eval(s, jets, taus)) < 1e-12

    def test_tau_count_validation(self):
        with pytest.raises(ValueError):
            compile_k2((1, 2))


class TestIntegrate:
    def test_zero_field_constant(self):
        sys = _double(lambda s, y: (0.0,))
        traj = integrate(sys, (3.5,), SolverConfig(1.0, 2.0, 0.1))
        assert traj.status == "completed"
        assert all(state == (3.5,) for _, state, _ in traj.samples)

    def test_exponential(self):
        sys = _double(lambda s, y: (y[0],))
        traj = integrate(sys, (1.0,), SolverConfig(0.5, 1.5, 1e-4))
        final = traj.samples[-1][1][0]
        assert abs(final - math.e) / math.e < 1e-12

    def test_order_four_convergence(self):
        init = (1.0, 0.0)
        sys = compile_k1(1, 2)
        ends = []
        for h in (0.02, 0.01, 0.005):
            traj = integrate(sys, init, SolverConfig(1.0, 2.0, h, decimate=10 ** 6))
            ends.append(traj.samples[-1][1][0])
        ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
        assert 12 <= ratio <= 20

    def test_order_four_against_exact_solution(self):
        # k = 1 with tau = (-1, 0) is solved exactly by l = s^(1/3); the end
        # error at s = 9 must fall by 2^4 per halving of h
        exact = 9.0 ** (1 / 3)
        errors = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            traj = integrate(compile_k1(-1, 0), (1.0, 1 / 3),
                             SolverConfig(1.0, 9.0, h, decimate=10 ** 6))
            assert traj.status == "completed" and traj.samples[-1][0] == 9.0
            errors.append(abs(traj.samples[-1][1][0] - exact))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14 <= ratio <= 18 for ratio in ratios), ratios
        assert errors[-1] < 2e-10

    def test_determinism(self, k1_demo):
        cfg = SolverConfig(1.0, 1.5, 1e-3)
        a = integrate(k1_demo, (1.0, 0.0), cfg)
        b = integrate(k1_demo, (1.0, 0.0), cfg)
        assert repr(a) == repr(b)

    def test_samples_strictly_increasing(self, k1_demo):
        traj = integrate(k1_demo, (1.0, 0.0), SolverConfig(1.0, 1.2, 1e-3,
                                                           decimate=7))
        ss = [s for s, _, _ in traj.samples]
        assert ss == sorted(ss) and len(set(ss)) == len(ss)

    def test_abort_on_singularity(self):
        def rhs(s, y):
            if s > 1.5:
                raise SingularMassMatrix(s)
            return (1.0,)
        traj = integrate(_double(rhs), (0.0,), SolverConfig(1.0, 2.0, 0.1))
        assert traj.status == "aborted-nonfinite"
        assert traj.abort_s == pytest.approx(1.55, abs=0.1)

    def test_nonfinite_first_sample_aborts(self, k2_demo):
        # u is -inf at the start although the state is finite: the initial
        # row is checked like every later one and is not written
        init = (6.53e98, -0.844, 1.73e-51, -1.2e-315)
        traj = integrate(k2_demo, init, SolverConfig(8.78e-39, 1e-3, 1e-4))
        assert k2_demo.monitors["u"](8.78e-39, init) == -math.inf
        assert (traj.status, traj.abort_s, traj.samples) == (
            "aborted-nonfinite", 8.78e-39, [])

    def test_config_validation(self, k1_demo):
        with pytest.raises(StepSizeUnderflow):
            integrate(k1_demo, (1.0, 0.0), SolverConfig(1.0, 2.0, 0.0))
        with pytest.raises(DomainError):
            integrate(k1_demo, (1.0, 0.0), SolverConfig(-1.0, 2.0, 0.1))
        with pytest.raises(DomainError):
            integrate(k1_demo, (1.0, 0.0), SolverConfig(2.0, 1.0, 0.1))
        with pytest.raises(DomainError):
            integrate(k1_demo, (1.0, 0.0), SolverConfig(1.0, 2.0, 1e-12))
        inf, nan = math.inf, math.nan
        for cfg in ((1.0, 2.0, inf), (1.0, 2.0, nan), (1.0, 2.0, -inf),
                    (nan, 2.0, 0.1), (1.0, nan, 0.1), (1.0, inf, 0.1),
                    (inf, inf, 0.1)):
            with pytest.raises(DomainError, match="finite"):
                integrate(k1_demo, (1.0, 0.0), SolverConfig(*cfg))
        for cfg in ((1.0, 2.0, 10.0), (1.0, 2.0, 0.3), (1.0, 2.0, 0.6),
                    (1.0, 1.5, 1e-3 * (1 + 1e-8))):
            with pytest.raises(DomainError, match="whole number of steps"):
                integrate(k1_demo, (1.0, 0.0), SolverConfig(*cfg))
        with pytest.raises(ValueError):
            integrate(k1_demo, (1.0,), SolverConfig(1.0, 2.0, 0.1))
        with pytest.raises(ValueError):
            integrate(k1_demo, (float("nan"), 0.0), SolverConfig(1.0, 2.0, 0.1))


class TestWriteCsv:
    def test_k1_layout(self, k1_demo, tmp_path):
        traj = integrate(k1_demo, (1.0, 0.0), SolverConfig(1.0, 1.1, 1e-3,
                                                           decimate=10))
        path = tmp_path / "run.csv"
        write_csv(traj, k1_demo, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,l1,l1p,u,tau1,ell_next_drift"
        assert len(lines) == len(traj.samples) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 1.0 and first[1] == 1.0

    def test_k2_layout(self, k2_demo, tmp_path):
        traj = integrate(k2_demo, (1.0, 0.0, 1.0, 0.0),
                         SolverConfig(1.0, 1.05, 1e-3, decimate=10))
        path = tmp_path / "run2.csv"
        write_csv(traj, k2_demo, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,l1,l1p,l2,l2p,u,tau1,tau2,ell_next_drift"
        assert len(lines) == len(traj.samples) + 1
        assert all(line.endswith(",2,3,0") for line in lines[1:])

    def test_seventeen_significant_digits(self, k1_demo, tmp_path):
        traj = integrate(k1_demo, (1.0, 0.0), SolverConfig(1.0, 1.01, 1e-3))
        path = tmp_path / "digits.csv"
        write_csv(traj, k1_demo, path)
        row = path.read_text().splitlines()[-1].split(",")
        # %.17g reparses to the exact float that was written
        assert float(row[1]) == traj.samples[-1][1][0]

    @pytest.mark.parametrize("k, tau", [(1, (1, 2)), (2, (1, 2, 3)),
                                        (1, (-2, "-1/3"))])
    def test_bytes_match_csv_writer(self, k, tau, tmp_path_factory):
        _assert_csv_parity(_compile_system(k, tau),
                           tmp_path_factory.mktemp("csv"))

    def test_rows_are_streamed(self, k1_demo, tmp_path):
        # the dense k = 1 demo run on [1, 3]: 1.5 MB of rows.  Streamed, the
        # write peaks near 28 kB of traced memory; a list of every row
        # first peaks near 2.8 MB.
        traj = integrate(k1_demo, (1.0, 0.0), SolverConfig(1.0, 3.0, 1e-4))
        assert len(traj.samples) == 20001
        tracemalloc.start()
        try:
            write_csv(traj, k1_demo, tmp_path / "dense.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def _reference_write_csv(traj, sys, path):
    """The trajectory CSV as ``csv.writer`` wrote it before rows were
    formatted from one template."""
    constants = [f"{float(v):.17g}" for v in sys.constants.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sys.csv_columns)
        for s_i, y, mon in traj.samples:
            writer.writerow([*(f"{v:.17g}" for v in (s_i, *y, *mon)),
                             *constants])


# signed zeros, the smallest subnormal, the largest subnormal and the
# largest finite float
_EXTREME = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
            -2.225073858507201e-308, 1.7976931348623157e308,
            -1.7976931348623157e308)


def _assert_csv_parity(system, directory):
    """Search trajectories of finite floats for one whose ``write_csv``
    bytes differ from the ``csv.writer`` reference."""
    width, monitors = system.dimension, len(system.monitors)
    sample = st.tuples(_FINITE, st.tuples(*[_FINITE] * width),
                       st.tuples(*[_FINITE] * monitors))
    fast, ref = directory / "fast.csv", directory / "ref.csv"

    @settings(max_examples=200, deadline=None, database=None)
    @given(samples=st.lists(sample, max_size=6))
    @example(samples=[(v, (v,) * width, (v,) * monitors) for v in _EXTREME])
    def check(samples):
        traj = Trajectory(tuple(system.monitors), samples, "completed")
        write_csv(traj, system, fast)
        _reference_write_csv(traj, system, ref)
        assert fast.read_bytes() == ref.read_bytes()

    check()


# -- reference evaluators: exact expressions evaluated term by term ------------

def _ref_poly(p: Poly, layout):
    terms = []
    for (s_pow, jets, _), c in p.sorted_terms():
        slots = tuple((layout[(p.ring.dependents[d], o)], e)
                      for (d, o), e in jets)
        terms.append((float(c), s_pow, slots))

    def ev(s, y):
        total = 0.0
        for coef, s_pow, slots in terms:
            v = coef * s ** s_pow if s_pow else coef
            for slot, e in slots:
                v *= y[slot] ** e
            total += v
        return total

    return ev


def _ref_ratexpr(e: RatExpr, layout):
    num, den = _ref_poly(e.num, layout), _ref_poly(e.den, layout)

    def ev(s, y):
        d = den(s, y)
        if d == 0.0:
            raise ZeroDivisionError(f"denominator vanished at s = {s!r}")
        return num(s, y) / d

    return ev


def _reference(exact):
    """(rhs, monitors) of an exact system as term loops over its terms; the
    guard covers the l_p that divide an equation denominator."""
    layout = exact.layout
    det = _ref_poly(exact.det, layout)
    second = [_ref_ratexpr(f, layout) for f in exact.second]
    values = [layout[(name, 0)] for name in exact.guarded]
    slopes = [layout[(f"l{p}", 1)] for p in range(1, exact.k + 1)]

    def rhs(s, y):
        if any(y[i] == 0.0 for i in values) or det(s, y) == 0.0:
            raise SingularMassMatrix(s)
        out = []
        for slot, f in zip(slopes, second):
            out += [y[slot], f(s, y)]
        return tuple(out)

    return rhs, {name: _ref_ratexpr(e, layout)
                 for name, e in exact.monitors.items()}


def _outcome(fn, s, y):
    """Bit pattern of every returned float, or the exception raised."""
    try:
        value = fn(s, y)
    except SingularMassMatrix as exc:
        return ("SingularMassMatrix", exc.s.hex())
    except (ZeroDivisionError, OverflowError) as exc:
        return (type(exc).__name__,)
    return tuple(v.hex() for v in (value if isinstance(value, tuple) else (value,)))


_FINITE = st.one_of(st.floats(-4.0, 4.0),
                    st.floats(allow_nan=False, allow_infinity=False))


def _edge_examples(dimension, **fixed):
    """Explicit (s, y) examples that every parity search runs first: all
    -0.0; -0.0 slopes beside unit values, so signed zeros reach the
    polynomials; all subnormal; y ** 3 overflowing; and slopes whose
    square alone overflows.  Even slots hold values, odd slots slopes."""
    def interleave(value, slope):
        return [value if i % 2 == 0 else slope for i in range(dimension)]

    def decorate(check):
        for s, y in ((-0.0, [-0.0] * dimension), (1.0, interleave(1.0, -0.0)),
                     (1.0, [1e-310] * dimension), (1.0, [1e120] * dimension),
                     (1.0, interleave(1.0, 1e200))):
            check = example(s=s, y=y, **fixed)(check)
        return check

    return decorate


def _assert_parity(exact, rhs, monitors):
    """Search random finite (s, y) for an evaluator whose result or exception
    differs from the term-loop reference of ``exact``."""
    ref_rhs, ref_monitors = _reference(exact)
    assert set(monitors) == set(ref_monitors)
    pairs = [("rhs", rhs, ref_rhs)] + [(name, monitors[name], ref_monitors[name])
                                       for name in ref_monitors]
    dimension = len(exact.state_names)

    @settings(max_examples=300, deadline=None, database=None)
    @given(s=_FINITE, y=st.lists(_FINITE, min_size=dimension, max_size=dimension))
    @_edge_examples(dimension)
    def check(s, y):
        y = tuple(y)
        for name, generated, ref in pairs:
            assert (name, _outcome(generated, s, y)) == (name, _outcome(ref, s, y))

    check()


@pytest.fixture(scope="module")
def exact_systems():
    return {1: _exact_system(1, (1, 2)), 2: _exact_system(2, (1, 2, 3))}


class TestGeneratedParity:
    """The generated straight-line evaluators against the term loops."""

    def test_k1_bit_parity(self, k1_demo, exact_systems):
        _assert_parity(exact_systems[1], k1_demo.rhs, k1_demo.monitors)

    def test_k2_bit_parity(self, k2_demo, exact_systems):
        _assert_parity(exact_systems[2], k2_demo.rhs, k2_demo.monitors)

    def test_one_ulp_coefficient_corruption_is_caught(self, exact_systems):
        exact = exact_systems[1]
        f = exact.second[0]
        (m, c), *_ = f.num.sorted_terms()
        bad_num = Poly(f.num.ring,
                       {**dict(f.num.sorted_terms()),
                        m: Fraction(math.nextafter(float(c), math.inf))})
        bad = dataclasses.replace(
            exact, second=(RatExpr(bad_num, f.den, reduce_content=False),))
        _, rhs, monitors = _generate(bad)
        with pytest.raises(AssertionError, match="'rhs'"):
            _assert_parity(exact, rhs, monitors)

    def test_zero_component_raises_with_s(self, k1_demo, k2_demo):
        for system, y in ((k1_demo, (0.0, 0.3)), (k1_demo, (-0.0, 0.3)),
                          (k2_demo, (1.0, 0.1, 0.0, 0.2)),
                          (k2_demo, (1.0, 0.1, -0.0, 0.2))):
            with pytest.raises(SingularMassMatrix) as info:
                system.rhs(1.25, y)
            assert info.value.s == 1.25
        # only l_k is guarded: a zero l1 of the k = 2 system is regular
        assert all(math.isfinite(v) for v in k2_demo.rhs(1.25, (0.0, 0.1, 1.0, 0.2)))

    # (status, abort_s, sample count) as the term-loop evaluators gave them
    @pytest.mark.parametrize("k, init, cfg, expected", [
        (1, (1e120, 1e150), (1.0, 2.0, 1e-3), ("aborted-nonfinite", 1.0, 0)),
        (1, (1e-200, 1.0), (1.0, 2.0, 1e-3), ("aborted-nonfinite", 1.0, 0)),
        (1, (1e100, 0.0), (1.0, 2.0, 1e-3), ("aborted-nonfinite", 1.0, 1)),
        (1, (1.0, -50.0), (1.0, 2.0, 1e-2),
         ("aborted-nonfinite", 1.1400000000000001, 15)),
        (2, (1e120, 0.0, 1.0, 0.0), (1.0, 2.0, 1e-3),
         ("aborted-nonfinite", 1.0, 1)),
        (2, (1.0, 0.0, 1e-200, 0.0), (1.0, 2.0, 1e-3),
         ("aborted-nonfinite", 1.0, 0)),
        (2, (1.0, 0.0, 1.0, -60.0), (1.0, 2.0, 1e-2),
         ("aborted-nonfinite", 1.03, 4)),
    ])
    def test_abort_parity(self, k1_demo, k2_demo, k, init, cfg, expected):
        system = k1_demo if k == 1 else k2_demo
        traj = integrate(system, init, SolverConfig(*cfg))
        assert (traj.status, traj.abort_s, len(traj.samples)) == expected


# -- reference RK4 step: the zip stage loop the generated step replaced ------

def _reference_step(rhs, s, h, y):
    k1 = rhs(s, y)
    k2 = rhs(s + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
    k3 = rhs(s + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
    k4 = rhs(s + h, tuple(a + h * b for a, b in zip(y, k3)))
    return tuple(a + h / 6 * (p + 2 * q + 2 * r + w)
                 for a, p, q, r, w in zip(y, k1, k2, k3, k4))


def _assert_step_parity(system, step):
    """Search random finite (s, h, y) for a step of ``system`` whose new
    state or exception differs from the reference stage loop."""
    dimension = system.dimension

    @settings(max_examples=300, deadline=None, database=None)
    @given(s=_FINITE, h=st.one_of(st.floats(1e-6, 1.0), _FINITE),
           y=st.lists(_FINITE, min_size=dimension, max_size=dimension))
    @_edge_examples(dimension, h=1e-3)
    def check(s, h, y):
        y = tuple(y)
        got = _outcome(lambda s, y: step(system.rhs, s, h, y), s, y)
        want = _outcome(lambda s, y: _reference_step(system.rhs, s, h, y),
                        s, y)
        assert got == want

    check()


class TestGeneratedStep:
    """The generated RK4 step against the stage loop it replaced."""

    def test_k1_bit_parity(self, k1_demo):
        _assert_step_parity(k1_demo, _materialize(_step_source(2))["step"])

    def test_k2_bit_parity(self, k2_demo):
        _assert_step_parity(k2_demo, _materialize(_step_source(4))["step"])

    def test_hand_written_rhs_bit_parity(self):
        # y1 ** 2 can overflow, so exceptions are compared too
        system = _double(lambda s, y: (y[1], s * y[0] - y[1] ** 2),
                         dimension=2)
        _assert_step_parity(system, _materialize(_step_source(2))["step"])

    def test_swapped_weights_are_caught(self, k1_demo):
        source = _step_source(2)
        bad = source.replace("(k1_0 + 2 * k2_0 + 2 * k3_0 + k4_0)",
                             "(2 * k1_0 + k2_0 + k3_0 + 2 * k4_0)")
        assert bad != source
        with pytest.raises(AssertionError):
            _assert_step_parity(k1_demo, _materialize(bad)["step"])

    def test_integrate_calls_rhs_four_times_per_step(self):
        calls = []

        def rhs(s, y):
            calls.append(s)
            return (y[0],)

        integrate(_double(rhs), (1.0,), SolverConfig(1.0, 1.5, 0.25))
        assert calls == [1.0, 1.125, 1.125, 1.25, 1.25, 1.375, 1.375, 1.5]


# -- the generic compile path, k = 1..4 --------------------------------------

GENERIC_KS = (1, 2, 3, 4)


def _taus(k):
    return tuple(range(1, k + 2))


def _flip_tau_sign(k):
    """``build_p3_system`` with the sign of tau_k flipped in equation k."""
    system = build_p3_system(k)
    tau = RatExpr(system.ring.param(f"tau{k}"))
    system.equations[k - 1] = system.equations[k - 1] + 2 * tau
    return system


@pytest.fixture(scope="module")
def generic_exact():
    return {k: _exact_system(k, _taus(k)) for k in GENERIC_KS}


class TestGenericCompile:
    """One cofactor solve, one derived guard and one exact constant check
    for every k."""

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_constants_proved_exactly(self, generic_exact, k):
        # _exact_system returns only after every on-shell constant reduced
        assert generic_exact[k].constants == {
            **{f"tau{p}": p + 1 for p in range(1, k + 1)}, "ell_next_drift": 0}

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_determinant_is_one_monomial(self, generic_exact, k):
        det = generic_exact[k].det
        monomial = (2 ** (k - 1) * det.ring.s()
                    * det.ring.var(f"l{k}", 0) ** (3 * k - 2))
        assert det == monomial or det == -monomial

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_generated_source_skips_exact_no_ops(self, generic_exact, k):
        # no first power and no factor of 1.0 or -1.0 reaches the float code
        source, _, _ = _generate(generic_exact[k])
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                assert node.right.value >= 2, ast.unparse(node)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for side in (node.left, node.right):
                    if isinstance(side, ast.UnaryOp):
                        side = side.operand
                    assert not (isinstance(side, ast.Constant)
                                and abs(side.value) == 1), ast.unparse(node)

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_guard_is_derived_from_denominators(self, generic_exact, k):
        assert generic_exact[k].guarded == (f"l{k}",)

    @pytest.mark.parametrize("k", (3, 4))
    def test_round_trip_residual(self, generic_exact, k):
        # the solved l'' substituted back into the symbolic equations
        _, rhs, _ = _generate(generic_exact[k])
        equations = build_p3_system(k).equations
        taus = {f"tau{p}": float(t) for p, t in enumerate(_taus(k))}
        rng = random.Random(k)
        for _ in range(20):
            s = rng.uniform(0.5, 3.0)
            state = []
            for _ in range(k):
                state += [rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)]
            out = rhs(s, tuple(state))
            jets = {f"l{p}": [state[2 * p - 2], state[2 * p - 1], out[2 * p - 1]]
                    for p in range(1, k + 1)}
            for eq in equations:
                assert abs(eq.eval(s, jets, taus)) < 1e-11

    @pytest.mark.parametrize("k", (3, 4))
    def test_higher_k_run_completes(self, k):
        system = _compile_system(k, _taus(k))
        traj = integrate(system, (1.0, 0.0) * k, SolverConfig(1.0, 1.1, 1e-3))
        assert traj.status == "completed" and len(traj.samples) == 101

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_flipped_tau_sign_fails_the_compile(self, monkeypatch, k):
        monkeypatch.setattr(odesolve, "build_p3_system", _flip_tau_sign)
        with pytest.raises(ConstantMismatch,
                           match=f"on-shell tau{k} does not reduce to {k + 1}"):
            _compile_system(k, _taus(k))

    def test_flipped_tau_sign_fails_under_optimize(self):
        script = (
            "from p3lenard import odesolve\n"
            "from p3lenard.hierarchy import build_p3_system\n"
            "from p3lenard.jetring import RatExpr\n"
            "def flipped(k):\n"
            "    system = build_p3_system(k)\n"
            "    tau = RatExpr(system.ring.param(f'tau{k}'))\n"
            "    system.equations[k - 1] = system.equations[k - 1] + 2 * tau\n"
            "    return system\n"
            "odesolve.build_p3_system = flipped\n"
            "print('debug', __debug__)\n"
            "for k in (1, 2, 3, 4):\n"
            "    try:\n"
            "        odesolve._compile_system(k, tuple(range(1, k + 2)))\n"
            "    except odesolve.ConstantMismatch as exc:\n"
            "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(p3lenard.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines() == [
            "debug False",
            *(f"on-shell tau{k} does not reduce to {k + 1}" for k in GENERIC_KS),
        ], done.stderr


# SHA-256 of each generated function's text (its ast source segment),
# recorded when the emitter began to skip first powers and factors of
# 1.0 and -1.0; the k = 1 rhs again when a denominator equal to the block
# determinant began to be read as ``det``
RECORDED_SHA256 = {
    ("k1", "rhs"):
        "775ed34ed2a8ff4c2d90df6893ddb66a3be27360097e0f1df4eb3ce6849ff0f0",
    ("k1", "monitor_0"):
        "a950ab01cf976cbbd572b486674c5709c9df9388a02cdb2bb8513f7972ec796d",
    ("k2", "rhs"):
        "dc0a4b8c91f905861db331fd702eab1c2938592143174b176839a6bd082b7298",
    ("k2", "monitor_0"):
        "a93bb5106d79a99af051a041737dfad2774341ddd5dff6e26570382e28dd9951",
}
# the k = 2 rhs is hashed with the l1 guard that the first recording, made
# before the compile path became generic, carried; no k = 2 equation
# divides by l1
_L1_GUARD = "    if y0 == 0.0:\n        raise SingularMassMatrix(s)\n"


def test_generated_text_matches_recorded():
    found = {}
    for label, system in (("k1", compile_k1(1, 2)), ("k2", compile_k2((1, 2, 3)))):
        for node in ast.parse(system.source).body:
            text = ast.get_source_segment(system.source, node)
            if (label, node.name) == ("k2", "rhs"):
                assert _L1_GUARD not in text
                text = text.replace("= y\n", "= y\n" + _L1_GUARD, 1)
            found[(label, node.name)] = hashlib.sha256(text.encode()).hexdigest()
    assert found == RECORDED_SHA256
