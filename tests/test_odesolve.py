"""Numerical layer: the generic compile path (exact constants, forward
substitution through the l'' block with Cramer's rule as its oracle, derived
guard), RK4 behaviour, and the trajectory CSV."""

import ast
import csv
import dataclasses
import functools
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter, namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import p3lenard
from p3lenard import odesolve
from p3lenard.hierarchy import build_p3_system
from p3lenard.jetring import Poly, RatExpr
from p3lenard.odesolve import (CompiledSystem, ConstantMismatch, DomainError,
                               SingularMassMatrix, SolverConfig,
                               _compile_system, _exact_system, _generate,
                               _second_derivative_split, _solve_block,
                               compile_k1, compile_k2, integrate, write_csv)

from oracles import evaluate, sorted_terms


@pytest.fixture(scope="module")
def k1_demo():
    return compile_k1(1, 2)


@pytest.fixture(scope="module")
def k2_demo():
    return compile_k2((1, 2, 3))


Run = namedtuple("Run", "samples status abort_s")


def collect(system, init, cfg) -> Run:
    """The run of ``integrate`` held whole: its samples, "completed" or
    "aborted-nonfinite", and the s it aborted at, or None."""
    batches = list(integrate(system, init, cfg))
    abort_s = batches[-1][1]
    return Run([row for samples, _ in batches for row in samples],
               "completed" if abort_s is None else "aborted-nonfinite", abort_s)


def _double(rhs, dimension=1):
    return CompiledSystem(state_names=tuple(f"y{i}" for i in range(dimension)),
                          rhs=rhs)


class TestCompileK1:
    def test_rhs_golden_minus_one(self):
        sys = compile_k1(0, 0)
        assert len(sys.state_names) == 2
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
        assert len(k2_demo.state_names) == 4
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
                assert abs(evaluate(eq, s, jets, taus)) < 1e-12

    def test_tau_count_validation(self):
        with pytest.raises(ValueError):
            compile_k2((1, 2))


class TestIntegrate:
    def test_zero_field_constant(self):
        sys = _double(lambda s, y: (0.0,))
        traj = collect(sys, (3.5,), SolverConfig(1.0, 2.0, 0.1))
        assert traj.status == "completed"
        assert all(state == (3.5,) for _, state, _ in traj.samples)

    def test_exponential(self):
        sys = _double(lambda s, y: (y[0],))
        traj = collect(sys, (1.0,), SolverConfig(0.5, 1.5, 1e-4))
        final = traj.samples[-1][1][0]
        assert abs(final - math.e) / math.e < 1e-12

    def test_order_four_convergence(self):
        init = (1.0, 0.0)
        sys = compile_k1(1, 2)
        ends = []
        for h in (0.02, 0.01, 0.005):
            traj = collect(sys, init, SolverConfig(1.0, 2.0, h, decimate=10 ** 6))
            ends.append(traj.samples[-1][1][0])
        ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
        assert 12 <= ratio <= 20

    def test_order_four_against_exact_solution(self):
        # k = 1 with tau = (-1, 0) is solved exactly by l = s^(1/3); the end
        # error at s = 9 must fall by 2^4 per halving of h
        exact = 9.0 ** (1 / 3)
        errors = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            traj = collect(compile_k1(-1, 0), (1.0, 1 / 3),
                           SolverConfig(1.0, 9.0, h, decimate=10 ** 6))
            assert traj.status == "completed" and traj.samples[-1][0] == 9.0
            errors.append(abs(traj.samples[-1][1][0] - exact))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14 <= ratio <= 18 for ratio in ratios), ratios
        assert errors[-1] < 2e-10

    def test_determinism(self, k1_demo):
        cfg = SolverConfig(1.0, 1.5, 1e-3)
        a = collect(k1_demo, (1.0, 0.0), cfg)
        b = collect(k1_demo, (1.0, 0.0), cfg)
        assert repr(a) == repr(b)

    def test_samples_strictly_increasing(self, k1_demo):
        traj = collect(k1_demo, (1.0, 0.0), SolverConfig(1.0, 1.2, 1e-3,
                                                         decimate=7))
        ss = [s for s, _, _ in traj.samples]
        assert ss == sorted(ss) and len(set(ss)) == len(ss)

    def test_abort_on_singularity(self):
        def rhs(s, y):
            if s > 1.5:
                raise SingularMassMatrix(s)
            return (1.0,)
        traj = collect(_double(rhs), (0.0,), SolverConfig(1.0, 2.0, 0.1))
        assert traj.status == "aborted-nonfinite"
        assert traj.abort_s == pytest.approx(1.55, abs=0.1)

    def test_nonfinite_first_sample_aborts(self, k2_demo):
        # u is -inf at the start although the state is finite: the initial
        # row is checked like every later one and is not written
        init = (6.53e98, -0.844, 1.73e-51, -1.2e-315)
        traj = collect(k2_demo, init, SolverConfig(8.78e-39, 1e-3, 1e-4))
        assert k2_demo.monitors["u"](8.78e-39, init) == -math.inf
        assert (traj.status, traj.abort_s, traj.samples) == (
            "aborted-nonfinite", 8.78e-39, [])

    def test_config_validation(self, k1_demo):
        with pytest.raises(DomainError, match="must be positive"):
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
        cfg = SolverConfig(1.0, 1.1, 1e-3, decimate=10)
        path = tmp_path / "run.csv"
        write_csv(integrate(k1_demo, (1.0, 0.0), cfg), k1_demo, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,l1,l1p,u,tau1,ell_next_drift"
        assert len(lines) == len(collect(k1_demo, (1.0, 0.0), cfg).samples) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 1.0 and first[1] == 1.0

    def test_k2_layout(self, k2_demo, tmp_path):
        init, cfg = (1.0, 0.0, 1.0, 0.0), SolverConfig(1.0, 1.05, 1e-3, decimate=10)
        path = tmp_path / "run2.csv"
        write_csv(integrate(k2_demo, init, cfg), k2_demo, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,l1,l1p,l2,l2p,u,tau1,tau2,ell_next_drift"
        assert len(lines) == len(collect(k2_demo, init, cfg).samples) + 1
        assert all(line.endswith(",2,3,0") for line in lines[1:])

    def test_seventeen_significant_digits(self, k1_demo, tmp_path):
        cfg = SolverConfig(1.0, 1.01, 1e-3)
        path = tmp_path / "digits.csv"
        write_csv(integrate(k1_demo, (1.0, 0.0), cfg), k1_demo, path)
        row = path.read_text().splitlines()[-1].split(",")
        # %.17g reparses to the exact float that was written
        assert float(row[1]) == collect(k1_demo, (1.0, 0.0), cfg).samples[-1][1][0]

    @pytest.mark.parametrize("k, tau", [(1, (1, 2)), (2, (1, 2, 3)),
                                        (1, (-2, "-1/3"))])
    def test_bytes_match_csv_writer(self, k, tau, tmp_path_factory):
        _assert_csv_parity(_compile_system(k, tau),
                           tmp_path_factory.mktemp("csv"))

    def test_rows_are_streamed(self, k1_demo, tmp_path):
        # the dense k = 1 demo run on [1, 3]: 1.5 MB of rows.  Formatted
        # and written one by one, the rows of a collected run peak near
        # 28 kB of traced memory; a list of every row first peaks near
        # 2.8 MB.  The samples themselves are held here, in one list, so
        # that only the writing is traced; the command line streams them
        # (TestStreamedCsv in test_cli.py).
        traj = collect(k1_demo, (1.0, 0.0), SolverConfig(1.0, 3.0, 1e-4))
        assert len(traj.samples) == 20001
        tracemalloc.start()
        try:
            write_csv([(traj.samples, None)], k1_demo, tmp_path / "dense.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_empty_stream_writes_the_header(self, k1_demo, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_csv([], k1_demo, path) == (0, None)
        assert path.read_text().count("\n") == 1


def _reference_write_csv(samples, sys, path):
    """The trajectory CSV as ``csv.writer`` wrote it before rows were
    formatted from one template."""
    constants = [f"{float(v):.17g}" for v in sys.constants.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("s", *sys.state_names, *sys.monitors, *sys.constants))
        for s_i, y, mon in samples:
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
    width, monitors = len(system.state_names), len(system.monitors)
    sample = st.tuples(_FINITE, st.tuples(*[_FINITE] * width),
                       st.tuples(*[_FINITE] * monitors))
    fast, ref = directory / "fast.csv", directory / "ref.csv"

    @settings(max_examples=200, deadline=None, database=None)
    @given(samples=st.lists(sample, max_size=6))
    @example(samples=[(v, (v,) * width, (v,) * monitors) for v in _EXTREME])
    def check(samples):
        write_csv([(samples, None)], system, fast)
        _reference_write_csv(samples, system, ref)
        assert fast.read_bytes() == ref.read_bytes()

    check()


# -- reference evaluators: exact expressions evaluated term by term ------------

def _ref_poly(p: Poly, layout):
    terms = []
    for (s_pow, jets, _), c in sorted_terms(p):
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
    slopes = [layout[(f"l{p}", 1)] for p in range(1, len(exact.second) + 1)]

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
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _edge_states(dimension):
    """Explicit (s, y) cases that every parity search runs first: all
    -0.0; -0.0 slopes beside unit values, so signed zeros reach the
    polynomials; all subnormal; y ** 3 overflowing; and slopes whose
    square alone overflows.  Even slots hold values, odd slots slopes."""
    def interleave(value, slope):
        return [value if i % 2 == 0 else slope for i in range(dimension)]

    return [(-0.0, [-0.0] * dimension), (1.0, interleave(1.0, -0.0)),
            (1.0, [1e-310] * dimension), (1.0, [1e120] * dimension),
            (1.0, interleave(1.0, 1e200))]


def _edge_examples(dimension):
    """Run the ``_edge_states`` of ``dimension`` as explicit examples."""
    def decorate(check):
        for s, y in _edge_states(dimension):
            check = example(s=s, y=y)(check)
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
        (m, c), *_ = sorted_terms(f.num)
        bad_num = Poly(f.num.ring,
                       {**dict(sorted_terms(f.num)),
                        m: Fraction(math.nextafter(float(c), math.inf))})
        bad = exact._replace(
            second=(RatExpr(bad_num, f.den),))
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
        traj = collect(system, init, SolverConfig(*cfg))
        assert (traj.status, traj.abort_s, len(traj.samples)) == expected


# -- reference RK4 loop: the hand-written loop the generated one replaced ----

def _reference_step(rhs, s, h, y):
    k1 = rhs(s, y)
    k2 = rhs(s + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
    k3 = rhs(s + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
    k4 = rhs(s + h, tuple(a + h * b for a, b in zip(y, k3)))
    return tuple(a + h / 6 * (p + 2 * q + 2 * r + w)
                 for a, p, q, r, w in zip(y, k1, k2, k3, k4))


def _reference_integrate(system, init, cfg):
    """``integrate`` past its argument checks, as a loop over
    ``_reference_step``: a sample at i = 0, at every ``decimate``-th step and
    at the last; a non-finite state or monitor aborts at the s of its step
    or sample, and an exception at its own s or that of the step or sample
    it interrupted."""
    n = round((cfg.s_end - cfg.s_start) / cfg.step)
    y = tuple(float(v) for v in init)
    monitors = tuple(system.monitors.values())
    samples, status, abort_s = [], "completed", None
    s_i = cfg.s_start
    try:
        for i in range(n + 1):
            if i:
                y = _reference_step(system.rhs, s_i, cfg.step, y)
                s_i = cfg.s_start + i * cfg.step
                if not all(map(math.isfinite, y)):
                    status, abort_s = "aborted-nonfinite", s_i
                    break
            if i % cfg.decimate == 0 or i == n:
                row = tuple([fn(s_i, y) for fn in monitors])
                if not all(map(math.isfinite, row)):
                    status, abort_s = "aborted-nonfinite", s_i
                    break
                samples.append((s_i, y, row))
    except (SingularMassMatrix, ZeroDivisionError, OverflowError) as exc:
        status = "aborted-nonfinite"
        abort_s = getattr(exc, "s", s_i)
    return Run(samples, status, abort_s)


def _run_bits(traj):
    """(status, abort_s, sample count, samples), every float as its repr,
    which tells each float and -0.0 from 0.0."""
    return (traj.status, repr(traj.abort_s), len(traj.samples),
            repr(traj.samples))


def _squared_slope(s, y):
    # y1 ** 2 can overflow, so exceptions are compared too
    return (y[1], s * y[0] - y[1] ** 2)


def _abort_cause(system, init, cfg):
    """What stops the reference run: "stage1" to "stage4" or "monitor" for
    the evaluator that raised, "state" or "row" for a non-finite state or
    monitor value, None when the run completes."""
    calls = []

    def watch(fn, monitor=False):
        def watched(s, y):
            stages = sum(c.startswith("stage") for c in calls)
            calls.append("monitor" if monitor else f"stage{stages % 4 + 1}")
            value = fn(s, y)
            calls[-1] += ":ok"
            return value
        return watched

    watched = CompiledSystem(
        state_names=system.state_names, rhs=watch(system.rhs),
        monitors={name: watch(fn, monitor=True)
                  for name, fn in system.monitors.items()})
    if _reference_integrate(watched, init, cfg).status == "completed":
        return None
    if not calls[-1].endswith(":ok"):
        return calls[-1]
    return "row" if calls[-1] == "monitor:ok" else "state"


# Two steps from s = 1 that stop where labelled, found by a random search
# over magnitudes: system, label, state and step
STOPS = [
    ("k1", "stage2", (-1.0, 4.0), 0.5),
    ("k1", "stage3", (4.731203474687016e-68, 4.924710289661288e+22), 0.001),
    ("k1", "stage4", (-1.2967518771802126e-17, -2.0), 0.25),
    ("k1", "monitor", (-9.8309857975921e-12, -2.0), 1.0),
    ("k1", "monitor", (0.0, -2.411469524566322e-33), 1.0),
    ("k1", "state", (4.463061952546921e-109, 0.0), 0.001),
    ("k1", "row", (-3.642940515128352e+26, 1.0), 0.5),
    ("k1", "row", (5.184248081362799e-94, -6.136198083069578e+133), 0.001),
    ("k2", "stage1", (-2.5232217690516767e-47, 3.9998606802795754e-77,
                      -2.1545824653561886e-98, 0.0), 0.25),
    ("k2", "stage2", (3.8331453296952655e-46, 0.25, 4.0, -8.0), 1.0),
    ("k2", "stage3", (0.0, 3.596834347394802e-111, -1.0, 1.0), 1.0),
    ("k2", "stage4", (-50835825688.64587, 14206455009.273355, 0.25, 2.0), 0.25),
    ("k2", "state", (-1.118960352001262e-150, 2.0, 5.2112974323467056e-14, 0.0),
     0.001),
    ("k2", "monitor", (2.2581906105701831e-88, 1.0707319442750124e-155,
                       -1.7887568343121635e+24, -1.0), 0.25),
    ("k3", "stage1", (-8.0, -4.308714771976632e-63, 4.5855862019007544e-148,
                      1.8246546268247854e-138, 6.145988691909664e-67, 1.0), 0.125),
    ("k3", "stage2", (2.136540071480226e-31, 4.0, -6.420664356252235e-62,
                      5.903044110737454e+79, 1.0, -8.0), 0.25),
    ("k3", "stage3", (4.0, -7.850685438169836e-52, -1.965072053430087e-27,
                      2.4540071109454342e+39, -7.14929923812413e+33, 2.0), 1.0),
    ("k3", "stage4", (2.0, -1.2222530381647065e-50, -8.0, -304539704362.12866,
                      4.0, 4.0), 1.0),
    ("k3", "monitor", (2879921434680781.0, 1.0, -4.640465520617334e-39, -2.0,
                       2.0, 5.8976275965276554e-105), 1.0),
    ("hand", "stage1", (-21192912666.58495, 68700245857156.836), 0.25),
    ("hand", "stage2", (-2.288307823450725e-57, 9.719541301301392e+126), 1.0),
    ("hand", "stage3", (2.26532604967548e+149, -2.665149850472639e-112), 1.0),
    ("hand", "stage4", (-1.1895617400028052e+70, 2.0), 1.0),
]


@pytest.fixture(scope="module")
def run_systems(k1_demo, k2_demo):
    return {"k1": k1_demo, "k2": k2_demo,
            "k3": _compile_system(3, (1, 2, 3, 4)),
            "hand": _double(_squared_slope, dimension=2)}


def _assert_loop_parity(system, label):
    """Search random runs of ``system`` for one whose samples, status,
    abort_s or sample count differ from ``_reference_integrate``'s.  The
    ``STOPS`` of ``label`` and the ``_edge_states`` run first, then runs far
    from s = 1, then runs of the demo state whose ``decimate`` does and
    does not divide the step count."""
    dimension = len(system.state_names)

    @settings(max_examples=300, deadline=None, database=None)
    @given(s_start=st.one_of(st.floats(0.25, 4.0), _POSITIVE),
           h=st.one_of(st.sampled_from([1e-3, 0.125, 0.5]),
                       st.floats(1e-3, 1.0), _POSITIVE),
           n=st.integers(1, 24), decimate=st.integers(1, 30),
           y=st.lists(_FINITE, min_size=dimension, max_size=dimension))
    def check(s_start, h, n, decimate, y):
        cfg = SolverConfig(s_start, s_start + n * h, h, decimate)
        try:
            got = collect(system, y, cfg)
        except DomainError:
            assume(False)
        assert _run_bits(got) == _run_bits(_reference_integrate(system, y, cfg))

    demo = [1.0, 0.0] * (dimension // 2)
    for decimate in (1, 3, 4, 12, 30):
        check = example(s_start=1.0, h=0.01, n=12, decimate=decimate, y=demo)(check)
    # s_start + i * h and s + h large or tiny, and a subnormal step
    for s_start, h in ((2.0 ** 60, 2.0 ** 10), (2.0 ** 1020, 2.0 ** 1000),
                       (2.0 ** -1000, 2.0 ** -1040), (2.0 ** -1070, 5e-324)):
        check = example(s_start=s_start, h=h, n=3, decimate=2, y=demo)(check)
    # integrate takes no s_start <= 0, so the states run from s = 1
    for _, y in _edge_states(dimension):
        check = example(s_start=1.0, h=1e-3, n=2, decimate=1, y=y)(check)
    for key, _, y, h in STOPS:
        if key == label:
            check = example(s_start=1.0, h=h, n=2, decimate=1, y=list(y))(check)
    check()


def _mutate_loop(monkeypatch, system, transform):
    """Pass the source of every generated RK4 loop through ``transform``
    before it becomes code; ``transform`` must change the loop of
    ``system``."""
    source = odesolve._loop_source(system.rhs, tuple(system.monitors.values()),
                                   len(system.state_names))
    if transform(source) == source:
        raise ValueError("the mutation leaves the loop unchanged")
    materialize = odesolve._materialize

    def mutated(source, **evaluators):
        if source.startswith("def run("):
            source = transform(source)
        return materialize(source, **evaluators)

    monkeypatch.setattr(odesolve, "_materialize", mutated)


def _swap_weights(source):
    return re.sub(r"\((\w+) \+ 2 \* (\w+) \+ 2 \* (\w+) \+ (\w+)\)",
                  r"(2 * \1 + \2 + \3 + 2 * \4)", source)


def _monitor_before_update(source):
    """Move the monitor evaluations of each sample ahead of the steps that
    lead to it, so they read the state before its update."""
    tree = ast.parse(source)
    blocks = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.For) and node.target.id == "stop")
    clamp, steps, state, *monitors, check, append = blocks.body
    blocks.body = [clamp, *monitors, steps, state, check, append]
    return ast.unparse(tree)


class TestGeneratedStep:
    """The generated RK4 loop against the hand-written loop it replaced."""

    def test_k1_bit_parity(self, run_systems):
        _assert_loop_parity(run_systems["k1"], "k1")

    def test_k2_bit_parity(self, run_systems):
        _assert_loop_parity(run_systems["k2"], "k2")

    def test_k3_bit_parity(self, run_systems):
        _assert_loop_parity(run_systems["k3"], "k3")

    def test_hand_written_rhs_bit_parity(self, run_systems):
        _assert_loop_parity(run_systems["hand"], "hand")

    @pytest.mark.parametrize("key, label, y, h", STOPS)
    def test_stops_where_labelled(self, run_systems, key, label, y, h):
        assert _abort_cause(run_systems[key], y,
                            SolverConfig(1.0, 1.0 + 2 * h, h)) == label

    @pytest.mark.parametrize("transform", [
        _swap_weights, lambda source: source.replace("c_s = s + hh", "c_s = s + h"),
        _monitor_before_update], ids=["swapped-weights", "stage3-at-s+h",
                                      "monitor-before-update"])
    def test_mutations_are_caught(self, monkeypatch, run_systems, transform):
        _mutate_loop(monkeypatch, run_systems["k1"], transform)
        with pytest.raises(AssertionError):
            _assert_loop_parity(run_systems["k1"], "k1")

    def test_swapped_weights_are_caught(self, monkeypatch, run_systems):
        # the weights of a called rhs, not only of an inline one
        _mutate_loop(monkeypatch, run_systems["hand"], _swap_weights)
        with pytest.raises(AssertionError):
            _assert_loop_parity(run_systems["hand"], "hand")

    @pytest.mark.parametrize("copy_attributes", [False, True],
                             ids=["closure", "functools.wraps"])
    def test_replaced_fields_are_called(self, copy_attributes):
        # wrapped the way a tracer wraps them, after the compile; a wrapper
        # that copies the function's attributes is called too
        system = compile_k1(1, 2)
        cfg = SolverConfig(1.0, 1.5, 1e-2, decimate=7)
        plain = collect(system, (1.0, 0.0), cfg)
        calls = Counter()

        def counting(name, fn):
            def counted(s, y):
                calls[name] += 1
                return fn(s, y)
            return functools.wraps(fn)(counted) if copy_attributes else counted

        system.rhs = counting("rhs", system.rhs)
        system.monitors = {name: counting(name, fn)
                           for name, fn in system.monitors.items()}
        wrapped = collect(system, (1.0, 0.0), cfg)
        assert calls == {"rhs": 4 * 50, "u": len(plain.samples)}
        assert len(plain.samples) == 9
        assert _run_bits(wrapped) == _run_bits(plain)

    def test_unhashable_or_unreferable_fields_are_called(self, k1_demo):
        # an eq=True dataclass has no hash; a __slots__ class no weak reference
        @dataclasses.dataclass
        class Unhashable:
            fn: object

            def __call__(self, s, y):
                return self.fn(s, y)

        class Slotted:
            __slots__ = ("fn",)

            def __init__(self, fn):
                self.fn = fn

            def __call__(self, s, y):
                return self.fn(s, y)

        cfg = SolverConfig(1.0, 1.5, 1e-2, decimate=7)
        for wrap in (Unhashable, Slotted):
            system = CompiledSystem(
                state_names=k1_demo.state_names, rhs=wrap(k1_demo.rhs),
                monitors={name: wrap(fn) for name, fn in k1_demo.monitors.items()})
            assert (_run_bits(collect(system, (1.0, 0.0), cfg))
                    == _run_bits(_reference_integrate(system, (1.0, 0.0), cfg)))

    def test_k1_bit_parity_in_short_lists(self, monkeypatch, run_systems):
        # lists of 3 samples put list boundaries inside every searched run
        monkeypatch.setattr(odesolve, "BATCH", 3)
        _assert_loop_parity(run_systems["k1"], "k1")

    def test_integrate_calls_rhs_four_times_per_step(self):
        calls = []

        def rhs(s, y):
            calls.append(s)
            return (y[0],)

        collect(_double(rhs), (1.0,), SolverConfig(1.0, 1.5, 0.25))
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


def _block(k):
    """(A_p, [B_pq]) of each equation A_p + sum_q B_pq l_q'' of the k-th
    system at tau = ``_taus(k)``, split as ``_exact_system`` splits it."""
    unknowns = [f"l{p}" for p in range(1, k + 1)]
    splits = []
    for eq in build_p3_system(k).equations:
        for p, t in enumerate(_taus(k)):
            eq = eq.subs_param(f"tau{p}", t)
        splits.append(_second_derivative_split(eq.num, unknowns))
    return splits


def _determinant(rows):
    """Cofactor expansion along the first row, skipping zero entries."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero()
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero():
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * entry * _determinant(minor)
    return total


def _cramer(splits):
    """(det, (l_1'', ..., l_k'')) by Cramer's rule: the oracle of
    ``_solve_block``."""
    det = _determinant([coeffs for _, coeffs in splits])
    return det, tuple(RatExpr(_determinant([coeffs[:q] + [-a] + coeffs[q + 1:]
                                            for a, coeffs in splits]), det)
                      for q in range(len(splits)))


@pytest.fixture(scope="module")
def blocks():
    return {k: _block(k) for k in range(1, 9)}


class TestBlockSolve:
    """Fraction-free forward substitution through the lower Hessenberg l''
    block, against Cramer's rule."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_solve_matches_cramer(self, blocks, k):
        # the same canonical (num, den) of every l_p'', so the same text
        det, second = _solve_block(blocks[k])
        cramer_det, cramer_second = _cramer(blocks[k])
        assert det == cramer_det
        assert [(f.num, f.den) for f in second] == [
            (f.num, f.den) for f in cramer_second]

    @pytest.mark.parametrize("row, column, match", [
        (0, 0, "past the superdiagonal"),       # B_11, at x_2 = l_1''
        (0, 1, "superdiagonal entry of equation 1 is not one term"),
        (2, 2, "last pivot"),
    ], ids=["above-superdiagonal", "two-term-superdiagonal",
            "two-term-pivot"])
    def test_corrupted_block_raises(self, blocks, row, column, match):
        splits = [(a, list(coeffs)) for a, coeffs in blocks[3]]
        coeffs = splits[row][1]
        coeffs[column] = coeffs[column] + coeffs[column].ring.one()
        with pytest.raises(ValueError, match=match):
            _solve_block(splits)


class TestGenericCompile:
    """One forward-substitution solve, one derived guard and one exact
    constant check for every k."""

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_constants_proved_exactly(self, generic_exact, k):
        # _exact_system returns only after every on-shell constant reduced
        assert generic_exact[k].constants == {
            **{f"tau{p}": p + 1 for p in range(1, k + 1)}, "ell_next_drift": 0}

    @pytest.mark.parametrize("k", range(1, 9))
    def test_determinant_is_one_monomial(self, blocks, k):
        det, _ = _solve_block(blocks[k])
        monomial = (2 ** (k - 1) * det.ring.s()
                    * det.ring.var(f"l{k}", 0) ** (3 * k - 2))
        assert det == monomial or det == -monomial

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_compile_reads_the_block_solve(self, generic_exact, blocks, k):
        det, second = _solve_block(blocks[k])
        assert generic_exact[k].det == det
        assert [(f.num, f.den) for f in generic_exact[k].second] == [
            (f.num, f.den) for f in second]

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
                assert abs(evaluate(eq, s, jets, taus)) < 1e-11

    @pytest.mark.parametrize("k", (3, 4))
    def test_higher_k_run_completes(self, k):
        system = _compile_system(k, _taus(k))
        traj = collect(system, (1.0, 0.0) * k, SolverConfig(1.0, 1.1, 1e-3))
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
