"""Numerical integration of the k = 1 and k = 2 hierarchy systems.

The compiler starts from the symbolic equations of ``build_p3_system``,
substitutes numeric tau values, solves the (linear) second-derivative block
once, and emits plain float evaluators.  Monitors — u, u', the reconstructed
next recursion step, and the re-evaluated constants of motion — come from
symbolic differentiation of the compiled right-hand side, never from finite
differences, so any drift observed is attributable to time stepping alone.

Integration is fixed-step classical RK4: deterministic, bit-for-bit
reproducible, and poles are reported rather than stepped over.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .jetring import Poly, RatExpr
from .hierarchy import boundary_jet_sequence, build_p3_system, conserved_tau


class SingularMassMatrix(ArithmeticError):
    def __init__(self, s: float):
        super().__init__(f"second-derivative block singular at s = {s!r}")
        self.s = s


class StepSizeUnderflow(ValueError):
    pass


class DomainError(ValueError):
    pass


class UnknownMonitor(KeyError):
    pass


MAX_STEPS = 10 ** 8


# -- float compilation of exact expressions ------------------------------------

def _compile_poly(p: Poly, layout: dict):
    """Turn an exact polynomial into a float evaluator over (s, state).

    ``layout`` maps (dependent name, order) to a state-vector slot.  The
    term list is frozen in sorted monomial order for reproducible summation.
    """
    terms = []
    for m, c in p.sorted_terms():
        s_pow, jets, pars = m
        if pars:
            raise ValueError("unsubstituted parameter in compiled expression")
        slots = []
        for (d, o), e in jets:
            key = (p.ring.dependents[d], o)
            if key not in layout:
                raise ValueError(f"no state slot for {key}")
            slots.append((layout[key], e))
        terms.append((float(c), s_pow, tuple(slots)))
    terms = tuple(terms)

    def ev(s: float, y) -> float:
        total = 0.0
        for coef, s_pow, slots in terms:
            v = coef * s ** s_pow if s_pow else coef
            for slot, e in slots:
                v *= y[slot] ** e
            total += v
        return total

    return ev


def _compile_ratexpr(e: RatExpr, layout: dict):
    num = _compile_poly(e.num, layout)
    den = _compile_poly(e.den, layout)

    def ev(s: float, y) -> float:
        d = den(s, y)
        if d == 0.0:
            raise ZeroDivisionError(f"denominator vanished at s = {s!r}")
        return num(s, y) / d

    return ev


@dataclass
class CompiledSystem:
    """First-order vector field with named scalar monitors.

    ``accumulators`` maps an accumulated-monitor name to the integrand
    monitor whose trapezoid running integral it records.
    """

    k: int
    dimension: int
    state_names: tuple
    rhs: object                       # callable (s, y) -> tuple
    monitors: dict = field(default_factory=dict)
    accumulators: dict = field(default_factory=dict)
    csv_columns: tuple = ()

    def monitor_names(self) -> tuple:
        return tuple(self.monitors) + tuple(self.accumulators)


@dataclass(frozen=True)
class SolverConfig:
    s_start: float
    s_end: float
    step: float
    decimate: int = 1


@dataclass
class Trajectory:
    monitor_names: tuple
    samples: list                     # (s, state tuple, monitor tuple)
    status: str                       # "completed" | "aborted-nonfinite"
    abort_s: float | None = None


def _second_derivative_split(num: Poly, unknowns: list):
    """Write an equation numerator as A + sum_p B_p * l_p'' and return
    (A, [B_p]); raises if any second derivative appears nonlinearly."""
    coeffs = []
    rest = num
    for name in unknowns:
        parts = rest.collect(name, 2)
        if any(e > 1 for e in parts):
            raise ValueError(f"{name}'' appears nonlinearly")
        coeffs.append(parts.get(1, num.ring.zero()))
        rest = parts.get(0, num.ring.zero())
    for b in coeffs:
        for name in unknowns:
            order = b.max_order(name)
            if order is not None and order >= 2:
                raise ValueError("cross second-derivative term")
    return rest, coeffs


def _compile_system(k: int, tau_values: tuple) -> CompiledSystem:
    if len(tau_values) != k + 1:
        raise ValueError(f"k = {k} needs {k + 1} tau values")
    taus = [Fraction(t) for t in tau_values]
    sys = build_p3_system(k)
    ring = sys.ring
    unknowns = [f"l{p}" for p in range(1, k + 1)]

    def fix_params(e: RatExpr) -> RatExpr:
        for p, t in enumerate(taus):
            e = e.subs_param(f"tau{p}", t)
        return e

    nums = [fix_params(eq).num for eq in sys.equations]
    splits = [_second_derivative_split(n, unknowns) for n in nums]

    if k == 1:
        a1, (b1,) = splits[0]
        det = b1
        f_exprs = [RatExpr(-a1, b1)]
    elif k == 2:
        a1, (b1, c1) = splits[0]
        a2, (b2, c2) = splits[1]
        det = b1 * c2 - b2 * c1
        f_exprs = [RatExpr(a2 * c1 - a1 * c2, det),
                   RatExpr(a1 * b2 - a2 * b1, det)]
    else:
        raise ValueError("numerical compilation supports k = 1 and k = 2 only")

    def subs_second(e: RatExpr) -> RatExpr:
        for name, f in zip(unknowns, f_exprs):
            if e.num.max_order(name) == 2 or e.den.max_order(name) == 2:
                e = e.subs_var(name, 2, f)
        return e

    def on_shell_derivative(e: RatExpr) -> RatExpr:
        return subs_second(e.total_derivative())

    u0 = subs_second(fix_params(sys.u_expr))
    u1 = on_shell_derivative(u0)
    lk = f"l{k}"
    lk_var = RatExpr(ring.var(lk, 0))
    lk_p = RatExpr(ring.var(lk, 1))
    lk_ppp = on_shell_derivative(f_exprs[k - 1])
    dl_next = lk_ppp + 4 * u0 * lk_p + 2 * u1 * lk_var

    seq = boundary_jet_sequence(k, ring)
    tau_checks = {}
    for p in range(1, k + 1):
        expr = RatExpr(conserved_tau(seq, k, p).expr)
        expr = subs_second(fix_params(expr.subs_var("u", 0, sys.u_expr)))
        tau_checks[f"tau{p}"] = expr

    layout = {}
    state_names = []
    for name in unknowns:
        layout[(name, 0)] = len(state_names)
        state_names.append(name)
        layout[(name, 1)] = len(state_names)
        state_names.append(name + "p")

    det_ev = _compile_poly(det, layout)
    f_evs = [_compile_ratexpr(f, layout) for f in f_exprs]

    # the pre-clearing equations divide by the l_p, so a zero component is a
    # pole even when the cleared determinant stays finite
    if k == 1:
        def rhs(s, y):
            if y[0] == 0.0 or det_ev(s, y) == 0.0:
                raise SingularMassMatrix(s)
            return (y[1], f_evs[0](s, y))
    else:
        def rhs(s, y):
            if y[0] == 0.0 or y[2] == 0.0 or det_ev(s, y) == 0.0:
                raise SingularMassMatrix(s)
            return (y[1], f_evs[0](s, y), y[3], f_evs[1](s, y))

    monitors = {"u": _compile_ratexpr(u0, layout),
                "u_prime": _compile_ratexpr(u1, layout),
                "dl_next": _compile_ratexpr(dl_next, layout)}
    for name, expr in tau_checks.items():
        monitors[name] = _compile_ratexpr(expr, layout)

    if k == 1:
        accumulators = {"l2_reconstructed": "dl_next"}
        csv_columns = ("s", "l1", "l1p", "u", "tau1", "ell_next_drift")
    else:
        accumulators = {}
        csv_columns = ("s", "l1", "l1p", "l2", "l2p", "u", "tau1", "tau2",
                       "ell_next_drift")

    return CompiledSystem(k=k, dimension=2 * k,
                          state_names=tuple(state_names),
                          rhs=rhs, monitors=monitors,
                          accumulators=accumulators, csv_columns=csv_columns)


def compile_k1(tau0, tau1) -> CompiledSystem:
    """Explicit first-order form of the k = 1 equation, with monitors."""
    return _compile_system(1, (tau0, tau1))


def compile_k2(tau) -> CompiledSystem:
    """Explicit first-order form of the k = 2 pair, solved for (l1'', l2'')."""
    return _compile_system(2, tuple(tau))


# -- integration ----------------------------------------------------------------

def integrate(sys: CompiledSystem, init, cfg: SolverConfig) -> Trajectory:
    """Classical fixed-step RK4.  Deterministic bit-for-bit for a given
    configuration; halts with an aborted status at the first non-finite or
    singular evaluation."""
    if cfg.step <= 0:
        raise StepSizeUnderflow(f"step {cfg.step!r} must be positive")
    if cfg.s_start <= 0:
        raise DomainError("s_start must be positive (equations have 1/s terms)")
    if cfg.s_end <= cfg.s_start:
        raise DomainError("s_end must exceed s_start")
    if (cfg.s_end - cfg.s_start) / cfg.step > MAX_STEPS:
        raise DomainError("step count exceeds the runaway guard")
    if cfg.decimate < 1:
        raise ValueError("decimate must be >= 1")
    y = tuple(float(v) for v in init)
    if len(y) != sys.dimension:
        raise ValueError(f"state dimension {len(y)} != {sys.dimension}")
    if not all(math.isfinite(v) for v in y):
        raise ValueError("initial state must be finite")

    n = max(1, round((cfg.s_end - cfg.s_start) / cfg.step))
    h = cfg.step
    names = sys.monitor_names()
    acc_values = {name: 0.0 for name in sys.accumulators}
    samples = []
    status = "completed"
    abort_s = None

    def monitor_row(si, yi, integrands):
        row = []
        for name in sys.monitors:
            row.append(integrands[name] if name in integrands
                       else sys.monitors[name](si, yi))
        row.extend(acc_values[name] for name in sys.accumulators)
        return tuple(row)

    def integrand_values(si, yi):
        out = {}
        for src in set(sys.accumulators.values()):
            out[src] = sys.monitors[src](si, yi)
        return out

    try:
        s_i = cfg.s_start
        prev_integrands = integrand_values(s_i, y)
        samples.append((s_i, y, monitor_row(s_i, y, prev_integrands)))
        for i in range(1, n + 1):
            k1 = sys.rhs(s_i, y)
            k2 = sys.rhs(s_i + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
            k3 = sys.rhs(s_i + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
            k4 = sys.rhs(s_i + h, tuple(a + h * b for a, b in zip(y, k3)))
            y = tuple(a + h / 6 * (p + 2 * q + 2 * r + w)
                      for a, p, q, r, w in zip(y, k1, k2, k3, k4))
            s_i = cfg.s_start + i * h
            if not all(math.isfinite(v) for v in y):
                status, abort_s = "aborted-nonfinite", s_i
                break
            integrands = integrand_values(s_i, y)
            for name, src in sys.accumulators.items():
                acc_values[name] += h * (prev_integrands[src] + integrands[src]) / 2
            prev_integrands = integrands
            if i % cfg.decimate == 0 or i == n:
                row = monitor_row(s_i, y, integrands)
                if not all(math.isfinite(v) for v in row):
                    status, abort_s = "aborted-nonfinite", s_i
                    break
                samples.append((s_i, y, row))
    except (SingularMassMatrix, ZeroDivisionError, OverflowError) as exc:
        status = "aborted-nonfinite"
        abort_s = getattr(exc, "s", s_i)

    return Trajectory(monitor_names=names, samples=samples,
                      status=status, abort_s=abort_s)


def drift_report(traj: Trajectory, monitor: str):
    """(max absolute drift, relative drift) of a monitor against its value at
    the first sample; relative drift is normalized by |initial| + 1."""
    if monitor not in traj.monitor_names:
        raise UnknownMonitor(monitor)
    idx = traj.monitor_names.index(monitor)
    v0 = traj.samples[0][2][idx]
    max_abs = max(abs(sample[2][idx] - v0) for sample in traj.samples)
    return max_abs, max_abs / (abs(v0) + 1.0)


def write_csv(traj: Trajectory, sys: CompiledSystem, path) -> None:
    """Trajectory CSV with 17-significant-digit decimal values."""
    ell_next = "l2_reconstructed" if sys.k == 1 else "dl_next"
    tau_names = [f"tau{p}" for p in range(1, sys.k + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sys.csv_columns)
        for s_i, y, mon in traj.samples:
            row = [s_i, *y]
            mon_map = dict(zip(traj.monitor_names, mon))
            row.append(mon_map["u"])
            row.extend(mon_map[t] for t in tau_names)
            row.append(mon_map[ell_next])
            writer.writerow(f"{v:.17g}" for v in row)
