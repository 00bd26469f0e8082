"""Numerical integration of the k = 1 and k = 2 hierarchy systems.

The compiler starts from the symbolic equations of ``build_p3_system``,
substitutes numeric tau values, solves the (linear) second-derivative block
once, and generates one straight-line Python function for the right-hand side
and one per monitor.  Monitors — u, u', the reconstructed next recursion
step, and the re-evaluated constants of motion — come from symbolic
differentiation of the compiled right-hand side, never from finite
differences, so any drift observed is attributable to time stepping alone.

Integration is fixed-step classical RK4, deterministic and bit-for-bit
reproducible.  Each run generates one straight-line step function for the
state dimension: it calls the right-hand side four times with literal stage
tuples and returns the update as one tuple, with no per-step loop over the
components.  The step size must split [s_start, s_end] into a whole number
of steps; a range is never stretched or cut to fit.  A run stops only at a
non-finite or singular evaluation (a zero l_p or determinant, a vanishing
denominator, an overflow).  A sign change of l1 between two steps is not
detected: the k = 1 demo run on [1, 5] at h = 1e-3 records l1 = -6.9e-4 at
s = 3.621, past the zero of l1, and stops only near s = 4.317 (ROADMAP open
item 5).
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
# largest |n * step - (s_end - s_start)|, relative to the interval, at which
# n steps still count as covering it exactly
STEP_FIT_RTOL = 1e-9


# -- float code generation for exact expressions --------------------------------

class _Emitter:
    """Straight-line body of one generated evaluator ``(s, y) -> ...``.

    ``layout`` maps (dependent name, order) to a state-vector slot; the body
    unpacks ``y`` into ``y0, y1, ...``.  Each distinct power is assigned once,
    just before the first polynomial that uses it, so an ``OverflowError``
    fires at the same point as in a term-by-term evaluation.  Source text is
    built only from float reprs, integer exponents and slot indices.
    """

    def __init__(self, layout: dict, dimension: int):
        self.layout = layout
        self.lines = [f"({', '.join(f'y{i}' for i in range(dimension))},) = y"]
        self.powers = set()

    def _power(self, base: str, e: int) -> str:
        name = f"{base}_{e}"
        if name not in self.powers:
            self.powers.add(name)
            self.lines.append(f"{name} = {base} ** {e}")
        return name

    def poly(self, p: Poly) -> str:
        """Emit the powers ``p`` needs and return its float value as one
        expression: terms in sorted monomial order summed from 0.0, each a
        product, left to right, of coefficient, power of s and state powers."""
        terms = ["0.0"]
        for (s_pow, jets, pars), c in p.sorted_terms():
            if pars:
                raise ValueError("unsubstituted parameter in compiled expression")
            factors = [repr(float(c))]
            if s_pow:
                factors.append(self._power("s", s_pow))
            for (d, o), e in jets:
                key = (p.ring.dependents[d], o)
                if key not in self.layout:
                    raise ValueError(f"no state slot for {key}")
                factors.append(self._power(f"y{self.layout[key]}", e))
            terms.append(f"({' * '.join(factors)})")
        return " + ".join(terms)

    def ratio(self, target: str, e: RatExpr) -> None:
        """Emit ``target = num / den``; a zero denominator raises
        ZeroDivisionError before the numerator is evaluated."""
        den = self.poly(e.den)
        self.lines += [f"{target}_den = {den}",
                       f"if {target}_den == 0.0:",
                       "    raise ZeroDivisionError("
                       "f'denominator vanished at s = {s!r}')"]
        num = self.poly(e.num)
        self.lines.append(f"{target} = ({num}) / {target}_den")

    def function(self, name: str, result: str) -> str:
        body = "".join(f"    {line}\n" for line in self.lines)
        return f"def {name}(s, y):\n{body}    return {result}\n"


def _materialize(source: str) -> dict:
    """The only place generated source becomes code.  Its globals hold the
    one exception class it raises and no other builtins."""
    namespace = {"__builtins__": {"ZeroDivisionError": ZeroDivisionError},
                 "SingularMassMatrix": SingularMassMatrix}
    exec(compile(source, "<p3lenard.odesolve generated>", "exec"), namespace)
    return namespace


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
    source: str = ""                  # generated Python of rhs and monitors

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


@dataclass(frozen=True)
class _ExactSystem:
    """The exact expressions a compiled system is generated from."""

    k: int
    state_names: tuple
    layout: dict                      # (dependent name, order) -> state slot
    det: Poly                         # determinant of the l'' block
    second: tuple                     # RatExpr of each l_p'', p = 1..k
    monitors: dict                    # monitor name -> RatExpr


def _exact_system(k: int, tau_values: tuple) -> _ExactSystem:
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

    monitors = {"u": u0, "u_prime": u1, "dl_next": dl_next, **tau_checks}
    return _ExactSystem(k=k, state_names=tuple(state_names), layout=layout,
                        det=det, second=tuple(f_exprs), monitors=monitors)


def _generate(exact: _ExactSystem):
    """Straight-line float evaluators of an exact system: returns
    (source, rhs, {monitor name: evaluator})."""
    dimension = len(exact.state_names)
    em = _Emitter(exact.layout, dimension)
    # the pre-clearing equations divide by the l_p, so a zero component is a
    # pole even when the cleared determinant stays finite
    for p in range(1, exact.k + 1):
        em.lines += [f"if y{exact.layout[(f'l{p}', 0)]} == 0.0:",
                     "    raise SingularMassMatrix(s)"]
    det = em.poly(exact.det)
    em.lines += [f"det = {det}", "if det == 0.0:",
                 "    raise SingularMassMatrix(s)"]
    result = []
    for p, f in enumerate(exact.second, start=1):
        em.ratio(f"f{p}", f)
        result += [f"y{exact.layout[(f'l{p}', 1)]}", f"f{p}"]
    parts = [em.function("rhs", f"({', '.join(result)})")]
    for i, expr in enumerate(exact.monitors.values()):
        em = _Emitter(exact.layout, dimension)
        em.ratio("value", expr)
        parts.append(em.function(f"monitor_{i}", "value"))
    source = "\n\n".join(parts)
    namespace = _materialize(source)
    monitors = {name: namespace[f"monitor_{i}"]
                for i, name in enumerate(exact.monitors)}
    return source, namespace["rhs"], monitors


def _compile_system(k: int, tau_values: tuple) -> CompiledSystem:
    exact = _exact_system(k, tau_values)
    source, rhs, monitors = _generate(exact)
    if k == 1:
        accumulators = {"l2_reconstructed": "dl_next"}
        csv_columns = ("s", "l1", "l1p", "u", "tau1", "ell_next_drift")
    else:
        accumulators = {}
        csv_columns = ("s", "l1", "l1p", "l2", "l2p", "u", "tau1", "tau2",
                       "ell_next_drift")

    return CompiledSystem(k=k, dimension=2 * k, state_names=exact.state_names,
                          rhs=rhs, monitors=monitors,
                          accumulators=accumulators, csv_columns=csv_columns,
                          source=source)


def compile_k1(tau0, tau1) -> CompiledSystem:
    """Explicit first-order form of the k = 1 equation, with monitors."""
    return _compile_system(1, (tau0, tau1))


def compile_k2(tau) -> CompiledSystem:
    """Explicit first-order form of the k = 2 pair, solved for (l1'', l2'')."""
    return _compile_system(2, tuple(tau))


# -- integration ----------------------------------------------------------------

def _step_source(dimension: int) -> str:
    """Source of ``step(rhs, s, h, y)``, one classical RK4 step of a
    ``dimension``-component state, returning the new state.

    The stages are straight-line code on unpacked scalars: k1 = rhs(s, y),
    then k2, k3 and k4 from literal tuples ``y_i + hh * k1_i`` and so on,
    with hh = h / 2, and the update ``y_i + h6 * (k1_i + 2 * k2_i + 2 * k3_i
    + k4_i)`` with h6 = h / 6.  Source text is built only from slot indices.
    """
    slots = range(dimension)

    def names(prefix):
        return ", ".join(f"{prefix}_{i}" for i in slots)

    def stage(weight, k):
        return ", ".join(f"y{i} + {weight} * {k}_{i}" for i in slots)

    update = ", ".join(
        f"y{i} + h6 * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i})" for i in slots)
    lines = [f"({', '.join(f'y{i}' for i in slots)},) = y",
             "hh = h / 2",
             f"({names('k1')},) = rhs(s, y)",
             f"({names('k2')},) = rhs(s + hh, ({stage('hh', 'k1')},))",
             f"({names('k3')},) = rhs(s + hh, ({stage('hh', 'k2')},))",
             f"({names('k4')},) = rhs(s + h, ({stage('h', 'k3')},))",
             "h6 = h / 6",
             f"return ({update},)"]
    body = "".join(f"    {line}\n" for line in lines)
    return f"def step(rhs, s, h, y):\n{body}"


def integrate(sys: CompiledSystem, init, cfg: SolverConfig) -> Trajectory:
    """Classical fixed-step RK4.  Deterministic bit-for-bit for a given
    configuration; halts with an aborted status at the first non-finite or
    singular evaluation.  The step size must split [s_start, s_end] into a
    whole number of steps, to within a relative ``STEP_FIT_RTOL`` of the
    interval."""
    if not all(math.isfinite(v) for v in (cfg.s_start, cfg.s_end, cfg.step)):
        raise DomainError("s_start, s_end and step must be finite")
    if cfg.step <= 0:
        raise StepSizeUnderflow(f"step {cfg.step!r} must be positive")
    if cfg.s_start <= 0:
        raise DomainError("s_start must be positive (equations have 1/s terms)")
    if cfg.s_end <= cfg.s_start:
        raise DomainError("s_end must exceed s_start")
    span = cfg.s_end - cfg.s_start
    if span / cfg.step > MAX_STEPS:
        raise DomainError("step count exceeds the runaway guard")
    n = round(span / cfg.step)
    if abs(n * cfg.step - span) > STEP_FIT_RTOL * span:
        raise DomainError(f"step {cfg.step!r} does not split "
                          f"[{cfg.s_start!r}, {cfg.s_end!r}] into a whole "
                          f"number of steps")
    if cfg.decimate < 1:
        raise ValueError("decimate must be >= 1")
    y = tuple(float(v) for v in init)
    if len(y) != sys.dimension:
        raise ValueError(f"state dimension {len(y)} != {sys.dimension}")
    if not all(math.isfinite(v) for v in y):
        raise ValueError("initial state must be finite")

    step = _materialize(_step_source(sys.dimension))["step"]
    h = cfg.step
    names = sys.monitor_names()
    acc_values = {name: 0.0 for name in sys.accumulators}
    samples = []
    status = "completed"
    abort_s = None

    monitors = tuple(sys.monitors.items())
    integrand_monitors = tuple((src, sys.monitors[src])
                               for src in dict.fromkeys(sys.accumulators.values()))

    def monitor_row(si, yi, integrands):
        row = [integrands[name] if name in integrands else fn(si, yi)
               for name, fn in monitors]
        row.extend(acc_values[name] for name in sys.accumulators)
        return tuple(row)

    def integrand_values(si, yi):
        return {src: fn(si, yi) for src, fn in integrand_monitors}

    try:
        s_i = cfg.s_start
        prev_integrands = integrand_values(s_i, y)
        samples.append((s_i, y, monitor_row(s_i, y, prev_integrands)))
        for i in range(1, n + 1):
            y = step(sys.rhs, s_i, h, y)
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
        columns = [traj.monitor_names.index(name)
                   for name in ("u", *tau_names, ell_next)]
        for s_i, y, mon in traj.samples:
            writer.writerow(f"{v:.17g}"
                            for v in (s_i, *y, *(mon[c] for c in columns)))
