"""Numerical integration of the Painleve III hierarchy systems.

The compiler starts from the symbolic equations of ``build_p3_system``,
substitutes numeric tau values, solves the (linear) second-derivative block
once by forward substitution, the same way for every k, and generates
one straight-line Python function for the right-hand side and one for the
monitor u.  The right-hand side guards the l_p that divide an equation
denominator (l_k alone, for every k checked) and the block determinant.
The generated code evaluates each polynomial term by term, bit for bit as
a loop over its terms would, less the exact no-ops ``_Emitter`` skips.

The constants of motion are proved at compile time, not sampled: the
on-shell tau_p, p = 1..k, must reduce exactly to the literal tau_p, and the
next recursion step l_{k+1}' = l_k''' + 4 u l_k' + 2 u' l_k to zero, or the
compile raises ``ConstantMismatch``.  The CSV columns ``tau_p`` and
``ell_next_drift`` hold these exact constants.

Integration is fixed-step classical RK4, deterministic and bit-for-bit
reproducible.  Each run generates one loop on unpacked scalars that holds
the whole integration: the four stages, the finiteness check, the
sampling and the monitors.  While the system's ``rhs`` and ``monitors``
are the generated ones, their bodies are written inline, so a step makes
no call; any other evaluator is called.  ``integrate`` returns the loop
as a generator of lists of ``BATCH`` samples: ``write_csv`` holds one
list at a time.  The step size must split [s_start, s_end] into a whole
number of steps; a range is never stretched or cut to fit.  A run stops
only at a non-finite or singular evaluation (a guarded zero l_p or
determinant, a vanishing denominator, an overflow).  A sign change of l1
between two steps is not detected: the k = 1 demo run on [1, 5] at
h = 1e-3 records l1 = -6.9e-4 at s = 3.621, past the zero of l1, and stops
only near s = 4.317 (ROADMAP open item "Continue through the zeros of
l_k").
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .jetring import Poly, RatExpr
from .hierarchy import boundary_jet_sequence, build_p3_system, conserved_tau


class SingularMassMatrix(ArithmeticError):
    def __init__(self, s: float):
        super().__init__(f"second-derivative block singular at s = {s!r}")
        self.s = s


class DomainError(ValueError):
    pass


class ConstantMismatch(ArithmeticError):
    """An on-shell constant of motion does not reduce to its literal value."""


MAX_STEPS = 10 ** 8
BATCH = 256  # samples per list a run hands out
# largest |n * step - (s_end - s_start)|, relative to the interval, at which
# n steps still count as covering it exactly
STEP_FIT_RTOL = 1e-9


# -- float code generation for exact expressions --------------------------------

class _Emitter:
    """Straight-line body of one generated evaluator, as a template that
    reads ``{q}s`` and the slots ``{q}y0, {q}y1, ...`` of ``layout`` and
    names what it assigns ``{p}...``: both prefixes are empty in a function
    ``(s, y)`` that unpacks ``y``, and set per stage or monitor in an RK4
    loop.  Each distinct power of exponent 2 or more is assigned once, just
    before the first polynomial that uses it, so an ``OverflowError`` fires
    at the same point as in a term-by-term evaluation.  Source text is built
    only from float reprs, integer exponents and slot indices.

    Three rewrites drop float operations that IEEE 754 makes exact no-ops,
    so every result and exception is that of the term-by-term evaluation:
    a first power is read directly (``y0``, not ``y0 ** 1``); a coefficient
    of exactly 1.0 is dropped from a term with at least one factor; and a
    coefficient of exactly -1.0 is dropped the same way, the term being
    subtracted (``- (a * b)``), since rounding is symmetric in sign and
    x - y is x + (-y).  The leading ``0.0 +`` stays, because it turns a
    lone -0.0 term into +0.0.  ``**`` stays for every exponent of 2 or
    more, because ``x ** 2`` raises ``OverflowError`` where ``x * x`` gives
    inf, and a run must stop where it stopped before.
    """

    def __init__(self, layout: dict):
        self.layout = layout
        self.lines = []
        self.powers = set()

    def _power(self, base: str, e: int) -> str:
        """``base`` is ``s`` or ``y<slot>``."""
        if e == 1:
            return "{q}" + base
        name = f"{{p}}{base}_{e}"
        if name not in self.powers:
            self.powers.add(name)
            self.lines.append(f"{name} = {{q}}{base} ** {e}")
        return name

    def poly(self, p: Poly) -> str:
        """Emit the powers ``p`` needs and return its float value as one
        expression: terms in sorted monomial order summed from 0.0, each a
        product, left to right, of coefficient, power of s and state powers,
        less the no-ops of the class docstring."""
        expr = "0.0"
        for (s_pow, jets, pars), c in p.rows():
            if pars:
                raise ValueError("unsubstituted parameter in compiled expression")
            factors = []
            if s_pow:
                factors.append(self._power("s", s_pow))
            for (d, o), e in jets:
                key = (p.ring.dependents[d], o)
                if key not in self.layout:
                    raise ValueError(f"no state slot for {key}")
                factors.append(self._power(f"y{self.layout[key]}", e))
            coef = c / p.den               # int / int rounds once, correctly
            if factors and abs(coef) == 1.0:
                sign = "-" if coef < 0 else "+"
            else:
                sign = "+"
                factors.insert(0, repr(coef))
            expr += f" {sign} ({' * '.join(factors)})"
        return expr

    def ratio(self, target: str, e: RatExpr, det: Poly | None = None) -> None:
        """Emit ``{p}target = num / den``; a zero denominator raises
        ZeroDivisionError before the numerator is evaluated.  A denominator
        equal to ``det``, already emitted as ``{p}det`` and found nonzero,
        is read by that name and not tested again."""
        den = "{p}det"
        if e.den != det:
            den = f"{{p}}{target}_den"
            value = self.poly(e.den)
            self.lines += [f"{den} = {value}",
                           f"if {den} == 0.0:",
                           "    raise ZeroDivisionError("
                           "f'denominator vanished at s = {{{q}s!r}}')"]
        num = self.poly(e.num)
        self.lines.append(f"{{p}}{target} = ({num}) / {den}")

    def function(self, name: str, result: str, dimension: int) -> str:
        lines = [f"{_tuple([f'y{i}' for i in range(dimension)])} = y", *self.lines]
        body = "".join(f"    {line.format(p='', q='')}\n" for line in lines)
        return f"def {name}(s, y):\n{body}    return {result.format(p='', q='')}\n"


def _tuple(items: list) -> str:
    """Source of a tuple display of ``items``, the empty tuple included."""
    return f"({', '.join(items)},)" if items else "()"


# the builtins generated code reads
_BUILTINS = {"range": range, "ZeroDivisionError": ZeroDivisionError,
             "OverflowError": OverflowError}


def _materialize(source: str, **evaluators) -> dict:
    """The only place generated source becomes code: a compiled system's
    evaluators once per compile, and the RK4 loop once per run.  Its globals
    hold ``SingularMassMatrix``, the ``evaluators`` a loop calls, and of the
    builtins only ``_BUILTINS``."""
    namespace = {"__builtins__": dict(_BUILTINS),
                 "SingularMassMatrix": SingularMassMatrix, **evaluators}
    exec(compile(source, "<p3lenard.odesolve generated>", "exec"), namespace)
    return namespace


# the (body lines, results) templates of the evaluators ``_generate`` made,
# keyed by the function: no wrapper is found, even one that copies attributes
_TEMPLATES = weakref.WeakKeyDictionary()


class CompiledSystem(SimpleNamespace):
    """First-order vector field with named scalar monitors and the exact
    constants of motion proved for it: ``rhs`` maps (s, y) to a tuple, each
    monitor (s, y) to a float, ``constants`` a CSV column to a Fraction, and
    ``source`` is the generated Python of both.  The fields stay assignable,
    so a wrapper can replace ``rhs`` or ``monitors``; the loop that
    ``integrate`` builds then calls it, once per stage or sample, where it
    writes a compiled body inline."""

    def __init__(self, state_names: tuple, rhs,
                 monitors: dict | None = None, constants: dict | None = None,
                 source: str = ""):
        super().__init__(state_names=state_names, rhs=rhs,
                         monitors={} if monitors is None else monitors,
                         constants={} if constants is None else constants,
                         source=source)


class SolverConfig(namedtuple("SolverConfig", "s_start s_end step decimate",
                              defaults=(1,))):
    __slots__ = ()


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


def _solve_block(splits: list):
    """(det, (l_1'', ..., l_k'')) of A_p + sum_q B_pq l_q'' = 0, one
    (A_p, [B_pq]) of ``splits`` per equation, by fraction-free forward
    substitution.  Equation p reads only l_{k-p}'' .. l_k'', so with
    x_j = l_{k-j}'' the block is lower Hessenberg.  Row i < k - 1, times
    the product D of the negated superdiagonal entries above it, gives
    x_{i+1} = (a + b x_0) / (-B D) for its one-term superdiagonal entry B;
    the last row, a + b x_0 = 0, fixes x_0, and its pivot b is the
    determinant, signed by (-1)^(k(k-1)/2) for the reversed columns.  Every
    divisor is one term, so each l_p'' is the canonical RatExpr of Cramer's
    rule; any other shape raises ValueError."""
    k = len(splits)
    pairs = []                  # x_j = (a_j + b_j x_0) / den, j = 1, 2, ...
    den = splits[0][0].ring.one()
    for i, (rest, coeffs) in enumerate(splits):
        row = coeffs[::-1]      # row[j] multiplies x_j
        if any(row[i + 2:]):
            raise ValueError(f"equation {i + 1} reads an l'' past the superdiagonal")
        a, b = rest * den, row[0] * den
        for entry, (aj, bj) in zip(row[1:], pairs):
            if entry:
                a, b = a + entry * aj, b + entry * bj
        if i == k - 1:
            break
        pivot = -row[i + 1]
        if len(pivot.terms) != 1:
            raise ValueError(f"superdiagonal entry of equation {i + 1} is not one term")
        pairs = [(aj * pivot, bj * pivot) for aj, bj in pairs] + [(a, b)]
        den = den * pivot
    if len(b.terms) != 1:
        raise ValueError("last pivot of the l'' block is not one term")
    return ((-1) ** (k * (k - 1) // 2) * b,
            (*(RatExpr(aj * b - bj * a, den * b) for aj, bj in reversed(pairs)),
             RatExpr(-a, b)))


class _ExactSystem(namedtuple("_ExactSystem", "state_names layout guarded det "
                                             "second monitors constants")):
    """The exact expressions a compiled system is generated from: ``layout``
    maps (dependent name, order) to a state slot, ``guarded`` holds the l_p
    dividing an equation denominator, ``det`` is the determinant of the l''
    block, ``second`` the RatExpr of each l_p'' (p = 1..k), ``monitors``
    maps a monitor name to its RatExpr and ``constants`` a CSV column to the
    value proved on shell."""

    __slots__ = ()


def _exact_system(k: int, tau_values: tuple) -> _ExactSystem:
    """Solve the l'' block of the k-th system and prove its constants of
    motion; raises ``ConstantMismatch`` if one does not reduce exactly."""
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

    equations = [fix_params(eq) for eq in sys.equations]
    guarded = tuple(name for name in unknowns
                    if any(eq.den.max_order(name) is not None
                           for eq in equations))
    # equation p reads sum_q B_pq l_q'' = -A_p
    splits = [_second_derivative_split(eq.num, unknowns) for eq in equations]
    det, f_exprs = _solve_block(splits)

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

    seq = boundary_jet_sequence(k)
    on_shell = {}
    for p in range(1, k + 1):
        expr = RatExpr(conserved_tau(seq, k, p))
        expr = subs_second(fix_params(expr.subs_var("u", 0, sys.u_expr)))
        on_shell[f"tau{p}"] = (expr, taus[p])
    on_shell["ell_next_drift"] = (lk_ppp + 4 * u0 * lk_p + 2 * u1 * lk_var,
                                  Fraction(0))
    for name, (expr, value) in on_shell.items():
        if expr != value:
            raise ConstantMismatch(f"on-shell {name} does not reduce to {value}")

    layout = {}
    state_names = []
    for name in unknowns:
        layout[(name, 0)] = len(state_names)
        state_names.append(name)
        layout[(name, 1)] = len(state_names)
        state_names.append(name + "p")

    return _ExactSystem(state_names=tuple(state_names), layout=layout,
                        guarded=guarded, det=det, second=f_exprs,
                        monitors={"u": u0},
                        constants={name: value
                                   for name, (_, value) in on_shell.items()})


def _generate(exact: _ExactSystem):
    """Straight-line float evaluators of an exact system: returns
    (source, rhs, {monitor name: evaluator}), each evaluator's template
    kept in ``_TEMPLATES``."""
    dimension = len(exact.state_names)
    em = _Emitter(exact.layout)
    # an equation that divides by l_p has a pole at l_p = 0 even where the
    # cleared determinant stays finite
    for name in exact.guarded:
        em.lines += [f"if {{q}}y{exact.layout[(name, 0)]} == 0.0:",
                     "    raise SingularMassMatrix({q}s)"]
    det = em.poly(exact.det)
    em.lines += [f"{{p}}det = {det}", "if {p}det == 0.0:",
                 "    raise SingularMassMatrix({q}s)"]
    result = []
    for p, f in enumerate(exact.second, start=1):
        em.ratio(f"f{p}", f, exact.det)
        result += [f"{{q}}y{exact.layout[(f'l{p}', 1)]}", f"{{p}}f{p}"]
    emitted = {"rhs": (em, result, f"({', '.join(result)})")}
    for i, expr in enumerate(exact.monitors.values()):
        em = _Emitter(exact.layout)
        em.ratio("value", expr)
        emitted[f"monitor_{i}"] = (em, ["{p}value"], "{p}value")
    source = "\n\n".join(em.function(name, returned, dimension)
                          for name, (em, _, returned) in emitted.items())
    namespace = _materialize(source)
    for name, (em, results, _) in emitted.items():
        _TEMPLATES[namespace[name]] = (tuple(em.lines), tuple(results))
    monitors = {name: namespace[f"monitor_{i}"]
                for i, name in enumerate(exact.monitors)}
    return source, namespace["rhs"], monitors


def _compile_system(k: int, tau_values: tuple) -> CompiledSystem:
    exact = _exact_system(k, tau_values)
    source, rhs, monitors = _generate(exact)
    return CompiledSystem(
        state_names=exact.state_names, rhs=rhs,
        monitors=monitors, constants=exact.constants, source=source)


def compile_k1(tau0, tau1) -> CompiledSystem:
    """Explicit first-order form of the k = 1 equation, with monitors."""
    return _compile_system(1, (tau0, tau1))


def compile_k2(tau) -> CompiledSystem:
    """Explicit first-order form of the k = 2 pair, solved for (l1'', l2'')."""
    return _compile_system(2, tuple(tau))


# -- integration ----------------------------------------------------------------

def _evaluation(fn, name: str, p: str, q: str, dimension: int, lines: list):
    """Append to ``lines`` one evaluation of ``fn`` at ``{q}s, {q}y0, ...``
    and return its result expressions: the template of an evaluator
    ``_generate`` made, written inline, or else a call of ``fn`` bound as
    ``name``, a tuple for ``rhs`` and a scalar for a monitor."""
    try:
        template = _TEMPLATES.get(fn)
    except TypeError:  # unhashable or not weakly referable: not generated
        template = None
    if template is None:
        args = _tuple([f"{{q}}y{i}" for i in range(dimension)])
        results = ([f"{{p}}k{i}" for i in range(dimension)] if name == "rhs"
                   else ["{p}value"])
        target = _tuple(results) if name == "rhs" else results[0]
        template = ([f"{target} = {name}({{q}}s, {args})"], results)
    body, results = template
    lines += [line.format(p=p, q=q) for line in body]
    return [r.format(p=p, q=q) for r in results]


def _loop_source(rhs, monitors: tuple, dimension: int) -> str:
    """Source of ``run(s_start, h, n, decimate, y, batch)``, a generator of
    a whole RK4 run: it yields (samples, None) for each list of ``batch``
    samples, the last shorter, and (samples, s), the list maybe empty,
    where it aborts at s.  Step i from s has the stages k1 = rhs(s, y),
    k2 = rhs(s + hh, y + hh * k1), k3 = rhs(s + hh, y + hh * k2) and
    k4 = rhs(s + h, y + h * k3), hh = h / 2, then the update ``y_i + h6 *
    (k1_i + 2 * k2_i + 2 * k3_i + k4_i)``, h6 = h / 6, and s = s_start +
    i * h.  A ``SingularMassMatrix`` aborts at its own s, anything else at
    the s of the step or sample it stops."""
    def nonfinite(values):  # x - x is nan for an inf or nan x, else 0.0
        return " or ".join(f"{v} - {v} != 0.0" for v in values)

    state = [f"y{i}" for i in range(dimension)]
    step = []
    stages = [_evaluation(rhs, "rhs", "a_", "", dimension, step)]
    for p, stage_s, weight in (("b_", "s + hh", "hh"), ("c_", "s + hh", "hh"),
                               ("d_", "s + h", "h")):
        step.append(f"{p}s = {stage_s}")
        step += [f"{p}y{i} = y{i} + {weight} * {k}"
                 for i, k in enumerate(stages[-1])]
        stages.append(_evaluation(rhs, "rhs", p, p, dimension, step))
    update = [f"y{i} + h6 * ({k1} + 2 * {k2} + 2 * {k3} + {k4})"
              for i, (k1, k2, k3, k4) in enumerate(zip(*stages))]
    abort = ["    yield samples, s", "    return"]
    step += [f"{_tuple(state)} = {_tuple(update)}", "s = s_start + i * h",
             f"if {nonfinite(state)}:", *abort]
    sample = [f"y = {_tuple(state)}"]
    row = []
    for j, fn in enumerate(monitors):
        row += _evaluation(fn, f"monitor_{j}", f"m{j}_", "", dimension, sample)
    if row:
        sample += [f"if {nonfinite(row)}:", *abort]
    sample.append(f"samples.append((s, y, {_tuple(row)}))")

    def block(lines, depth):
        return "".join(f"{'    ' * depth}{line}\n" for line in lines)

    return ("def run(s_start, h, n, decimate, y, batch):\n"
            + block([f"{_tuple(state)} = y", "hh = h / 2", "h6 = h / 6",
                     "s = s_start", "i = 0", "samples = []", "try:",
                     "    for first in range(0, n + decimate, batch * decimate):",
                     "        for stop in range(first, n + decimate, decimate)[:batch]:",
                     "            if stop > n:", "                stop = n",
                     "            for i in range(i + 1, stop + 1):"], 1)
            + block(step, 5) + block(sample, 4)
            + block(["        yield samples, None", "        samples = []",
                     "except SingularMassMatrix as exc:", "    yield samples, exc.s",
                     "except (ZeroDivisionError, OverflowError):",
                     "    yield samples, s"], 1))


def integrate(sys: CompiledSystem, init, cfg: SolverConfig):
    """Classical fixed-step RK4, deterministic bit-for-bit, as a generator
    of (samples, abort s) pairs: ``samples`` is a list of ``BATCH`` (s,
    state tuple, monitor tuple) rows, the last list maybe shorter.  The
    abort s is None except in the last pair of a run that halts at a
    non-finite or singular evaluation, the initial sample's included; no
    sample holds a non-finite value.  The step must split [s_start, s_end]
    into a whole number of steps, to a relative ``STEP_FIT_RTOL``; ``cfg``
    is checked before the generator is made."""
    if not all(math.isfinite(v) for v in (cfg.s_start, cfg.s_end, cfg.step)):
        raise DomainError("s_start, s_end and step must be finite")
    if cfg.step <= 0:
        raise DomainError(f"step {cfg.step!r} must be positive")
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
    if len(y) != len(sys.state_names):
        raise ValueError(f"state dimension {len(y)} != {len(sys.state_names)}")
    if not all(math.isfinite(v) for v in y):
        raise ValueError("initial state must be finite")

    monitors = tuple(sys.monitors.values())
    run = _materialize(
        _loop_source(sys.rhs, monitors, len(y)), rhs=sys.rhs,
        **{f"monitor_{j}": fn for j, fn in enumerate(monitors)})["run"]
    return run(cfg.s_start, cfg.step, n, cfg.decimate, y, BATCH)


def write_csv(batches, sys: CompiledSystem, path):
    """Trajectory CSV: s, the state and the monitors of each sample as
    ``%.17g`` decimals, then the exact constants of ``sys``; the header
    names them in that order from ``sys``, and every row, the header
    included, ends in ``\\r\\n``.  Rows are formatted from one template
    per run and written one by one.  ``batches`` are the (samples, abort
    s) pairs of ``integrate``, stepped here one list of samples at a time.
    Returns the number of samples written and the s the run aborted at, or
    None."""
    fields = ["%.17g"] * (1 + len(sys.state_names) + len(sys.monitors))
    fields += [f"{float(v):.17g}" for v in sys.constants.values()]
    row = ",".join(fields) + "\r\n"
    header = ("s", *sys.state_names, *sys.monitors, *sys.constants)
    count, abort_s = 0, None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for samples, abort_s in batches:
            fh.writelines(row % (s_i, *y, *mon) for s_i, y, mon in samples)
            count += len(samples)
    return count, abort_s
