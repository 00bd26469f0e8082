"""Batch command-line front end.

Subcommands: gen-lenard, gen-hierarchy, gen-lax (expression output, JSON by
default with LaTeX as an alternate rendering of the same normal form),
verify (identity suites, one PASS/FAIL line per check), and integrate
(fixed-step RK4 run written as CSV).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 runtime
error.  Non-interactive by design; no environment variables, no network.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import render
from .diffpoly import NotExactDerivative, ParseError, parse
from .hierarchy import build_p3_system, conservation_residual, conservation_window
from .jetring import ZeroDenominator
from .lenard import (Brackets, SeedCondition, closed_form_standard, generate,
                     master_identity_residual, shift_identity_residual,
                     symbolic)
from .laxpair import c_relation_residual, build_b, compatibility_residual, derive_a_c
from .odesolve import (ConstantMismatch, SingularMassMatrix, SolverConfig,
                       compile_k1, compile_k2, integrate, write_csv)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

SUITES = ("master", "shift", "transport", "conservation", "closedform", "lax")
_SEED_LABELS = ("standard", "p3", "custom")


def _seed_from_label(label: str, expr: str | None = None) -> SeedCondition:
    if label == "standard":
        return SeedCondition.standard()
    if label == "p3":
        return SeedCondition.painleve3()
    if expr is None:
        expr = "1/2*s^2"
    return SeedCondition.custom(parse(expr))


# -- gen-lenard ------------------------------------------------------------------

def _cmd_gen_lenard(args) -> int:
    if args.count < 1:
        print("--count must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.custom is not None and args.seed != "custom":
        print("--custom needs --seed custom", file=sys.stderr)
        return EXIT_USAGE
    try:
        seed = _seed_from_label(args.seed, args.custom)
    except (ParseError, ValueError) as exc:
        print(f"bad custom seed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        constants = [Fraction(c) for c in args.constants.split(",")] \
            if args.constants else [Fraction(0)] * args.count
    except (ValueError, ZeroDivisionError) as exc:
        print(f"bad numeric list: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if len(constants) != args.count:
        print(f"--constants needs {args.count} values, got {len(constants)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        seq = generate(seed, args.count, constants)
    except NotExactDerivative as exc:
        print(f"recursion left the differential-polynomial ring: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    if args.format == "latex":
        for j, ell in enumerate(seq.ells):
            print(rf"\ell_{{{j}}} = {render.poly_latex(ell)}")
    else:
        print(json.dumps({"seed": seed.variant,
                          "ells": [render.poly_to_obj(e) for e in seq.ells]}))
    return EXIT_OK


# -- gen-hierarchy ---------------------------------------------------------------

def _cmd_gen_hierarchy(args) -> int:
    if args.k < 1:
        print("--k must be positive", file=sys.stderr)
        return EXIT_USAGE
    system = build_p3_system(args.k)
    if args.format == "latex":
        print(rf"u = {render.ratexpr_latex(system.u_expr)}")
        for p, eq in enumerate(system.equations, start=1):
            print(rf"0 = {render.ratexpr_latex(eq)}  % p = {p}")
    else:
        print(json.dumps({
            "k": args.k,
            "u": render.ratexpr_to_obj(system.u_expr),
            "equations": [render.ratexpr_to_obj(eq) for eq in system.equations],
        }))
    return EXIT_OK


# -- gen-lax ---------------------------------------------------------------------

def _cmd_gen_lax(args) -> int:
    if args.k < 1:
        print("--k must be positive", file=sys.stderr)
        return EXIT_USAGE
    seq = symbolic(SeedCondition.painleve3(), args.k)
    b = build_b(seq, args.k)
    a, c = derive_a_c(b, seq)
    named = (("a", a), ("b", b), ("c", c))
    if args.format == "latex":
        for label, series in named:
            body = " + ".join(
                rf"\left({render.poly_latex(series.coeff(n))}\right) z^{{{n}}}"
                for n in series.powers())
            print(f"{label} = {body or '0'}")
    else:
        out = {"k": args.k}
        for label, series in named:
            out[label] = {str(n): render.poly_to_obj(series.coeff(n))
                          for n in series.powers()}
        print(json.dumps(out))
    return EXIT_OK


# -- verify ----------------------------------------------------------------------

# how far past --max-index each suite reads: l_0 .. l_{N + reach}
_REACH = {"master": 0, "shift": 0, "transport": 1, "conservation": 1, "lax": 2}


def _verify_sequences(max_index: int, suites) -> dict:
    """The symbolic sequence of each seed that ``suites`` read, by seed label:
    closedform reads none, lax only p3, every other suite all three, each
    through l_{N + reach} for the longest reach of its readers (N = ``max_index``)."""
    reach = {}
    for suite in (suite for suite in suites if suite in _REACH):
        for label in ("p3",) if suite == "lax" else _SEED_LABELS:
            reach[label] = max(reach.get(label, 0), _REACH[suite])
    return {label: symbolic(_seed_from_label(label), max_index + reach[label])
            for label in _SEED_LABELS if label in reach}


def _verify_checks(suite: str, max_index: int, seqs: dict):
    """Yield (ok, suite, indices-description) tuples, deterministic order.
    ``seqs`` comes from ``_verify_sequences``; suites that share it reuse
    each sequence's jet table, and the checks of one suite on one seed
    share one ``Brackets`` table of B'."""
    count = max_index + 2

    if suite == "master":
        for label, seq in seqs.items():
            for n in range(max_index):
                for m in range(max_index):
                    ok = master_identity_residual(seq, n, m).is_zero()
                    yield ok, "master", f"{label} n={n} m={m}"
    elif suite == "shift":
        for label, seq in seqs.items():
            for n in range(1, max_index + 1):
                for m in range(max_index):
                    ok = shift_identity_residual(seq, n, m).is_zero()
                    yield ok, "shift", f"{label} n={n} m={m}"
    elif suite == "transport":
        windows = [(m, n, min(n, count - 1 - m))
                   for n in range(max_index + 1) for m in range(max_index)]
        for label, seq in seqs.items():
            table = Brackets(seq, windows)
            for m, n, top in windows:
                for r, (jets, brackets) in enumerate(table.window(m, n, top)):
                    yield jets == brackets, "transport", f"{label} m={m} n={n} r={r}"
    elif suite == "conservation":
        checks = [(k, p, "tau") for k in range(1, max_index + 1) for p in range(k + 1)]
        checks += [(0, p, "sigma") for p in range(count)]
        for label, seq in seqs.items():
            table = Brackets(seq, [conservation_window(*check) for check in checks])
            for k, p, kind in checks:
                ok = conservation_residual(seq, k, p, kind, table=table).is_zero()
                where = f"k={k} p={p}" if kind == "tau" else f"p={p}"
                yield ok, "conservation", f"{label} {kind} {where}"
    elif suite == "closedform":
        seed = SeedCondition.standard()
        top = max_index + 1
        gen_seq = generate(seed, top, [0] * top)
        closed = closed_form_standard(top)
        for p in range(1, top + 1):
            yield closed[p] == gen_seq.ell(p), "closedform", f"p={p}"
    elif suite == "lax":
        seq = seqs["p3"]
        for k in range(1, max_index + 2):
            ok = compatibility_residual(seq, k).is_zero()
            yield ok, "lax", f"compat k={k}"
            ok = c_relation_residual(seq, k).is_zero()
            yield ok, "lax", f"c-relation k={k}"


def _cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    if args.max_index < 1:
        print("--max-index must be positive", file=sys.stderr)
        return EXIT_USAGE
    seqs = _verify_sequences(args.max_index, suites)
    passed = failed = 0
    for suite in suites:
        for ok, name, desc in _verify_checks(suite, args.max_index, seqs):
            print(f"{'PASS' if ok else 'FAIL'} {name} {desc}")
            if ok:
                passed += 1
            else:
                failed += 1
    print(f"{passed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# -- integrate -------------------------------------------------------------------

def _cmd_integrate(args) -> int:
    try:
        taus = [float(Fraction(t)) for t in args.tau.split(",")]
        init = [float(Fraction(v)) for v in args.init.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"bad numeric list: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if len(taus) != args.k + 1:
        names = ",".join(f"tau{p}" for p in range(args.k + 1))
        print(f"--k {args.k} needs --tau {names}", file=sys.stderr)
        return EXIT_USAGE
    system = compile_k1(*taus) if args.k == 1 else compile_k2(taus)
    if len(init) != len(system.state_names):
        print(f"--init needs {len(system.state_names)} values "
              f"({', '.join(system.state_names)})", file=sys.stderr)
        return EXIT_USAGE
    cfg = SolverConfig(s_start=args.s0, s_end=args.s1, step=args.step,
                       decimate=args.decimate)
    try:
        traj = integrate(system, init, cfg)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_csv(traj, system, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if traj.status != "completed":
        print(f"integration aborted near s = {traj.abort_s} "
              f"(singular or non-finite); partial CSV written", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {args.out} ({len(traj.samples)} samples)")
    return EXIT_OK


# -- argument grammar ------------------------------------------------------------

_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts like a negative number (``-1,2``,
    ``-3/4,1``, ``-.5``) as a value, never as an option, so that
    ``--tau -1,2`` parses like ``--tau=-1,2``.  No option is spelled that
    way.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="p3lenard",
        description="Generate, verify, and numerically integrate the Lenard "
                    "recursion hierarchy.")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-lenard", help="integrate the recursion explicitly")
    g.add_argument("--seed", choices=_SEED_LABELS, default="standard")
    g.add_argument("--custom", metavar="EXPR",
                   help="seed expression for --seed custom (ASCII grammar)")
    g.add_argument("--count", type=int, default=3)
    g.add_argument("--constants", metavar="c0,c1,...",
                   help="integration constants, one per step (default zeros)")
    g.add_argument("--format", choices=("json", "latex"), default="json")
    g.set_defaults(func=_cmd_gen_lenard)

    g = sub.add_parser("gen-hierarchy", help="emit the k-th ODE system")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--format", choices=("json", "latex"), default="json")
    g.set_defaults(func=_cmd_gen_hierarchy)

    g = sub.add_parser("gen-lax", help="emit Lax coefficient series a, b, c")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--format", choices=("json", "latex"), default="json")
    g.set_defaults(func=_cmd_gen_lax)

    g = sub.add_parser("verify", help="run identity suites")
    g.add_argument("--suite", choices=SUITES + ("all",), default="all")
    g.add_argument("--max-index", type=int, default=3)
    g.set_defaults(func=_cmd_verify)

    g = sub.add_parser("integrate", help="fixed-step RK4 run written as CSV")
    g.add_argument("--k", type=int, choices=(1, 2), required=True)
    g.add_argument("--tau", required=True, metavar="t0,t1[,t2]")
    g.add_argument("--init", required=True, metavar="l1,l1p[,l2,l2p]")
    g.add_argument("--s0", type=float, required=True)
    g.add_argument("--s1", type=float, required=True)
    g.add_argument("--step", type=float, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--decimate", type=int, default=1)
    g.set_defaults(func=_cmd_integrate)
    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SingularMassMatrix, ZeroDenominator, OverflowError,
            NotExactDerivative, ConstantMismatch) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
