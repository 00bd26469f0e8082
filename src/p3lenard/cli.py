"""Batch command-line front end.

Subcommands: gen-lenard, gen-hierarchy, gen-lax (expression output, JSON by
default with LaTeX as an alternate rendering of the same normal form),
verify (identity suites, one PASS/FAIL line per check), and integrate
(fixed-step RK4 run written as CSV).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 runtime
error (a closed stdout included).  Non-interactive by design; no
environment variables, no network.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import render
from .diffpoly import NotExactDerivative, ParseError, parse
from .hierarchy import build_p3_system, conservation_residual
from .jetring import Poly, RatExpr, ZeroDenominator
from .lenard import (SeedCondition, closed_form_standard, generate,
                     master_identity_residual, shift_identity_residual,
                     symbolic, transport_residual)
from .laxpair import c_relation_residual, build_b, compatibility_residual, derive_a_c
from .odesolve import (ConstantMismatch, SingularMassMatrix, SolverConfig,
                       compile_k1, compile_k2, integrate, write_csv)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_SEED_LABELS = ("standard", "p3", "custom")


def _leaf(value) -> dict:
    """The JSON-ready dict of a ``Poly`` or ``RatExpr`` in a printed document."""
    if isinstance(value, RatExpr):
        return render.ratexpr_to_obj(value)
    if isinstance(value, Poly):
        return render.poly_to_obj(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print_json(doc) -> None:
    """Print ``doc`` as ``print(json.dumps(doc, default=_leaf))`` would, one
    element at a time: dicts (with string keys) and lists are walked, and
    every other value is encoded whole and written before the next one is
    built, so memory follows the largest element, not the document."""
    write = sys.stdout.write

    def walk(value):
        if isinstance(value, dict):
            pairs = ((f"{json.dumps(key)}: ", item) for key, item in value.items())
            opening, closing = "{}"
        elif isinstance(value, list):
            pairs = (("", item) for item in value)
            opening, closing = "[]"
        else:
            write(json.dumps(value, default=_leaf))
            return
        write(opening)
        for i, (key, item) in enumerate(pairs):
            write(f", {key}" if i else key)
            walk(item)
        write(closing)

    walk(doc)
    write("\n")


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
            if args.constants is not None else [Fraction(0)] * args.count
    except (ValueError, ZeroDivisionError) as exc:
        print(f"bad numeric list: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if len(constants) != args.count:
        print(f"--constants needs {args.count} values, got {len(constants)}",
              file=sys.stderr)
        return EXIT_USAGE
    # keep the entries only: the sequence's jet table is freed before printing
    ells = generate(seed, args.count, constants).ells
    render.check_digits(ells)
    if args.format == "latex":
        for j, ell in enumerate(ells):
            print(rf"\ell_{{{j}}} = {render.poly_latex(ell)}")
    else:
        _print_json({"seed": seed.variant, "ells": ells})
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
        _print_json({"k": args.k, "u": system.u_expr,
                     "equations": system.equations})
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
        _print_json({"k": args.k, **{
            label: {str(n): series.coeff(n) for n in series.powers()}
            for label, series in named}})
    return EXIT_OK


# -- verify ----------------------------------------------------------------------

def _master_checks(seq, max_index: int):
    return ((master_identity_residual(seq, n, m).is_zero(), f"n={n} m={m}")
            for n in range(max_index) for m in range(max_index))


def _shift_checks(seq, max_index: int):
    return ((shift_identity_residual(seq, n, m).is_zero(), f"n={n} m={m}")
            for n in range(1, max_index + 1) for m in range(max_index))


def _transport_checks(seq, max_index: int):
    return ((transport_residual(seq, m, n, r).is_zero(), f"m={m} n={n} r={r}")
            for n in range(max_index + 1) for m in range(max_index)
            for r in range(min(n, max_index + 1 - m) + 1))


def _conservation_checks(seq, max_index: int):
    for k in range(1, max_index + 1):
        for p in range(k + 1):
            yield conservation_residual(seq, k, p, "tau").is_zero(), f"tau k={k} p={p}"
    for p in range(max_index + 2):
        yield conservation_residual(seq, 0, p, "sigma").is_zero(), f"sigma p={p}"


def _closedform_checks(seq, max_index: int):
    top = max_index + 1
    gen_seq = generate(SeedCondition.standard(), top, [0] * top)
    for p, closed in enumerate(closed_form_standard(top)[1:], start=1):
        yield closed == gen_seq.ell(p), f"p={p}"


def _lax_checks(seq, max_index: int):
    for k in range(1, max_index + 2):
        yield compatibility_residual(seq, k).is_zero(), f"compat k={k}"
        yield c_relation_residual(seq, k).is_zero(), f"c-relation k={k}"


# suite: (checks(seq, N) yielding (ok, description), the seeds it reads, and
# its reach: it reads l_0 .. l_{N + reach}).  Lines name the seed only when
# a suite has several; closedform has none and runs once, on None.
_SUITES = {
    "master": (_master_checks, _SEED_LABELS, 0),
    "shift": (_shift_checks, _SEED_LABELS, 0),
    "transport": (_transport_checks, _SEED_LABELS, 1),
    "conservation": (_conservation_checks, _SEED_LABELS, 1),
    "closedform": (_closedform_checks, (), 0),
    "lax": (_lax_checks, ("p3",), 2),
}
SUITES = tuple(_SUITES)


def _cmd_verify(args) -> int:
    if args.max_index < 1:
        print("--max-index must be positive", file=sys.stderr)
        return EXIT_USAGE
    suites = SUITES if args.suite == "all" else (args.suite,)
    # one sequence per seed that the suites read, as long as the furthest reads it
    reach = {}
    for _, seeds, extra in map(_SUITES.get, suites):
        for label in seeds:
            reach[label] = max(reach.get(label, 0), extra)
    seqs = {label: symbolic(_seed_from_label(label), args.max_index + reach[label])
            for label in _SEED_LABELS if label in reach}
    passed = failed = 0
    for suite in suites:
        checks, seeds, _ = _SUITES[suite]
        for label in seeds or (None,):
            named = f"{suite} {label} " if len(seeds) > 1 else f"{suite} "
            for ok, desc in checks(seqs.get(label), args.max_index):
                print(f"{'PASS' if ok else 'FAIL'} {named}{desc}")
                passed += ok
                failed += not ok
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
        batches = integrate(system, init, cfg)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        count, abort_s = write_csv(batches, system, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if abort_s is not None:
        print(f"integration aborted near s = {abort_s} "
              f"(singular or non-finite); partial CSV written", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {args.out} ({count} samples)")
    return EXIT_OK


# -- command line ----------------------------------------------------------------

# The grammar: per subcommand its handler, help line and options.  An option
# is (name, converter, choices, default, required, metavar, help); a value is
# converted first, then checked against the choices.
_FORMAT = ("--format", str, ("json", "latex"), "json", False, None, None)
_COMMANDS = {
    "gen-lenard": (_cmd_gen_lenard, "integrate the recursion explicitly", (
        ("--seed", str, _SEED_LABELS, "standard", False, None, None),
        ("--custom", str, None, None, False, "EXPR",
         "seed expression for --seed custom (ASCII grammar)"),
        ("--count", int, None, 3, False, None, None),
        ("--constants", str, None, None, False, "c0,c1,...",
         "integration constants, one per step (default zeros)"),
        _FORMAT)),
    "gen-hierarchy": (_cmd_gen_hierarchy, "emit the k-th ODE system", (
        ("--k", int, None, None, True, None, None), _FORMAT)),
    "gen-lax": (_cmd_gen_lax, "emit Lax coefficient series a, b, c", (
        ("--k", int, None, None, True, None, None), _FORMAT)),
    "verify": (_cmd_verify, "run identity suites", (
        ("--suite", str, SUITES + ("all",), "all", False, None, None),
        ("--max-index", int, None, 3, False, None, None))),
    "integrate": (_cmd_integrate, "fixed-step RK4 run written as CSV", (
        ("--k", int, (1, 2), None, True, None, None),
        ("--tau", str, None, None, True, "t0,t1[,t2]", None),
        ("--init", str, None, None, True, "l1,l1p[,l2,l2p]", None),
        ("--s0", float, None, None, True, None, None),
        ("--s1", float, None, None, True, None, None),
        ("--step", float, None, None, True, None, None),
        ("--out", str, None, None, True, None, None),
        ("--decimate", int, None, 1, False, None, None))),
}
_HELP = ("-h", "--help")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Stop(Exception):
    """Raised once help, or a usage error, is printed; ``args[0]`` is the
    exit code."""


def _spelling(option) -> str:
    name, _, choices, _, _, metavar, _ = option
    if choices:
        return f"{name} {{{','.join(map(str, choices))}}}"
    return f"{name} {metavar or name[2:].upper()}"


def _usage(command) -> str:
    if command is None:
        return f"usage: p3lenard [-h] {{{','.join(_COMMANDS)}}} [option ...]"
    words = [f"usage: p3lenard {command} [-h]"]
    for option in _COMMANDS[command][2]:
        required = option[4]
        words.append(_spelling(option) if required else f"[{_spelling(option)}]")
    return " ".join(words)


def _help(command):
    """Print the help of ``command``, or of the top level when it is None."""
    if command is None:
        lines = ["Generate, verify, and numerically integrate the Lenard "
                 "recursion hierarchy.", "", "commands:"]
        rows = [(name, about) for name, (_, about, _) in _COMMANDS.items()]
        tail = ["", "Run 'p3lenard COMMAND -h' for the options of COMMAND."]
    else:
        lines = [_COMMANDS[command][1], "", "options:"]
        rows = [("-h, --help", "show this help and exit")]
        for option in _COMMANDS[command][2]:
            _, _, _, default, required, _, text = option
            rows.append((_spelling(option), text or ("required" if required
                                                     else f"default: {default}")))
        tail = []
    lines += [f"  {left:<22}  {text}" if len(left) <= 22 else f"  {left}\n{'':26}{text}"
              for left, text in rows]
    print(_usage(command), "", *lines, *tail, sep="\n")
    raise _Stop(EXIT_OK)


def _fail(command, message):
    """Print the usage of ``command`` (the top level's when None) and
    ``message`` to stderr, and stop with a usage error."""
    prog = "p3lenard" if command is None else f"p3lenard {command}"
    print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise _Stop(EXIT_USAGE)


def _option(token: str, names, command):
    """How ``token`` reads where ``names`` are the options: None for a value
    (not led by a dash, a lone dash, a token that starts like a negative
    number such as ``-1,2`` or ``-.5``, or one with a space that names no
    option); ``(name, attached)`` for the option it names in full or by an
    unambiguous prefix, ``attached`` being the text after ``=`` (after
    ``-h`` for a short option) or None; ``(None, None)`` for any other
    dash-led token."""
    if token[:1] != "-" or token == "-" or _NEGATIVE_VALUE.match(token):
        return None
    if token in names:
        return token, None
    if token[1] != "-":
        found = [("-h", token[2:])] if token[1] == "h" else []
    else:
        head, eq, tail = token.partition("=")
        found = [(name, tail if eq else None) for name in names
                 if name == head or (head not in names and name.startswith(head))]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {token} could match "
                       + ", ".join(name for name, _ in found))
    if found:
        return found[0]
    return None if " " in token else (None, None)


def _walk(command, tokens: list):
    """Take the options in ``tokens`` in order, against the table of
    ``command``; the top level (None) has only ``-h`` and ends at its first
    value, the command.  Every token up to ``--`` is classified before any
    is taken, so an ambiguous prefix is a usage error even after ``-h``.
    Returns (value by option name, tokens left over, index where the walk
    ended)."""
    table = {option[0]: option for option in _COMMANDS[command][2]} if command else {}
    names = (*_HELP, *table)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, names, command) for token in tokens[:end]]
    values, strays, at = {}, tokens[end:], 0
    while at < end:
        kind, token = kinds[at], tokens[at]
        if kind is None and command is None:
            break
        at += 1
        if kind is None or kind[0] is None:
            strays.append(token)
            continue
        name, attached = kind
        if name in _HELP:
            if attached is None or (name == "-h" and not attached.strip("h")):
                _help(command)                 # -hh is -h twice
            _fail(command, f"argument -h/--help: ignored explicit argument {attached!r}")
        if attached is None:
            if at == end or kinds[at] is not None:
                _fail(command, f"argument {name}: expected one argument")
            attached, at = tokens[at], at + 1
        _, convert, choices, *_ = table[name]
        try:
            values[name] = convert(attached)
        except ValueError:
            _fail(command, f"argument {name}: invalid {convert.__name__} value: {attached!r}")
        if choices is not None and values[name] not in choices:
            _fail(command, f"argument {name}: invalid choice: {values[name]!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
    return values, strays, at


def _parse(argv: list) -> SimpleNamespace:
    """``argv`` read against ``_COMMANDS``: ``command``, ``func`` and one
    attribute per option of the command, its value or its default.  Prints
    help, or a usage error to stderr, and raises ``_Stop`` instead."""
    _, unknown, at = _walk(None, argv)
    if at == len(argv):
        _fail(None, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
    values, strays, _ = _walk(command, argv[at + 1:])
    func, _, options = _COMMANDS[command]
    missing = [name for name, _, _, _, required, *_ in options
               if required and name not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown or strays:
        _fail(None, f"unrecognized arguments: {' '.join(unknown + strays)}")
    args = SimpleNamespace(command=command, func=func)
    for name, _, _, default, *_ in options:
        setattr(args, name[2:].replace("-", "_"), values.get(name, default))
    return args


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        return stop.args[0]
    try:
        return args.func(args)
    except (SingularMassMatrix, ZeroDenominator, OverflowError,
            NotExactDerivative, ConstantMismatch) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit reports nothing, and fail as a runtime error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_RUNTIME
    sys.exit(code)


if __name__ == "__main__":
    main()
