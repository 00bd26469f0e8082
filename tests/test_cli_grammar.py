"""The command-line reader of ``p3lenard.cli`` against the argparse parser it
replaced, kept here unchanged as the oracle: over a corpus of argv, both
give the same exit code and the same parsed values."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from p3lenard import cli
from p3lenard.cli import (SUITES, _SEED_LABELS, _cmd_gen_hierarchy, _cmd_gen_lax,
                          _cmd_gen_lenard, _cmd_integrate, _cmd_verify)


# -- the oracle: the argparse grammar as the CLI had it ---------------------------

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


# -- the corpus ----------------------------------------------------------------------

RUN = ("--tau", "1,2", "--init", "1,0", "--s0", "1", "--s1", "2",
       "--step", "0.5", "--out", "run.csv")
# command: (argv that every case of the command starts from, option -> value)
VALID = {
    "gen-lenard": ((), {"--seed": "p3", "--custom": "u^2", "--count": "4",
                        "--constants": "1,2", "--format": "latex"}),
    "gen-hierarchy": (("--k", "2"), {"--k": "3", "--format": "latex"}),
    "gen-lax": (("--k", "2"), {"--k": "1", "--format": "latex"}),
    "verify": ((), {"--suite": "shift", "--max-index": "5"}),
    "integrate": (("--k", "1", *RUN),
                  {"--k": "2", "--tau": "1,2,3", "--init": "1,0,1,0", "--s0": "1e-3",
                   "--s1": "inf", "--step": "0.25", "--out": "a.csv",
                   "--decimate": "10"}),
}
INTEGRATE = ("integrate", "--k", "1", *RUN)


def _corpus():
    cases = []
    for command, (base, values) in VALID.items():
        cases += [(command, *base), (command, *base, "extra")]
        for name, value in values.items():
            cases += [(command, *base, name, value), (command, *base, f"{name}={value}"),
                      (command, name, value, *base), (command, *base, name),
                      (command, *base, f"{name}="), (command, *base, name, "--"),
                      (command, *base, name, value, name, value[::-1] or "x"),
                      (command, *base, f"{name[:4]}", value), (command, *base, "-h", name)]
    negative = [("--tau", "-1,2"), ("--init", "-1,0"), ("--init", "-.5,1"),
                ("--s0", "-1"), ("--step", "-0.1"), ("--decimate", "-3"), ("--k", "-1")]
    for name, value in negative:
        cases += [(*INTEGRATE, name, value), (*INTEGRATE, f"{name}={value}")]
    cases += [
        # negative and space-holding values; a dash-led word is an option
        ("gen-lenard", "--constants", "-1/2,1"), ("gen-lenard", "--count", "-2"),
        ("verify", "--max-index", "-1"), ("verify", "-1"), ("verify", "-.5"),
        ("gen-lenard", "--seed", "custom", "--custom", "-(u - 1/2)*(1 + 1)"),
        ("gen-lenard", "--custom", "-u"), ("gen-lenard", "--custom", "-u - 1"),
        ("gen-lenard", "--custom", "--count 3"), ("gen-lenard", "--custom", "--c 3"),
        ("gen-lenard", "--custom", "--seed=a b"), ("gen-lenard", "--custom", "-h x"),
        ("gen-lenard", "--custom", "-"), ("gen-lenard", "--custom", ""),
        ("gen-lenard", "--custom=--c"), ("gen-lenard", "--custom", "u=1"),
        (*INTEGRATE, "--out", "my run.csv"), ("verify", "-x"), ("verify", "-x y"),
        ("verify", "--x y"), ("verify", "--=x"), ("verify", "---suite", "all"),
        # prefixes, unambiguous and ambiguous
        ("verify", "--max", "4"), ("verify", "--max=4"), ("verify", "--m", "4"),
        ("verify", "--su", "lax"), ("verify", "--s", "lax"), ("gen-lenard", "--cou", "3"),
        ("gen-lenard", "--cu", "u"), ("gen-lenard", "--c", "1"), ("gen-lenard", "--co", "1"),
        ("gen-lenard", "--c=1"), ("gen-lenard", "--cons", "1"), ("gen-lenard", "--se", "p3"),
        ("gen-lenard", "--f", "latex"), ("gen-hierarchy", "--k", "1", "--fo", "latex"),
        (*INTEGRATE, "--s", "1"), (*INTEGRATE, "--st", "0.25"), (*INTEGRATE, "--de", "2"),
        (*INTEGRATE, "--d=2"), ("gen-lenard", "--help", "--c", "1"),
        ("gen-lenard", "--c", "1", "--help"), ("verify", "--", "--c"),
        # repeated: the last wins, but each is read
        ("verify", "--suite", "lax", "--suite", "shift"),
        ("verify", "--max-index", "x", "--max-index", "2"),
        ("verify", "--max-index", "2", "--max", "4", "--max-index=6"),
        # missing, unknown and stray tokens, and --
        (), ("nope",), ("-1",), ("",), ("--",), ("--", "verify"), ("verify", "--"),
        ("verify", "--", "--suite", "all"), ("verify", "--suite", "--", "all"),
        ("verify", "--bogus"), ("verify", "--bogus=1"), ("verify", "--bogus", "1"),
        ("--bogus", "verify"), ("-x", "verify"), ("--bogus",), ("verify", "stray"),
        ("verify", "--suite", "all", "stray"), ("integrate", "--k", "1"),
        ("integrate",), ("gen-hierarchy",), ("gen-hierarchy", "--k"),
        ("gen-lax", "--format", "json"), ("verify", "--suite"), ("verify", "--suite", "-h"),
        ("verify", "--suite", "--max-index", "2"),
        # bad type and bad choice values
        ("verify", "--max-index", "x"), ("verify", "--max-index", "1.5"),
        ("verify", "--max-index", " 7 "), ("verify", "--max-index", "1_0"),
        ("gen-lenard", "--count", ""), ("gen-lenard", "--count", "3.0"),
        ("gen-lenard", "--seed", "nope"), ("gen-lenard", "--seed", "P3"),
        ("gen-lenard", "--format", "xml"), ("verify", "--suite", "nope"),
        ("verify", "--suite", "all "), (*INTEGRATE[:2], "3", *RUN),
        (*INTEGRATE[:2], "1.0", *RUN), (*INTEGRATE, "--s0", "abc"),
        (*INTEGRATE, "--step", "nan"), (*INTEGRATE, "--decimate", "0x10"),
        # help at top level, after a command, after a bad value
        ("-h",), ("--help",), ("--he",), ("--h",), ("-hh",), ("-hx",), ("-help",),
        ("--help=x",), ("--help=",), ("-h=",), ("-h", "verify"), ("--bogus", "-h"),
        ("nope", "--help"), ("-h", "nope"), ("--", "-h"),
        ("verify", "-h"), ("verify", "--help"), ("verify", "--he"), ("verify", "-hh"),
        ("verify", "-hx"), ("verify", "--help=1"), ("gen-hierarchy", "--help"),
        ("gen-hierarchy", "--help", "--k"), ("gen-hierarchy", "--k", "--help"),
        ("verify", "stray", "--help"), ("--bogus", "verify", "--help"),
        ("verify", "--suite", "nope", "--help"), ("verify", "--help", "--suite", "nope"),
        ("verify", "--max-index", "x", "-h"), ("verify", "--", "--help"),
        ("verify", "--suite", "lax", "-h"), (*INTEGRATE, "-h"),
    ]
    return cases


CORPUS = list(dict.fromkeys(_corpus()))


def _fields(args) -> dict:
    """The parsed fields by name, each as its repr: ``nan`` equals itself,
    and ``1`` differs from ``1.0``."""
    return {name: repr(value) for name, value in vars(args).items()}


def _oracle(argv):
    """(exit code, parsed fields or None) from the argparse oracle."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, _fields(build_parser().parse_args(list(argv)))
        except SystemExit as exc:
            return exc.code, None


def _reader(argv):
    """(exit code, parsed fields or None) from the CLI's reader."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, _fields(cli._parse(list(argv)))
        except cli._Stop as stop:
            return stop.args[0], None


def test_reader_matches_argparse_on_the_corpus():
    assert len(CORPUS) > 290
    results = [(argv, _reader(argv), _oracle(argv)) for argv in CORPUS]
    assert [result for result in results if result[1] != result[2]] == []
    # the corpus reaches every outcome: parsed, help and usage error
    outcomes = {(code, fields is None) for _, _, (code, fields) in results}
    assert outcomes == {(0, False), (0, True), (2, True)}


@pytest.mark.parametrize("argv", [
    ("verify", "--suite=--"), ("gen-lenard", "--count=--"),
    ("gen-lenard", "--constants=--"), ("gen-lenard", "--seed", "custom", "--custom=--"),
    (*INTEGRATE, "--tau=--")])
def test_attached_double_dash_is_a_value(capsys, argv):
    """``--opt=--`` is the value ``--``, a usage error for every option;
    argparse read it as an empty list, which crashed the command or, for
    ``--constants``, ran it on zero constants."""
    assert cli.run(list(argv)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") in (1, 2)


def test_help_goes_to_stdout_and_errors_to_stderr(capsys):
    assert cli.run(["--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: p3lenard ") and all(name in out for name in cli._COMMANDS)
    assert cli.run(["integrate", "-h"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: p3lenard integrate ")
    assert all(name in out for name in RUN[::2] + ("--k", "--decimate"))
    assert cli.run(["verify", "--max-index", "x"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: p3lenard verify ")
    assert error == "p3lenard verify: error: argument --max-index: invalid int value: 'x'"


def test_readme_shows_the_top_level_help(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shown = readme.split("$ p3lenard --help\n", 1)[1].split("```", 1)[0]
    assert cli.run(["--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out == shown
