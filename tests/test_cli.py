"""CLI surface: subcommand behaviour, exit codes, schema-valid JSON output,
and the CSV integration path."""

import ast
import contextlib
import json
import marshal
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from p3lenard import cli, odesolve, render
from p3lenard.diffpoly import U_RING, u
from p3lenard.hierarchy import build_p3_system, hierarchy_ring
from p3lenard.jetring import ExponentOverflow, RatExpr
from p3lenard.lenard import IndexOutOfRange

from oracles import equation_equivalent, leaf
from test_odesolve import (_flip_tau_sign, _mutate_loop, _reference_integrate,
                           _reference_write_csv, _run_bits, collect)


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("p3lenard") / "schemas"
            / "expression.schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _gen_lenard_child(expr: str):
    """(exit code, stdout, stderr) of ``gen-lenard --count 1`` on the custom
    seed ``expr``, run in a child process held to 1 GB of address space and
    2 s, so a seed whose work has no bound fails the test in seconds
    instead of filling the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-c", "from p3lenard.cli import main; main()",
         "gen-lenard", "--seed", "custom", "--custom", expr, "--count", "1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
        text=True, timeout=2, preexec_fn=cap)
    return done.returncode, done.stdout, done.stderr


# One field of a custom-seed term that makes the seed bad, by the test id
# that names the reason.
BAD_TERM_FIELDS = {
    "fractional-exponent": '"jets":{"0":2.7}', "infinite-s-power": '"s":1e400',
    "fractional-s-power": '"s":0.5', "infinite-exponent": '"jets":{"0":1e400}',
    "nan-exponent": '"jets":{"0":NaN}', "negative-infinite-exponent": '"jets":{"0":-Infinity}',
    "fractional-order": '"jets":{"1.5":1}', "boolean-s-power": '"s":true',
    "boolean-exponent": '"jets":{"0":true}', "string-s-power": '"s":"2"',
    "string-exponent": '"jets":{"0":"3"}', "boolean-coefficient": '"coef":true',
    "zero-exponent": '"jets":{"0":0}', "number-coefficient": '"coef":1',
    "decimal-coefficient": '"coef":"1.5"', "underscored-order": '"jets":{"1_0":1}',
    "spaced-order": '"jets":{" 1":1}',
}


def full_term_seed(field: str) -> str:
    """The one-term seed ``1`` in the full form the schema requires, with
    ``field`` in place of its own coefficient, s power or jets."""
    fields = {'"coef"': '"coef":"1"', '"s"': '"s":0', '"jets"': '"jets":{}'}
    fields[field.split(":", 1)[0]] = field
    return '{"terms":[{%s}]}' % ",".join(fields.values())


class TestGenLenard:
    def test_default_json(self, capsys, schema):
        code, out, _ = run(capsys, "gen-lenard", "--count", "2")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, schema)
        ells = [render.poly_from_obj(e, U_RING) for e in obj["ells"]]
        assert ells[1] == u()
        assert ells[2] == u(2) + 3 * u() ** 2

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "gen-lenard", "--count", "1",
                           "--format", "latex")
        assert code == 0
        assert r"\ell_{1} = u" in out

    def test_constants(self, capsys):
        code, out, _ = run(capsys, "gen-lenard", "--count", "1",
                           "--constants", "1/2")
        assert code == 0
        obj = json.loads(out)
        ell1 = render.poly_from_obj(obj["ells"][1], U_RING)
        assert ell1 == u() + U_RING.const("1/2")

    def test_negative_constants_as_separate_value(self, capsys):
        joined = run(capsys, "gen-lenard", "--count", "2",
                     "--constants=-1/2,1")
        separate = run(capsys, "gen-lenard", "--count", "2",
                       "--constants", "-1/2,1")
        assert separate == joined
        assert joined[0] == 0

    def test_nonlocal_seed_is_runtime_error(self, capsys):
        code, _, err = run(capsys, "gen-lenard", "--seed", "p3", "--count", "1")
        assert code == cli.EXIT_RUNTIME
        assert "differential-polynomial" in err

    def test_nonlocal_custom_seed_quotes_the_leftover(self, capsys):
        # the default custom seed s^2/2 leaves 2*s*u, quoted as str(Poly)
        code, out, err = run(capsys, "gen-lenard", "--seed", "custom",
                             "--count", "1")
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err == ("runtime error: recursion step 0 -> 1 left the "
                       "differential-polynomial ring: no differential-"
                       "polynomial antiderivative (leftover 2*s*u)\n")

    def test_exponent_overflow_is_runtime_error(self, capsys):
        # an exponent beyond the packed slots stays exit 3, from either grammar
        for expr in ("u^16384*u^16384", "u^40000",
                     '{"terms":[{"coef":"1","s":0,"jets":{"0":40000}}]}'):
            code, out, err = run(capsys, "gen-lenard", "--seed", "custom",
                                 "--custom", expr, "--count", "1")
            assert (code, out) == (cli.EXIT_RUNTIME, "")
            assert err.startswith("runtime error: an exponent reached 2**15")

    DIGITS = ("runtime error: a coefficient has more than 4300 digits, "
              "the most an int is printed with\n")
    EXPONENT = ("runtime error: an exponent reached 2**15: packed monomials "
                "hold exponents below 2**15 in 4096 slots\n")

    @pytest.mark.parametrize("expr, err", [
        ("2^99999999999999999999", DIGITS),
        ("((2^32767)^32767)^32767", DIGITS),
        ("(1+u)^40000", EXPONENT),
        ("(u*2^14000)^32767", DIGITS),
        ("u^40000", EXPONENT),
        ("(2*u)^40000", EXPONENT),
        ("u^16384*u^16384", EXPONENT),
        ('{"terms":[{"coef":"1","s":0,"jets":{"0":40000}}]}', EXPONENT),
    ], ids=["huge-exponent", "tower", "binomial", "long-coefficient", "monomial",
            "both-bounds", "product", "json"])
    def test_power_past_a_bound_is_refused_at_once(self, expr, err):
        """A non-constant base to a power of 2**15 or more, or a power whose
        coefficient would pass the digit limit, is refused before it is
        formed: exit 3, one line, empty stdout, where the first four
        squared until memory ran out or ran for minutes."""
        assert sys.get_int_max_str_digits() == 4300
        assert _gen_lenard_child(expr) == (cli.EXIT_RUNTIME, "", err)

    @pytest.mark.parametrize("expr, product", [
        ("2^4000", str(2 ** 4000)),
        ("(1+u)^50", "*".join(["(1+u)"] * 50)),
        ("u^300", "*".join(["u"] * 300)),
        ("1^40000", "1"),
    ], ids=["constant", "binomial", "monomial", "one"])
    def test_power_within_the_bounds_prints_its_product(self, capsys, expr, product):
        got = _gen_lenard_child(expr)
        assert got == run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                          product, "--count", "1")
        assert got[0] == cli.EXIT_OK

    def test_constants_count_mismatch(self, capsys):
        code, _, err = run(capsys, "gen-lenard", "--count", "2",
                           "--constants", "1")
        assert code == cli.EXIT_USAGE

    def test_bad_custom_seed(self, capsys):
        # a zero denominator, malformed JSON and a coefficient beyond float
        # range are parse errors, never a traceback, exit 1 (verification
        # failed) or exit 3 (runtime error)
        for expr in ("u^^2", "1/0", '{"x":1}', '{"terms":5}',
                     '{"terms":[{"coef":"1/0","s":0,"jets":{}}]}',
                     '{"terms":[{"coef":1e400,"s":0,"jets":{}}]}',
                     '{"terms":[{"coef":Infinity,"s":0,"jets":{}}]}',
                     '{"terms":[{"coef":-Infinity,"s":0,"jets":{}}]}'):
            code, out, err = run(capsys, "gen-lenard", "--seed", "custom",
                                 "--custom", expr, "--count", "1")
            assert (code, out) == (cli.EXIT_USAGE, "")
            assert err.startswith("bad custom seed: ") and err.count("\n") == 1

    @pytest.mark.parametrize("expr", [
        "(" * 250 + "u" + ")" * 250,
        '{"terms": ' + "[" * 3000 + "]" * 3000 + "}"], ids=["parentheses", "json-arrays"])
    def test_deeply_nested_seed_is_a_bad_seed(self, capsys, expr):
        """Nesting past the interpreter's recursion limit, in either
        grammar, is a bad seed: exit 2, not a RecursionError traceback and
        exit 1 (verification failed)."""
        code, out, err = run(capsys, "gen-lenard", "--seed", "custom",
                             "--custom", expr, "--count", "1")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("bad custom seed: ") and err.count("\n") == 1

    def test_nested_seed_within_the_limit_is_read(self, capsys):
        nested = run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                     "(" * 150 + "u" + ")" * 150, "--count", "1")
        assert nested == run(capsys, "gen-lenard", "--seed", "custom",
                             "--custom", "u", "--count", "1")
        assert nested[0] == cli.EXIT_OK

    @pytest.mark.parametrize("argv", [
        ("--constants", "1e4300"), ("--constants", "1e4300", "--format", "latex"),
        ("--seed", "custom", "--custom", "2^20000"),
        ("--seed", "custom", "--custom", "2^20000", "--format", "latex")],
        ids=["constant-json", "constant-latex", "seed-json", "seed-latex"])
    def test_coefficient_past_the_digit_limit_is_runtime_error(self, capsys, argv):
        """A coefficient of more than 4300 digits, the interpreter's limit
        for printing an int, is refused before the first byte: exit 3, one
        line, empty stdout, where part of the document and a ValueError
        traceback (exit 1) came before."""
        assert sys.get_int_max_str_digits() == 4300
        code, out, err = run(capsys, "gen-lenard", "--count", "1", *argv)
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err == ("runtime error: a coefficient has more than 4300 digits, "
                       "the most an int is printed with\n")

    @pytest.mark.parametrize("fmt", ["json", "latex"])
    def test_coefficient_at_the_digit_limit_prints(self, capsys, fmt):
        code, out, err = run(capsys, "gen-lenard", "--count", "1",
                             "--constants", "1e4299", "--format", fmt)
        assert (code, err) == (cli.EXIT_OK, "")
        assert "1" + "0" * 4299 in out

    @pytest.mark.parametrize("term", list(BAD_TERM_FIELDS.values()),
                             ids=list(BAD_TERM_FIELDS))
    def test_json_exponent_must_be_a_whole_number(self, capsys, term):
        """An exponent, s power or jet order is never truncated (2.7 read as
        2), read from a boolean (true as 1) or a string ("3" as 3) or
        reported as a runtime error (1e400), an exponent is at least 1, and a
        jet order is decimal digits only (not "1_0" or " 1"): each other
        value is a bad seed.  A coefficient is a rational string, never a
        JSON number or boolean, nor a decimal such as "1.5"."""
        code, out, err = run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                             full_term_seed(term), "--count", "1")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("bad custom seed: ") and err.count("\n") == 1

    def test_json_whole_float_exponent_is_read(self, capsys):
        # 2.0 is the exponent 2, and 40000.0 still overflows (exit 3)
        whole = run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                    '{"terms":[{"coef":"1","s":0,"jets":{"0":2.0}}]}', "--count", "1")
        assert whole == run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                            "u^2", "--count", "1")
        code, out, err = run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                             '{"terms":[{"coef":"1","s":0,"jets":{"0":40000.0}}]}',
                             "--count", "1")
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err.startswith("runtime error: an exponent reached 2**15")

    @pytest.mark.parametrize("seed", [
        '{"terms":[{"coef":"1","params":{"tau0":1}}]}',
        '{"terms":[{"coef":"1","s":0,"jets":{},"params":{"tau0":1}}]}',
        '{"terms":[{"coef":"1"}]}',
        '{"terms":[{"coef":"1","s":0,"jets":{},"extra":5}]}',
        '{"terms":[],"x":1}',
    ], ids=["parameter", "parameter-in-full-form", "no-s-or-jets", "extra-term-key",
            "extra-key"])
    def test_json_seed_is_read_by_the_whole_schema(self, capsys, seed):
        """A term needs s, jets and coef and allows only params besides, a
        polynomial has the one key terms, and a parameter the u ring lacks
        is refused rather than dropped: each is a bad seed."""
        code, out, err = run(capsys, "gen-lenard", "--seed", "custom", "--custom",
                             seed, "--count", "1")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("bad custom seed: ") and err.count("\n") == 1

    def test_json_seeds_are_read_iff_the_schema_holds(self, schema):
        """Every JSON custom seed of this file, and each bad term field in
        the full form, is read by ``poly_from_obj`` iff it validates against
        ``$defs/poly`` and names no parameter (the u ring has none).  An
        exponent too large for the packed slots is read: it fails later, as
        a runtime error."""
        tree = ast.parse(Path(__file__).read_text())
        seeds = {full_term_seed(field) for field in BAD_TERM_FIELDS.values()}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and str(node.value).startswith('{"'):
                with contextlib.suppress(ValueError):     # not JSON: a template
                    json.loads(node.value)
                    seeds.add(node.value)
        poly = jsonschema.Draft202012Validator(
            {**schema["$defs"]["poly"], "$defs": schema["$defs"]})
        verdicts = set()
        for seed in seeds:
            obj = json.loads(seed)
            try:
                render.poly_from_obj(obj, U_RING)
                read = True
            except ExponentOverflow:
                read = True
            except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
                read = False
            names_a_parameter = '"params"' in seed
            verdicts.add((seed, read, poly.is_valid(obj) and not names_a_parameter))
        assert [v for v in verdicts if v[1] != v[2]] == []
        assert len(seeds) > 25 and {v[1] for v in verdicts} == {True, False}

    @pytest.mark.parametrize("argv, message", [
        (("--count", "0"), "--count must be positive"),
        (("--count", "-2"), "--count must be positive"),
        (("--count", "-2", "--constants=1,2"), "--count must be positive"),
        (("--count", "2", "--constants=1,x"), "bad numeric list: "),
        (("--count", "2", "--constants=1/0,1"), "bad numeric list: "),
        (("--count", "2", "--constants="), "bad numeric list: "),
        (("--seed", "standard", "--custom", "u^2", "--count", "1"),
         "--custom needs --seed custom"),
    ], ids=["count-zero", "count-negative", "count-negative-with-constants",
            "constant-not-a-number", "constant-zero-denominator", "constants-empty",
            "custom-without-custom-seed"])
    def test_bad_arguments_are_one_line_usage_errors(self, capsys, argv, message):
        """A bad count or constant list exits 2 with one stderr line, never
        a traceback or exit 1 (verification failed); an empty list is not
        read as the default zeros."""
        code, out, err = run(capsys, "gen-lenard", *argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith(message) and err.count("\n") == 1


class TestGenHierarchy:
    def test_json_matches_library(self, capsys, schema):
        code, out, _ = run(capsys, "gen-hierarchy", "--k", "1")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, schema)
        ring = hierarchy_ring(1)
        eq = RatExpr(render.poly_from_obj(obj["equations"][0]["num"], ring),
                     render.poly_from_obj(obj["equations"][0]["den"], ring))
        assert equation_equivalent(eq, build_p3_system(1).equations[0])

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "gen-hierarchy", "--k", "2",
                           "--format", "latex")
        assert code == 0
        assert out.count("0 = ") == 2
        assert r"\ell_1" in out and r"\tau_2" in out

    def test_missing_k_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen-hierarchy")
        assert code == cli.EXIT_USAGE

    def test_nonpositive_k(self, capsys):
        for command in ("gen-hierarchy", "gen-lax"):
            code, out, err = run(capsys, command, "--k", "0")
            assert (code, out, err) == (cli.EXIT_USAGE, "", "--k must be positive\n")


class TestGenLax:
    def test_json_schema(self, capsys, schema):
        code, out, _ = run(capsys, "gen-lax", "--k", "2")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, schema)
        # b has powers z^-(k+1)..z^-1
        assert sorted(int(n) for n in obj["b"]) == [-3, -2, -1]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "gen-lax", "--k", "1", "--format", "latex")
        assert code == 0
        assert "b = " in out and "z^{-2}" in out

    @pytest.mark.parametrize("k, fmt", [(1, "json"), (4, "latex")])
    def test_builds_only_the_printed_entries(self, capsys, monkeypatch, k, fmt):
        # the series a, b and c read l_0..l_k; l_{k+1} would cost D^3(l_k)
        built = []
        symbolic = cli.symbolic

        def recorded(seed, count):
            seq = symbolic(seed, count)
            built.append(len(seq))
            return seq

        monkeypatch.setattr(cli, "symbolic", recorded)
        code, _, _ = run(capsys, "gen-lax", "--k", str(k), "--format", fmt)
        assert code == 0 and built == [k + 1]


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "closedform",
                           "--max-index", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS closedform") for line in lines[:-1])
        assert lines[-1].endswith("passed, 0 failed")

    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--max-index", "2")
        assert code == 0
        assert "0 failed" in out

    def test_max_index_is_not_clamped(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lax",
                           "--max-index", "4")
        assert code == 0
        assert out.splitlines()[:-1] == [
            f"PASS lax {kind} k={k}"
            for k in range(1, 6) for kind in ("compat", "c-relation")]

    @pytest.mark.parametrize("suite, max_index, last", [
        ("closedform", 7, "PASS closedform p=8"),
        ("conservation", 4, "PASS conservation custom tau k=4 p=4"),
    ])
    def test_max_index_reaches_every_suite(self, capsys, suite, max_index, last):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-index", str(max_index))
        assert code == 0
        assert last in out.splitlines()

    @pytest.mark.parametrize("suite, seeds", [
        ("master", [("standard", 4), ("painleve3", 4), ("custom", 4)]),
        ("shift", [("standard", 4), ("painleve3", 4), ("custom", 4)]),
        ("transport", [("standard", 5), ("painleve3", 5), ("custom", 5)]),
        ("conservation", [("standard", 5), ("painleve3", 5), ("custom", 5)]),
        ("closedform", []),
        ("lax", [("painleve3", 6)]),
        ("all", [("standard", 5), ("painleve3", 6), ("custom", 5)]),
    ])
    def test_symbolic_sequences_per_command(self, capsys, monkeypatch, suite,
                                            seeds):
        # one sequence per seed a suite reads, each only as long as the
        # suites reading it: at N = 4, master and shift read l_0..l_N,
        # transport and conservation l_0..l_{N+1}, lax l_0..l_{N+2}
        calls = []
        symbolic = cli.symbolic

        def counted(seed, count):
            calls.append((seed.variant, count))
            return symbolic(seed, count)

        monkeypatch.setattr(cli, "symbolic", counted)
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-index", "4")
        assert code == 0 and out.endswith(" passed, 0 failed\n")
        assert calls == seeds

    @pytest.mark.parametrize("suite", ["master", "shift", "transport",
                                       "conservation", "lax"])
    def test_a_sequence_one_entry_short_raises_or_fails(self, capsys,
                                                        monkeypatch, suite):
        # the reach above is the least each suite can run on
        symbolic = cli.symbolic
        monkeypatch.setattr(cli, "symbolic",
                            lambda seed, count: symbolic(seed, count - 1))
        try:
            code = cli.run(["verify", "--suite", suite, "--max-index", "4"])
        except IndexOutOfRange:
            code = None
        capsys.readouterr()
        assert code != cli.EXIT_OK

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "master",
                            (lambda seq, max_index: iter([(False, "x")]), ("standard",), 0))
        code, out, _ = run(capsys, "verify", "--suite", "master")
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL master x" in out

    def test_bad_suite_name(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == cli.EXIT_USAGE

    def test_nonpositive_max_index(self, capsys):
        code, out, err = run(capsys, "verify", "--max-index", "0")
        assert (code, out, err) == (cli.EXIT_USAGE, "", "--max-index must be positive\n")


class TestIntegrate:
    def test_k1_run_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "run.csv"
        code, out, _ = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                           "--init", "1,0", "--s0", "1", "--s1", "1.5",
                           "--step", "1e-3", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "s,l1,l1p,u,tau1,ell_next_drift"
        final_tau1 = float(lines[-1].split(",")[4])
        assert abs(final_tau1 - 2.0) < 1e-8

    @pytest.mark.parametrize("option, value", [("--tau", "-1,2"),
                                               ("--init", "-1,0")],
                             ids=["tau", "init"])
    def test_negative_list_as_separate_value(self, capsys, tmp_path,
                                             option, value):
        values = {"--tau": "1,2", "--init": "1,0"}
        results = []
        for form in ("joined", "separate"):
            out_file = tmp_path / f"{form}.csv"
            argv = ["integrate", "--k", "1", "--s0", "1", "--s1", "1.1",
                    "--step", "1e-3", "--out", str(out_file)]
            for name, default in values.items():
                given = value if name == option else default
                argv += ([f"{name}={given}"] if form == "joined"
                         else [name, given])
            code, out, err = run(capsys, *argv)
            results.append((code, out.replace(str(out_file), "OUT"), err,
                            out_file.read_bytes()))
        assert results[0][0] == 0
        assert results[1] == results[0]

    @pytest.mark.parametrize("option, value", [
        ("--tau", "1e400,2"), ("--init", "1e400,0"), ("--init", "-1e400,0")])
    def test_value_beyond_float_range_is_usage_error(self, capsys, tmp_path,
                                                      option, value):
        out_file = tmp_path / "x.csv"
        values = {"--tau": "1,2", "--init": "1,0", option: value}
        code, out, err = run(capsys, "integrate", "--k", "1",
                             *(f"{name}={given}" for name, given in values.items()),
                             "--s0", "1", "--s1", "2", "--step", "0.5",
                             "--out", str(out_file))
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("bad numeric list: ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_tau_arity_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "integrate", "--k", "2", "--tau", "1,2",
                           "--init", "1,0,1,0", "--s0", "1", "--s1", "2",
                           "--step", "1e-3", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    def test_init_arity_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                           "--init", "1", "--s0", "1", "--s1", "2",
                           "--step", "1e-3", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE
        assert "l1" in err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_domain_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                         "--init", "1,0", "--s0", "-1", "--s1", "2",
                         "--step", "1e-3", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("s0, s1, step, message", [
        ("1", "2", "inf", "finite"),
        ("1", "2", "nan", "finite"),
        ("nan", "2", "1e-3", "finite"),
        ("1", "nan", "1e-3", "finite"),
        ("1", "2", "10", "whole number of steps"),
        ("1", "2", "0.3", "whole number of steps"),
        ("1", "2", "0", "must be positive"),
        ("1", "2", "-0.1", "must be positive"),
    ])
    def test_bad_range_usage_error(self, capsys, tmp_path, s0, s1, step,
                                   message):
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                           "--init", "1,0", "--s0", s0, "--s1", s1,
                           "--step", step, "--out", str(out_file))
        assert code == cli.EXIT_USAGE
        assert err.startswith("bad configuration: ") and message in err
        assert not out_file.exists()

    def test_zero_decimate_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, out, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                             "--init", "1,0", "--s0", "1", "--s1", "2",
                             "--step", "0.5", "--decimate", "0", "--out", str(out_file))
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "bad configuration: decimate must be >= 1\n"
        assert not out_file.exists()

    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                             "--init", "1,0", "--s0", "1", "--s1", "2",
                             "--step", "0.5", "--out", str(out_file))
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err.startswith(f"cannot write {out_file}: ") and err.count("\n") == 1
        assert not out_file.parent.exists()

    @pytest.mark.parametrize("s1", ["1.5", "3", "5"],
                             ids=["one-list", "many-lists", "aborted"])
    def test_full_device_is_runtime_error(self, capsys, s1):
        # the write fails once the file buffer is flushed, after the open
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        code, out, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                             "--init", "1,0", "--s0", "1", "--s1", s1,
                             "--step", "1e-3", "--out", "/dev/full")
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err == "cannot write /dev/full: [Errno 28] No space left on device\n"

    def test_directory_out_is_runtime_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                             "--init", "1,0", "--s0", "1", "--s1", "2",
                             "--step", "0.5", "--out", str(tmp_path))
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err == f"cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_k2_start_at_zero_l1_completes(self, capsys, tmp_path):
        # no k = 2 equation divides by l1, so a zero l1 is not a stop
        out_file = tmp_path / "run.csv"
        code, out, err = run(capsys, "integrate", "--k", "2", "--tau", "1,2,3",
                             "--init", "0,1,1,0", "--s0", "1", "--s1", "1.1",
                             "--step", "1e-3", "--out", str(out_file))
        assert (code, err) == (cli.EXIT_OK, "")
        assert out.endswith("(101 samples)\n")

    def test_nonfinite_first_sample_is_runtime_error(self, capsys, tmp_path):
        # u = -inf at s0 from a finite state: no row holds it
        out_file = tmp_path / "run.csv"
        code, out, err = run(capsys, "integrate", "--k", "2", "--tau", "1,2,3",
                             "--init=6.53e98,-0.844,1.73e-51,-1.2e-315",
                             "--s0", "8.78e-39", "--s1", "1e-3",
                             "--step", "1e-4", "--out", str(out_file))
        assert (code, out) == (cli.EXIT_RUNTIME, "")
        assert err.startswith("integration aborted near s = 8.78e-39 ")
        assert out_file.read_text().splitlines() == [
            "s,l1,l1p,l2,l2p,u,tau1,tau2,ell_next_drift"]

    def test_constant_mismatch_is_runtime_error(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(odesolve, "build_p3_system", _flip_tau_sign)
        out_file = tmp_path / "run.csv"
        code, _, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                           "--init", "1,0", "--s0", "1", "--s1", "1.1",
                           "--step", "1e-3", "--out", str(out_file))
        assert code == cli.EXIT_RUNTIME
        assert err == "runtime error: on-shell tau1 does not reduce to 2\n"
        assert not out_file.exists()


def _k1_argv(out_file, steps, decimate=1, step=1 / 1024):
    """A k = 1 demo run of ``steps`` steps of ``step``, a power of 2, from
    s = 1."""
    return ["integrate", "--k", "1", "--tau", "1,2", "--init", "1,0",
            "--s0", "1", "--s1", repr(1 + steps * step), "--step", repr(step),
            "--decimate", str(decimate), "--out", str(out_file)]


def _nan_at(system, j):
    """``system`` with its ``u`` monitor nan from its call ``j`` (0-based)
    on, so a run keeps exactly ``j`` samples."""
    u = system.monitors["u"]
    calls = []

    def monitor(s, y):
        calls.append(s)
        return math.nan if len(calls) > j else u(s, y)

    system.monitors = {"u": monitor}
    return system


class TestStreamedCsv:
    """``integrate`` writes its CSV in lists of ``odesolve.BATCH`` samples,
    byte for byte the CSV of the collected run."""

    def _assert_matches_collected(self, capsys, tmp_path, monkeypatch,
                                  steps, decimate=1, abort_at=None):
        def compiled(*tau):
            system = odesolve.compile_k1(*tau)
            return system if abort_at is None else _nan_at(system, abort_at)

        monkeypatch.setattr(cli, "compile_k1", compiled)
        out_file, ref_file = tmp_path / "run.csv", tmp_path / "ref.csv"
        code, out, err = run(capsys, *_k1_argv(out_file, steps, decimate))
        system = compiled(1.0, 2.0)
        cfg = odesolve.SolverConfig(1.0, 1 + steps / 1024, 1 / 1024, decimate)
        traj = collect(system, (1.0, 0.0), cfg)
        _reference_write_csv(traj.samples, system, ref_file)
        assert out_file.read_bytes() == ref_file.read_bytes()
        # the hand-written loop holds every sample in one list
        assert _run_bits(traj) == _run_bits(
            _reference_integrate(compiled(1.0, 2.0), (1.0, 0.0), cfg))
        if abort_at is None:
            assert (code, err) == (cli.EXIT_OK, "")
            assert out == f"wrote {out_file} ({len(traj.samples)} samples)\n"
        else:
            assert (code, out) == (cli.EXIT_RUNTIME, "")
            assert err.startswith(f"integration aborted near s = {traj.abort_s} ")
            assert len(traj.samples) == abort_at
        return traj

    @pytest.mark.parametrize("offset", [-1, 0, 1, odesolve.BATCH])
    def test_sample_counts_around_a_list(self, capsys, tmp_path, monkeypatch,
                                         offset):
        count = odesolve.BATCH + offset
        traj = self._assert_matches_collected(capsys, tmp_path, monkeypatch,
                                              steps=count - 1)
        assert len(traj.samples) == count

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sparse_counts_around_a_list(self, capsys, tmp_path, monkeypatch,
                                         offset):
        # the last sample falls between two decimated ones
        count = odesolve.BATCH + offset
        traj = self._assert_matches_collected(capsys, tmp_path, monkeypatch,
                                              steps=3 * (count - 2) + 1, decimate=3)
        assert len(traj.samples) == count

    @pytest.mark.parametrize("kept", [0, odesolve.BATCH - 1, odesolve.BATCH,
                                      odesolve.BATCH + 1])
    def test_aborts_around_a_list(self, capsys, tmp_path, monkeypatch, kept):
        self._assert_matches_collected(capsys, tmp_path, monkeypatch,
                                       steps=2 * odesolve.BATCH, abort_at=kept)

    def test_dropped_last_list_is_caught(self, capsys, tmp_path, monkeypatch):
        system = odesolve.compile_k1(1, 2)
        _mutate_loop(monkeypatch, system, lambda source: source.replace(
            "            yield samples, None\n            samples = []",
            "            if samples[batch - 1:]:\n                yield samples, None\n"
            "            samples = []"))
        with pytest.raises(AssertionError):
            self._assert_matches_collected(capsys, tmp_path, monkeypatch,
                                           steps=odesolve.BATCH)

    # dense k = 1 runs of n and 10 n steps: streamed, each peaks near 0.3 MB
    # of traced memory, the compile included; with every sample held, the
    # 10 n run peaks near 0.95 MB
    PEAK_BOUND = 512 * 1024

    def _traced_peaks(self, capsys, tmp_path, n=1000):
        peaks = []
        for steps in (n, 10 * n):
            tracemalloc.start()
            try:
                code = cli.run(_k1_argv(tmp_path / "run.csv", steps,
                                        step=1 / 4096))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == cli.EXIT_OK
            assert capsys.readouterr().out.endswith(f"({steps + 1} samples)\n")
            peaks.append(peak)
        return peaks

    def test_memory_is_flat_in_run_length(self, capsys, tmp_path):
        assert max(self._traced_peaks(capsys, tmp_path)) < self.PEAK_BOUND

    def test_memory_rule_can_fail(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(odesolve, "BATCH", 10 ** 5)
        assert max(self._traced_peaks(capsys, tmp_path)) >= self.PEAK_BOUND


class TestJsonWriter:
    """``cli._print_json`` prints a document one element at a time, as
    ``print(json.dumps(doc, default=leaf))`` would in one piece, with each
    polynomial spelled from its rows by ``render.poly_json``."""

    @staticmethod
    def documents():
        ratexpr = build_p3_system(1).equations[0]
        ell = u(2) + 3 * u() ** 2 + U_RING.const("-1/2") * u(1)
        return [
            {}, [], (), 7, "text", None, ell, ratexpr,
            {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}, ()]},
            {'say "hi"': 'a "quoted" value', "\\": None, "caf\u00e9 \u2713": "\u00f6\n",
             "t": True, "f": False, "x": 1.5, "n": -3, "l": [1, "two", None, -0.25]},
            {"k": 2, "u": ratexpr, "equations": [ratexpr, ratexpr]},
            {"seed": "standard", "ells": (U_RING.zero(), u(), ell)},
            {"k": 1, "a": {"-1": ell, "0": U_RING.zero()}, "b": {}},
            [{"nested": [ell, {"r": ratexpr, "empty": {}}]}, [[ell]], ("x", ratexpr)],
        ]

    def test_matches_json_dumps(self, capsys):
        for doc in self.documents():
            cli._print_json(doc)
            assert capsys.readouterr().out == json.dumps(doc, default=leaf) + "\n"

    def test_other_objects_are_refused_as_json_dumps_does(self):
        for doc in (object(), {"x": [object()]}):
            with pytest.raises(TypeError, match="not JSON serializable"):
                json.dumps(doc, default=leaf)
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._print_json(doc)

    @staticmethod
    def first_written_before_second_built(monkeypatch) -> bool:
        """Whether ``gen-lenard --count 2`` has written the whole JSON of
        l_0 when ``render.poly_json`` is called for l_1."""
        events = []
        spell = render.poly_json

        def recorded(poly, names):
            events.append(None)             # a build
            return spell(poly, names)

        class Sink:
            def write(self, text):
                events.append(text)
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(render, "poly_json", recorded)
        monkeypatch.setattr(sys, "stdout", Sink())
        assert cli.run(["gen-lenard", "--count", "2"]) == cli.EXIT_OK
        first = json.dumps(json.loads("".join(e for e in events if e))["ells"][0])
        second_build = [i for i, e in enumerate(events) if e is None][1]
        return first in "".join(e for e in events[:second_build] if e)

    def test_each_element_is_written_before_the_next_is_built(self, monkeypatch):
        assert self.first_written_before_second_built(monkeypatch)

    def test_order_rule_can_fail(self, monkeypatch):
        """A writer that encodes the whole document, each polynomial by the
        spelling writer, before it prints."""
        def whole(doc):
            print(json.dumps(doc, default=lambda poly: json.loads(
                render.poly_json(poly, (('"u"',), ())))))

        monkeypatch.setattr(cli, "_print_json", whole)
        assert not self.first_written_before_second_built(monkeypatch)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_runtime_error(self, unbuffered):
        """A reader that closes the pipe early (``| head -c 100``) ends the
        command with exit 3 and nothing on stderr.  The output, about
        170 KB, is more than a pipe holds, so the command is still writing."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from p3lenard.cli import main; main()",
             "gen-hierarchy", "--k", "32"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=120), len(head)) == (cli.EXIT_RUNTIME, 100)
        assert err == ""


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert run(capsys, "no-such-command")[0] == cli.EXIT_USAGE

    def test_help_is_success(self, capsys):
        assert run(capsys, "--help")[0] == cli.EXIT_OK


# -- the benchmark's traced pass ---------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


class TestTracedBenchmark:
    """perfbench/child.py runs one command with the package traced; a
    traced pass must keep running when the names it wraps change."""

    @pytest.mark.parametrize("suite, layer", [
        ("master", "lenard.master_residual"),
        ("shift", "lenard.shift_residual"),
        ("transport", "lenard.transport_residual"),
        ("conservation", "hierarchy.conservation_residual")])
    def test_child_writes_spans(self, tmp_path, suite, layer):
        spans = tmp_path / "spans.bin"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]))
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"),
             repr(time.perf_counter()), str(spans), "0", "--",
             "verify", "--suite", suite, "--max-index", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["rc"] == cli.EXIT_OK
        assert spans.stat().st_size > 0
        layers = {span[0] for span in marshal.loads(spans.read_bytes())["spans"]}
        assert {"cli.run", layer} <= layers

    def test_traced_integrate_counts_the_csv(self, tmp_path):
        spans, out_file = tmp_path / "spans.bin", tmp_path / "run.csv"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]))
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"),
             repr(time.perf_counter()), str(spans), "0", "--",
             *_k1_argv(out_file, 300, decimate=7)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["rc"] == cli.EXIT_OK
        traced = marshal.loads(spans.read_bytes())
        layers = Counter(span[0] for span in traced["spans"])
        assert layers["odesolve.write_csv"] == 1
        assert layers["odesolve.integrate"] == 1
        assert layers["odesolve.compile"] == 1
        assert (layers["odesolve.rhs"], layers["odesolve.monitor"]) == (4 * 300, 44)
        assert traced["counts"]["odesolve.write_csv.bytes"] == out_file.stat().st_size
