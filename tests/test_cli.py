"""CLI surface: subcommand behaviour, exit codes, schema-valid JSON output,
and the CSV integration path."""

import ast
import contextlib
import json
import marshal
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from p3lenard import cli, odesolve, render
from p3lenard.diffpoly import U_RING, u
from p3lenard.hierarchy import (build_p3_system, equation_equivalent,
                                hierarchy_ring)
from p3lenard.jetring import ExponentOverflow, RatExpr
from p3lenard.lenard import IndexOutOfRange

from test_odesolve import _flip_tau_sign


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("p3lenard") / "schemas"
            / "expression.schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert err == ("recursion left the differential-polynomial ring: "
                       "recursion step 0 -> 1 left the differential-"
                       "polynomial ring: no differential-polynomial "
                       "antiderivative (leftover 2*s*u)\n")

    def test_exponent_overflow_is_runtime_error(self, capsys):
        # an exponent beyond the packed slots stays exit 3, from either grammar
        for expr in ("u^16384*u^16384", "u^40000",
                     '{"terms":[{"coef":"1","s":0,"jets":{"0":40000}}]}'):
            code, out, err = run(capsys, "gen-lenard", "--seed", "custom",
                                 "--custom", expr, "--count", "1")
            assert (code, out) == (cli.EXIT_RUNTIME, "")
            assert err.startswith("runtime error: an exponent reached 2**15")

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
        (("--seed", "standard", "--custom", "u^2", "--count", "1"),
         "--custom needs --seed custom"),
    ], ids=["count-zero", "count-negative", "count-negative-with-constants",
            "constant-not-a-number", "constant-zero-denominator",
            "custom-without-custom-seed"])
    def test_bad_arguments_are_one_line_usage_errors(self, capsys, argv, message):
        """A bad count or constant list exits 2 with one stderr line, never
        a traceback or exit 1 (verification failed)."""
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

    def test_init_arity_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                           "--init", "1", "--s0", "1", "--s1", "2",
                           "--step", "1e-3", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE
        assert "l1" in err

    def test_bad_domain_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "integrate", "--k", "1", "--tau", "1,2",
                         "--init", "1,0", "--s0", "-1", "--s1", "2",
                         "--step", "1e-3", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE

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
        ("transport", "lenard.symbolic"),
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
