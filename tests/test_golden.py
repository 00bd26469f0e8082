"""Byte-identical CLI output: SHA-256 of stdout (or of the written CSV for
``integrate``) and the exit code of fixed commands, recorded from the
released behaviour.  A refactor that changes a single byte of any of these
outputs fails here."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from p3lenard import cli
from p3lenard.odesolve import _compile_system

CONSTANTS = "--constants=1,-3/4,2,0,5/7,-1"
CONSTANTS_12 = "--constants=1,-3/4,2,0,5/7,-1,3,-2/9,7/4,1/3,-5,8/3"

STDOUT_GOLDENS = {
    ("gen-lenard", "--count", "8"):
        "a34ba8cd91b9f88971b8a577d6a8a1a9765608ed258bd73163b1ed65a506ebf0",
    ("gen-lenard", "--count", "8", "--format", "latex"):
        "0b7452d95bab62baa81e7f3e325d9772bc935f49c6329f128439e17c8707afd3",
    ("gen-lenard", "--count", "6", CONSTANTS):
        "52959ff26425fae6bae5c68ec997d852cf04ffeda4564039e099fec438aa5e59",
    ("gen-lenard", "--count", "6", CONSTANTS, "--format", "latex"):
        "22a8190c08516eb75963f6efcb85bb51c054d9015cafbcc272e118ecb47315a2",
    ("gen-lenard", "--count", "12"):
        "23b2be76f758a9f6d1251c7b5929c8f8c064c2cdeb30214cee3de3eede84d39d",
    ("gen-lenard", "--count", "12", CONSTANTS_12):
        "95a599c66b63fcb4459e2cc6153a2be3e9f70c3060d0e4c2b395a8f04e3e5f3e",
    ("gen-hierarchy", "--k", "1"):
        "28f93ab0a12a64c500f6a8e910e3ca317b2c075d1a0abddb9fa5ec7c63db676d",
    ("gen-hierarchy", "--k", "1", "--format", "latex"):
        "12923cf2be2f89e37909aa241c0fed008397ebd81248c65101c81f0af5e48bda",
    ("gen-hierarchy", "--k", "2"):
        "ddb2cbc51d5c8563bc04f282b1af5be8406d72ebe838825fa53641f4bc01092b",
    ("gen-hierarchy", "--k", "2", "--format", "latex"):
        "8c940de022e2e1f92fac0caad4ccde2d4ac181158af83c0542248eff52ecae09",
    ("gen-hierarchy", "--k", "3"):
        "7bbe1f94bf6d7ffe44fc8447b2ec3eea96822364e8c39b703468bf8604754128",
    ("gen-hierarchy", "--k", "3", "--format", "latex"):
        "d05eff24cb89f49ee66f74659c5210ccd2957e8b4cb7c8195ac64fc790ba731b",
    ("gen-hierarchy", "--k", "4"):
        "8f92f6da4a97d1ab32cabaddd95d77d94a08582234ee89f2b3d3c5be7464b21f",
    ("gen-hierarchy", "--k", "4", "--format", "latex"):
        "915514bad328028ad4f0118e4f50e344295b841cd1f3cef62c963f956414afe5",
    ("gen-hierarchy", "--k", "6"):
        "632639eda68106033c419d49792b58b9a88f61f7b4720408e27ab2d478d17ce4",
    ("gen-hierarchy", "--k", "6", "--format", "latex"):
        "2c99ad4946ba1669a066da487d2f69893ce683368789d6805a1982cf7386d89f",
    ("gen-lax", "--k", "1"):
        "8b917488c952a4939b25f095e3faea0eafe6d9ab7bc7203a803935b905a8a985",
    ("gen-lax", "--k", "1", "--format", "latex"):
        "277aff5cce77586f6defc5b4bb906a2c2ff4e6dd8fcf749e6a99b7abef7dd7dc",
    ("gen-lax", "--k", "3"):
        "471645652fa25bd2b8f60897d7ecae36b40d71f2e52dab24cb0cd90922585e8e",
    ("gen-lax", "--k", "3", "--format", "latex"):
        "5110be711f882d54b002af14902c3bdefda231154ef4255882bbe175b0f9af7c",
    ("gen-lax", "--k", "5"):
        "77177d35b3cacc2ed1f5061f2dec2786c00afad44e5e972067d7ef907804689f",
    ("gen-lax", "--k", "5", "--format", "latex"):
        "f0d97f11881de5c3d085a632029919f85c98a09e0725b678c309554cd3033d83",
    ("gen-lax", "--k", "9"):
        "8a756111d9df914133ddcba6045d7c3b540699d3074fbe3632254a99baffae31",
    ("gen-lax", "--k", "9", "--format", "latex"):
        "17480702789d9d17f9415dc88efd48fe9ead7a62c9d7e5c8d1069affe05382ca",
    ("gen-hierarchy", "--k", "16"):
        "b6e54cad837282f27a20d5df7762efe6de59c4425f51985f31f97beafd2a7a99",
    ("gen-hierarchy", "--k", "16", "--format", "latex"):
        "2c2432b563815426a11e9bb5effa33c81f87a65ccc033f4a6b4a09a1b2f6b325",
    ("gen-hierarchy", "--k", "24"):
        "b9edc397dd8cf4f1754aabb534832db38368410d23e6079b873cac785e1a63b0",
    ("gen-hierarchy", "--k", "24", "--format", "latex"):
        "472f841d26c7aa26fd82236562dcfea62f6300992bc6d9d0228417c92b2bca48",
    ("gen-hierarchy", "--k", "32"):
        "ec52f0b4470cb53df8ba3828719e8dec015df1c7541e56214b6f5aaa73f1c7fe",
    ("gen-hierarchy", "--k", "32", "--format", "latex"):
        "6f887c1b636880252ef5c99e153f45d2bd7b88132699774e462da730854c8a2c",
    ("verify", "--suite", "all", "--max-index", "2"):
        "6d380eaa58c542dfbac43b178dd1afa40d98d3646d35708c93459b82cf3500c0",
    ("verify", "--suite", "all", "--max-index", "5"):
        "2d3042cb10631e62c0dce1732167eb218bfbc8db3e1bce222cc1b687be7777c9",
    ("verify", "--suite", "all", "--max-index", "8"):
        "f8a9f9473db6716b9b629bcd96622471993c2fe69ff5542d913f7c04ce39ae35",
    ("verify", "--suite", "all", "--max-index", "10"):
        "2eb82f69eeb6b210a73a8ebc023c992409ca64dffb67b0a9d900a9e3241e4c1b",
    ("verify", "--suite", "master", "--max-index", "6"):
        "b66f8ac46207db5703935c7cd5211f119e21c2faffe9717b361f4fe2725650f6",
    ("verify", "--suite", "shift", "--max-index", "6"):
        "f01752399afccc480e358e1ce38af875a166d753f4a903deb332df83ab1387f6",
    ("verify", "--suite", "transport", "--max-index", "6"):
        "1694f097f4bcd3ab8d53e6cab8d1c2d72b7a273f51e0f6bf7e289b65d4573b0d",
    ("verify", "--suite", "conservation", "--max-index", "6"):
        "a024b2bc28a3bd67286894da07c3467517c79be732aaa613174e0fbdddb99102",
    ("verify", "--suite", "closedform", "--max-index", "6"):
        "53e80e7e9942ee4bc5a7d54e287a719cbbc773419d7dba840f347d63ed1888f7",
    ("verify", "--suite", "lax", "--max-index", "6"):
        "42b43a923ad80952f7ffb2b9d1eeb91a69b98495b18366a9d73c74083d1e5647",
}

CSV_GOLDENS = {
    ("integrate", "--k", "1", "--tau", "1,2", "--init", "1,0",
     "--s0", "1", "--s1", "3.5", "--step", "1e-3"):
        "1f4b18e9600bcab06b5ada09f6f46bf11dae833169cd9ca10f08fceeae28d748",
    ("integrate", "--k", "2", "--tau", "1,2,3", "--init", "1,0,1,0",
     "--s0", "1", "--s1", "2", "--step", "1e-3"):
        "8685b462c86a19c9799aeefc29b7709dede199acbcad849e613dd3f31dd55925",
    ("integrate", "--k", "2", "--tau", "1,2,3", "--init", "1,0,1,0",
     "--s0", "1", "--s1", "2", "--step", "1e-4"):
        "f918409d29baef4a0e4908606bdd9c22d34c3c3addb66532166386f3c1b141cd",
}

# runs that stop early: (stderr, SHA-256 of the partial CSV), exit code 3
ABORT_GOLDENS = {
    ("integrate", "--k", "1", "--tau", "1,2", "--init", "1,0",
     "--s0", "1", "--s1", "5", "--step", "1e-3"):
        ("integration aborted near s = 4.317 (singular or non-finite); "
         "partial CSV written\n",
         "b927c40cfcc4a6a93b598f155a84332c85c348b481536d013e0b3fcc7a1725be"),
}


# SHA-256 of ``_compile_system(k, taus).source``, the generated evaluators:
# every float repr of a coefficient is in it.  ``int`` is tau_p = p + 1 and
# ``frac`` tau_p = (p + 3) / 7.
SOURCE_GOLDENS = {
    (1, "int"): "9fa64e822ad1f8afb266551c1db075910258b72bda2b0fda671bdeb12a858957",
    (1, "frac"): "4e818087eb9def51130b793d03c60c20ed26776eb0a82f4e36240fc262dfb9f1",
    (2, "int"): "2b9cb002462bee0f84854a8ff7fb1e73e1852e08d380ea8872e8ce18cd676b48",
    (2, "frac"): "60ecf96ce03c20b784a5fd6802de6fc5f25ec45772feaceb4422a9e24c98d067",
    (3, "int"): "60550008989812e80064a93b77dc312e5c938d06e79f829c9cbaa7a7fb651b64",
    (3, "frac"): "959b17b13d744f5649ea1c7646204462e43ef6077952585e7105429d0cb8581e",
    (4, "int"): "ae7344ab7ff1a128792651763badb286bfd3e06db95376eaf59be6f49b0d6f5d",
    (4, "frac"): "f65b2a1c60cfaa40417667c9b2d6d8cb0ac1874c3c92ca2e5f94d8a387f2d555",
    (5, "int"): "289aceb53467e3d58fce166917229859514df18b0162d8fe9623cb9ba17d3c98",
    (5, "frac"): "810f5a0397f1cca99a3de7bd7ee92151c513a73c7b149bd5a0fabdd83c30c75c",
}
SOURCE_TAUS = {"int": lambda p: p + 1, "frac": lambda p: Fraction(p + 3, 7)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(STDOUT_GOLDENS), ids=" ".join)
def test_stdout_bytes(capsys, argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    assert (code, _sha256(out.encode())) == (cli.EXIT_OK, STDOUT_GOLDENS[argv])


@pytest.mark.parametrize("k, taus", list(SOURCE_GOLDENS), ids=lambda v: str(v))
def test_generated_source_bytes(k, taus):
    source = _compile_system(k, tuple(map(SOURCE_TAUS[taus], range(k + 1)))).source
    assert _sha256(source.encode()) == SOURCE_GOLDENS[k, taus]


# the goldens above that the benchmark's emit workload gates on, by its names:
# all of its fixed commands
BENCHMARK_GOLDENS = {
    "gen-lenard-12": ("gen-lenard", "--count", "12"),
    "gen-lax-9-json": ("gen-lax", "--k", "9"),
    "gen-lax-9-latex": ("gen-lax", "--k", "9", "--format", "latex"),
    **{f"gen-hierarchy-{k}-json": ("gen-hierarchy", "--k", str(k)) for k in (16, 24, 32)},
    **{f"gen-hierarchy-{k}-latex": ("gen-hierarchy", "--k", str(k), "--format", "latex")
       for k in (16, 24, 32)},
}


def test_benchmark_size_goldens_match_the_benchmark():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden_sha256.json"
    bench = json.loads(path.read_text())
    assert {name: STDOUT_GOLDENS[argv] for name, argv in BENCHMARK_GOLDENS.items()} \
        == bench
    assert len(bench) == 9


def _ells(out: str) -> list:
    """gen-lenard JSON as {(s power, jets): Fraction} per entry."""
    return [{(t["s"], tuple(sorted(t["jets"].items()))): Fraction(t["coef"])
             for t in ell["terms"]} for ell in json.loads(out)["ells"]]


def test_seeded_lenard_is_the_superposition_of_the_unseeded(capsys):
    """The recursion is linear and each constant c_j, added at step j + 1,
    restarts it from c_j = 2 c_j l0_0: entry m of the seeded run is
    l0_m + sum_{j<m} 2 c_j l0_{m-1-j}, in Fraction arithmetic on the JSON."""
    assert cli.run(["gen-lenard", "--count", "12"]) == cli.EXIT_OK
    zero = _ells(capsys.readouterr().out)
    assert cli.run(["gen-lenard", "--count", "12", CONSTANTS_12]) == cli.EXIT_OK
    seeded = _ells(capsys.readouterr().out)
    consts = [Fraction(c) for c in CONSTANTS_12.split("=")[1].split(",")]
    assert len(seeded) == len(zero) == len(consts) + 1
    for m, entry in enumerate(seeded):
        want = dict(zero[m])
        for j in range(m):
            for mono, c in zero[m - 1 - j].items():
                want[mono] = want.get(mono, 0) + 2 * consts[j] * c
        assert entry == {mono: c for mono, c in want.items() if c}


@pytest.mark.parametrize("argv", list(CSV_GOLDENS), ids=" ".join)
def test_csv_bytes(capsys, tmp_path, argv):
    path = tmp_path / "run.csv"
    code = cli.run(list(argv) + ["--out", str(path)])
    capsys.readouterr()
    assert (code, _sha256(path.read_bytes())) == (cli.EXIT_OK, CSV_GOLDENS[argv])


@pytest.mark.parametrize("argv", list(ABORT_GOLDENS), ids=" ".join)
def test_aborted_csv_bytes(capsys, tmp_path, argv):
    path = tmp_path / "run.csv"
    code = cli.run(list(argv) + ["--out", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err, _sha256(path.read_bytes())) \
        == (cli.EXIT_RUNTIME, "", *ABORT_GOLDENS[argv])
