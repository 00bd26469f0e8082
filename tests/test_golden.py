"""Byte-identical CLI output: SHA-256 of stdout (or of the written CSV for
``integrate``) and the exit code of fixed commands, recorded from the
released behaviour.  A refactor that changes a single byte of any of these
outputs fails here."""

import hashlib

import pytest

from p3lenard import cli

CONSTANTS = "--constants=1,-3/4,2,0,5/7,-1"

STDOUT_GOLDENS = {
    ("gen-lenard", "--count", "8"):
        "a34ba8cd91b9f88971b8a577d6a8a1a9765608ed258bd73163b1ed65a506ebf0",
    ("gen-lenard", "--count", "8", "--format", "latex"):
        "0b7452d95bab62baa81e7f3e325d9772bc935f49c6329f128439e17c8707afd3",
    ("gen-lenard", "--count", "6", CONSTANTS):
        "52959ff26425fae6bae5c68ec997d852cf04ffeda4564039e099fec438aa5e59",
    ("gen-lenard", "--count", "6", CONSTANTS, "--format", "latex"):
        "22a8190c08516eb75963f6efcb85bb51c054d9015cafbcc272e118ecb47315a2",
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
    ("verify", "--suite", "all", "--max-index", "2"):
        "6d380eaa58c542dfbac43b178dd1afa40d98d3646d35708c93459b82cf3500c0",
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(STDOUT_GOLDENS), ids=" ".join)
def test_stdout_bytes(capsys, argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    assert (code, _sha256(out.encode())) == (cli.EXIT_OK, STDOUT_GOLDENS[argv])


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
