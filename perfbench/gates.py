"""Correctness gates: each turns one command's result into (attempted, failed).

A gate is called as ``gate(result, outputs)``: ``result`` is the child's
report (``rc``, ``stdout``, ...) and ``outputs`` maps the names of the
commands already run in the same pass to their stdout.  A gate never
raises on bad output; it counts it as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction


def verify_gate(suite: str, expected: int):
    """``verify --suite SUITE``: exit code 0, exactly ``expected`` check lines
    all reading PASS, and the ``expected passed, 0 failed`` summary.
    Attempted counts checks; a command-level fault fails all of them."""

    def gate(result, outputs):
        lines = result["stdout"].splitlines()
        checks, summary = lines[:-1], lines[-1:] or [""]
        failed = sum(not line.startswith(f"PASS {suite} ") for line in checks)
        failed += abs(expected - len(checks))
        if failed == 0 and (result["rc"] != 0
                            or summary[0] != f"{expected} passed, 0 failed"):
            failed = expected
        return expected, min(failed, expected)

    return gate


def sha256_gate(digest: str):
    """Fixed-input command: exit code 0 and stdout byte-identical to the
    output recorded when the benchmark was defined."""

    def gate(result, outputs):
        ok = (result["rc"] == 0
              and hashlib.sha256(result["stdout"].encode()).hexdigest() == digest)
        return 1, 0 if ok else 1

    return gate


def _poly(obj) -> dict:
    """gen-lenard JSON polynomial as {(s power, jets): Fraction}."""
    return {(t["s"], tuple(sorted(t["jets"].items()))): Fraction(t["coef"])
            for t in obj["terms"]}


def _axpy(acc: dict, scale: Fraction, poly: dict):
    for mono, c in poly.items():
        value = acc.get(mono, 0) + scale * c
        if value:
            acc[mono] = value
        else:
            acc.pop(mono, None)


def superposition_gate(constants: list, base: str):
    """Seeded ``gen-lenard``: entry m must equal
    l0_m + sum_{j<m} 2 c_j l0_{m-1-j}, where l0 is the stdout of the
    zero-constant command named ``base`` (itself gated by its SHA-256).
    The recursion is linear and each constant c_j, added at step j + 1,
    restarts it from 2 c_j l0_0 = c_j."""
    consts = [Fraction(c) for c in constants]

    def gate(result, outputs):
        try:
            zero = [_poly(e) for e in json.loads(outputs[base])["ells"]]
            seeded = [_poly(e) for e in json.loads(result["stdout"])["ells"]]
        except (KeyError, ValueError, TypeError):
            return 1, 1
        if result["rc"] != 0 or not len(seeded) == len(zero) == len(consts) + 1:
            return 1, 1
        for m, entry in enumerate(seeded):
            want = dict(zero[m])
            for j in range(m):
                _axpy(want, 2 * consts[j], zero[m - 1 - j])
            if entry != want:
                return 1, 1
        return 1, 0

    return gate


def rk4_gate(path: str, rows: int, reference: list, s_end: float,
             tol: float = 1e-9):
    """``integrate``: exit code 0, ``rows`` samples in the CSV at ``path``, and
    a last sample at ``s_end`` whose state lies within ``tol`` (relative to
    max(1, |value|)) of the independent ``reference`` end state.

    The monitor columns are not gated: in the k = 1 and k = 2 systems the
    compiled tau and ell_next monitors are constant at every state, so
    their drift is zero whatever the stepper does."""
    dim = len(reference)

    def gate(result, outputs):
        if result["rc"] != 0:
            return 1, 1
        try:
            with open(path, newline="") as fh:
                table = list(csv.reader(fh))
            last = [float(v) for v in table[-1][:1 + dim]]
        except (OSError, ValueError, IndexError):
            return 1, 1
        ok = (len(table) - 1 == rows
              and abs(last[0] - s_end) <= tol
              and all(abs(a - b) <= tol * max(1.0, abs(b))
                      for a, b in zip(last[1:], reference)))
        return 1, 0 if ok else 1

    return gate
