"""Show that every correctness gate of the benchmark can fail.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For each gate, one real command of its workload runs once; the gate must
accept the real output and count a deliberately corrupted copy as failed:

* verify: one PASS line flipped to FAIL;
* emit, fixed input: one byte of a gen-hierarchy output changed;
* emit, seeded gen-lenard: one coefficient of one entry changed;
* rk4: the end state in the CSV shifted by 1e-6.

Prints one line per case and exits 1 if any gate misses its corruption.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import sys
import tempfile
import time
from fractions import Fraction

import run


def _by_name(commands, name):
    return next(c for c in commands if c.name == name)


def _flip_pass(stdout):
    return stdout.replace("PASS ", "FAIL ", 1)


def _change_byte(stdout):
    i = stdout.index('"coef": "') + len('"coef": "')
    digit = "2" if stdout[i] == "1" else "1"
    return stdout[:i] + digit + stdout[i + 1:]


def _change_coefficient(stdout):
    doc = json.loads(stdout)
    term = doc["ells"][7]["terms"][0]
    term["coef"] = str(Fraction(term["coef"]) + 1)
    return json.dumps(doc)


def _shift_end_state(path):
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    table[-1][1] = f"{float(table[-1][1]) + 1e-6:.17g}"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)


def main():
    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        rng = random.Random(0)
        verify = run.verify_commands(rng, outdir)
        emit = run.emit_commands(rng, outdir)
        rk4 = run.rk4_commands(rng, outdir)
        runner = run.Runner([], outdir, time.perf_counter())

        def execute(cmd):
            result = runner.launch(cmd.argv)
            if result is None:
                raise SystemExit(f"{cmd.name} did not complete")
            return result

        cases = []   # (label, gate on clean output, gate on corrupted output)
        cmd = _by_name(verify, "verify-lax")
        real = execute(cmd)
        cases.append(("verify: one PASS line flipped to FAIL", cmd.gate(real, {}),
                      cmd.gate(dict(real, stdout=_flip_pass(real["stdout"])), {})))

        cmd = _by_name(emit, "gen-hierarchy-16-json")
        real = execute(cmd)
        cases.append(("emit fixed input: one byte of stdout changed",
                      cmd.gate(real, {}),
                      cmd.gate(dict(real, stdout=_change_byte(real["stdout"])), {})))

        zero = _by_name(emit, "gen-lenard-12")
        outputs = {zero.name: execute(zero)["stdout"]}
        cmd = _by_name(emit, "gen-lenard-12-seeded")
        real = execute(cmd)
        broken = dict(real, stdout=_change_coefficient(real["stdout"]))
        cases.append(("emit seeded gen-lenard: one coefficient changed",
                      cmd.gate(real, outputs), cmd.gate(broken, outputs)))

        cmd = _by_name(rk4, "integrate-k1-sparse")
        real = execute(cmd)
        clean = cmd.gate(real, {})
        _shift_end_state(cmd.argv[-1])
        cases.append(("rk4: end state shifted by 1e-6", clean, cmd.gate(real, {})))

        misses = 0
        for label, clean, broken in cases:
            ok = clean[1] == 0 and broken[1] > 0
            misses += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label}: clean output "
                  f"{clean[1]}/{clean[0]} failed, corrupted {broken[1]}/{broken[0]} failed")
        return 1 if misses else 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
