"""End-to-end benchmark of the p3lenard CLI, with an optional traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify,emit,rk4} --seed N \
        --seconds S --trace {0,1}

Load shape: a closed loop with one client.  Commands run one at a time,
each in a fresh interpreter (perfbench/child.py) that calls
``p3lenard.cli.run(argv)`` with stdout captured; the next command starts
only after the previous one has exited.  A pass runs the workload's
commands once, in a fixed order; passes repeat until ``--seconds`` is used
up.  Command time is measured inside the child around ``cli.run``, so
interpreter start counts only toward ``setup_s``.  In an untraced run each
command runs twice per pass, back to back: from the checkout's ``src/`` and
from ``perfbench/baseline/``, a frozen copy of the package; ``wall_rel`` is
the ratio of the two.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones: it alternates untraced and traced passes and reports
per-layer counts and self times from the traced passes, plus the tracing
overhead.  Every command's output is checked (perfbench/gates.py); the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import gates
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
# p3lenard as it was when the benchmark was defined, timed next to the
# checkout's own so that wall_rel cancels the machine's drifting speed
BASELINE = os.path.join(HERE, "baseline")
RUN_BUDGET_S = 170        # the whole run must end within 180 s
COMMAND_TIMEOUT_S = 120


@dataclass
class Command:
    name: str
    argv: list
    gate: object            # gates.*_gate(...) closure
    steps: int = 0          # RK4 steps (integrate only)
    rows: int = 0           # CSV samples written (integrate only)
    dense: bool = False     # integrate with --decimate 1


# -- workloads -----------------------------------------------------------------

# Suites inside their silent clamps (lax and conservation stop at k <= 3,
# closedform at p <= 6), with the check counts each must print.  Index 4,
# not 5, for the lattice identities keeps a pass short enough for about ten
# passes per 40 s run; wall_rel needs that many to be steady.
VERIFY_SUITES = [("master", 4, 48), ("shift", 4, 48), ("transport", 4, 168),
                 ("closedform", 5, 6), ("conservation", 2, 27), ("lax", 2, 6)]


def verify_commands(rng, outdir):
    """Mid-size exact residuals that cancel to zero; takes no free input."""
    return [Command(f"verify-{suite}",
                    ["verify", "--suite", suite, "--max-index", str(index)],
                    gates.verify_gate(suite, checks))
            for suite, index, checks in VERIFY_SUITES]


EMIT_FIXED = [("gen-lenard-12", ["gen-lenard", "--count", "12"])] + [
    (f"gen-lax-9-{fmt}", ["gen-lax", "--k", "9", "--format", fmt])
    for fmt in ("json", "latex")] + [
    (f"gen-hierarchy-{k}-{fmt}", ["gen-hierarchy", "--k", str(k), "--format", fmt])
    for k in (16, 24, 32) for fmt in ("json", "latex")]


def emit_commands(rng, outdir):
    """Large results that survive: explicit integration, content reduction,
    u-substitution and rendering.  The seed draws the 12 constants."""
    with open(os.path.join(HERE, "golden_sha256.json")) as fh:
        golden = json.load(fh)
    constants = [str(Fraction(rng.choice([n for n in range(-9, 10) if n]),
                              rng.randint(1, 9))) for _ in range(12)]
    cmds = [Command(name, argv, gates.sha256_gate(golden[name]))
            for name, argv in EMIT_FIXED]
    # argparse reads "--constants -3/4,..." as an option, hence the "=" form
    cmds.insert(1, Command("gen-lenard-12-seeded",
                           ["gen-lenard", "--count", "12",
                            "--constants=" + ",".join(constants)],
                           gates.superposition_gate(constants, "gen-lenard-12")))
    return cmds


# (k, demo tau, demo initial data, s0, s1); k = 1 stops at s = 3, short of the
# zero of l1 (near 3.6 at the demo values, as early as 3.44 at +-5 %).
RK4_CASES = [(1, [1, 2], [1, 0], 1.0, 3.0), (2, [1, 2, 3], [1, 0, 1, 0], 1.0, 2.0)]
RK4_STEP = 1e-4
RK4_SPARSE = 1000


def _perturb(rng, values):
    """Demo values moved by up to 5 % of max(|v|, 1), as exact decimals."""
    return [f"{v + rng.uniform(-0.05, 0.05) * max(abs(v), 1):.6f}" for v in values]


def rk4_commands(rng, outdir):
    """The floating-point path; each case dense (every step a CSV row) and
    sparse (every 1000th), to separate stepping from monitors and CSV."""
    import reference
    cmds = []
    for k, tau, init, s0, s1 in RK4_CASES:
        tau, init = _perturb(rng, tau), _perturb(rng, init)
        end = reference.end_state(k, tau, init, s0, s1)
        steps = round((s1 - s0) / RK4_STEP)
        for decimate in (1, RK4_SPARSE):
            name = f"integrate-k{k}-{'dense' if decimate == 1 else 'sparse'}"
            path = os.path.join(outdir, name + ".csv")
            rows = 1 + steps // decimate + (1 if steps % decimate else 0)
            argv = ["integrate", "--k", str(k), "--tau=" + ",".join(tau),
                    "--init=" + ",".join(init), "--s0", str(s0), "--s1", str(s1),
                    "--step", str(RK4_STEP), "--decimate", str(decimate),
                    "--out", path]
            cmds.append(Command(name, argv, gates.rk4_gate(path, rows, end, s1),
                                steps=steps, rows=rows, dense=decimate == 1))
    return cmds


WORKLOADS = {"verify": verify_commands, "emit": emit_commands, "rk4": rk4_commands}


# -- running -------------------------------------------------------------------

class OutOfTime(Exception):
    pass


class Runner:
    def __init__(self, commands, outdir, started):
        self.commands = commands
        self.outdir = outdir
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def launch(self, argv, spans="", command_id=0, src=SRC):
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if remaining <= 1:
            raise OutOfTime()
        launched = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, repr(launched), spans, str(command_id),
                 "--", *argv],
                env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src,
                     "PYTHONHASHSEED": "0"},
                cwd=ROOT, capture_output=True, text=True,
                timeout=min(COMMAND_TIMEOUT_S, remaining))
        except subprocess.TimeoutExpired:
            raise OutOfTime()
        try:
            if proc.returncode == 0:
                return json.loads(proc.stdout)
        except ValueError:
            pass
        print(f"command {argv} did not report:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None

    def run_pass(self, traced=False, sources=(SRC,)):
        """Run every command once from each source tree, the trees taking
        turns to go first; return ({tree: {name: result}}, span files)."""
        self.passes += 1
        results = {src: {} for src in sources}
        outputs = {src: {} for src in sources}
        span_files = []
        order = sources if self.passes % 2 else sources[::-1]
        for i, cmd in enumerate(self.commands):
            for src in order:
                spans = ""
                if traced:
                    spans = os.path.join(self.outdir,
                                         f"spans-{self.passes}-{i}.marshal")
                result = self.launch(cmd.argv, spans, i, src)
                if result is None:
                    attempted, failed = cmd.gate({"rc": -1, "stdout": ""},
                                                 outputs[src])
                    failed = attempted
                else:
                    attempted, failed = cmd.gate(result, outputs[src])
                    outputs[src][cmd.name] = result["stdout"]
                    results[src][cmd.name] = result
                    if spans:
                        span_files.append(spans)
                self.attempted += attempted
                self.failed += failed
        return results, span_files


def wall_s(commands, passes, pick=min):
    """Time of one pass: each command's fastest time over the passes, summed."""
    return sum(pick([p[c.name]["seconds"] for p in passes if c.name in p])
               for c in commands if any(c.name in p for p in passes))


def wall_rel(passes, baseline):
    """Median over passes of the pass time relative to the baseline's.

    Each command runs from both trees back to back, so the machine's speed,
    which other tenants move by up to 2x for minutes at a time, cancels in
    the ratio (see NOTES.md, Noise)."""
    return statistics.median(
        sum(r["seconds"] for r in p.values())
        / sum(b[name]["seconds"] for name in p)
        for p, b in zip(passes, baseline) if p.keys() <= b.keys())


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(commands, passes, baseline):
    """End-to-end metrics (without wall_rel when there is no baseline) and
    the workload-specific figures printed next to them."""
    results = [r for p in passes for r in p.values()]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024,
    }
    extra = {"wall_s": (wall_s(commands, passes), "s"),
             "wall_median_s": (wall_s(commands, passes, statistics.median), "s")}
    if baseline:
        metrics["wall_rel"] = wall_rel(passes, baseline)
        extra["baseline_wall_s"] = (wall_s(commands, baseline), "s")
    gaps = []
    for p in passes:
        for c in commands:
            if c.name.startswith("verify-") and c.name in p:
                times = [0.0] + p[c.name]["line_times"][:-1]
                gaps.extend(b - a for a, b in zip(times, times[1:]))
    if gaps:
        # 303 checks per pass: from two passes on, at least 10 lie beyond p97.5
        extra["check_p50_ms"] = (1e3 * statistics.median(gaps), "ms")
        extra["check_p97.5_ms"] = (1e3 * percentile(gaps, 0.975), "ms")
        extra["check_samples"] = (len(gaps), "count")
    for dense, label, field in ((False, "rk4_steps_per_s", "steps"),
                                (True, "sample_rows_per_s", "rows")):
        group = [c for c in commands if c.steps and c.dense == dense]
        if group:
            extra[label] = (sum(getattr(c, field) for c in group)
                            / wall_s(group, passes), "1/s")
    return metrics, extra


def provenance(seed):
    digest = hashlib.sha256()
    for base, _dirs, files in sorted(os.walk(os.path.join(SRC, "p3lenard"))):
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_sha": _git_sha(),
            "src_sha256": digest.hexdigest()}


def _git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "p3lenard", "cli.py")):
        print(f"no p3lenard sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        commands = WORKLOADS[args.workload](random.Random(args.seed), outdir)
        runner = Runner(commands, outdir, started)
        # one untimed launch so bytecode caches exist before timing
        runner.launch(["verify", "--suite", "lax", "--max-index", "1"])
        plain, baseline, traced, layers = [], [], [], []
        sources = (SRC,) if args.trace else (SRC, BASELINE)
        deadline = time.perf_counter() + args.seconds
        try:
            while True:
                t0 = time.perf_counter()
                results = runner.run_pass(sources=sources)[0]
                plain.append(results[SRC])
                if BASELINE in results:
                    baseline.append(results[BASELINE])
                if args.trace:
                    results, span_files = runner.run_pass(True)
                    traced.append(results[SRC])
                    layers.append(tracer.aggregate(span_files))
                now = time.perf_counter()
                if now + (now - t0) > deadline:
                    break
        except OutOfTime:
            runner.failed += 1
            runner.attempted += 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print("no complete pass", file=sys.stderr)
        return 3
    metrics, extra = end_to_end(commands, plain, baseline)
    extra["failed_ratio"] = (runner.failed / runner.attempted, "1")
    info = provenance(args.seed)
    info.update(workload=args.workload, passes=len(plain),
                traced_passes=len(traced), commands=len(commands))
    print("# " + json.dumps(info))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")

    if args.trace:
        metrics = {}
        for name, unit in tracer.PER_LAYER:
            if name in layers[0]:
                values = [layer[name] for layer in layers]
                metrics[name] = (values[0] if isinstance(values[0], int)
                                 else statistics.median(values))
        metrics["trace_overhead_s"] = (wall_s(commands, traced)
                                       - wall_s(commands, plain))
        repeat = all(layer[n] == layers[0][n] for layer in layers
                     for n in layers[0] if isinstance(layers[0][n], int))
        print(f"counts repeat across {len(layers)} traced passes: {repeat}")
        for name, unit in tracer.PER_LAYER:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
