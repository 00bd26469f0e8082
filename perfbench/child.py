"""Run one p3lenard CLI command in this fresh interpreter and report on it.

Usage: child.py LAUNCH_TIME SPANS_PATH COMMAND_ID -- CLI_ARG...

LAUNCH_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux, so the two processes share
it).  An empty SPANS_PATH runs the command untraced; otherwise the package
is traced and the spans are written there after the command returns.

The command runs through ``p3lenard.cli.run`` with stdout captured; the
time of every completed output line is recorded.  One JSON object goes to
the real stdout: exit code, command seconds, set-up seconds (launch until
``p3lenard.cli`` is imported), captured stdout, line times relative to the
command start, and peak RSS (VmHWM).
"""

import sys
import time


class _Capture:
    """Text sink recording when each output line is completed."""

    def __init__(self):
        self.parts = []
        self.line_times = []

    def write(self, text):
        self.parts.append(text)
        newlines = text.count("\n")
        if newlines:
            now = time.perf_counter()
            self.line_times.extend([now] * newlines)
        return len(text)

    def flush(self):
        pass


def _peak_rss_kb():
    """Peak resident set of this process image.  ``ru_maxrss`` is kept
    across exec, so it would report the parent's size when that is larger;
    VmHWM belongs to the address space exec created."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    launched = float(argv[1])
    spans_path, command_id = argv[2], int(argv[3])
    if argv[4] != "--":
        raise SystemExit("usage: child.py LAUNCH_TIME SPANS_PATH COMMAND_ID -- CLI_ARG...")
    cli_argv = argv[5:]

    from p3lenard import cli
    ready = time.perf_counter()

    import json

    run = cli.run
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer(command_id)
        run = tracer.install()

    capture = _Capture()
    sys.stdout = capture
    start = time.perf_counter()
    try:
        rc = run(cli_argv)
    finally:
        end = time.perf_counter()
        sys.stdout = sys.__stdout__
    stdout = "".join(capture.parts)
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
        tracer.dump(spans_path)
    json.dump({
        "rc": rc,
        "seconds": end - start,
        "setup_s": ready - launched,
        "stdout": stdout,
        "line_times": [t - start for t in capture.line_times],
        "peak_rss_kb": _peak_rss_kb(),
    }, sys.stdout)


if __name__ == "__main__":
    main(sys.argv)
