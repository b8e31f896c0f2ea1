"""One rasm CLI call in a fresh process, timed from outside the package.

    python3 bench/child.py ROOT RESULT.json STDOUT.txt TRACED -- rasm-args...

Imports rasm from ROOT/src, calls `rasm.cli.main(rasm-args)` with stdout
sent to STDOUT.txt, and writes RESULT.json: the exit code, wall time of
the call, the start and end of every `machine.step`, the process's own
peak RSS, and, when TRACED is 1, the spans and counters of every layer.
An untraced run wraps nothing but `machine.step`, with one
perf_counter_ns pair.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own peak RSS.  ru_maxrss would not do: Linux carries it
    across exec, so it would report the parent's RSS at fork time whenever
    that is the larger."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    root, result_path, stdout_path, traced = argv[:4]
    cli_args = argv[5:]
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import rasm

    if src not in Path(rasm.__file__).resolve().parents:
        print(f"bench: rasm imported from {rasm.__file__}, not {src}", file=sys.stderr)
        return 3
    from rasm import cli, machine

    tracer = missing = None
    steps: list[tuple[int, int]] = []
    if traced == "1":
        from tracing import ROOT, Tracer

        tracer = Tracer()
        missing = tracer.install()
        entry = tracer.wrap(ROOT, cli.main)
    else:
        entry = cli.main
        step = machine.step

        def timed_step(s):
            t = time.perf_counter_ns()
            rep = step(s)
            steps.append((t, time.perf_counter_ns()))
            return rep

        machine.step = timed_step

    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        t0 = time.perf_counter_ns()
        code = entry(cli_args)
        t1 = time.perf_counter_ns()
    result = {
        "exit": code,
        "start_ns": t0,
        "end_ns": t1,
        "steps": steps,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counters=tracer.counters(), missing=missing)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
