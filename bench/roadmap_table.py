"""Re-run the ROADMAP baseline rows.  A report, never a gate.

    python3 bench/roadmap_table.py

Each row is one `rasm run` child, timed like the benchmark's untraced
runs.  The table gives the median step time, how many steps were
consistent, and the figure ROADMAP.md recorded at the seed commit.  The
7-way `subst_at` row stutters today: its steps are reported inconsistent
because collapse gives up on CHECKED operators beyond 6 permutations.

ROADMAP's figures came from documents that were not kept.  Where a row's
cost depends on sizes they did not record (the multiset that `munion`
grows, the program tree that `subst_at` rewrites), this table's figure
differs from ROADMAP's; it is reproducible from here on.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK, call_child


def increment() -> str:
    return "function f/0\ninit f = 0\nprogram\nf := f + 1\n"


def forall(entries: int) -> str:
    lines = ["function g/1", "function c/0", "init c = 0"]
    lines += [f"init g({i}) = {i}" for i in range(entries)]
    lines += ["program", "FORALL x WITH lt(x, 1000000) DO g(x) := x + c ENDDO"]
    return "\n".join(lines) + "\n"


def munion(k: int) -> str:
    lines = ["function m/0", "init m = {||}", "program", "PAR"]
    lines += [f"m <<= munion({{| {i} |}})" for i in range(1, k + 1)]
    return "\n".join(lines + ["ENDPAR"]) + "\n"


def subst_at(k: int) -> str:
    # Each PAR child replaces its own rule wrapper at (1, 0, i) with itself:
    # k updates at disjoint paths that commute, and pgm stays put.
    lines = ["program", "PAR"]
    lines += [f"pgm <<= subst_at((1, 0, {i}), subtree_at(pgm, (1, 0, {i})))" for i in range(k)]
    return "\n".join(lines + ["ENDPAR"]) + "\n"


ROWS = [
    ("increment demo (f := f + 1)", increment(), 2000, "210-245 us"),
    ("FORALL, 50 g entries", forall(50), 50, "2.3-2.7 ms"),
    ("FORALL, 200 g entries", forall(200), 20, "8.2-9.3 ms"),
    ("6 munion on one location", munion(6), 3, "43.5 ms"),
    ("7 munion on one location", munion(7), 3, "0.77 ms"),
    ("6 subst_at at disjoint paths", subst_at(6), 10, "82.6 ms"),
    ("7 subst_at at disjoint paths", subst_at(7), 10, "0.9 ms, inconsistent"),
]


def main() -> int:
    if not (ROOT / "src" / "rasm" / "cli.py").is_file():
        print(f"roadmap_table: no rasm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("| row | steps | step p50 | consistent steps | ROADMAP baseline |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for i, (label, doc, steps, baseline) in enumerate(ROWS):
            path, trace = Path(tmp) / f"row{i}.rst", Path(tmp) / f"row{i}.trace"
            path.write_text(doc, encoding="utf-8")
            data, error = call_child(Path(tmp), i, ["run", str(path), "--steps", str(steps), "--trace", str(trace)],
                                     False, i)
            if data is None or data["exit"] != 0:
                print(f"| {label} | failed: {error or data['exit']} | | | {baseline} |")
                continue
            p50 = statistics.median(b - a for a, b in data["steps"]) / 1e6
            consistent = trace.read_text(encoding="utf-8").count("\nconsistent true")
            print(f"| {label} | {steps} | {p50:.3f} ms | {consistent}/{steps} | {baseline} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
