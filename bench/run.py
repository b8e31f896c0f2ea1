"""The rasm benchmark: seeded machines driven through `rasm.cli.main`.

    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload domain_scan --seed 7 --seconds 20 --trace 1

Each workload is one generated state document.  One client runs one CLI
call at a time, each in a fresh child process, and starts the next only
when the previous one has ended (a closed loop).  A round is a `rasm run`
child and a `rasm check` child; rounds repeat until `--seconds` have
passed, with at least MIN_ROUNDS of them.  Every output is compared with
what `workloads.py` computes in plain Python; an attempted step or check
whose outcome differs, or that raised or exited non-zero, is a failed op.

With `--trace 0` the result holds the end-to-end metrics.  With
`--trace 1` each round also runs traced `run` and `check` children, whose
spans give the per-layer metrics, and an untraced `run` child beside them
for `trace.overhead_s`.  The last line of stdout is one JSON object; the
exit code is 1 when any op failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".rasm_bench"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from tracing import check_nesting, layer_times  # noqa: E402
from workloads import WORKLOADS, Workload, check_final, check_report, check_trace  # noqa: E402

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150

# Times of whole children are their 90th percentile (nearest rank) over the
# run's children, not their median.  The shared machine this was built on
# runs, in stretches of 5-30 s, at either full or half speed; the
# slow-speed figure shows up in every 20 s run and is steady from run to
# run, while the median jumps between the two speeds.
END_TO_END = {
    "step_ms_p90": "ms",
    "run_s": "s",
    "setup_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
}

# Self time per layer, except machine.step_s, which includes its children.
PER_LAYER = {
    "encoding.as_program_s": "s",
    "encoding.as_program_calls": "count",
    "encoding.pgm_nodes": "count",
    "evaluator.eval_rule_s": "s",
    "evaluator.eval_rule_calls": "count",
    "evaluator.eval_term_s": "s",
    "encoding.beta_rule_s": "s",
    "updates.collapse_s": "s",
    "updates.multiset_size": "count",
    "updates.shared_group_max": "count",
    "trees.subst_tt_s": "s",
    "trees.subst_tt_calls": "count",
    "updates.apply_s": "s",
    "state.init_s": "s",
    "state.init_calls": "count",
    "state.active_domain_s": "s",
    "state.active_domain_calls": "count",
    "state.domain_size": "count",
    "printer.format_trace_s": "s",
    "printer.rule_hash_s": "s",
    "printer.print_state_s": "s",
    "printer.trace_bytes": "bytes",
    "parser.parse_state_s": "s",
    "machine.validate_initial_s": "s",
    "machine.step_s": "s",
    "machine.step_self_s": "s",
    "conformance.iso_closure_s": "s",
    "conformance.bounded_exploration_s": "s",
    "conformance.naive_equivalence_s": "s",
    "naive.eval_rule_s": "s",
    "state.rename_s": "s",
    "trace.overhead_s": "s",
}


def call_child(tmp: Path, i: int, args: list[str], traced: bool, hash_seed: int) -> tuple[dict | None, str]:
    """Run `rasm.cli.main(args)` in child process number i; its result and
    stdout, or None and why it failed."""
    result, stdout = tmp / f"{i}.json", tmp / f"{i}.out"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 4294967296))
    cmd = [sys.executable, str(CHILD), str(ROOT), str(result), str(stdout), "1" if traced else "0", "--"]
    try:
        proc = subprocess.run(cmd + args, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"child {i} timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.exists():
        return None, f"child {i} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    data = json.loads(result.read_text(encoding="utf-8"))
    data["stdout"] = stdout.read_text(encoding="utf-8")
    return data, ""


class Session:
    """Children of one workload run, their outputs and the failed-op tally."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.machine = workload.build(seed, workload.run_steps)
        self.doc = tmp / f"{workload.name}.rst"
        self.doc.write_text(self.machine.document, encoding="utf-8")
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trace_digest: str | None = None

    def _child(self, args: list[str], traced: bool) -> dict | None:
        # A different hash seed per child: trace digests must still agree.
        data, error = call_child(self.tmp, self.calls, args, traced, self.seed * 7919 + self.calls)
        self.calls += 1
        if data is None:
            self.problems.append(error)
        elif traced:
            self.problems += check_nesting(data["spans"])
        return data

    def run(self, traced: bool = False) -> dict | None:
        trace = self.tmp / f"{self.calls}.trace"
        data = self._child(["run", str(self.doc), "--steps", str(self.w.run_steps), "--trace", str(trace)], traced)
        steps = self.w.run_steps
        self.attempted += steps
        if data is None or data["exit"] != 0 or not trace.exists():
            self.failed += steps
            if data is not None:
                self.problems.append(f"rasm run exited {data['exit']}")
            return None
        text = trace.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        bad: list[str] = []
        if digest != self.trace_digest:
            bad = check_trace(self.machine, text)
            if self.trace_digest is None:
                self.trace_digest = digest
            elif not bad:
                bad = ["trace differs from an earlier run of the same seed"]
        if not bad:
            bad = check_final(self.machine, data["stdout"])
        self.failed += min(len(bad), steps)
        self.problems += bad
        return data

    def check(self, traced: bool = False) -> dict | None:
        report = self.tmp / f"{self.calls}.report"
        data = self._child(["check", str(self.doc), *self.w.check_args, "--report", str(report)], traced)
        self.attempted += 1
        if data is None or data["exit"] != 0 or not report.exists():
            self.failed += 1
            if data is not None:
                self.problems.append(f"rasm check exited {data['exit']}")
            return None
        bad = check_report(self.w.expected_checks, report.read_text(encoding="utf-8"))
        self.failed += 1 if bad else 0
        self.problems += bad
        return data


def wall_s(data: dict) -> float:
    return (data["end_ns"] - data["start_ns"]) / 1e9


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(p / 100 * len(sorted_values)) - 1, 0)]


def p90(values) -> float:
    return percentile(sorted(values), 90)


def end_to_end(runs: list[dict], checks: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and figures that are printed but not gated."""
    steps = sorted((b - a) / 1e6 for r in runs for a, b in r["steps"])
    metrics = {
        "step_ms_p90": percentile(steps, 90),
        "run_s": p90(wall_s(r) for r in runs),
        "setup_s": p90((r["steps"][0][0] - r["start_ns"]) / 1e9 for r in runs),
        "check_s": p90(wall_s(c) for c in checks),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in runs),
    }
    info = {
        "step samples": len(steps),
        "step_ms_p50": percentile(steps, 50),
        "run_s median": statistics.median(wall_s(r) for r in runs),
        "check_s median": statistics.median(wall_s(c) for c in checks),
    }
    return metrics, info


def layer_metrics(traced_runs: list[dict], traced_checks: list[dict], plain_runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of each round (traced run + traced check), then the
    median over rounds.  The tracing overhead compares the median wall time
    of the traced and the untraced `rasm run` children."""
    rounds = []
    missing: set[str] = set()
    for run, check in zip(traced_runs, traced_checks):
        row = {name: 0.0 for name in PER_LAYER}
        for child in (run, check):
            missing.update(child["missing"])
            for layer, t in layer_times(child["spans"]).items():
                if layer == "machine.step":
                    row["machine.step_s"] += t["total_ns"] / 1e9
                    row["machine.step_self_s"] += t["self_ns"] / 1e9
                    continue
                if layer + "_s" in row:
                    row[layer + "_s"] += t["self_ns"] / 1e9
                if layer + "_calls" in row:
                    row[layer + "_calls"] += t["calls"]
            for name, value in child["counters"].items():
                row[name] = max(row[name], value)
        rounds.append(row)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}
    metrics["trace.overhead_s"] = (statistics.median(map(wall_s, traced_runs))
                                   - statistics.median(map(wall_s, plain_runs)))
    return metrics, sorted(missing)


def bench(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        s = Session(w, seed, Path(tmp))
        runs, checks, traced_runs, traced_checks = [], [], [], []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            runs.append(s.run())
            if traced:
                traced_runs.append(s.run(traced=True))
                traced_checks.append(s.check(traced=True))
            else:
                checks.append(s.check())
            rounds += 1
        result = {"workload": w.name, "attempted": s.attempted, "failed": s.failed,
                  "problems": s.problems, "rounds": rounds}
        if s.failed or s.problems:
            return result
        if traced:
            result["metrics"], result["missing"] = layer_metrics(traced_runs, traced_checks, runs)
            spans = [
                {"run": f"{w.name}-{seed}-{i}", "id": sid, "parent": parent, "name": name,
                 "start_ns": start, "end_ns": end}
                for i, child in enumerate(traced_runs + traced_checks)
                for sid, parent, name, start, end in child["spans"]
            ]
            out = WORK / f"spans-{w.name}-seed{seed}.jsonl"
            out.write_text("".join(json.dumps(x) + "\n" for x in spans), encoding="utf-8")
        else:
            result["metrics"], result["info"] = end_to_end(runs, checks)
        return result


def report(result: dict, units: dict[str, str]) -> None:
    print(f"== {result['workload']}: {result['rounds']} rounds, "
          f"failed_ops {result['failed']}/{result['attempted']}")
    for name in result.get("missing", []):
        print(f"   layer missing: {name}")
    if "missing" in result:
        own = {k: v for k, v in result["metrics"].items()
               if units[k] == "s" and k not in ("machine.step_s", "trace.overhead_s")}
        print(f"   largest self time: {max(own, key=own.get)}")
    for name, value in result.get("metrics", {}).items():
        print(f"   {name:36s} {value:14.6f} {units[name]}")
    for name, value in result.get("info", {}).items():
        print(f"   ({name} {value:.6g}, not gated)")
    for p in result["problems"][:20]:
        print(f"   problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rasm" / "cli.py").is_file():
        print(f"bench: no rasm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    results = []
    for name in names:
        results.append(bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
        report(results[-1], units)
    failed = sum(r["failed"] for r in results)
    ok = failed == 0 and not any(r["problems"] for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
        for r in results
        for name, value in r.get("metrics", {}).items()
    }
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
