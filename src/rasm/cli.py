"""Batch driver.

Subcommands:
  run    load a state document, iterate the step function, emit a trace
  diff   reconciliation term between two program-tree files
  check  behavioural postulate checks over a run
  fmt    reprint a file in canonical form

Exit codes: 0 success, 1 runtime failure (or an inconsistent step under
--strict, or a diff whose reconciliation term fails verification), 2 syntax
error (non-UTF-8 input included), 3 malformed program tree, 4 postulate
violation, 5 attempted signature shrinkage.  `diff` reports unreadable input
as 3: its contract is "both files hold program trees" and it does not
distinguish why one does not.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import machine
from .conformance import (
    CheckReport,
    check_bounded_exploration,
    check_isomorphism_closure,
    check_naive_equivalence,
    check_signature_monotonicity,
    combine_reports,
    merge_reports,
    rule_has_partial_assign,
)
from .conformance import check_initial_agreement
from .errors import DiffError, EncodingError, MachineError, ParseError, RasmError
from .parser import parse_rule, parse_state, parse_tree
from .printer import format_trace, print_rule, print_state, print_tree
from .state import State
from .treediff import eval_algebra, serialize_algebra, tree_diff_theta
from .trees import trees_equal

ISO_TRIALS = 20  # bijections tried per `check` invocation; tests go higher


def _steps_arg(text: str) -> int | None:
    if text == "fixpoint":
        return None
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("step count must be >= 0")
    return n


def _read(path: str) -> str:
    """The file's text; a byte that is not UTF-8 is a syntax error at its position."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start].decode("utf-8").split("\n")
        raise ParseError("input is not UTF-8 text", len(head), len(head[-1]) + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines, as text mode reads


def _warn_if_guard_hit(args, reports) -> None:
    """A fixpoint run that stopped at --max-steps without converging says so."""
    if args.steps is None and (not reports or reports[-1].next != reports[-1].state):
        print(f"rasm: no fixpoint within {args.max_steps} steps (--max-steps guard)", file=sys.stderr)


def _postulate_reports(initial: State, reports, trials: int, seed: int) -> list[CheckReport]:
    states = [initial] + [r.next for r in reports]
    out = [
        check_isomorphism_closure(initial, trials, seed),
        check_signature_monotonicity(states),
    ]
    naive = []
    for rep in reports:
        if rule_has_partial_assign(rep.raised_rule):
            continue  # outside the naive oracle's contract
        naive.append(check_naive_equivalence(rep.state, rep.raised_rule))
    if naive:
        out.append(combine_reports(naive))
    bounded = [
        check_bounded_exploration(states[i], states[i + 1])
        for i in range(len(states) - 1)
        if states[i].signature == states[i + 1].signature
    ]
    if bounded:
        out.append(combine_reports(bounded))
    return out


def _cmd_run(args) -> int:
    s = parse_state(_read(args.state), seed=args.seed)
    reports = machine.run(s, args.steps, args.max_steps, args.strict)
    final = reports[-1].next if reports else s
    if args.trace:
        Path(args.trace).write_text(format_trace(reports), encoding="utf-8")
    sys.stdout.write(print_state(final))
    inconsistent = [i for i, rep in enumerate(reports, 1) if not rep.consistent]
    for i in inconsistent:
        print(f"step {i}: inconsistent update set, state unchanged", file=sys.stderr)
    _warn_if_guard_hit(args, reports)
    if args.check_postulates:
        checks = _postulate_reports(s, reports, ISO_TRIALS, args.seed)
        sys.stderr.write(merge_reports(checks))
        if any(not c.passed for c in checks):
            return 4
    if args.strict and inconsistent:
        return 1
    return 0


def _cmd_diff(args) -> int:
    try:
        a = parse_tree(_read(args.a))
        b = parse_tree(_read(args.b))
    except ParseError as e:
        print(f"diff: {e}", file=sys.stderr)
        return 3
    theta = tree_diff_theta(a, b)
    print("theta " + serialize_algebra(theta))
    verdict = trees_equal(eval_algebra(theta, a), b)
    print("verdict " + ("equal" if verdict else "different"))
    return 0 if verdict else 1


def _cmd_check(args) -> int:
    states = [parse_state(_read(p), seed=args.seed) for p in args.state]
    reports = machine.run(states[0], args.steps, args.max_steps)
    _warn_if_guard_hit(args, reports)
    checks = _postulate_reports(states[0], reports, args.trials, args.seed)
    if len(states) > 1:
        checks.append(check_initial_agreement(states))
    text = merge_reports(checks)
    sys.stdout.write(text)
    report_path = Path(args.report) if args.report else Path(args.state[0]).with_suffix(".report")
    report_path.write_text(text, encoding="utf-8")
    return 4 if any(not c.passed for c in checks) else 0


def _cmd_fmt(args) -> int:
    path = Path(args.file)
    text = _read(args.file)
    if path.suffix == ".rst":
        sys.stdout.write(print_state(parse_state(text, seed=args.seed)))
    elif path.suffix == ".rasm":
        print(print_rule(parse_rule(text)))
    else:
        print(print_tree(parse_tree(text)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rasm", description="reflective ASM runtime")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a state document")
    run.add_argument("state")
    run.add_argument("--steps", type=_steps_arg, default=None,
                     help="step count, or 'fixpoint' (default)")
    run.add_argument("--max-steps", type=int, default=machine.DEFAULT_MAX_STEPS,
                     help="fixpoint guard")
    run.add_argument("--seed", type=int, default=0, help="reserve namespace seed")
    run.add_argument("--trace", help="write the step trace to this path")
    run.add_argument("--check-postulates", action="store_true")
    run.add_argument("--strict", action="store_true",
                     help="an inconsistent update set stops the run with exit 1")
    run.set_defaults(fn=_cmd_run)

    diff = sub.add_parser("diff", help="reconciliation term between two program trees")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.set_defaults(fn=_cmd_diff)

    check = sub.add_parser("check", help="postulate checks over a run")
    check.add_argument("state", nargs="+",
                       help="state documents; extras join the initial-agreement check")
    check.add_argument("--steps", type=_steps_arg, default=None)
    check.add_argument("--max-steps", type=int, default=machine.DEFAULT_MAX_STEPS)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=ISO_TRIALS,
                       help="bijections per isomorphism-closure check")
    check.add_argument("--report", help="canonical report path (default: first input, .report)")
    check.set_defaults(fn=_cmd_check)

    fmt = sub.add_parser("fmt", help="reprint in canonical form")
    fmt.add_argument("file")
    fmt.add_argument("--seed", type=int, default=0)
    fmt.set_defaults(fn=_cmd_fmt)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"rasm: {e}", file=sys.stderr)
        return 2
    except EncodingError as e:
        print(f"rasm: {e}", file=sys.stderr)
        return 3
    except (MachineError, DiffError) as e:
        print(f"rasm: {e}", file=sys.stderr)
        return 5 if e.code == "signature-shrunk" else 1
    except RasmError as e:
        print(f"rasm: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"rasm: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
