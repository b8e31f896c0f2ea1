"""Spans around rasm's layers, installed from outside the package.

Each layer is a public function, wrapped where its caller looks it up
(`rasm.machine.collapse`, not `rasm.updates.collapse`, because the step
calls the name it imported).  Recursive internals such as `eval_term`
inside the evaluator are never wrapped, so one layer call is one span.

A span is `[id, parent, layer, start_ns, end_ns]`; all spans of one child
run share that run's id.  They stay in memory and are written out when the
run ends.  A layer's self time is its spans' durations minus the part
their child spans cover.  Counters are taken from the arguments and
results a wrapper saw, but only after the run, so that counting never
lands inside a timed span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# Wrapped call sites per layer: (module, attribute path).  A layer whose
# sites have all disappeared (a later refactor renamed them) is reported
# as missing rather than failing the run.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "parser.parse_state": (("rasm.cli", "parse_state"),),
    "machine.validate_initial": (("rasm.machine", "validate_initial"),),
    "machine.step": (("rasm.machine", "step"),),
    "encoding.as_program": (
        ("rasm.machine", "as_program"),
        ("rasm.cli", "as_program"),
        ("rasm.conformance", "as_program"),
        ("rasm.parser", "as_program"),
    ),
    "encoding.beta_rule": (("rasm.conformance", "beta_rule"),),
    "evaluator.eval_rule": (
        ("rasm.machine", "eval_rule_with_cursor"),
        ("rasm.conformance", "eval_rule"),
    ),
    "evaluator.eval_term": (("rasm.conformance", "eval_term"),),
    "updates.collapse": (("rasm.machine", "collapse"), ("rasm.conformance", "collapse")),
    "updates.apply": (("rasm.machine", "apply_update_set"),),
    "trees.subst_tt": (("rasm.updates", "subst_tt"),),
    "state.init": (("rasm.state", "State.__init__"),),
    "state.active_domain": (("rasm.state", "State.active_domain"),),
    "state.rename": (("rasm.conformance", "rename_state"),),
    "printer.format_trace": (("rasm.cli", "format_trace"),),
    "printer.rule_hash": (("rasm.printer", "rule_hash"),),
    "printer.print_state": (("rasm.cli", "print_state"),),
    "conformance.iso_closure": (("rasm.cli", "check_isomorphism_closure"),),
    "conformance.bounded_exploration": (("rasm.cli", "check_bounded_exploration"),),
    "conformance.naive_equivalence": (("rasm.cli", "check_naive_equivalence"),),
    "naive.eval_rule": (("rasm.conformance", "naive_eval_rule"),),
}

ROOT = "cli.main"

# What each counted layer keeps for counting after the run.
_KEEP = {
    "encoding.as_program": lambda args, result: args[0],
    "updates.collapse": lambda args, result: args[1],
    "state.active_domain": lambda args, result: len(result),
    "printer.format_trace": lambda args, result: len(result.encode("utf-8")),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *parents, name = attr.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, name


class Tracer:
    """Span recorder for one child run.  `install` patches the layers in."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: list[tuple[str, object]] = []
        self._stack: list[int | None] = [None]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every layer; returns the names of layers that no longer exist."""
        missing = []
        for layer, sites in LAYERS.items():
            found = 0
            for module, attr in sites:
                try:
                    owner, name = _resolve(module, attr)
                    fn = getattr(owner, name)
                except (ImportError, AttributeError):
                    continue
                setattr(owner, name, self.wrap(layer, fn))
                self._patched.append((owner, name, fn))
                found += 1
            if not found:
                missing.append(layer)
        return missing

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def wrap(self, layer: str, fn):
        spans, stack, kept, clock = self.spans, self._stack, self.kept, time.perf_counter_ns
        keep = _KEEP.get(layer)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], layer, clock(), 0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep is not None:
                kept.append((layer, keep(args, result)))
            return result

        return traced

    def counters(self) -> dict[str, int]:
        """Sizes seen at the layer boundaries; the largest of each."""
        out = {"encoding.pgm_nodes": 0, "updates.multiset_size": 0, "updates.shared_group_max": 0,
               "state.domain_size": 0, "printer.trace_bytes": 0}
        sizes: dict[int, int] = {}
        for layer, obj in self.kept:
            if layer == "encoding.as_program":
                if id(obj) not in sizes:
                    sizes[id(obj)] = count_nodes(obj.root_node)
                _max_into(out, "encoding.pgm_nodes", sizes[id(obj)])
            elif layer == "updates.collapse":
                _max_into(out, "updates.multiset_size", len(obj))
                groups: dict = defaultdict(int)
                for e in obj:
                    if hasattr(e, "op"):  # a SharedUpdate
                        groups[e.location.base] += 1
                _max_into(out, "updates.shared_group_max", max(groups.values(), default=0))
            elif layer == "state.active_domain":
                _max_into(out, "state.domain_size", obj)
            else:
                out["printer.trace_bytes"] += obj
        return out


def _max_into(out: dict, key: str, value: int) -> None:
    out[key] = max(out[key], value)


def count_nodes(root) -> int:
    n, todo = 0, [root]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(node.children)
    return n


# ------------------------------------------------------ after the run

def check_nesting(spans: list[list]) -> list[str]:
    """Every span lies inside its parent's interval."""
    bad = []
    for sid, parent, layer, start, end in spans:
        if end < start:
            bad.append(f"span {sid} {layer} ends before it starts")
        if parent is not None:
            p = spans[parent]
            if not (p[3] <= start and end <= p[4]):
                bad.append(f"span {sid} {layer} leaves its parent {p[2]}")
    return bad


def layer_times(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per layer: calls, total (inclusive) ns and self ns."""
    covered: dict[int, int] = defaultdict(int)
    for sid, parent, layer, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, dict[str, int]] = {}
    for sid, parent, layer, start, end in spans:
        row = out.setdefault(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - covered[sid]
    return out
