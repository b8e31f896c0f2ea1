"""The benchmark's own tests: generators, checkers, spans and layer coverage.

    python3 -m pytest bench/tests -q
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, check_final, check_report, check_trace  # noqa: E402

# The workload each layer is meant to be exercised by.
EXERCISED_BY = {
    "static_program": ["encoding.as_program", "printer.rule_hash", "printer.format_trace",
                       "printer.print_state", "parser.parse_state", "machine.validate_initial",
                       "machine.step"],
    "domain_scan": ["evaluator.eval_rule", "updates.collapse", "updates.apply", "state.init",
                    "state.active_domain"],
    "shared_rewrite": ["updates.collapse", "trees.subst_tt"],
    "postulate_check": ["conformance.iso_closure", "conformance.bounded_exploration",
                        "conformance.naive_equivalence", "naive.eval_rule", "state.rename",
                        "evaluator.eval_term", "encoding.beta_rule"],
}


def _rasm(argv):
    from rasm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    build = WORKLOADS[name].build
    assert build(5, 4) == build(5, 4)
    other = build(6, 4)
    assert other.document != build(5, 4).document
    # The seed varies values, never the shape of the machine.
    assert len(other.document.splitlines()) == len(build(5, 4).document.splitlines())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_rasm_and_rejects_planted_faults(name, tmp_path):
    m = WORKLOADS[name].build(3, 4)
    doc, trace = tmp_path / "m.rst", tmp_path / "m.trace"
    doc.write_text(m.document, encoding="utf-8")
    code, final = _rasm(["run", str(doc), "--steps", "4", "--trace", str(trace)])
    text = trace.read_text(encoding="utf-8")
    assert code == 0
    assert check_trace(m, text) == []
    assert check_final(m, final) == []

    # A wrong value in the final state.
    loc = sorted(m.final)[0]
    wrong = final.replace(f"init {loc} = {m.final[loc]}\n", f"init {loc} = 999999\n")
    assert wrong != final and check_final(m, wrong)

    # Step 2 reported inconsistent.
    blocks = text.split("\n\n")
    blocks[1] = blocks[1].replace("consistent true", "consistent false")
    assert any(b.startswith("step 2:") for b in check_trace(m, "\n\n".join(blocks)))

    # Step 3 writing one wrong value.
    lines = blocks[2].split("\n")
    lines[2] = lines[2].rsplit(" = ", 1)[0] + " = 999999"
    blocks[1], blocks[2] = blocks[1].replace("false", "true"), "\n".join(lines)
    assert [b for b in check_trace(m, "\n\n".join(blocks)) if b.startswith("step 3:")]


def test_report_checker_needs_every_check_clean():
    w = WORKLOADS["postulate_check"]
    clean = "".join(f"check {c}\ninstances 1\nviolations 0\n\n" for c in sorted(w.expected_checks))
    assert check_report(w.expected_checks, clean) == []
    assert check_report(w.expected_checks, clean.replace("violations 0", "violations 1", 1))
    assert check_report(w.expected_checks, clean.split("\n\n", 1)[1])


@pytest.fixture(scope="module")
def traced_children(tmp_path_factory):
    """One traced `run` and one traced `check` child per workload, few steps."""
    out = {}
    for name, w in WORKLOADS.items():
        s = run.Session(dataclasses.replace(w, run_steps=3), 2, tmp_path_factory.mktemp(name))
        out[name] = [s.run(traced=True), s.check(traced=True)]
        assert s.failed == 0 and s.problems == [], s.problems
    return out


def test_spans_nest_and_self_times_are_non_negative(traced_children):
    for children in traced_children.values():
        for child in children:
            spans = child["spans"]
            assert spans[0][2] == tracing.ROOT and spans[0][1] is None
            assert tracing.check_nesting(spans) == []
            for layer, t in tracing.layer_times(spans).items():
                assert t["self_ns"] >= 0, layer
                assert t["total_ns"] >= t["self_ns"], layer


def test_every_layer_is_exercised_by_its_workload(traced_children):
    assert {x for layers in EXERCISED_BY.values() for x in layers} == set(tracing.LAYERS)
    for name, layers in EXERCISED_BY.items():
        seen = {}
        for child in traced_children[name]:
            assert child["missing"] == []
            for layer, t in tracing.layer_times(child["spans"]).items():
                seen[layer] = seen.get(layer, 0) + t["calls"]
        for layer in layers:
            assert seen.get(layer, 0) > 0, (name, layer)


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "machine.gone", (("rasm.machine", "no_such_function"),))
    from rasm import machine

    step = machine.step
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == ["machine.gone"]
        assert machine.step is not step
    finally:
        tracer.uninstall()
    assert machine.step is step


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
