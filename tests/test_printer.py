"""Canonical text output for values, trees, rules, states, and traces."""

import hashlib
from pathlib import Path

from rasm.machine import run
from rasm.parser import parse_rule, parse_state, parse_term, parse_value
from rasm.printer import (
    format_trace,
    print_location,
    print_rule,
    print_state,
    print_term,
    print_tree,
    print_value,
    rule_hash,
)
from rasm.state import Location
from rasm.trees import XI, Context, Node, Tree, leaf, node
from rasm.values import UNDEF, Atom, Multiset, Natural, TupleVal


def test_value_forms():
    assert print_value(UNDEF) == "undef"
    assert print_value(Natural(7)) == "7"
    assert print_value(Atom("red")) == "red"
    assert print_value(TupleVal(())) == "()"
    assert print_value(TupleVal((Natural(1),))) == "(1,)"
    assert print_value(TupleVal((Natural(1), Natural(2)))) == "(1, 2)"
    assert print_value(Multiset(())) == "{||}"
    assert print_value(Multiset((Natural(2), Natural(1)))) == "{| 1, 2 |}"


def test_multiset_prints_canonically_sorted():
    a = Multiset((Natural(3), Natural(1), Natural(2)))
    b = Multiset((Natural(2), Natural(3), Natural(1)))
    assert print_value(a) == print_value(b) == "{| 1, 2, 3 |}"


def test_tree_forms():
    assert print_tree(Tree(leaf("a"))) == "a"
    assert print_tree(Tree(node("a", leaf("b"), leaf("c", Natural(1))))) == "a⟨b c=⟨1⟩⟩"
    assert print_tree(Context(Node(XI))) == "^"
    assert print_tree(Context(node("a", Node(XI)))) == "a⟨^⟩"


def test_term_precedence_minimal_parens():
    for text in (
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "not f = 0",
        "not (f and g(1))",
        "f = 0 and g(1) or h(1, 2)",
        "(f, 1)",
        "{| f, 1 |}",
        "proj((1, 2), 1)",
    ):
        assert print_term(parse_term(text)) == text, text


def test_one_tuple_term_prints_with_comma():
    t = parse_term("(f,)")
    assert print_term(t) == "(f,)"
    assert parse_term(print_term(t)) == t


def test_rule_forms():
    for text in (
        "f := 1",
        "g(1, 2) := f",
        "f <<= munion({| 1 |})",
        "IF f = 0 THEN f := 1 ENDIF",
        "IF f = 0 THEN f := 1 ELSE f := 2 ENDIF",
        "PAR ENDPAR",
        "PAR f := 1 f := 2 ENDPAR",
        "FORALL x WITH x < 2 DO g(x) := x ENDDO",
        "LET y = f IN f := y",
        "IMPORT a DO g(a) := 1",
    ):
        assert print_rule(parse_rule(text)) == text, text


def test_else_skip_is_elided():
    assert print_rule(parse_rule("IF f = 0 THEN f := 1 ELSE PAR ENDPAR ENDIF")) == (
        "IF f = 0 THEN f := 1 ENDIF"
    )


def test_location_forms():
    assert print_location(Location("f")) == "f"
    assert print_location(Location("g", (Natural(1), Atom("red")))) == "g(1, red)"


def test_state_document_roundtrip():
    doc = "function f/0\nuniverse 9\ninit f = 3\n\nprogram\nf := f + 1\n"
    s = parse_state(doc)
    assert parse_state(print_state(s)) == s


def test_state_document_is_sorted_and_complete():
    s = parse_state("function b/0\nfunction a/0\ninit b = 1\ninit a = 2\nprogram\na := b")
    text = print_state(s)
    lines = text.splitlines()
    assert lines[0] == "function a/0"
    assert lines[1] == "function b/0"
    assert lines[2] == "function pgm/0"
    assert lines[3] == "init a = 2"
    assert lines[4] == "init b = 1"
    assert lines[5].startswith("init pgm = #pgm⟨")
    assert text.endswith("\n")


def test_rule_hash_is_sha256_of_canonical_text():
    r = parse_rule("f := f + 1")
    want = hashlib.sha256("f := f + 1".encode()).hexdigest()[:16]
    assert rule_hash(r) == want
    assert rule_hash(parse_rule("f  :=  f + 1")) == want  # whitespace is not semantic


def test_trace_format():
    s = parse_state("function f/0\ninit f = 0\nprogram\nf := f + 1")
    reports = run(s, steps=2)
    text = format_trace(reports)
    h = rule_hash(parse_rule("f := f + 1"))
    assert text == (
        f"step 1\nrule {h}\nupdate f = 1\nconsistent true\n"
        f"\n"
        f"step 2\nrule {h}\nupdate f = 2\nconsistent true\n"
    )


def test_trace_updates_sorted_and_flagged():
    s = parse_state("function f/0\nfunction g/1\nprogram\nPAR g(2) := 1 g(1) := 1 f := 1 f := 2 ENDPAR")
    (rep,) = run(s, steps=1)
    text = format_trace([rep])
    lines = text.splitlines()
    assert lines[2:6] == ["update f = 1", "update f = 2", "update g(1) = 1", "update g(2) = 1"]
    assert lines[6] == "consistent false"


def test_trace_hashes_an_unchanged_rule_once(monkeypatch):
    demos = Path(__file__).resolve().parent.parent / "demos"
    reports = run(parse_state((demos / "increment.rst").read_text(encoding="utf-8")), steps=50)
    calls = []

    def counting(r):
        calls.append(r)
        return rule_hash(r)

    monkeypatch.setattr("rasm.printer.rule_hash", counting)
    text = format_trace(reports)
    assert len(calls) == 1
    assert text.startswith((demos / "increment.trace").read_text(encoding="utf-8"))  # its first 10 steps
    assert text.count("\nrule " + rule_hash(reports[0].raised_rule) + "\n") == 50


def test_trace_hashes_each_raised_program_once(monkeypatch):
    # `shared_rewrite` from the benchmark swaps two pairs of its sub-rules
    # every step, so pgm returns to the same interned tree, and the same
    # raised Rule, every two steps.
    import importlib

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    m = workloads.shared_rewrite(1, 15)
    reports = run(parse_state(m.document), steps=15)
    want = [rule_hash(rep.raised_rule) for rep in reports]
    calls = []

    def counting(r):
        calls.append(r)
        return rule_hash(r)

    monkeypatch.setattr("rasm.printer.rule_hash", counting)
    text = format_trace(reports)
    assert len(calls) == 2 and calls[0] is not calls[1]
    assert [line[5:] for line in text.splitlines() if line.startswith("rule ")] == want
    assert workloads.check_trace(m, text) == []
