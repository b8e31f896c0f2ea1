"""Canonical text output for values, trees, rules, states, and traces."""

import hashlib
import random
from itertools import groupby
from pathlib import Path

from conftest import random_machine, random_value

from rasm.encoding import drop_program
from rasm.errors import RasmError
from rasm.machine import run, step
from rasm.parser import parse_rule, parse_state, parse_term, parse_value
from rasm.printer import (
    format_trace,
    print_rule,
    print_state,
    print_term,
    print_tree,
    print_value,
    rule_hash,
)
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.terms import Apply, Assign, BackgroundOp, Literal, Par
from rasm.trees import XI, Node, leaf, node
from rasm.values import UNDEF, Atom, DroppedTerm, Multiset, Natural, TreeVal, TupleVal, value_key


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
    assert print_tree(leaf("a")) == "a"
    assert print_tree(node("a", leaf("b"), leaf("c", Natural(1)))) == "a⟨b c=⟨1⟩⟩"
    assert print_tree(Node(XI)) == "^"
    assert print_tree(node("a", Node(XI))) == "a⟨^⟩"


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
    sig = Signature((FunctionSymbol("f", 0), FunctionSymbol("g", 2)))
    s = State(sig, {Location("f"): Natural(0), Location("g", (Natural(1), Atom("red"))): Natural(2)})
    assert print_state(s).splitlines()[-2:] == ["init f = 0", "init g(1, red) = 2"]


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
    assert format_trace([]) == "\n"


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


def _keyed_trace(reports) -> str:
    """The trace as written when every update was keyed and spelled anew:
    the updates sorted by `Location.key`, one location's several updates
    (an inconsistent set) by `value_key`, and each location printed from
    its symbol and argument values."""
    blocks = []
    for i, rep in enumerate(reports, 1):
        us = rep.update_set
        ordered = sorted(us.updates, key=lambda u: u.location.key())
        if not us.consistent:
            out = []
            for _loc, run_ in groupby(ordered, key=lambda u: u.location):
                run_ = list(run_)
                out += sorted(run_, key=lambda u: value_key(u.value)) if len(run_) > 1 else run_
            ordered = out
        lines = [f"step {i}", f"rule {rule_hash(rep.raised_rule)}"]
        for loc, v in ordered:
            args = "(" + ", ".join(map(print_value, loc.args)) + ")" if loc.args else ""
            lines.append(f"update {loc.symbol}{args} = {print_value(v)}")
        lines.append("consistent " + ("true" if us.consistent else "false"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _trace_machine(rng: random.Random) -> State:
    """`random_machine`'s state, its rule run in PAR beside a clock
    `h('t, 't)`, a write to `g((clock,))`, a location new at every step,
    and up to three literal writes of random values (trees and dropped
    terms among them) to a few locations, which clash now and then."""
    s, rule = random_machine(rng)
    clock = Apply("h", (Literal(Atom("t")), Literal(Atom("t"))))
    extras = [
        Assign("h", clock.args, BackgroundOp("add", (clock, Literal(Natural(1))))),
        Assign("g", (BackgroundOp("tuple", (clock,)),), Literal(random_value(rng, 2))),
    ]
    pool = (Natural(0), Atom("red"), TupleVal((Natural(1),)))
    for _ in range(rng.randrange(4)):
        sym = rng.choice(("g", "h"))
        args = tuple(Literal(rng.choice(pool)) for _ in range(1 if sym == "g" else 2))
        extras.append(Assign(sym, args, Literal(random_value(rng, 2))))
    interp = {**s.interp, Location("h", (Atom("t"), Atom("t"))): Natural(0),
              Location("pgm"): drop_program(s.signature, Par((rule, *extras)))}
    return State(s.signature, interp, s.universe)


def _steps(s: State, n: int) -> list:
    """Up to `n` steps from `s`, ending early at an evaluation error."""
    reports = []
    for _ in range(n):
        try:
            rep = step(s)
        except RasmError:
            break
        reports.append(rep)
        s = rep.next
    return reports


def test_trace_agrees_with_keying_every_update(monkeypatch):
    """40 random machines, 5 steps each: the trace equals the one keyed and
    spelled per update, and keys each distinct location once.  The runs
    hold inconsistent steps with ties, locations first written after step
    1, and every kind of value."""
    keyed = []
    real_key = Location.key
    monkeypatch.setattr(Location, "key", lambda loc: keyed.append(loc) or real_key(loc))
    kinds, tied, later = set(), 0, 0
    for seed in range(40):
        reports = _steps(_trace_machine(random.Random(seed)), 5)
        want = _keyed_trace(reports)
        keyed.clear()
        assert format_trace(reports) == want, seed
        written = [u.location for rep in reports for u in rep.update_set.updates]
        assert sorted(keyed, key=real_key) == sorted(set(written), key=real_key)
        seen: set = set()
        for k, rep in enumerate(reports):
            locs = [u.location for u in rep.update_set.updates]
            kinds.update(type(u.value) for u in rep.update_set.updates)
            tied += not rep.update_set.consistent and len(set(locs)) < len(locs)
            later += k > 0 and not seen.issuperset(locs)
            seen.update(locs)
    assert {Atom, TupleVal, Multiset, TreeVal, DroppedTerm} <= kinds
    assert tied >= 10 and later >= 10


def test_trace_keys_each_location_once(monkeypatch):
    s = parse_state("function g/1\ninit g(0) = 0\ninit g(1) = 5\ninit g(2) = 9\nprogram\n"
                    "FORALL x WITH g(x) != undef DO g(x) := g(x) + 1 ENDDO")
    reports = run(s, steps=6)
    keyed = []
    real_key = Location.key
    monkeypatch.setattr(Location, "key", lambda loc: keyed.append(loc) or real_key(loc))
    text = format_trace(reports)
    assert sorted(keyed) == [Location("g", (Natural(i),)) for i in range(3)]
    assert text.count("\nupdate g(") == 18
    keyed.clear()
    format_trace(reports)
    assert len(keyed) == 3  # a new trace keys its locations again
