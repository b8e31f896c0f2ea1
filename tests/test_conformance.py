"""Postulate checks: positive instances on well-behaved machines and
negative controls proving each check can actually fail.

The negative controls inject deliberately broken step/update functions; a
check that passes on them is a check with no teeth.
"""

import random

from rasm.conformance import (
    CheckReport,
    Violation,
    check_bounded_exploration,
    check_initial_agreement,
    check_isomorphism_closure,
    check_naive_equivalence,
    check_signature_monotonicity,
    combine_reports,
    merge_reports,
    rule_has_partial_assign,
)
from rasm.errors import EvalError
from rasm.machine import run, step
from rasm.parser import parse_rule, parse_state
from rasm.state import PGM_LOCATION, FunctionSymbol, Location, Signature, State
from rasm.updates import Update, UpdateMultiset
from rasm.values import Atom, Multiset, Natural, TupleVal
from conftest import count_form_decodes, forget_raises, random_rule, random_state


COUNTER = "function f/0\ninit f = 0\n\nprogram\nf := f + 1\n"

ATOMIC = (
    "function mark/1\n"
    "universe red green blue\n"
    "init mark(red) = 1\n"
    "\n"
    "program\n"
    "FORALL x WITH mark(x) = 1 DO mark(x) := 0 ENDDO\n"
)


# ------------------------------------------------------------- reports

def test_report_text_shape():
    rep = CheckReport("demo", 3, (Violation("broke", {}),), ("heads up",))
    assert rep.text() == "check demo\ninstances 3\nnote heads up\nviolations 1\nviolation broke"
    assert not rep.passed
    assert CheckReport("demo", 1).passed


def test_merge_reports_sorted_blocks():
    text = merge_reports([CheckReport("zeta", 1), CheckReport("alpha", 2)])
    assert text == "check alpha\ninstances 2\nviolations 0\n\ncheck zeta\ninstances 1\nviolations 0\n"


def test_combine_reports():
    a = CheckReport("x", 1, (Violation("v1", {}),), ("n1",))
    b = CheckReport("x", 2, (), ("n2",))
    c = combine_reports([a, b])
    assert c.instances == 3
    assert len(c.violations) == 1
    assert c.notes == ("n1", "n2")
    try:
        combine_reports([a, CheckReport("y", 1)])
    except ValueError:
        pass
    else:
        raise AssertionError("mixed names must be rejected")


def test_rule_has_partial_assign():
    assert rule_has_partial_assign(parse_rule("f <<= munion({| 1 |})"))
    assert rule_has_partial_assign(parse_rule("PAR f := 1 IMPORT a DO g(a) <<= munion({||}) ENDPAR"))
    assert not rule_has_partial_assign(parse_rule("IF f = 0 THEN f := 1 ELSE f := 2 ENDIF"))


# ------------------------------------------- isomorphism closure

def test_isomorphism_closure_passes_on_atom_machine():
    s = parse_state(ATOMIC)
    rep = check_isomorphism_closure(s, trials=25, seed=5)
    assert rep.passed, rep.text()
    assert rep.instances == 25
    assert rep.notes == ()


def test_isomorphism_trials_rename_with_the_atoms_the_check_holds(monkeypatch):
    """The check hands `rename_state` the atoms it has already found, so no
    trial walks a state again to find them."""
    from rasm import state as state_module

    walked, real = [], state_module.atoms_of_state
    monkeypatch.setattr(state_module, "atoms_of_state", lambda s: walked.append(s) or real(s))
    rep = check_isomorphism_closure(parse_state(ATOMIC), trials=25, seed=5)
    assert rep.passed and rep.instances == 25
    assert walked == []


def test_isomorphism_closure_notes_when_nothing_moves():
    s = parse_state(COUNTER)
    rep = check_isomorphism_closure(s, trials=5)
    assert rep.passed
    assert any("no movable atoms" in n for n in rep.notes)


def test_identity_trials_raise_the_program_once(monkeypatch):
    s = parse_state(COUNTER)
    forget_raises(s.value_of(PGM_LOCATION).tree)
    decoded = count_form_decodes(monkeypatch)
    rep = check_isomorphism_closure(s, 4)
    assert decoded == ["update"]  # each identity trial steps the state itself
    assert rep.text() == (
        "check isomorphism-closure\ninstances 4\n"
        "note no movable atoms; only the identity bijection was tried\nviolations 0"
    )


def test_isomorphism_closure_negative_control():
    # a step function that special-cases one atom's spelling
    s = parse_state(ATOMIC)

    def crooked_step(st):
        rep = step(st)
        if any(Atom("green") in loc.args for loc in st.interp):
            extra = {**rep.next.interp, Location("mark", (Atom("green"),)): Natural(7)}
            nxt = State(rep.next.signature, extra, rep.next.universe,
                        rep.next.reserve_cursor, rep.next.reserve_seed)
            return type(rep)(rep.state, nxt, rep.raised_rule, rep.update_set)
        return rep

    rep = check_isomorphism_closure(s, trials=25, seed=5, step_fn=crooked_step)
    assert not rep.passed
    assert "do not commute" in rep.violations[0].description
    # the minimizer found a readable witness
    assert "swaps" in rep.violations[0].description or "renames" in rep.violations[0].description


def test_isomorphism_closure_reports_step_failure_on_renamed_state():
    s = parse_state(ATOMIC)

    from rasm.errors import MachineError

    def brittle_step(st):
        if Location("mark", (Atom("red"),)) not in st.interp:
            raise MachineError("signature-shrunk", "chokes on any renamed spelling")
        return step(st)

    rep = check_isomorphism_closure(s, trials=25, seed=5, step_fn=brittle_step)
    assert not rep.passed
    assert "step failed on the renamed state" in rep.violations[0].description


def test_isomorphism_closure_steps_the_plain_state_once():
    s = parse_state(ATOMIC)
    calls = []

    def counting(st):
        calls.append(st)
        return step(st)

    rep = check_isomorphism_closure(s, trials=25, seed=5, step_fn=counting)
    assert rep.passed, rep.text()
    assert len(calls) == 26  # one per renamed state, one for the state itself
    calls.clear()
    check_isomorphism_closure(s, trials=0, seed=5, step_fn=counting)
    assert calls == []


def test_successors_may_differ_by_a_bijection_of_the_drawn_atoms():
    from rasm.conformance import _equal_up_to_fresh

    sig = Signature((FunctionSymbol("h", 1), FunctionSymbol("k", 1), FunctionSymbol("j", 1)))
    r0, r1, a, b = Atom("$r0"), Atom("$r1"), Atom("a"), Atom("b")
    fresh = frozenset({r0, r1})

    def state(entries):
        return State(sig, {Location(f, (x,)): v for f, x, v in entries})

    lhs = state([("h", a, r0), ("h", b, r1), ("k", r0, TupleVal((r1, Natural(1))))])
    swapped = state([("h", a, r1), ("h", b, r0), ("k", r1, TupleVal((r0, Natural(1))))])
    assert _equal_up_to_fresh(lhs, swapped, fresh)
    assert not _equal_up_to_fresh(lhs, swapped, frozenset())  # no drawn atoms: only equality
    # h(a) takes $r0 to $r1, so k($r0) must become k($r1)
    assert not _equal_up_to_fresh(lhs, state([("h", a, r1), ("h", b, r0), ("k", r0, TupleVal((r1, Natural(1))))]), fresh)
    assert not _equal_up_to_fresh(lhs, state([("h", a, r1), ("h", b, r0), ("k", r1, TupleVal((r0, Natural(2))))]), fresh)
    assert not _equal_up_to_fresh(lhs, state([("h", a, r1), ("h", b, r1), ("k", r1, TupleVal((r0, Natural(1))))]), fresh)
    # k matches either way; only j rules out the identity, so the search backtracks
    ties = state([("k", r0, Natural(1)), ("k", r1, Natural(1)), ("j", r0, Natural(5)), ("j", r1, Natural(6))])
    assert _equal_up_to_fresh(ties, state([("k", r0, Natural(1)), ("k", r1, Natural(1)),
                                           ("j", r0, Natural(6)), ("j", r1, Natural(5))]), fresh)
    # atoms seen only inside multisets are tried in every arrangement
    bags = state([("h", a, Multiset((r0, Natural(1)))), ("h", b, Multiset((r1,)))])
    assert _equal_up_to_fresh(bags, state([("h", a, Multiset((r1, Natural(1)))), ("h", b, Multiset((r0,)))]), fresh)
    assert not _equal_up_to_fresh(bags, state([("h", a, Multiset((r1, Natural(2)))), ("h", b, Multiset((r0,)))]), fresh)


# ------------------------------------------- bounded exploration

def bounded_pair():
    """Two states agreeing on pgm and every read term of `f := f + 1`,
    differing on an unread location."""
    doc1 = "function f/0\nfunction h/0\ninit f = 3\ninit h = 1\n\nprogram\nf := f + 1\n"
    doc2 = "function f/0\nfunction h/0\ninit f = 3\ninit h = 2\n\nprogram\nf := f + 1\n"
    return parse_state(doc1), parse_state(doc2)


def test_bounded_exploration_positive():
    s1, s2 = bounded_pair()
    rep = check_bounded_exploration(s1, s2)
    assert rep.passed and rep.notes == (), rep.text()


def test_bounded_exploration_precondition_failures_are_notes():
    s1, _ = bounded_pair()
    changed = parse_state("function f/0\nfunction h/0\ninit f = 4\ninit h = 1\n\nprogram\nf := f + 1\n")
    rep = check_bounded_exploration(s1, changed)
    assert rep.passed
    assert any("read-term values differ" in n for n in rep.notes)

    other_sig = parse_state("function f/0\ninit f = 3\n\nprogram\nf := f + 1\n")
    rep = check_bounded_exploration(s1, other_sig)
    assert any("signatures differ" in n for n in rep.notes)

    other_pgm = parse_state("function f/0\nfunction h/0\ninit f = 3\ninit h = 1\n\nprogram\nf := f + 2\n")
    rep = check_bounded_exploration(s1, other_pgm)
    assert any("pgm values differ" in n for n in rep.notes)


def test_bounded_exploration_negative_control():
    # an update function that peeks at a location no read term covers
    s1, s2 = bounded_pair()

    from rasm.evaluator import eval_rule

    def peeking(st, rule):
        hidden = st.value_of(Location("h"))
        return UpdateMultiset(eval_rule(st, {}, rule).entries + (Update(Location("f"), hidden),))

    rep = check_bounded_exploration(s1, s2, updates_fn=peeking)
    assert not rep.passed
    assert "update multisets differ" in rep.violations[0].description
    # the same pair passes with the honest update function
    assert check_bounded_exploration(s1, s2).passed


def test_bounded_exploration_counts_errors_as_outcomes():
    # `g` is undeclared: the LET binding's read term fails alike in both
    # states, and the body never reads it.
    doc = "function f/0\nfunction h/0\ninit f = 0\ninit h = {}\n\nprogram\nLET x = g IN f := 1\n"
    s1, s2 = parse_state(doc.format(1)), parse_state(doc.format(2))
    rep = check_bounded_exploration(s1, s2)
    assert rep.passed and rep.notes == (), rep.text()

    from rasm.evaluator import eval_rule

    def failing_on_h2(st, rule):
        if st.value_of(Location("h")) == Natural(2):
            raise EvalError("unknown-symbol", "no function symbol 'h2'")
        return eval_rule(st, {}, rule)

    rep = check_bounded_exploration(s1, s2, updates_fn=failing_on_h2)
    assert not rep.passed
    assert "update multisets differ" in rep.violations[0].description


# ------------------------------------------- runs and initial states

def test_signature_monotonicity_on_real_run():
    s = parse_state(COUNTER)
    reports = run(s, steps=4)
    states = [s] + [r.next for r in reports]
    rep = check_signature_monotonicity(states)
    assert rep.passed
    assert rep.instances == 4


def test_signature_monotonicity_negative_control():
    sig_big = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    sig_small = Signature((FunctionSymbol("pgm", 0),))
    a = State(sig_big, {})
    b = State(sig_small, {})
    rep = check_signature_monotonicity([a, b, a])
    assert not rep.passed
    assert "dropped symbols" in rep.violations[0].description
    assert "('f', 0)" in rep.violations[0].description


def test_initial_agreement():
    s1 = parse_state(COUNTER)
    s2 = parse_state("function f/0\ninit f = 9\n\nprogram\nf := f + 1\n")
    assert check_initial_agreement([s1, s2]).passed
    s3 = parse_state("function f/0\ninit f = 0\n\nprogram\nf := f + 2\n")
    rep = check_initial_agreement([s1, s3])
    assert not rep.passed
    assert "disagrees on pgm" in rep.violations[0].description
    assert check_initial_agreement([]).passed


# ------------------------------------------- oracle equivalence

def test_naive_equivalence_positive_random():
    rng = random.Random(101)
    for _ in range(50):
        s = random_state(rng)
        r = random_rule(rng, depth=3)
        rep = check_naive_equivalence(s, r)
        assert rep.passed, rep.violations[0].description if rep.violations else ""


def test_naive_equivalence_negative_control():
    # feed the check a rule whose collapse semantics the oracle cannot see:
    # moving the goalposts by monkeypatching would hide the replay data, so
    # instead compare against a state where the main evaluator is patched
    sig = Signature((FunctionSymbol("f", 0),))
    s = State(sig, {Location("f"): Natural(0)})
    r = parse_rule("f := 1")

    import rasm.conformance as conf

    original = conf.eval_rule
    try:
        conf.eval_rule = lambda st, env, rule: UpdateMultiset((Update(Location("f"), Natural(2)),))
        rep = check_naive_equivalence(s, r)
    finally:
        conf.eval_rule = original
    assert not rep.passed
    assert "evaluators disagree" in rep.violations[0].description
    assert rep.violations[0].data["rule"] == r
