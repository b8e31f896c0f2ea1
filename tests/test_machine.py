"""The reflective step cycle on whole states.

Fixture states are built through the parser where possible so the tests
exercise the same path the CLI does.
"""

import random

import pytest

from rasm import evaluator
from rasm.encoding import as_program, beta_rule, drop_program, drop_rule
from rasm.errors import EncodingError, MachineError, RasmError
from rasm.evaluator import eval_rule
from rasm.machine import DEFAULT_MAX_STEPS, StepReport, run, step, validate_initial
from rasm.parser import parse_rule, parse_state
from rasm.state import FunctionSymbol, Location, PGM_LOCATION, Signature, State
from rasm.terms import Assign, Literal, Par
from rasm.trees import Tree, leaf, node, subst_tc, subst_tt, trees_equal
from rasm.updates import collapse
from rasm.values import Natural, TreeVal, TupleVal
from conftest import random_rule, random_state


def make_state(rule_text, sig_pairs=(("f", 0),), inits=()):
    sig = Signature(
        (FunctionSymbol("pgm", 0),) + tuple(FunctionSymbol(n, a) for n, a in sig_pairs)
    )
    tree = drop_program(sig, parse_rule(rule_text))
    interp = {PGM_LOCATION: TreeVal(tree)}
    for name, args, val in inits:
        interp[Location(name, args)] = val
    return State(sig, interp)


def test_step_increments():
    s = make_state("f := f + 1", inits=(("f", (), Natural(0)),))
    rep = step(s)
    assert isinstance(rep, StepReport)
    assert rep.update_set.consistent
    assert rep.state is s
    assert rep.next.value_of(Location("f")) == Natural(1)
    # the stored program is untouched by an ordinary update
    assert rep.next.value_of(PGM_LOCATION) == s.value_of(PGM_LOCATION)


def test_run_exact_steps_and_fixpoint():
    s = make_state("f := f + 1", inits=(("f", (), Natural(0)),))
    reports = run(s, steps=3)
    assert len(reports) == 3
    assert reports[-1].next.value_of(Location("f")) == Natural(3)

    halting = make_state("f := 1")
    reports = run(halting)  # fixpoint mode
    assert len(reports) == 2  # write 1, then confirm nothing changes
    assert reports[-1].next == reports[-1].state


def test_run_fixpoint_respects_max_steps():
    s = make_state("f := f + 1", inits=(("f", (), Natural(0)),))
    reports = run(s, max_steps=7)
    assert len(reports) == 7  # never reaches a fixpoint, guard stops it


def test_inconsistent_step_stutters():
    s = make_state("PAR f := 1 f := 2 ENDPAR")
    rep = step(s)
    assert not rep.update_set.consistent
    assert rep.next == s
    assert len(rep.update_set.updates) == 2


def test_missing_pgm_is_an_encoding_error():
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    s = State(sig, {Location("f"): Natural(0)})
    with pytest.raises(EncodingError, match="malformed-program-tree"):
        step(s)


def test_context_valued_pgm_is_a_malformed_program_tree():
    s = make_state("f := 1")
    t = s.value_of(PGM_LOCATION).tree
    for p, _n in t.iter_nodes():  # a hole anywhere, the signature and rule included
        punched = State(s.signature, {**s.interp, PGM_LOCATION: TreeVal(subst_tc(t, p))})
        with pytest.raises(EncodingError, match="malformed-program-tree"):
            step(punched)


def test_self_rewrite_changes_next_step():
    s = make_state(
        "PAR f := 1 pgm <<= subst_at((1, 0), #update⟨func=⟨f⟩ term=⟨()⟩ term=⟨⟦2⟧⟩⟩) ENDPAR"
    )
    rep1 = step(s)
    assert rep1.update_set.consistent
    assert rep1.next.value_of(Location("f")) == Natural(1)
    assert as_program(rep1.next.value_of(PGM_LOCATION).tree).rule == parse_rule("f := 2")
    rep2 = step(rep1.next)
    assert rep2.next.value_of(Location("f")) == Natural(2)


def test_signature_growth_enables_new_symbol():
    s = make_state(
        "PAR "
        "pgm <<= extend_at((0,), #func⟨name=⟨g⟩ arity=⟨1⟩⟩) "
        "pgm <<= subst_at((1,), #rule⟨update⟨func=⟨g⟩ term=⟨(⟦0⟧,)⟩ term=⟨⟦42⟧⟩⟩⟩) "
        "ENDPAR",
        sig_pairs=(),
    )
    rep1 = step(s)
    assert rep1.update_set.consistent
    assert ("g", 1) in rep1.next.signature.pairs()
    rep2 = step(rep1.next)
    assert rep2.next.value_of(Location("g", (Natural(0),))) == Natural(42)


def test_signature_never_shrinks():
    # rewrite pgm to a well-formed program whose signature lost f
    s = make_state("f := 0")
    small = Signature((FunctionSymbol("pgm", 0),))
    replacement = drop_program(small, parse_rule("PAR ENDPAR"))
    tree = drop_program(
        s.signature,
        parse_rule("pgm <<= subst_tt(#" + _tree_literal(replacement) + ")"),
    )
    s2 = State(s.signature, {PGM_LOCATION: TreeVal(tree)})
    with pytest.raises(MachineError, match="signature-shrunk"):
        step(s2)


def _tree_literal(t):
    from rasm.printer import print_tree

    return print_tree(t)


def test_declared_signature_beyond_encoded_is_rejected():
    s = make_state("f := 1")
    wider = s.signature.extended([FunctionSymbol("extra", 0)])
    with pytest.raises(MachineError, match="signature-shrunk"):
        step(s.with_signature(wider))


def test_malformed_rewrite_defers_the_error():
    # the step that garbles pgm succeeds; the next step reports it
    s = make_state("pgm <<= subst_at((0,), #garbage⟨⟩)")
    rep = step(s)
    assert rep.update_set.consistent
    with pytest.raises(EncodingError, match="malformed-program-tree"):
        step(rep.next)


def test_import_advances_cursor_across_steps():
    s = make_state("IMPORT a DO g(a) := 1", sig_pairs=(("g", 1),))
    rep1 = step(s)
    rep2 = step(rep1.next)
    locs = sorted(
        (loc for loc in rep2.next.interp if loc.symbol == "g"),
        key=Location.key,
    )
    assert [loc.args[0].name for loc in locs] == ["$r0", "$r1"]


def test_validate_initial():
    s = make_state("f := 1")
    validate_initial(s)  # no complaint
    narrowed = Signature((FunctionSymbol("pgm", 0),))
    with pytest.raises(EncodingError, match="initial-signature-mismatch"):
        validate_initial(s.with_signature(narrowed))


def test_static_program_runs_agree_with_plain_evaluation(monkeypatch):
    """A program that never writes pgm must behave exactly like a
    conventional machine evaluating the same fixed rule."""
    collapsed = []  # the update multiset each step hands to collapse

    def spy(s, um):
        collapsed.append(um)
        return collapse(s, um)

    monkeypatch.setattr("rasm.machine.collapse", spy)
    rng = random.Random(59)
    checked = 0
    for _ in range(60):
        r = random_rule(rng, depth=3)
        base = random_state(rng, with_pgm=True)
        sig = base.signature
        tree = drop_program(sig, r)
        s = State(base.signature, {**base.interp, PGM_LOCATION: TreeVal(tree)}, base.universe)
        try:
            um_direct = eval_rule(s, {}, r)
        except Exception:
            continue  # evaluation errors are compared elsewhere
        rep = step(s)
        assert collapsed[-1] == um_direct
        us = collapse(s, um_direct)
        assert rep.update_set.updates == us.updates
        assert rep.update_set.consistent == us.consistent
        checked += 1
    assert checked > 20, f"only {checked} comparable runs"


def _outcome(fn):
    try:
        return fn()
    except RasmError as e:
        return ("error", type(e).__name__, e.code)


def _fresh_pgm(s):
    """The same state with pgm held in a new but equal Tree object."""
    t = s.value_of(PGM_LOCATION).tree
    return State(s.signature, {**s.interp, PGM_LOCATION: TreeVal(Tree(t.root_node))},
                 s.universe, s.reserve_cursor, s.reserve_seed)


def test_raise_memo_agrees_with_a_fresh_raise_every_step():
    """`run` raises pgm only when its tree object changed, and compiles the
    raised rule once per raise; forcing a new raise and a new compile before
    every step must not change a single report."""
    rng = random.Random(61)
    compared = 0
    for _ in range(80):
        base = random_state(rng, with_pgm=True)
        rule = random_rule(rng, depth=3)
        if rng.random() < 0.5:
            # rewrite pgm to another program over the same signature
            other = drop_program(base.signature, random_rule(rng, depth=2))
            rule = Par((rule, Assign("pgm", (), Literal(TreeVal(other)))))
        tree = drop_program(base.signature, rule)
        s = State(base.signature, {**base.interp, PGM_LOCATION: TreeVal(tree)}, base.universe)
        k = rng.randrange(1, 5)
        memo = _outcome(lambda: run(s, steps=k))

        def fresh_loop():
            reports, cur = [], s
            for _ in range(k):
                evaluator._last_compiled = None
                rep = step(_fresh_pgm(cur))
                reports.append(rep)
                cur = rep.next
            return reports

        fresh = _outcome(fresh_loop)
        assert memo == fresh
        if isinstance(memo, list):
            assert [r.next.reserve_cursor for r in memo] == [r.next.reserve_cursor for r in fresh]
            compared += 1
    assert compared > 30, f"only {compared} comparable runs"


def test_run_and_cli_call_the_module_step_hook(monkeypatch, tmp_path):
    """Per-step timing replaces `rasm.machine.step` with a one-argument
    wrapper; every run loop must go through that global."""
    from rasm import cli, machine

    calls = []
    real = machine.step

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(machine, "step", counting)
    s = make_state("f := f + 1", inits=(("f", (), Natural(0)),))
    assert len(run(s, steps=6)) == 6
    assert len(calls) == 6

    calls.clear()
    doc = tmp_path / "inc.rst"
    doc.write_text("function f/0\ninit f = 0\nprogram\nf := f + 1\n", encoding="utf-8")
    assert cli.main(["run", str(doc), "--steps", "4"]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize("rule", [
    "f := f + 1",
    "PAR f := 1 f := 2 ENDPAR",  # a stutter
])
def test_step_builds_one_state(monkeypatch, rule):
    s = make_state(rule, inits=(("f", (), Natural(0)),))
    validate_initial(s)
    count = []
    real = State.__init__

    def counting(self, *args, **kwargs):
        count.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(State, "__init__", counting)
    step(s)
    assert len(count) == 1  # the successor, built once
