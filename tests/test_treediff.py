"""Diffing self-representation trees: shared updates and the rule that writes them."""

import random

import pytest

from rasm.encoding import drop_program
from rasm.errors import DiffError
from rasm.evaluator import eval_rule
from rasm.parser import parse_rule
from rasm.printer import print_rule
from rasm.state import FunctionSymbol, Location, PGM, Signature, State
from rasm.terms import Literal, Par, PartialAssign
from rasm.treediff import tree_diff_rule, tree_diff_updates
from rasm.updates import Update, apply_update_set, collapse
from rasm.values import Natural, TreeVal, TupleVal
from conftest import random_program_pair


def prog(rule_text, *extra_syms):
    sig = Signature(
        (FunctionSymbol("pgm", 0), FunctionSymbol("f", 0))
        + tuple(FunctionSymbol(n, a) for n, a in extra_syms)
    )
    return drop_program(sig, parse_rule(rule_text))


def test_identical_trees_diff_to_the_empty_rule():
    t = prog("f := 1")
    assert tree_diff_rule(t, t) == Par(())
    assert len(tree_diff_updates(t, t)) == 0


def test_rule_change_reuses_signature_subtree():
    # the signature is child 0 of the root; no edit reaches into it
    t1 = prog("f := 1")
    t2 = prog("f := 2")
    rule = tree_diff_rule(t1, t2)
    assert rule.rules and all(r.operands[0].value.items[0] == Natural(1) for r in rule.rules)


def test_rule_evaluates_to_target_on_random_pairs():
    """The rule runs as a self-rewriting step would: pgm holds the old tree."""
    rng = random.Random(67)
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    for _ in range(100):
        t1, t2 = random_program_pair(rng)
        s = State(sig, {Location(PGM): t1})
        us = collapse(s, eval_rule(s, {}, tree_diff_rule(t1, t2)))
        assert us.consistent
        assert apply_update_set(s, us)[Location(PGM)] == t2


def test_signature_growth_is_one_right_extension():
    t1 = prog("f := 1")
    t2 = prog("f := 1", ("g", 1))
    (r,) = tree_diff_rule(t1, t2).rules
    assert r.op == "extend_at"
    assert r.operands[0] == Literal(TupleVal((Natural(0),)))
    assert len(r.operands) == 2 and isinstance(r.operands[1].value, TreeVal)


def test_diff_rejects_signature_shrink():
    t1 = prog("f := 1", ("g", 1))
    t2 = prog("f := 1")
    with pytest.raises(DiffError, match="signature-shrunk"):
        tree_diff_rule(t1, t2)
    with pytest.raises(DiffError, match="signature-shrunk"):
        tree_diff_updates(t1, t2)


def test_diff_requires_program_trees():
    from rasm.errors import EncodingError
    from rasm.trees import leaf

    with pytest.raises(EncodingError):
        tree_diff_rule(TreeVal(leaf("x")), TreeVal(leaf("x")))


def test_updates_collapse_to_single_root_update():
    t1 = prog("PAR f := 1 f := 2 ENDPAR")
    t2 = prog("PAR f := 1 f := 3 ENDPAR")
    um = tree_diff_updates(t1, t2)
    assert len(um) >= 1
    for e in um:
        assert e.location == Location(PGM)
        assert e.op in ("subst_at", "extend_at")

    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    s = State(sig, {Location(PGM): t1})
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == (Update(Location(PGM), t2),)


@pytest.mark.parametrize("k", [7, 12])
def test_many_disjoint_edits_collapse_to_the_new_tree(k):
    t1 = prog("PAR " + " ".join(f"f := {i}" for i in range(k)) + " ENDPAR")
    t2 = prog("PAR " + " ".join(f"f := {i + 100}" for i in range(k)) + " ENDPAR")
    um = tree_diff_updates(t1, t2)
    assert len(um) == k
    paths = [u.args[0].items for u in um]
    assert paths == sorted(paths)  # preorder, as the rule prints them
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    us = collapse(State(sig, {Location(PGM): t1}), um)
    assert us.consistent
    assert us.updates == (Update(Location(PGM), t2),)


def test_updates_are_minimal_for_local_edit():
    t1 = prog("PAR f := 1 f := 2 ENDPAR")
    t2 = prog("PAR f := 1 f := 3 ENDPAR")
    um = tree_diff_updates(t1, t2)
    (u,) = tuple(um)
    assert u.location == Location(PGM)
    assert u.op == "subst_at"
    # the edit site is inside the second subrule, below the rule wrapper
    assert u.args[0].items[:2] == (Natural(1), Natural(0))


def test_signature_growth_update_uses_right_extend():
    t1 = prog("f := 1")
    t2 = prog("f := 1", ("g", 1))
    um = tree_diff_updates(t1, t2)
    ops = sorted(e.op for e in um)
    assert "extend_at" in ops
    assert all(e.location == Location(PGM) for e in um)
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    s = State(sig, {Location(PGM): t1})
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == (Update(Location(PGM), t2),)


def test_updates_reach_target_on_random_pairs():
    rng = random.Random(71)
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    for _ in range(100):
        t1, t2 = random_program_pair(rng)
        um = tree_diff_updates(t1, t2)
        s = State(sig, {Location(PGM): t1})
        us = collapse(s, um)
        assert us.consistent
        assert us.updates == (Update(Location(PGM), t2),)


def test_differ_updates_are_rule_updates():
    """Every differ update is one a rule `pgm <<= op(literal args)` yields,
    and the diff rule is exactly those rules, printed so it parses back."""
    rng = random.Random(72)
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    for _ in range(100):
        t1, t2 = random_program_pair(rng)
        um = tree_diff_updates(t1, t2)
        s = State(sig, {Location(PGM): t1})
        rule = Par(tuple(PartialAssign(PGM, (), u.op, tuple(map(Literal, u.args))) for u in um))
        assert tree_diff_rule(t1, t2) == rule
        assert eval_rule(s, {}, rule) == um
        assert parse_rule(print_rule(rule)) == rule


def test_rule_prints_as_one_flat_par():
    t1 = prog("f := 1")
    t2 = prog("f := 2")
    assert print_rule(tree_diff_rule(t1, t1)) == "PAR ENDPAR"
    text = print_rule(tree_diff_rule(t1, t2))
    assert text.startswith("PAR pgm <<= subst_at((1, 0, ") and text.endswith(") ENDPAR")
    assert text.count("<<=") == 1
