"""Diffing self-representation trees: algebra expressions and shared updates."""

import random

import pytest

from rasm.encoding import drop_program
from rasm.errors import DiffError
from rasm.evaluator import eval_rule
from rasm.parser import parse_rule
from rasm.state import FunctionSymbol, Location, PGM, Signature, State
from rasm.terms import Literal, Par, PartialAssign
from rasm.treediff import (
    ExtendRight,
    Rebuild,
    SubtreeRef,
    TreeLiteral,
    eval_algebra,
    serialize_algebra,
    tree_diff_theta,
    tree_diff_updates,
)
from rasm.trees import trees_equal
from rasm.updates import Update, collapse
from rasm.values import Natural, TreeVal
from conftest import random_program_pair


def prog(rule_text, *extra_syms):
    sig = Signature(
        (FunctionSymbol("pgm", 0), FunctionSymbol("f", 0))
        + tuple(FunctionSymbol(n, a) for n, a in extra_syms)
    )
    return drop_program(sig, parse_rule(rule_text))


def test_identical_trees_diff_to_root_reference():
    t = prog("f := 1")
    theta = tree_diff_theta(t, t)
    assert theta == SubtreeRef(())
    assert len(tree_diff_updates(t, t)) == 0


def test_rule_change_reuses_signature_subtree():
    t1 = prog("f := 1")
    t2 = prog("f := 2")
    theta = tree_diff_theta(t1, t2)
    assert isinstance(theta, Rebuild)
    sig_part = theta.parts[0]
    assert sig_part == SubtreeRef((0,))  # signature unchanged, referenced
    assert trees_equal(eval_algebra(theta, t1), t2)


def test_theta_evaluates_to_target_on_random_pairs():
    rng = random.Random(67)
    for _ in range(100):
        t1, t2 = random_program_pair(rng)
        theta = tree_diff_theta(t1, t2)
        assert trees_equal(eval_algebra(theta, t1), t2)


def test_signature_growth_is_one_right_extension():
    t1 = prog("f := 1")
    t2 = prog("f := 1", ("g", 1))
    theta = tree_diff_theta(t1, t2)
    assert isinstance(theta, Rebuild)
    ext = theta.parts[0]
    assert isinstance(ext, ExtendRight)
    assert ext.base == SubtreeRef((0,))
    assert len(ext.extras) == 1 and isinstance(ext.extras[0], TreeLiteral)
    assert trees_equal(eval_algebra(theta, t1), t2)


def test_reuse_prefers_topmost_leftmost():
    # two identical subrules: references must point at the first occurrence
    t1 = prog("PAR f := 9 f := 9 ENDPAR")
    t2 = prog("PAR f := 9 f := 8 ENDPAR")
    theta = tree_diff_theta(t1, t2)
    refs = []

    def walk(e):
        if isinstance(e, SubtreeRef):
            refs.append(e.path)
        elif isinstance(e, (Rebuild, ExtendRight)):
            parts = e.parts if isinstance(e, Rebuild) else (e.base,) + e.extras
            for p in parts:
                walk(p)

    walk(theta)
    first_update = (1, 0, 0)
    assert any(p == first_update for p in refs)
    assert all(p != (1, 0, 1) for p in refs), "reference skipped the leftmost copy"


def test_diff_rejects_signature_shrink():
    t1 = prog("f := 1", ("g", 1))
    t2 = prog("f := 1")
    with pytest.raises(DiffError, match="signature-shrunk"):
        tree_diff_theta(t1, t2)
    with pytest.raises(DiffError, match="signature-shrunk"):
        tree_diff_updates(t1, t2)


def test_diff_requires_program_trees():
    from rasm.errors import EncodingError
    from rasm.trees import Tree, leaf

    with pytest.raises(EncodingError):
        tree_diff_theta(Tree(leaf("x")), Tree(leaf("x")))


def test_updates_collapse_to_single_root_update():
    t1 = prog("PAR f := 1 f := 2 ENDPAR")
    t2 = prog("PAR f := 1 f := 3 ENDPAR")
    um = tree_diff_updates(t1, t2)
    assert len(um) >= 1
    for e in um:
        assert e.location == Location(PGM)
        assert e.op in ("subst_at", "extend_at")

    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    s = State(sig, {Location(PGM): TreeVal(t1)})
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == frozenset({Update(Location(PGM), TreeVal(t2))})


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
    s = State(sig, {Location(PGM): TreeVal(t1)})
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == frozenset({Update(Location(PGM), TreeVal(t2))})


def test_updates_reach_target_on_random_pairs():
    rng = random.Random(71)
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    for _ in range(100):
        t1, t2 = random_program_pair(rng)
        um = tree_diff_updates(t1, t2)
        s = State(sig, {Location(PGM): TreeVal(t1)})
        us = collapse(s, um)
        assert us.consistent
        assert us.updates == frozenset({Update(Location(PGM), TreeVal(t2))})


def test_differ_updates_are_rule_updates():
    """Every differ update is one a rule `pgm <<= op(literal args)` yields."""
    rng = random.Random(72)
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    for _ in range(100):
        t1, t2 = random_program_pair(rng)
        um = tree_diff_updates(t1, t2)
        s = State(sig, {Location(PGM): TreeVal(t1)})
        rule = Par(tuple(PartialAssign(PGM, (), u.op, tuple(map(Literal, u.args))) for u in um))
        assert eval_rule(s, {}, rule) == um


def test_serialize_forms():
    t1 = prog("f := 1")
    t2 = prog("f := 2")
    assert serialize_algebra(SubtreeRef(())) == "subtree@root"
    assert serialize_algebra(SubtreeRef((1, 0))) == "subtree@1.0"
    text = serialize_algebra(tree_diff_theta(t1, t2))
    assert text.startswith("label_hedge(pgm, subtree@0, ")
    lit = serialize_algebra(TreeLiteral(t2))
    assert lit.startswith("#pgm⟨")
