"""Term ASTs: free variables and capture-avoiding substitution."""

from rasm.terms import (
    SKIP,
    BackgroundOp,
    Comprehension,
    Literal,
    Par,
    Var,
    free_vars,
    rename_binders,
    subst_term,
)
from rasm.values import TRUE, Natural


def test_free_vars_respect_binders():
    t = Comprehension(Var("x"), ("x",), BackgroundOp("eq", (Var("y"), Literal(Natural(0)))))
    assert free_vars(t) == frozenset({"y"})
    nested = Comprehension(t, ("y",), BackgroundOp("eq", (Var("x"), Var("z"))))
    assert free_vars(nested) == frozenset({"x", "z"})


def test_subst_term_replaces_free_occurrences_only():
    t = BackgroundOp("add", (Var("x"), Comprehension(Var("x"), ("x",), Literal(TRUE))))
    out = subst_term(t, {"x": Literal(Natural(3))})
    assert out == BackgroundOp("add", (Literal(Natural(3)), Comprehension(Var("x"), ("x",), Literal(TRUE))))


def test_subst_term_avoids_capture():
    # Substituting y under a binder named x must rename the binder when the
    # replacement mentions x free.
    t = Comprehension(BackgroundOp("add", (Var("x"), Var("y"))), ("x",), Literal(TRUE))
    out = subst_term(t, {"y": Var("x")})
    assert isinstance(out, Comprehension)
    (b,) = out.binders
    assert b != "x"
    assert out.head == BackgroundOp("add", (Var(b), Var("x")))


def test_renamed_binder_avoids_the_mapping_keys():
    # x must be renamed, and not to x_1: the substitution for x_1 would then
    # replace the renamed binder's occurrences.
    t = Comprehension(BackgroundOp("add", (Var("x"), Var("y"))), ("x",), Literal(TRUE))
    out = subst_term(t, {"y": Var("x"), "x_1": Literal(Natural(0))})
    assert out == Comprehension(BackgroundOp("add", (Var("x_2"), Var("x"))), ("x_2",), Literal(TRUE))


def test_a_renamed_binder_may_take_a_name_an_outer_renaming_freed():
    # Substituting q_1 for w renames the outer binder q_1 to q_1_1, so the
    # inner binder q, which y's replacement would capture, can become q_1.
    inner = Comprehension(BackgroundOp("tuple", (Var("q_1"), Var("q"), Var("y"))), ("w", "q"), Literal(TRUE))
    out = subst_term(Comprehension(inner, ("q_1",), Var("w")), {"w": Var("q_1"), "y": Var("q")})
    head = BackgroundOp("tuple", (Var("q_1_1"), Var("q_1"), Var("q")))
    assert out == Comprehension(Comprehension(head, ("w", "q_1"), Literal(TRUE)), ("q_1_1",), Var("q_1"))


def test_rename_binders_renames_only_clashing_binders():
    t = Comprehension(BackgroundOp("tuple", (Var("a"), Var("b"))), ("a", "b"), Var("c"))
    assert rename_binders(t, frozenset({"c"})) is t
    out = rename_binders(t, frozenset({"b"}))
    assert out == Comprehension(BackgroundOp("tuple", (Var("a"), Var("b_1"))), ("a", "b_1"), Var("c"))


def test_skip_is_empty_par():
    assert SKIP == Par(())
