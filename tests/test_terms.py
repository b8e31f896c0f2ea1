"""Term ASTs: free variables and the do-nothing rule."""

from rasm.terms import (
    SKIP,
    BackgroundOp,
    Comprehension,
    Literal,
    Par,
    Var,
    free_vars,
)
from rasm.values import Natural


def test_free_vars_respect_binders():
    t = Comprehension(Var("x"), ("x",), BackgroundOp("eq", (Var("y"), Literal(Natural(0)))))
    assert free_vars(t) == frozenset({"y"})
    nested = Comprehension(t, ("y",), BackgroundOp("eq", (Var("x"), Var("z"))))
    assert free_vars(nested) == frozenset({"x", "z"})


def test_skip_is_empty_par():
    assert SKIP == Par(())
