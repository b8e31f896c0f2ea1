"""Term and rule evaluation over a state.

Reads of state functions are strict: any undef argument makes the whole
application undef.  Guards select exactly the value `true`; an If on an undef
guard is an error (silently taking the else branch would mask bugs), while
Forall and comprehension guards merely skip non-true elements and only reject
values that are not truth values at all.

Rule evaluation is sequential and deterministic: Par children left to right,
Forall and comprehension assignments in canonical active-domain order, IMPORT
draws numbered by a running reserve cursor.  LET substitutes its binding term
into the body; IMPORT binds a fresh reserve atom that can never become the
symbol of an update location.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import EvalError, TreeAlgebraError
from .state import Location, State
from .terms import (
    Apply,
    Assign,
    BackgroundOp,
    Comprehension,
    Forall,
    If,
    Import,
    Let,
    Literal,
    Par,
    PartialAssign,
    Rule,
    Term,
    Var,
    subst_rule,
)
from .trees import subtree
from .updates import COLLAPSE_OPS, SharedUpdate, Update, UpdateMultiset, _as_path, _tree_arg, is_collapse_op
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    Boolean,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Value,
    boolean,
)

Env = Mapping[str, Value]


# ------------------------------------------------------- background algebra

def _logic(args: list[Value], zero: Boolean) -> Value:
    # Three-valued conjunction/disjunction: `zero` short-circuits, undef
    # wins over the neutral value, anything non-truth poisons to undef.
    saw_undef = False
    for a in args:
        if a == zero:
            return zero
        if a == UNDEF:
            saw_undef = True
        elif not isinstance(a, Boolean):
            saw_undef = True
    return UNDEF if saw_undef else boolean(zero == FALSE)


def _op_not(args: list[Value]) -> Value:
    (a,) = args
    if isinstance(a, Boolean):
        return boolean(not a.flag)
    return UNDEF


def _nat_op(fn: Callable[[int, int], int]) -> Callable[[list[Value]], Value]:
    def run(args: list[Value]) -> Value:
        a, b = args
        if isinstance(a, Natural) and isinstance(b, Natural):
            return Natural(fn(a.n, b.n))
        return UNDEF

    return run


def _nat_cmp(fn: Callable[[int, int], bool]) -> Callable[[list[Value]], Value]:
    def run(args: list[Value]) -> Value:
        a, b = args
        if isinstance(a, Natural) and isinstance(b, Natural):
            return boolean(fn(a.n, b.n))
        return UNDEF

    return run


def _op_proj(args: list[Value]) -> Value:
    t, i = args
    if isinstance(t, TupleVal) and isinstance(i, Natural) and 1 <= i.n <= len(t.items):
        return t.items[i.n - 1]
    return UNDEF


def _op_subtree_at(args: list[Value]) -> Value:
    # Same tree and path decoding as the collapse side.
    t, p = _tree_arg(args[0]), _as_path(args[1])
    if t is None or p is None:
        return UNDEF
    try:
        return TreeVal(subtree(t, t.node_at_path(p)))
    except TreeAlgebraError:
        return UNDEF


def _collapse_as_term_op(name: str) -> Callable[[list[Value]], Value]:
    op = COLLAPSE_OPS[name]

    def run(args: list[Value]) -> Value:
        if len(args) < op.min_args + 1:
            raise EvalError("arity-mismatch", f"operator {name!r} needs {op.min_args + 1}+ arguments")
        return op.fold(args[0], *args[1:])

    return run


@dataclass(frozen=True, slots=True)
class _BgOp:
    arity: int | None  # None: variadic
    fn: Callable[[list[Value]], Value]


BACKGROUND_OPS: dict[str, _BgOp] = {
    "tuple": _BgOp(None, lambda args: TupleVal(tuple(args))),
    "mset": _BgOp(None, lambda args: Multiset(args)),
    "and": _BgOp(None, lambda args: _logic(args, FALSE)),
    "or": _BgOp(None, lambda args: _logic(args, TRUE)),
    "not": _BgOp(1, _op_not),
    "eq": _BgOp(2, lambda args: boolean(args[0] == args[1])),
    "ne": _BgOp(2, lambda args: boolean(args[0] != args[1])),
    "lt": _BgOp(2, _nat_cmp(lambda a, b: a < b)),
    "le": _BgOp(2, _nat_cmp(lambda a, b: a <= b)),
    "gt": _BgOp(2, _nat_cmp(lambda a, b: a > b)),
    "ge": _BgOp(2, _nat_cmp(lambda a, b: a >= b)),
    "add": _BgOp(2, _nat_op(lambda a, b: a + b)),
    "mul": _BgOp(2, _nat_op(lambda a, b: a * b)),
    "sub": _BgOp(2, _nat_op(lambda a, b: max(a - b, 0))),  # monus, naturals only
    "proj": _BgOp(2, _op_proj),
    "subtree_at": _BgOp(2, _op_subtree_at),
    # Collapse operators double as term operators: first argument plays the
    # role of the current value.
    "munion": _BgOp(None, _collapse_as_term_op("munion")),
    "right_extend": _BgOp(None, _collapse_as_term_op("right_extend")),
    "extend_at": _BgOp(None, _collapse_as_term_op("extend_at")),
    "subst_at": _BgOp(None, _collapse_as_term_op("subst_at")),
    "subst_tt": _BgOp(None, _collapse_as_term_op("subst_tt")),
}


# ------------------------------------------------------------------- terms

def eval_term(s: State, env: Env, t: Term) -> Value:
    if isinstance(t, Literal):
        return t.value
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError("unbound-variable", f"variable {t.name!r} is not bound") from None
    if isinstance(t, Apply):
        sym = s.signature.lookup(t.func)
        if sym is None:
            raise EvalError("unknown-symbol", f"no function symbol {t.func!r} in the signature")
        if sym.arity != len(t.args):
            raise EvalError(
                "arity-mismatch", f"{t.func!r} has arity {sym.arity}, applied to {len(t.args)} arguments"
            )
        args = [eval_term(s, env, a) for a in t.args]
        if any(a == UNDEF for a in args):
            return UNDEF  # strict reads
        return s.value_of(Location(t.func, tuple(args)))
    if isinstance(t, BackgroundOp):
        op = BACKGROUND_OPS.get(t.op)
        if op is None:
            raise EvalError("unknown-operator", f"no background operation {t.op!r}")
        if op.arity is not None and op.arity != len(t.args):
            raise EvalError("arity-mismatch", f"operation {t.op!r} takes {op.arity} arguments")
        return op.fn([eval_term(s, env, a) for a in t.args])
    if isinstance(t, Comprehension):
        return eval_comprehension(s, env, t)
    raise TypeError(f"not a term: {t!r}")


def eval_comprehension(s: State, env: Env, mc: Comprehension) -> Multiset:
    """Multiset of head values over all satisfying binder assignments.

    Binders range over the active domain in canonical order; an empty binder
    tuple quantifies over the single empty assignment.  Multiplicities count
    assignments, so duplicate head values accumulate.
    """
    domain = s.active_domain()
    items: list[Value] = []
    for combo in itertools.product(domain, repeat=len(mc.binders)):
        inner = dict(env)
        inner.update(zip(mc.binders, combo))
        g = eval_term(s, inner, mc.guard)
        if g == TRUE:
            items.append(eval_term(s, inner, mc.head))
        elif g == FALSE or g == UNDEF:
            continue
        else:
            raise EvalError("non-boolean-guard", f"comprehension guard evaluated to {g!r}")
    return Multiset(items)


# ------------------------------------------------------------------- rules

class _EvalCtx:
    __slots__ = ("cursor",)

    def __init__(self, cursor: int):
        self.cursor = cursor


def eval_rule(s: State, env: Env, r: Rule) -> UpdateMultiset:
    """The update multiset a rule yields in a state (before collapsing)."""
    um, _cursor = eval_rule_with_cursor(s, env, r)
    return um


def eval_rule_with_cursor(s: State, env: Env, r: Rule) -> tuple[UpdateMultiset, int]:
    """Like `eval_rule`, also reporting the reserve cursor after all draws."""
    ctx = _EvalCtx(s.reserve_cursor)
    entries = _eval(s, dict(env), r, ctx)
    return UpdateMultiset(entries), ctx.cursor


def _location_symbol(s: State, env: Env, func: str, nargs: int) -> None:
    if func in env:
        raise EvalError("bound-variable-as-location", f"{func!r} is a bound variable, not a location symbol")
    sym = s.signature.lookup(func)
    if sym is None:
        raise EvalError("unknown-symbol", f"no function symbol {func!r} in the signature")
    if sym.arity != nargs:
        raise EvalError("arity-mismatch", f"{func!r} has arity {sym.arity}, given {nargs} arguments")


def _guard_value(s: State, env: Env, t: Term, where: str) -> Value:
    g = eval_term(s, env, t)
    if g in (TRUE, FALSE, UNDEF):
        return g
    raise EvalError("non-boolean-guard", f"{where} guard evaluated to {g!r}")


def _eval(s: State, env: dict, r: Rule, ctx: _EvalCtx) -> list:
    if isinstance(r, Assign):
        _location_symbol(s, env, r.func, len(r.args))
        args = tuple(eval_term(s, env, a) for a in r.args)
        val = eval_term(s, env, r.rhs)
        return [Update(Location(r.func, args), val)]
    if isinstance(r, PartialAssign):
        _location_symbol(s, env, r.func, len(r.args))
        if not is_collapse_op(r.op):
            raise EvalError("unknown-operator", f"{r.op!r} is not a registered collapse operator")
        args = tuple(eval_term(s, env, a) for a in r.args)
        operands = tuple(eval_term(s, env, a) for a in r.operands)
        need = COLLAPSE_OPS[r.op].min_args
        if len(operands) < need:
            raise EvalError("arity-mismatch", f"operator {r.op!r} needs {need}+ operands")
        return [SharedUpdate(Location(r.func, args), r.op, operands)]
    if isinstance(r, If):
        g = eval_term(s, env, r.cond)
        if g == TRUE:
            return _eval(s, env, r.then_branch, ctx)
        if g == FALSE:
            return _eval(s, env, r.else_branch, ctx)
        if g == UNDEF:
            raise EvalError("condition-undef", "if-guard evaluated to undef")
        raise EvalError("non-boolean-guard", f"if-guard evaluated to {g!r}")
    if isinstance(r, Par):
        out: list = []
        for sub in r.rules:
            out.extend(_eval(s, env, sub, ctx))
        return out
    if isinstance(r, Forall):
        out = []
        for a in s.active_domain():
            inner = dict(env)
            inner[r.var] = a
            if _guard_value(s, inner, r.guard, "forall") == TRUE:
                out.extend(_eval(s, inner, r.body, ctx))
        return out
    if isinstance(r, Let):
        return _eval(s, env, subst_rule(r.body, {r.var: r.binding}), ctx)
    if isinstance(r, Import):
        atom = _draw_reserve(s, ctx)
        inner = dict(env)
        inner[r.var] = atom
        return _eval(s, inner, r.body, ctx)
    raise TypeError(f"not a rule: {r!r}")


def _draw_reserve(s: State, ctx: _EvalCtx) -> Atom:
    atom = s.reserve_atom(ctx.cursor - s.reserve_cursor)
    ctx.cursor += 1
    return atom
