"""Term and rule evaluation over a state, by closures compiled once.

Reads of state functions are strict: any undef argument makes the whole
application undef.  Guards select exactly the value `true`; an If on an undef
guard is an error (silently taking the else branch would mask bugs), while
Forall and comprehension guards merely skip non-true elements and only reject
values that are not truth values at all.

Rule evaluation is sequential and deterministic: Par children left to right,
Forall and comprehension assignments in canonical active-domain order, IMPORT
draws numbered by a running reserve cursor.  A binder that a strict read among
the guard's conjuncts mentions is enumerated over that read's stored
arguments only, when the guard cannot raise: at any other value the read is
undef, so the guard is false or undef and the assignment would be skipped
anyway.  LET binds its variable to the binding term together with the LET's
own environment, and each read of the variable evaluates the term there: the
term is read in the LET's scope, and never when the variable is not read.
FORALL and IMPORT bind values; an update head is a location symbol unless
its nearest binding that is not a LET comes from one of them.

Terms and rules compile to closures (Feeley & Lapalme, "Using Closures for
Code Generation", 1987), once per raised program and against the signature
they run with: symbol, arity and operator lookups and the narrowing reads
are done then.  Errors stay lazy: a failed lookup compiles to a closure that
raises when it runs, so an untaken branch, an unread LET binding or an empty
quantifier raises nothing, and the first error of a PAR stays the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .errors import EvalError, TreeAlgebraError
from .state import Location, Signature, State
from . import terms as T
from .trees import subtree
from .updates import COLLAPSE_OPS, SharedUpdate, Update, UpdateMultiset, _as_path, _tree_arg
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    Boolean,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Value,
    boolean,
    value_key,
)


@dataclass(slots=True)
class _LetBinding:  # a LET variable's compiled term and the environment it is read in
    term: TermFn
    env: Env


Env = Mapping[str, "Value | _LetBinding"]
TermFn = Callable[[State, Env], Value]
RuleFn = Callable[[State, Env, list, list[int]], None]  # appends updates, advances the reserve cursor


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


def _nat(fn: Callable[[int, int], int | bool], wrap: Callable) -> Callable[[list[Value]], Value]:
    def run(args: list[Value]) -> Value:
        a, b = args
        if isinstance(a, Natural) and isinstance(b, Natural):
            return wrap(fn(a.n, b.n))
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
        return TreeVal(subtree(t, p))
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
    total: bool = True  # never raises at its arity; `_narrowing` relies on it


BACKGROUND_OPS: dict[str, _BgOp] = {
    "tuple": _BgOp(None, lambda args: TupleVal(tuple(args))),
    "mset": _BgOp(None, lambda args: Multiset(args)),
    "and": _BgOp(None, lambda args: _logic(args, FALSE)),
    "or": _BgOp(None, lambda args: _logic(args, TRUE)),
    "not": _BgOp(1, _op_not),
    "eq": _BgOp(2, lambda args: boolean(args[0] == args[1])),
    "ne": _BgOp(2, lambda args: boolean(args[0] != args[1])),
    "lt": _BgOp(2, _nat(lambda a, b: a < b, boolean)),
    "le": _BgOp(2, _nat(lambda a, b: a <= b, boolean)),
    "gt": _BgOp(2, _nat(lambda a, b: a > b, boolean)),
    "ge": _BgOp(2, _nat(lambda a, b: a >= b, boolean)),
    "add": _BgOp(2, _nat(lambda a, b: a + b, Natural)),
    "mul": _BgOp(2, _nat(lambda a, b: a * b, Natural)),
    "sub": _BgOp(2, _nat(lambda a, b: max(a - b, 0), Natural)),  # monus, naturals only
    "proj": _BgOp(2, _op_proj),
    "subtree_at": _BgOp(2, _op_subtree_at),
    # Collapse operators double as term operators: first argument plays the
    # role of the current value.
    "munion": _BgOp(None, _collapse_as_term_op("munion"), total=False),
    "right_extend": _BgOp(None, _collapse_as_term_op("right_extend"), total=False),
    "extend_at": _BgOp(None, _collapse_as_term_op("extend_at"), total=False),
    "subst_at": _BgOp(None, _collapse_as_term_op("subst_at"), total=False),
    "subst_tt": _BgOp(None, _collapse_as_term_op("subst_tt"), total=False),
}


# ------------------------------------------------------------------- terms

_last_compiled: tuple[T.Term | T.Rule, Signature, Callable] | None = None


def _compiled(x: T.Term | T.Rule, sig: Signature) -> Callable:
    # One slot, keyed like `machine._raise`: a step re-runs the rule it ran last.
    global _last_compiled
    last = _last_compiled
    if last is None or last[0] is not x or (last[1] is not sig and last[1] != sig):
        last = _last_compiled = (x, sig, (_compile_rule if isinstance(x, T.Rule) else _compile_term)(x, sig))
    return last[2]


def eval_term(s: State, env: Env, t: T.Term) -> Value:
    return _compiled(t, s.signature)(s, env)


def eval_comprehension(s: State, env: Env, mc: T.Comprehension) -> Multiset:
    """Multiset of head values over all satisfying binder assignments.

    Binders range over the active domain in canonical order; an empty binder
    tuple quantifies over the single empty assignment.  Multiplicities count
    assignments, so duplicate head values accumulate.
    """
    return _compiled(mc, s.signature)(s, env)


def _raiser(code: str, message: str, head: str | None = None) -> Callable:
    # Raises a failed lookup's error when run; an update's head is checked first.
    def fail(s, env, *_):
        if head is not None:
            _location_symbol(env, head)
        raise EvalError(code, message)
    return fail


def _compile_term(t: T.Term, sig: Signature) -> TermFn:
    if isinstance(t, T.Literal):
        value = t.value
        return lambda s, env: value
    if isinstance(t, T.Var):
        name = t.name
        def var(s, env):
            try:
                v = env[name]
            except KeyError:
                raise EvalError("unbound-variable", f"variable {name!r} is not bound") from None
            return v.term(s, v.env) if isinstance(v, _LetBinding) else v
        return var
    if isinstance(t, T.Apply):
        func, sym, n = t.func, sig.lookup(t.func), len(t.args)
        if sym is None:
            return _raiser("unknown-symbol", f"no function symbol {func!r} in the signature")
        if sym.arity != n:
            return _raiser("arity-mismatch", f"{func!r} has arity {sym.arity}, applied to {n} arguments")
        if not n:
            loc = Location(func)
            return lambda s, env: s.interp.get(loc, UNDEF)
        args = [_compile_term(a, sig) for a in t.args]
        def read(s, env):
            vs = tuple([a(s, env) for a in args])
            return UNDEF if UNDEF in vs else s.interp.get(Location(func, vs), UNDEF)  # strict
        return read
    if isinstance(t, T.BackgroundOp):
        op = BACKGROUND_OPS.get(t.op)
        if op is None:
            return _raiser("unknown-operator", f"no background operation {t.op!r}")
        if op.arity is not None and op.arity != len(t.args):
            return _raiser("arity-mismatch", f"operation {t.op!r} takes {op.arity} arguments")
        fn, args = op.fn, [_compile_term(a, sig) for a in t.args]
        if len(args) == 2:
            a, b = args
            return lambda s, env: fn([a(s, env), b(s, env)])
        return lambda s, env: fn([a(s, env) for a in args])
    if isinstance(t, T.Comprehension):
        head, each = _compile_term(t.head, sig), _satisfying(sig, t.binders, t.guard, "comprehension")
        return lambda s, env: Multiset(head(s, inner) for inner in each(s, env))
    raise TypeError(f"not a term: {t!r}")


# ------------------------------------------------------------- quantifiers

def _satisfying(sig: Signature, binders: tuple[str, ...], guard: T.Term, where: str) -> Callable:
    """Enumerates `env` extended by each assignment of `binders` that makes
    `guard` true, in canonical order, the first binder outermost, over the
    active domain or the stored arguments of the reads `_narrowing` picks
    for a binder.  One dict is rebound for each: use it before the next."""
    test, plan = _compile_term(guard, sig), _narrowing(sig, binders, guard)

    def accepts(s: State, env: Env) -> bool:
        g = test(s, env)
        if g is TRUE or g == TRUE:
            return True
        if g == FALSE or g == UNDEF:
            return False
        raise EvalError("non-boolean-guard", f"{where} guard evaluated to {g!r}")

    def each(s: State, env: Env) -> Iterator[dict]:
        narrow = plan is not None and all(isinstance(env.get(n), Value) for n in plan[1])
        inner = dict(env)

        def candidates(k: int) -> Iterator[Value]:
            if not narrow or not plan[0][k]:
                return iter(s.active_domain())
            found = set.intersection(*(_read_arguments(s, inner, f, binders[k:]) for f in plan[0][k]))
            return iter(sorted(found, key=value_key))
        if not binders and accepts(s, inner):
            yield inner
        stack = [candidates(0)] if binders else []
        while stack:
            for v in stack[-1]:
                inner[binders[len(stack) - 1]] = v
                if len(stack) < len(binders):
                    stack.append(candidates(len(stack)))
                    break
                if accepts(s, inner):
                    yield inner
            else:  # this binder's candidates are used up
                stack.pop()
    return each


def _narrowing(sig: Signature, binders: tuple[str, ...], guard: T.Term) -> tuple[list, frozenset] | None:
    """Per binder, the reads among the guard's conjuncts that mention it and
    take only variables and literals; and the guard's other variables, all
    of which must hold values for the reads to narrow.  None when there are
    no such reads, a binder name repeats, or the guard could raise for some
    binding: through an unknown symbol or arity, an operation that is not
    total, or a comprehension."""
    if not binders or len(set(binders)) < len(binders):
        return None
    reads, outer, todo = [], set(), [(guard, True)]
    while todo:
        t, conjunct = todo.pop()
        if isinstance(t, T.Var):
            outer.add(t.name)
        elif isinstance(t, T.Apply):
            sym = sig.lookup(t.func)
            if sym is None or sym.arity != len(t.args):
                return None
            if conjunct and all(isinstance(u, (T.Var, T.Literal)) for u in t.args):
                reads.append(t)
            todo += [(u, False) for u in t.args]
        elif isinstance(t, T.BackgroundOp):
            op = BACKGROUND_OPS.get(t.op)
            if op is None or not op.total or op.arity not in (None, len(t.args)):
                return None
            todo += [(u, conjunct and t.op == "and") for u in t.args]
        elif not isinstance(t, T.Literal):
            return None
    per_binder = [[f for f in reads if T.Var(b) in f.args] for b in binders]
    return (per_binder, frozenset(outer).difference(binders)) if any(per_binder) else None


def _read_arguments(s: State, env: dict, f: T.Apply, pending: tuple[str, ...]) -> set[Value]:
    """The values `pending[0]` takes in the stored `f` locations that agree
    with `f`'s literals and with `env` on its variables not pending."""
    fixed = [(i, u.value if isinstance(u, T.Literal) else env[u.name])
             for i, u in enumerate(f.args) if isinstance(u, T.Literal) or u.name not in pending]
    at = f.args.index(T.Var(pending[0]))
    locs = s.stored(f.func, *fixed[0]) if fixed else s.stored(f.func)
    return {loc.args[at] for loc in locs if all(loc.args[i] == v for i, v in fixed)}


# ------------------------------------------------------------------- rules

def eval_rule(s: State, env: Env, r: T.Rule) -> UpdateMultiset:
    """The update multiset a rule yields in a state (before collapsing)."""
    return eval_rule_with_cursor(s, env, r)[0]


def eval_rule_with_cursor(s: State, env: Env, r: T.Rule) -> tuple[UpdateMultiset, int]:
    """Like `eval_rule`, also reporting the reserve cursor after all draws."""
    out, cursor = [], [s.reserve_cursor]
    _compiled(r, s.signature)(s, env, out, cursor)
    return UpdateMultiset(out), cursor[0]


def _compile_rule(r: T.Rule, sig: Signature) -> RuleFn:
    if isinstance(r, (T.Assign, T.PartialAssign)):
        return _update(r, sig)
    if isinstance(r, T.If):
        cond = _compile_term(r.cond, sig)
        then_, else_ = _compile_rule(r.then_branch, sig), _compile_rule(r.else_branch, sig)
        def if_(s, env, out, cursor):
            g = cond(s, env)
            if g is TRUE or g == TRUE:
                then_(s, env, out, cursor)
            elif g == FALSE:
                else_(s, env, out, cursor)
            elif g == UNDEF:
                raise EvalError("condition-undef", "if-guard evaluated to undef")
            else:
                raise EvalError("non-boolean-guard", f"if-guard evaluated to {g!r}")
        return if_
    if isinstance(r, T.Par):
        rules = [_compile_rule(sub, sig) for sub in r.rules]
        def par(s, env, out, cursor):
            for run in rules:
                run(s, env, out, cursor)
        return par
    if isinstance(r, T.Forall):
        each, body = _satisfying(sig, (r.var,), r.guard, "forall"), _compile_rule(r.body, sig)
        def forall(s, env, out, cursor):
            for inner in each(s, env):
                body(s, inner, out, cursor)
        return forall
    if isinstance(r, (T.Let, T.Import)):
        var, body = r.var, _compile_rule(r.body, sig)
        binding = _compile_term(r.binding, sig) if isinstance(r, T.Let) else None
        def bind(s, env, out, cursor):
            inner = dict(env)
            if binding is not None:
                inner[var] = _LetBinding(binding, env)
            else:  # IMPORT draws the next reserve atom
                inner[var], cursor[0] = s.reserve_atom(cursor[0] - s.reserve_cursor), cursor[0] + 1
            body(s, inner, out, cursor)
        return bind
    raise TypeError(f"not a rule: {r!r}")


def _update(r: T.Assign | T.PartialAssign, sig: Signature) -> RuleFn:
    """`r`'s ordinary or shared update.  Its head symbol is looked up in
    `sig` once, and checked against the environment's bindings on each run."""
    func, n, sym = r.func, len(r.args), sig.lookup(r.func)
    if sym is None:
        return _raiser("unknown-symbol", f"no function symbol {func!r} in the signature", func)
    if sym.arity != n:
        return _raiser("arity-mismatch", f"{func!r} has arity {sym.arity}, given {n} arguments", func)
    if isinstance(r, T.PartialAssign) and r.op not in COLLAPSE_OPS:
        return _raiser("unknown-operator", f"{r.op!r} is not a registered collapse operator", func)
    args, loc = [_compile_term(a, sig) for a in r.args], None if r.args else Location(func)
    if isinstance(r, T.Assign):
        rhs = _compile_term(r.rhs, sig)
        def assign(s, env, out, cursor):
            if func in env:
                _location_symbol(env, func)
            at = Location(func, tuple([a(s, env) for a in args])) if args else loc
            out.append(Update(at, rhs(s, env)))
        return assign
    op, operands, need = r.op, [_compile_term(a, sig) for a in r.operands], COLLAPSE_OPS[r.op].min_args
    def shared(s, env, out, cursor):
        if func in env:
            _location_symbol(env, func)
        at = Location(func, tuple([a(s, env) for a in args])) if args else loc
        vals = tuple([a(s, env) for a in operands])
        if len(vals) < need:
            raise EvalError("arity-mismatch", f"operator {op!r} needs {need}+ operands")
        out.append(SharedUpdate(at, op, vals))
    return shared


def _location_symbol(env: Env, func: str) -> None:
    # A LET does not bar its name; look through it to the binding it shadows.
    bound = env.get(func)
    while isinstance(bound, _LetBinding):
        bound = bound.env.get(func)
    if bound is not None:
        raise EvalError("bound-variable-as-location", f"{func!r} is a bound variable, not a location symbol")
