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
Code Generation", 1987), against the signature they run with: symbol, arity
and operator lookups and the narrowing reads are done then.  A term or a
rule keeps its closure with that signature in its `compiled` slot, so a
term compiles once however many rules and read terms share it, and a
rewritten program compiles only the rules on the spine its raise rebuilt:
their terms come back as the same objects from the interned leaves.
Errors stay lazy: a failed lookup compiles to a closure that raises when
it runs, so an untaken branch, an unread LET binding or an empty
quantifier raises nothing, and the first error of a PAR stays the first.

Each node gets the closure of its syntactic shape.  Reads of arity 1 and 2,
equality, the binary operations on naturals and updates with one argument take
a variable or a literal operand inline, with no closure call; of an operation
on naturals, a literal natural is a constant and only the other operand's type
is tested; a FORALL tests its guard and runs its body in one loop over its
candidates.  Whether a variable holds a LET binding is tested when it is read,
so one rule object under a FORALL and under a LET of the same name keeps one
memoised closure.  Other shapes take a generic closure, and each level of a
rule still costs one frame when it runs.  Generated Python source would run
faster, but `compile()` with `exec` took 16 us for a two-line function, 182 us
for a 16-call PAR body and 713-739 us for the 16 children of a rewritten PAR
inlined (2-CPU VM, Python 3.11).  A program rewritten every step, or a check
that compiles 103 rules in 22 ms, pays that on each compile; a specialised
closure costs what a generic one does to build.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping

from .errors import EvalError, TreeAlgebraError
from .state import Location, Signature, State
from . import terms as T
from .trees import Context, Tree, concat_hedges, context_at, label_hedge, subst_cc, subst_ct, subtree
from .updates import COLLAPSE_OPS, SharedUpdate, Update, UpdateMultiset, _as_path, _tree_arg
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
    value_key,
)


@dataclass(slots=True)
class _LetBinding:  # a LET variable's compiled term and the environment it is read in
    term: TermFn
    env: Env


Env = Mapping[str, "Value | _LetBinding"]
TermFn = Callable[[State, Env], Value]
RuleFn = Callable[[State, Env, list, list[int]], None]  # appends updates, advances the reserve cursor


def _unbound(name: str) -> _LetBinding:
    # What a read of `name` finds where nothing binds it: a binding that
    # raises, so that one type test serves a LET variable and a missing one.
    def fail(s, env):
        raise EvalError("unbound-variable", f"variable {name!r} is not bound")
    return _LetBinding(fail, {})


# ------------------------------------------------------- background algebra

def _logic(args: list[Value], zero: Boolean) -> Value:
    # Three-valued conjunction/disjunction: `zero` short-circuits, undef
    # wins over the neutral value, anything non-truth poisons to undef.
    saw_undef = False
    for a in args:
        if a is zero:
            return zero
        if not isinstance(a, Boolean):
            saw_undef = True
    return UNDEF if saw_undef else Boolean(zero is FALSE)


def _op_not(args: list[Value]) -> Value:
    (a,) = args
    if isinstance(a, Boolean):
        return Boolean(a is FALSE)
    return UNDEF


def _op_proj(args: list[Value]) -> Value:
    t, i = args
    if isinstance(t, TupleVal) and isinstance(i, Natural) and 1 <= i.n <= len(t.items):
        return t.items[i.n - 1]
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
    raw: Callable[[Value, Value], object] | None = None  # a binary operation's operator, before `wrap`
    wrap: Callable[[object], Value] | None = None
    naturals: bool = False  # `raw` takes two naturals only; any other operand gives undef


def _binary(raw: Callable, wrap: Callable, naturals: bool) -> _BgOp:
    # The compiled closures call `raw` and `wrap` themselves; `fn` is built
    # from the same two for the oracle and the table's other callers.
    def fn(args):
        a, b = args
        if naturals and (type(a) is not Natural or type(b) is not Natural):
            return UNDEF
        return wrap(raw(a, b))
    return _BgOp(2, fn, True, raw, wrap, naturals)


def _tree_op(fn: Callable, *decoders: Callable[[Value], object]) -> _BgOp:
    """A `trees` operation over its arguments, each decoded by its decoder
    into a tree or a context (`_tree_arg`), a path (`_as_path`), a label
    (an atom) or a hedge (a tuple of tree values).  A tree or context it
    returns is a tree value, a hedge a tuple of them; an argument that does
    not decode, or a `TreeAlgebraError`, gives undef, so the operation is
    total."""
    def run(args: list[Value]) -> Value:
        decoded = [decode(a) for decode, a in zip(decoders, args)]
        if None in decoded:
            return UNDEF
        try:
            out = fn(*decoded)
        except TreeAlgebraError:
            return UNDEF
        return TupleVal(tuple(map(TreeVal, out))) if type(out) is tuple else TreeVal(out)
    return _BgOp(len(decoders), run)


def _hedge_arg(v: Value) -> tuple[Tree, ...] | None:
    trees = tuple(map(_tree_arg, v.items)) if isinstance(v, TupleVal) else (None,)
    return None if None in trees else trees


def _label_arg(v: Value) -> str | None:
    return v.name if isinstance(v, Atom) else None


_context_arg = partial(_tree_arg, kind=Context)
_truth = (FALSE, TRUE).__getitem__  # a bool as a truth value, with no Python frame
_natural = partial(int.__new__, Natural)  # raw results on naturals are >= 0: no range check
# Update entries and locations from one tuple each, with no Python-level `__new__`.
_update_entry, _shared_entry, _location = (partial(tuple.__new__, c) for c in (Update, SharedUpdate, Location))


BACKGROUND_OPS: dict[str, _BgOp] = {
    "tuple": _BgOp(None, lambda args: TupleVal(tuple(args))),
    "mset": _BgOp(None, lambda args: Multiset(args)),
    "and": _BgOp(None, lambda args: _logic(args, FALSE)),
    "or": _BgOp(None, lambda args: _logic(args, TRUE)),
    "not": _BgOp(1, _op_not),
    "eq": _binary(operator.eq, _truth, False),
    "ne": _binary(operator.ne, _truth, False),
    "lt": _binary(operator.lt, _truth, True),
    "le": _binary(operator.le, _truth, True),
    "gt": _binary(operator.gt, _truth, True),
    "ge": _binary(operator.ge, _truth, True),
    "add": _binary(operator.add, _natural, True),
    "mul": _binary(operator.mul, _natural, True),
    "sub": _binary(lambda a, b: a - b if a > b else 0, _natural, True),  # monus, naturals only
    "proj": _BgOp(2, _op_proj),
    "subtree_at": _tree_op(subtree, _tree_arg, _as_path),
    "context_at": _tree_op(context_at, _tree_arg, _as_path, _as_path),
    "subst_cc": _tree_op(subst_cc, _context_arg, _context_arg),
    "subst_ct": _tree_op(subst_ct, _context_arg, _tree_arg),
    "label_hedge": _tree_op(label_hedge, _label_arg, _hedge_arg),
    "concat_hedges": _tree_op(concat_hedges, _hedge_arg, _hedge_arg),
    # Collapse operators double as term operators: first argument plays the
    # role of the current value.
    "munion": _BgOp(None, _collapse_as_term_op("munion"), total=False),
    "right_extend": _BgOp(None, _collapse_as_term_op("right_extend"), total=False),
    "extend_at": _BgOp(None, _collapse_as_term_op("extend_at"), total=False),
    "subst_at": _BgOp(None, _collapse_as_term_op("subst_at"), total=False),
    "subst_tt": _BgOp(None, _collapse_as_term_op("subst_tt"), total=False),
}


# ------------------------------------------------------------------- terms

def eval_term(s: State, env: Env, t: T.Term) -> Value:
    return _compile_term(t, s.signature)(s, env)


def _raiser(code: str, message: str, head: str | None = None) -> Callable:
    # Raises a failed lookup's error when run; an update's head is checked first.
    def fail(s, env, *_):
        if head is not None:
            _location_symbol(env, head)
        raise EvalError(code, message)
    return fail


def _operand(t: T.Term, sig: Signature) -> tuple:
    """`t` as (variable name, what an unbound read of it finds, closure,
    literal value), with the fields of `t`'s shape set and the others None.
    A specialised closure reads the operand `x` in place, as

        x = env.get(xn, xm) if xn else xf(s, env) if xf else xc
        if type(x) is _LetBinding:
            x = x.term(s, x.env)

    so a variable or a literal costs no call."""
    if isinstance(t, T.Var):
        return t.name, _unbound(t.name), None, None
    if isinstance(t, T.Literal):
        return None, None, None, t.value
    return None, None, _compile_term(t, sig), None


def _compile_term(t: T.Term, sig: Signature) -> TermFn:
    """`t`'s closure, kept on `t` with `sig` as `_compile_rule` keeps a
    rule's: a term shared by several rules or read terms compiles once."""
    memo = getattr(t, "compiled", None)
    if memo is not None and (memo[0] is sig or memo[0] == sig):
        return memo[1]
    if isinstance(t, T.Literal):
        value = t.value
        fn = lambda s, env: value
    elif isinstance(t, T.Var):
        name, miss = t.name, _unbound(t.name)
        def fn(s, env):
            v = env.get(name, miss)
            return v.term(s, v.env) if type(v) is _LetBinding else v
    elif isinstance(t, T.Apply):
        func, sym, n = t.func, sig.lookup(t.func), len(t.args)
        if sym is None:
            fn = _raiser("unknown-symbol", f"no function symbol {func!r} in the signature")
        elif sym.arity != n:
            fn = _raiser("arity-mismatch", f"{func!r} has arity {sym.arity}, applied to {n} arguments")
        elif not n:
            loc = (func, ())
            fn = lambda s, env: s.interp.get(loc, UNDEF)
        elif n > 2:
            args = [_compile_term(a, sig) for a in t.args]
            def fn(s, env):
                vs = tuple([a(s, env) for a in args])
                return UNDEF if UNDEF in vs else s.interp.get((func, vs), UNDEF)  # strict
        # Reads are strict: every argument is evaluated, then any undef one makes the read undef.
        elif n == 1:
            xn, xm, xf, xc = _operand(t.args[0], sig)
            def fn(s, env):
                x = env.get(xn, xm) if xn else xf(s, env) if xf else xc
                if type(x) is _LetBinding:
                    x = x.term(s, x.env)
                return UNDEF if x is UNDEF else s.interp.get((func, (x,)), UNDEF)
        else:
            (xn, xm, xf, xc), (yn, ym, yf, yc) = _operand(t.args[0], sig), _operand(t.args[1], sig)
            def fn(s, env):
                x = env.get(xn, xm) if xn else xf(s, env) if xf else xc
                if type(x) is _LetBinding:
                    x = x.term(s, x.env)
                y = env.get(yn, ym) if yn else yf(s, env) if yf else yc
                if type(y) is _LetBinding:
                    y = y.term(s, y.env)
                return UNDEF if x is UNDEF or y is UNDEF else s.interp.get((func, (x, y)), UNDEF)
    elif isinstance(t, T.BackgroundOp):
        op = BACKGROUND_OPS.get(t.op)
        if op is None:
            fn = _raiser("unknown-operator", f"no background operation {t.op!r}")
        elif op.arity is not None and op.arity != len(t.args):
            fn = _raiser("arity-mismatch", f"operation {t.op!r} takes {op.arity} arguments")
        elif op.raw is not None:
            fn = _compile_binary(op, _operand(t.args[0], sig), _operand(t.args[1], sig))
        else:
            run, args = op.fn, [_compile_term(a, sig) for a in t.args]
            fn = lambda s, env: run([a(s, env) for a in args])  # every operand, left to right
    elif isinstance(t, T.Comprehension):
        head, each = _compile_term(t.head, sig), _satisfying(sig, t.binders, t.guard)
        fn = lambda s, env: Multiset(head(s, inner) for inner in each(s, env))
    else:
        raise TypeError(f"not a term: {t!r}")
    object.__setattr__(t, "compiled", (sig, fn))
    return fn


def _compile_binary(op: _BgOp, left: tuple, right: tuple) -> TermFn:
    """A binary operation on two `_operand`s.  Both are evaluated, left
    first; of a natural operation, a literal natural is not tested."""
    raw, wrap = op.raw, op.wrap
    (xn, xm, xf, xc), (yn, ym, yf, yc) = left, right
    if op.naturals and type(yc) is Natural:
        def nat_const(s, env):
            x = env.get(xn, xm) if xn else xf(s, env) if xf else xc
            if type(x) is _LetBinding:
                x = x.term(s, x.env)
            return wrap(raw(x, yc)) if type(x) is Natural else UNDEF
        return nat_const
    if op.naturals and type(xc) is Natural:
        def const_nat(s, env):
            y = env.get(yn, ym) if yn else yf(s, env) if yf else yc
            if type(y) is _LetBinding:
                y = y.term(s, y.env)
            return wrap(raw(xc, y)) if type(y) is Natural else UNDEF
        return const_nat
    naturals = op.naturals
    def binary(s, env):
        x = env.get(xn, xm) if xn else xf(s, env) if xf else xc
        if type(x) is _LetBinding:
            x = x.term(s, x.env)
        y = env.get(yn, ym) if yn else yf(s, env) if yf else yc
        if type(y) is _LetBinding:
            y = y.term(s, y.env)
        if naturals and (type(x) is not Natural or type(y) is not Natural):
            return UNDEF
        return wrap(raw(x, y))
    return binary


# ------------------------------------------------------------- quantifiers

def _satisfying(sig: Signature, binders: tuple[str, ...], guard: T.Term) -> Callable:
    """Enumerates `env` extended by each assignment of `binders` that makes
    a comprehension's `guard` true, in canonical order, the first binder
    outermost, over `_candidates`.  One dict is rebound for each: use it
    before the next."""
    test, plan = _compile_term(guard, sig), _narrowing(sig, binders, guard)

    def accepts(s: State, env: Env) -> bool:
        g = test(s, env)
        if g is TRUE:
            return True
        if g is FALSE or g is UNDEF:
            return False
        raise EvalError("non-boolean-guard", f"comprehension guard evaluated to {g!r}")

    def each(s: State, env: Env) -> Iterator[dict]:
        narrowed, inner = _narrowed(plan, env), dict(env)
        if not binders and accepts(s, inner):
            yield inner
        stack = [iter(_candidates(s, inner, binders, 0, narrowed))] if binders else []
        while stack:
            for v in stack[-1]:
                inner[binders[len(stack) - 1]] = v
                if len(stack) < len(binders):
                    stack.append(iter(_candidates(s, inner, binders, len(stack), narrowed)))
                    break
                if accepts(s, inner):
                    yield inner
            else:  # this binder's candidates are used up
                stack.pop()
    return each


def _narrowed(plan: tuple[list, frozenset] | None, env: Env) -> list | None:
    """`plan`'s reads per binder, when the guard's other variables all hold
    values in `env`; else None."""
    if plan is None or not all(isinstance(env.get(n), Value) for n in plan[1]):
        return None
    return plan[0]


def _candidates(s: State, env: dict, binders: tuple[str, ...], k: int, narrowed: list | None) -> Iterable[Value]:
    """The values binder `k` runs over: the active domain, or the stored
    arguments of the reads that narrow it, in canonical order."""
    if not narrowed or not narrowed[k]:
        return s.active_domain()
    found = set.intersection(*(_read_arguments(s, env, f, binders[k:]) for f in narrowed[k]))
    return sorted(found, key=value_key)


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
    _compile_rule(r, s.signature)(s, env, out, cursor)
    return UpdateMultiset(out), cursor[0]


def _compile_rule(r: T.Rule, sig: Signature) -> RuleFn:
    """`r`'s closure, kept on `r` with `sig`: it is compiled again only for
    another signature.  The check sits here, not in a wrapper, so nesting
    costs one frame per level."""
    memo = getattr(r, "compiled", None)
    if memo is not None and (memo[0] is sig or memo[0] == sig):
        return memo[1]
    if isinstance(r, (T.Assign, T.PartialAssign)):
        fn = _update(r, sig)
    elif isinstance(r, T.If):
        cond = _compile_term(r.cond, sig)
        then_, else_ = _compile_rule(r.then_branch, sig), _compile_rule(r.else_branch, sig)
        def fn(s, env, out, cursor):
            g = cond(s, env)
            if g is TRUE:
                then_(s, env, out, cursor)
            elif g is FALSE:
                else_(s, env, out, cursor)
            elif g is UNDEF:
                raise EvalError("condition-undef", "if-guard evaluated to undef")
            else:
                raise EvalError("non-boolean-guard", f"if-guard evaluated to {g!r}")
    elif isinstance(r, T.Par):
        rules = [_compile_rule(sub, sig) for sub in r.rules]
        def fn(s, env, out, cursor):
            for run in rules:
                run(s, env, out, cursor)
    elif isinstance(r, T.Forall):
        var, binders = r.var, (r.var,)
        test, body, plan = _compile_term(r.guard, sig), _compile_rule(r.body, sig), _narrowing(sig, binders, r.guard)
        def fn(s, env, out, cursor):
            inner = dict(env)
            for v in _candidates(s, inner, binders, 0, _narrowed(plan, env)):
                inner[var] = v
                g = test(s, inner)
                if g is TRUE:
                    body(s, inner, out, cursor)
                elif g is not FALSE and g is not UNDEF:
                    raise EvalError("non-boolean-guard", f"forall guard evaluated to {g!r}")
    elif isinstance(r, (T.Let, T.Import)):
        var, body = r.var, _compile_rule(r.body, sig)
        binding = _compile_term(r.binding, sig) if isinstance(r, T.Let) else None
        def fn(s, env, out, cursor):
            inner = dict(env)
            if binding is not None:
                inner[var] = _LetBinding(binding, env)
            else:  # IMPORT draws the next reserve atom
                inner[var], cursor[0] = s.reserve_atom(cursor[0] - s.reserve_cursor), cursor[0] + 1
            body(s, inner, out, cursor)
    else:
        raise TypeError(f"not a rule: {r!r}")
    object.__setattr__(r, "compiled", (sig, fn))
    return fn


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
    if isinstance(r, T.Assign) and n == 1:
        (xn, xm, xf, xc), rhs = _operand(r.args[0], sig), _compile_term(r.rhs, sig)
        def assign1(s, env, out, cursor):
            if func in env:
                _location_symbol(env, func)
            x = env.get(xn, xm) if xn else xf(s, env) if xf else xc
            if type(x) is _LetBinding:
                x = x.term(s, x.env)
            out.append(_update_entry((_location((func, (x,))), rhs(s, env))))
        return assign1
    args, loc = [_compile_term(a, sig) for a in r.args], None if r.args else Location(func)
    if isinstance(r, T.Assign):
        rhs = _compile_term(r.rhs, sig)
        def assign(s, env, out, cursor):
            if func in env:
                _location_symbol(env, func)
            at = _location((func, tuple([a(s, env) for a in args]))) if args else loc
            out.append(_update_entry((at, rhs(s, env))))
        return assign
    op, operands, need = r.op, [_compile_term(a, sig) for a in r.operands], COLLAPSE_OPS[r.op].min_args
    def shared(s, env, out, cursor):
        if func in env:
            _location_symbol(env, func)
        at = _location((func, tuple([a(s, env) for a in args]))) if args else loc
        vals = tuple([a(s, env) for a in operands])
        if len(vals) < need:
            raise EvalError("arity-mismatch", f"operator {op!r} needs {need}+ operands")
        out.append(_shared_entry((at, op, vals)))
    return shared


def _location_symbol(env: Env, func: str) -> None:
    # A LET does not bar its name; look through it to the binding it shadows.
    bound = env.get(func)
    while isinstance(bound, _LetBinding):
        bound = bound.env.get(func)
    if bound is not None:
        raise EvalError("bound-variable-as-location", f"{func!r} is a bound variable, not a location symbol")
