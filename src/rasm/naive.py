"""A deliberately naive rule evaluator, kept independent on purpose.

This is the oracle the main evaluator is checked against, so it avoids the
main code paths: comprehension enumeration recurses instead of taking a
product, update heads are checked against an explicit set of barred names
instead of through the environment, and updates accumulate in a list with a
pairwise clash scan instead of multiset grouping plus collapse.  It shares
only the value types, state reads, and the background operation table.

Let bindings enter the environment as unevaluated thunks that carry the
let's own environment, and a read of the variable evaluates the thunk.  An
eager environment would raise on bindings that are never read, which the
semantics does not; reading the term in the let's scope is what
capture-avoiding substitution of the term would give.  Only forall/import
names are barred from update-head position: a let name in head position is
a symbol, and a let that shadows a barred name leaves it barred.

Partial assignments are out of scope here; rules must stick to the plain
forms.  Fresh import atoms are numbered exactly like the main evaluator's
so update sets stay comparable.
"""

from __future__ import annotations

from typing import Mapping

from .errors import EvalError
from .evaluator import BACKGROUND_OPS
from .state import Location, State
from . import terms as T
from .terms import Rule, Term
from .updates import Update
from .values import FALSE, TRUE, UNDEF, Atom, Multiset, Value


class _Thunk:
    __slots__ = ("term", "env")

    def __init__(self, term: Term, env: dict):
        self.term = term
        self.env = env


def naive_eval_term(s: State, env: Mapping[str, Value], t: Term) -> Value:
    if isinstance(t, T.Literal):
        return t.value
    if isinstance(t, T.Var):
        if t.name not in env:
            raise EvalError("unbound-variable", f"variable {t.name!r} is not bound")
        v = env[t.name]
        if isinstance(v, _Thunk):
            return naive_eval_term(s, v.env, v.term)
        return v
    if isinstance(t, T.Apply):
        sym = s.signature.lookup(t.func)
        if sym is None:
            raise EvalError("unknown-symbol", f"no function symbol {t.func!r}")
        if sym.arity != len(t.args):
            raise EvalError("arity-mismatch", f"{t.func!r} has arity {sym.arity}")
        vals = []
        undef = False
        for a in t.args:
            v = naive_eval_term(s, env, a)
            undef = undef or v == UNDEF
            vals.append(v)
        if undef:
            return UNDEF
        return s.value_of(Location(t.func, tuple(vals)))
    if isinstance(t, T.BackgroundOp):
        op = BACKGROUND_OPS.get(t.op)
        if op is None:
            raise EvalError("unknown-operator", f"no background operation {t.op!r}")
        if op.arity is not None and op.arity != len(t.args):
            raise EvalError("arity-mismatch", f"operation {t.op!r} takes {op.arity} arguments")
        return op.fn([naive_eval_term(s, env, a) for a in t.args])
    if isinstance(t, T.Comprehension):
        items: list[Value] = []

        def enumerate_binders(k: int, env2: dict) -> None:
            if k == len(t.binders):
                g = naive_eval_term(s, env2, t.guard)
                if g == TRUE:
                    items.append(naive_eval_term(s, env2, t.head))
                elif g == FALSE or g == UNDEF:
                    return
                else:
                    raise EvalError("non-boolean-guard", f"comprehension guard evaluated to {g!r}")
                return
            for a in s.active_domain():
                enumerate_binders(k + 1, {**env2, t.binders[k]: a})

        enumerate_binders(0, dict(env))
        return Multiset(items)
    raise TypeError(f"not a term: {t!r}")


class _Fresh:
    def __init__(self, s: State):
        self.seed = s.reserve_seed
        self.k = s.reserve_cursor

    def draw(self) -> Atom:
        name = f"$r{self.seed}_{self.k}" if self.seed else f"$r{self.k}"
        self.k += 1
        return Atom(name)


def _collect_updates(
    s: State, env: dict, r: Rule, out: list[Update], fresh: _Fresh, barred: frozenset[str]
) -> None:
    if isinstance(r, T.Assign):
        if r.func in barred:
            raise EvalError("bound-variable-as-location", f"{r.func!r} is a bound variable")
        sym = s.signature.lookup(r.func)
        if sym is None:
            raise EvalError("unknown-symbol", f"no function symbol {r.func!r}")
        if sym.arity != len(r.args):
            raise EvalError("arity-mismatch", f"{r.func!r} has arity {sym.arity}")
        args = tuple(naive_eval_term(s, env, a) for a in r.args)
        out.append(Update(Location(r.func, args), naive_eval_term(s, env, r.rhs)))
    elif isinstance(r, T.If):
        g = naive_eval_term(s, env, r.cond)
        if g == TRUE:
            _collect_updates(s, env, r.then_branch, out, fresh, barred)
        elif g == FALSE:
            _collect_updates(s, env, r.else_branch, out, fresh, barred)
        elif g == UNDEF:
            raise EvalError("condition-undef", "if-guard evaluated to undef")
        else:
            raise EvalError("non-boolean-guard", f"if-guard evaluated to {g!r}")
    elif isinstance(r, T.Par):
        for sub in r.rules:
            _collect_updates(s, env, sub, out, fresh, barred)
    elif isinstance(r, T.Forall):
        for a in s.active_domain():
            g = naive_eval_term(s, {**env, r.var: a}, r.guard)
            if g == TRUE:
                _collect_updates(s, {**env, r.var: a}, r.body, out, fresh, barred | {r.var})
            elif g == FALSE or g == UNDEF:
                continue
            else:
                raise EvalError("non-boolean-guard", f"forall guard evaluated to {g!r}")
    elif isinstance(r, T.Let):
        # barred is untouched: a let does not bar its name, nor unbar the
        # forall/import name it shadows.
        inner = {**env, r.var: _Thunk(r.binding, dict(env))}
        _collect_updates(s, inner, r.body, out, fresh, barred)
    elif isinstance(r, T.Import):
        _collect_updates(s, {**env, r.var: fresh.draw()}, r.body, out, fresh, barred | {r.var})
    elif isinstance(r, T.PartialAssign):
        raise EvalError("unknown-operator", "the naive evaluator has no partial assignments")
    else:
        raise TypeError(f"not a rule: {r!r}")


def naive_eval_rule(s: State, env: Mapping[str, Value], r: Rule) -> tuple[frozenset[Update], bool]:
    """Update set and consistency per the plain semantics: one pass collects
    updates, and the set is consistent when no two of them share a location."""
    out: list[Update] = []
    _collect_updates(s, dict(env), r, out, _Fresh(s), frozenset(env))
    updates = frozenset(out)
    return updates, len(updates) == len({u.location for u in updates})
