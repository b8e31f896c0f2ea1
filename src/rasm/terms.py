"""Term and rule syntax trees.

Terms evaluate to values; rules evaluate to update multisets.  Both are frozen
dataclasses, so quoted terms (``values.DroppedTerm``) are hashable and
comparable for free.

Variables are explicit (`Var`), distinct from nullary function application:
a bare identifier in surface syntax becomes a `Var` only where an enclosing
FORALL/LET/IMPORT or comprehension binds it.  LET evaluation substitutes the
binding term for the variable (capture-avoiding), it does not extend the
environment; this keeps dropped let-bodies syntactically faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .values import Value


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Apply(Term):
    """Application of a state function symbol (possibly nullary)."""

    func: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class BackgroundOp(Term):
    """Application of a fixed background operation (logic, arithmetic,
    tuples, multisets, tree surgery)."""

    op: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Comprehension(Term):
    """Multiset comprehension: head over all binder assignments from the
    active domain that satisfy the guard; multiplicities count assignments.
    Binders may be empty (the single empty assignment)."""

    head: Term
    binders: tuple[str, ...]
    guard: Term


@dataclass(frozen=True, slots=True)
class Literal(Term):
    value: Value


class Rule:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Assign(Rule):
    func: str
    args: tuple[Term, ...]
    rhs: Term


@dataclass(frozen=True, slots=True)
class PartialAssign(Rule):
    """f(args) <<= op(operands): contributes a shared update collapsed by
    folding `op` over the location's current value."""

    func: str
    args: tuple[Term, ...]
    op: str
    operands: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class If(Rule):
    cond: Term
    then_branch: Rule
    else_branch: Rule


@dataclass(frozen=True, slots=True)
class Par(Rule):
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True, slots=True)
class Forall(Rule):
    var: str
    guard: Term
    body: Rule


@dataclass(frozen=True, slots=True)
class Let(Rule):
    var: str
    binding: Term
    body: Rule


@dataclass(frozen=True, slots=True)
class Import(Rule):
    var: str
    body: Rule


SKIP = Par(())  # the do-nothing rule


# ------------------------------------------------------------ free variables

def free_vars(x: Term | Rule) -> frozenset[str]:
    if isinstance(x, Var):
        return frozenset((x.name,))
    if isinstance(x, Literal):
        return frozenset()
    if isinstance(x, (Apply, BackgroundOp)):
        out: frozenset[str] = frozenset()
        for a in x.args:
            out |= free_vars(a)
        return out
    if isinstance(x, Comprehension):
        return (free_vars(x.head) | free_vars(x.guard)) - frozenset(x.binders)
    if isinstance(x, Assign):
        out = free_vars(x.rhs)
        for a in x.args:
            out |= free_vars(a)
        return out
    if isinstance(x, PartialAssign):
        out = frozenset()
        for a in x.args + x.operands:
            out |= free_vars(a)
        return out
    if isinstance(x, If):
        return free_vars(x.cond) | free_vars(x.then_branch) | free_vars(x.else_branch)
    if isinstance(x, Par):
        out = frozenset()
        for r in x.rules:
            out |= free_vars(r)
        return out
    if isinstance(x, Forall):
        return (free_vars(x.guard) | free_vars(x.body)) - frozenset((x.var,))
    if isinstance(x, Let):
        return free_vars(x.binding) | (free_vars(x.body) - frozenset((x.var,)))
    if isinstance(x, Import):
        return free_vars(x.body) - frozenset((x.var,))
    raise TypeError(f"not a term or rule: {x!r}")


def _fresh(base: str, avoid: frozenset[str]) -> str:
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def subst_term(t: Term, mapping: dict[str, Term]) -> Term:
    """Substitute terms for free variables, renaming binders that would
    capture a free variable of a replacement."""
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Literal):
        return t
    if isinstance(t, Apply):
        return Apply(t.func, tuple(subst_term(a, mapping) for a in t.args))
    if isinstance(t, BackgroundOp):
        return BackgroundOp(t.op, tuple(subst_term(a, mapping) for a in t.args))
    if isinstance(t, Comprehension):
        inner = {k: v for k, v in mapping.items() if k not in t.binders}
        binders, head, guard = t.binders, t.head, t.guard
        clash = _capture_clash(binders, inner)
        if clash:
            ren = _renaming(binders, inner, free_vars(head) | free_vars(guard))
            binders = tuple(ren.get(b, b) for b in binders)
            head = subst_term(head, {k: Var(v) for k, v in ren.items()})
            guard = subst_term(guard, {k: Var(v) for k, v in ren.items()})
        return Comprehension(subst_term(head, inner), binders, subst_term(guard, inner))
    raise TypeError(f"not a term: {t!r}")


def _capture_clash(binders, mapping) -> bool:
    if not mapping:
        return False
    incoming: frozenset[str] = frozenset()
    for v in mapping.values():
        incoming |= free_vars(v)
    return any(b in incoming for b in binders)


def _renaming(binders, mapping, body_free) -> dict[str, str]:
    incoming: frozenset[str] = frozenset()
    for v in mapping.values():
        incoming |= free_vars(v)
    avoid = incoming | body_free | frozenset(mapping)
    out = {}
    for b in binders:
        if b in incoming:
            nb = _fresh(b, avoid)
            avoid |= {nb}
            out[b] = nb
    return out


def subst_rule(r: Rule, mapping: dict[str, Term]) -> Rule:
    """Substitute terms for free variables throughout a rule."""
    if not mapping:
        return r
    if isinstance(r, Assign):
        return Assign(r.func, tuple(subst_term(a, mapping) for a in r.args), subst_term(r.rhs, mapping))
    if isinstance(r, PartialAssign):
        return PartialAssign(
            r.func,
            tuple(subst_term(a, mapping) for a in r.args),
            r.op,
            tuple(subst_term(a, mapping) for a in r.operands),
        )
    if isinstance(r, If):
        return If(
            subst_term(r.cond, mapping),
            subst_rule(r.then_branch, mapping),
            subst_rule(r.else_branch, mapping),
        )
    if isinstance(r, Par):
        return Par(tuple(subst_rule(x, mapping) for x in r.rules))
    if isinstance(r, (Forall, Let, Import)):
        return _subst_binder(r, mapping)
    raise TypeError(f"not a rule: {r!r}")


def _subst_binder(r: Forall | Let | Import, mapping: dict[str, Term]) -> Rule:
    inner = {k: v for k, v in mapping.items() if k != r.var}
    var = r.var
    body = r.body
    guard = r.guard if isinstance(r, Forall) else None
    if _capture_clash((var,), inner):
        scope_free = free_vars(body) | (free_vars(guard) if guard is not None else frozenset())
        nv = _fresh(var, scope_free | frozenset(inner))
        ren = {var: Var(nv)}
        body = subst_rule(body, ren)
        guard = subst_term(guard, ren) if guard is not None else None
        var = nv
    if isinstance(r, Forall):
        return Forall(var, subst_term(guard, inner), subst_rule(body, inner))
    if isinstance(r, Let):
        return Let(var, subst_term(r.binding, mapping), subst_rule(body, inner))
    return Import(var, subst_rule(body, inner))
