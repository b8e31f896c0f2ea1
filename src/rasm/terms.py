"""Term and rule syntax trees.

Terms evaluate to values; rules evaluate to update multisets.  Both are frozen
dataclasses, so quoted terms (``values.DroppedTerm``) are hashable and
comparable for free.

Variables are explicit (`Var`), distinct from nullary function application:
a bare identifier in surface syntax becomes a `Var` only where an enclosing
FORALL/LET/IMPORT or comprehension binds it.  The evaluator binds all of
them in its environment, a LET variable to its term read in the LET's scope.

`CHILDREN` gives each term form's children; every generic walk over terms
reads it.  `subterms` is the fold and `map_term` the map, both with an
explicit stack, so terms of any depth go through them.  Free variables,
binder renaming and capture-avoiding substitution (for the read terms
`encoding.beta_rule` builds) are written on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Callable, Iterator

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


# Surface spelling of the infix background operations: name -> (level,
# symbol), levels loosest first.  `not` is a prefix at P_NOT; comparisons do
# not chain.  The parser and the printer both read this table.
P_OR, P_AND, P_NOT, P_CMP, P_ADD, P_MUL, P_ATOM = range(7)

INFIX = {
    "or": (P_OR, "or"),
    "and": (P_AND, "and"),
    "eq": (P_CMP, "="),
    "ne": (P_CMP, "!="),
    "lt": (P_CMP, "<"),
    "le": (P_CMP, "<="),
    "gt": (P_CMP, ">"),
    "ge": (P_CMP, ">="),
    "add": (P_ADD, "+"),
    "sub": (P_ADD, "-"),
    "mul": (P_MUL, "*"),
}


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
    # `evaluator._compile_rule` keeps (signature, closure) here; it takes no
    # part in equality, hashing or repr.
    __slots__ = ("compiled",)


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


# ------------------------------------------------------------ the one walk

# Each term form's children, in order, and the form rebuilt from new ones.
# A comprehension binds its `binders` over both; no other term binds.
CHILDREN = {
    Var: None,
    Literal: None,
    Apply: (attrgetter("args"), lambda x, new: Apply(x.func, tuple(new))),
    BackgroundOp: (attrgetter("args"), lambda x, new: BackgroundOp(x.op, tuple(new))),
    Comprehension: (attrgetter("head", "guard"), lambda x, new: Comprehension(new[0], x.binders, new[1])),
}


def subterms(t: Term) -> Iterator[tuple[Term, frozenset[str]]]:
    """The fold: every node of `t` in preorder, with the names bound around
    it.  Nothing is entered before the consumer asks for the next node."""
    todo = [(t, frozenset())]
    while todo:
        x, bound = todo.pop()
        yield x, bound
        row = CHILDREN.get(type(x))
        if row:
            if type(x) is Comprehension:
                bound = bound.union(x.binders)
            for c in reversed(row[0](x)):
                todo.append((c, bound))


def map_term(t: Term, scope: object, visit: Callable[[Term, object], tuple[Term, object]]) -> Term:
    """The map: `visit(x, scope)` gives each node's replacement `y` and the
    scope of `y`'s children, in preorder; with None as that scope, `y` is
    not entered.  A node whose children all come back unchanged is kept."""
    built, todo = [], [(t, scope, None)]
    while todo:
        x, scope, old = todo.pop()
        if old is not None:  # x's children are the last len(old) built
            new = built[len(built) - len(old) :]
            del built[len(built) - len(old) :]
            built.append(x if all(map(is_, new, old)) else CHILDREN[type(x)][1](x, new))
            continue
        x, scope = visit(x, scope)
        row = CHILDREN.get(type(x))
        if scope is None or not row:
            built.append(x)
        else:
            old = row[0](x)
            todo.append((x, None, old))
            todo += [(c, scope, None) for c in reversed(old)]
    return built[0]


def free_vars(t: Term) -> frozenset[str]:
    return frozenset(x.name for x, bound in subterms(t) if type(x) is Var and x.name not in bound)


def _fresh_binders(
    binders: tuple[str, ...], avoid: frozenset[str], free: Callable[[], frozenset[str]]
) -> tuple[tuple[str, ...], dict[str, Term] | None]:
    """`binders` with those in `avoid` renamed, and that renaming (None if
    none is).  A new name `b_i` avoids `avoid`, the binders, the body's
    free variables `free()` and the names chosen before it."""
    clash = [b for b in dict.fromkeys(binders) if b in avoid]
    if not clash:
        return binders, None
    taken, names = avoid | frozenset(binders) | free(), {}
    for b in clash:
        i = 1
        while f"{b}_{i}" in taken:
            i += 1
        names[b] = f"{b}_{i}"
        taken |= {names[b]}
    return tuple(names.get(b, b) for b in binders), {b: Var(n) for b, n in names.items()}


def rename_binders(c: Comprehension, avoid: frozenset[str]) -> Comprehension:
    """`c` with every binder in `avoid` renamed, so that a term whose free
    variables lie in `avoid` can be put under it without capture."""
    binders, renamed = _fresh_binders(c.binders, avoid, lambda: free_vars(c.head) | free_vars(c.guard))
    if renamed is None:
        return c
    return Comprehension(subst_term(c.head, renamed), binders, subst_term(c.guard, renamed))


def _substitute(x: Term, steps: tuple[dict[str, Term], ...]) -> tuple[Term, object]:
    """`subst_term`'s visit.  The scope is the substitutions still to apply,
    in turn: binder renamings, then the mapping, the one step that maps to
    terms other than variables.  A comprehension takes its binders out of
    each step and, where a step would bring in a name a binder captures,
    renames that binder by a step just before it."""
    if type(x) is Var:
        for m in steps:
            x = m.get(x.name, x)
            if type(x) is not Var:
                break
        return x, None
    if type(x) is not Comprehension:
        return x, steps
    binders, inner_steps = x.binders, []

    def free() -> frozenset[str]:  # of the head and guard, after the steps so far
        out = free_vars(x.head) | free_vars(x.guard)
        for m in inner_steps:
            hit = m.keys() & out
            out = (out - hit).union(*(free_vars(m[k]) for k in hit))
        return out

    for m in steps:
        inner = {k: v for k, v in m.items() if k not in binders}
        if inner:
            # Naming the keys only keeps a new binder off a replaced variable.
            avoid = frozenset(inner).union(*map(free_vars, inner.values()))
            binders, renamed = _fresh_binders(binders, avoid, free)
            inner_steps += [renamed, inner] if renamed else [inner]
    if binders is not x.binders:
        x = Comprehension(x.head, binders, x.guard)
    return x, tuple(inner_steps) or None


def subst_term(t: Term, mapping: dict[str, Term]) -> Term:
    """Substitute terms for free variables, renaming binders that would
    capture a free variable of a replacement."""
    return map_term(t, (mapping,), _substitute) if mapping else t
