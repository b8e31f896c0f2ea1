"""Term and rule syntax trees.

Terms evaluate to values; rules evaluate to update multisets.  Both are
interned forms (`trees.Interned`): a constructor returns the one live term
or rule with equal fields, so equal terms are one object, compare with `is`
and hash by identity, and a quoted term (``values.DroppedTerm``) of any
depth is hashed and compared without a walk.

Variables are explicit (`Var`), distinct from nullary function application:
a bare identifier in surface syntax becomes a `Var` only where an enclosing
FORALL/LET/IMPORT or comprehension binds it.  The evaluator binds all of
them in its environment, a LET variable to its term read in the LET's scope.

`CHILDREN` gives each term form's children; every generic walk over terms
reads it.  `subterms` is the fold and `map_term` the map, both with an
explicit stack, so terms of any depth go through them.  `free_vars` is the
fold; `encoding.beta_rule` substitutes with the map, capture-free by fresh
names.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Callable, Iterator

from .trees import Interned
from .values import Value


class Term(Interned):
    # `evaluator._compile_term` keeps (signature, closure) here, as
    # `_compile_rule` does on a rule: a term's closure depends only on the
    # term and the signature, never on where the term sits.  The slot takes
    # no part in interning or repr.
    __slots__ = ("compiled",)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Apply(Term):
    """Application of a state function symbol (possibly nullary)."""

    func: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True, eq=False, init=False)
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


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Comprehension(Term):
    """Multiset comprehension: head over all binder assignments from the
    active domain that satisfy the guard; multiplicities count assignments.
    Binders may be empty (the single empty assignment)."""

    head: Term
    binders: tuple[str, ...]
    guard: Term


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Literal(Term):
    value: Value


class Rule(Interned):
    # `evaluator._compile_rule` keeps (signature, closure) here; it takes no
    # part in interning or repr.
    __slots__ = ("compiled",)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Assign(Rule):
    func: str
    args: tuple[Term, ...]
    rhs: Term


@dataclass(frozen=True, slots=True, eq=False, init=False)
class PartialAssign(Rule):
    """f(args) <<= op(operands): contributes a shared update collapsed by
    folding `op` over the location's current value."""

    func: str
    args: tuple[Term, ...]
    op: str
    operands: tuple[Term, ...]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class If(Rule):
    cond: Term
    then_branch: Rule
    else_branch: Rule


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Par(Rule):
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Forall(Rule):
    var: str
    guard: Term
    body: Rule


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Let(Rule):
    var: str
    binding: Term
    body: Rule


@dataclass(frozen=True, slots=True, eq=False, init=False)
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
