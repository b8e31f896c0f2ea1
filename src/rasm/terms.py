"""Term and rule syntax trees.

Terms evaluate to values; rules evaluate to update multisets.  Both are frozen
dataclasses, so quoted terms (``values.DroppedTerm``) are hashable and
comparable for free.

Variables are explicit (`Var`), distinct from nullary function application:
a bare identifier in surface syntax becomes a `Var` only where an enclosing
FORALL/LET/IMPORT or comprehension binds it.  The evaluator binds all of
them in its environment, a LET variable to its term read in the LET's scope;
substitution works on terms only, for the read terms `encoding.beta_rule`
builds.
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


# ------------------------------------------------------------ free variables

def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Literal):
        return frozenset()
    if isinstance(t, (Apply, BackgroundOp)):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    if isinstance(t, Comprehension):
        return (free_vars(t.head) | free_vars(t.guard)) - frozenset(t.binders)
    raise TypeError(f"not a term: {t!r}")


def _fresh(base: str, avoid: frozenset[str]) -> str:
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def rename_binders(c: Comprehension, avoid: frozenset[str]) -> Comprehension:
    """`c` with every binder in `avoid` renamed, so that a term whose free
    variables lie in `avoid` can be put under it without capture.  A new
    name avoids `avoid`, the other binders and the free variables of the
    head and the guard."""
    clash = [b for b in dict.fromkeys(c.binders) if b in avoid]
    if not clash:
        return c
    taken = avoid | frozenset(c.binders) | free_vars(c.head) | free_vars(c.guard)
    names = {}
    for b in clash:
        names[b] = _fresh(b, taken)
        taken |= {names[b]}
    renamed = {b: Var(n) for b, n in names.items()}
    binders = tuple(names.get(b, b) for b in c.binders)
    return Comprehension(subst_term(c.head, renamed), binders, subst_term(c.guard, renamed))


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
        # The keys are not binders here: naming them only keeps a renamed
        # binder off a variable that is being replaced.
        t = rename_binders(t, frozenset(inner).union(*map(free_vars, inner.values())))
        return Comprehension(subst_term(t.head, inner), t.binders, subst_term(t.guard, inner))
    raise TypeError(f"not a term: {t!r}")
