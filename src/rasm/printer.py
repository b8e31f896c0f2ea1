"""Canonical, deterministic text for values, trees, terms, rules, states.

One renderer per syntactic category, all pure.  Atom spelling depends on
context: bare in value position (state documents, tree leaves, traces),
quoted `'a` in term position where bare identifiers mean function symbols.
A variable prints bare when an enclosing binder introduced it and as `?x`
when free, so dropped open terms stay unambiguous.

The parser and these printers are inverse on canonical forms: parsing any
printed text reproduces the AST, and printing a parsed canonical document
reproduces its text byte for byte.  Traces hang off the same machinery, so
identical runs serialize identically.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

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
)
from .trees import XI, Node, _TreeBase
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    Boolean,
    DroppedTerm,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Value,
    value_key,
)

_EMPTY: frozenset[str] = frozenset()


# ------------------------------------------------------------------- values

def _value_text(v: Value, quote: bool) -> str:
    if v == UNDEF:
        return "undef"
    if isinstance(v, Boolean):
        return "true" if v.flag else "false"
    if isinstance(v, Natural):
        return str(v.n)
    if isinstance(v, Atom):
        return ("'" + v.name) if quote else v.name
    if isinstance(v, TupleVal):
        if not v.items:
            return "()"
        if len(v.items) == 1:
            return "(" + _value_text(v.items[0], quote) + ",)"
        return "(" + ", ".join(_value_text(x, quote) for x in v.items) + ")"
    if isinstance(v, Multiset):
        if not len(v):
            return "{||}"
        return "{| " + ", ".join(_value_text(x, quote) for x in v) + " |}"
    if isinstance(v, TreeVal):
        return "#" + print_tree(v.tree)
    if isinstance(v, DroppedTerm):
        return "⟦" + print_term(v.term) + "⟧"
    raise TypeError(f"not a value: {v!r}")


def print_value(v: Value) -> str:
    return _value_text(v, quote=False)


# -------------------------------------------------------------------- trees

def _node_text(n: Node) -> str:
    if n.label == XI:
        return "^"
    if n.value is not None:
        return n.label + "=⟨" + _value_text(n.value, quote=False) + "⟩"
    if not n.children:
        return n.label
    return n.label + "⟨" + " ".join(_node_text(c) for c in n.children) + "⟩"


def print_tree(t: _TreeBase) -> str:
    return _node_text(t.root_node)


# -------------------------------------------------------------------- terms

# Precedence levels, loosest first; comparisons are non-associative.
_P_OR, _P_AND, _P_NOT, _P_CMP, _P_ADD, _P_MUL, _P_ATOM = range(7)

_INFIX = {
    "or": (_P_OR, "or"),
    "and": (_P_AND, "and"),
    "eq": (_P_CMP, "="),
    "ne": (_P_CMP, "!="),
    "lt": (_P_CMP, "<"),
    "le": (_P_CMP, "<="),
    "gt": (_P_CMP, ">"),
    "ge": (_P_CMP, ">="),
    "add": (_P_ADD, "+"),
    "sub": (_P_ADD, "-"),
    "mul": (_P_MUL, "*"),
}


def print_term(t: Term, bound: frozenset[str] = _EMPTY) -> str:
    return _term_text(t, bound, _P_OR)


def _args_text(args: Iterable[Term], bound: frozenset[str]) -> str:
    return ", ".join(_term_text(a, bound, _P_OR) for a in args)


def _term_text(t: Term, bound: frozenset[str], need: int) -> str:
    if isinstance(t, Literal):
        return _value_text(t.value, quote=True)
    if isinstance(t, Var):
        return t.name if t.name in bound else "?" + t.name
    if isinstance(t, Apply):
        if not t.args:
            return t.func
        return t.func + "(" + _args_text(t.args, bound) + ")"
    if isinstance(t, Comprehension):
        inner = bound | set(t.binders)
        head = _term_text(t.head, inner, _P_OR)
        guard = _term_text(t.guard, inner, _P_OR)
        binders = ", ".join(t.binders) + " " if t.binders else ""
        return "{| " + head + " | " + binders + ": " + guard + " |}"
    if isinstance(t, BackgroundOp):
        return _op_text(t, bound, need)
    raise TypeError(f"not a term: {t!r}")


def _op_text(t: BackgroundOp, bound: frozenset[str], need: int) -> str:
    if t.op == "tuple":
        if not t.args:
            return "()"
        if len(t.args) == 1:
            return "(" + _term_text(t.args[0], bound, _P_OR) + ",)"
        return "(" + _args_text(t.args, bound) + ")"
    if t.op == "mset":
        if not t.args:
            return "{||}"
        return "{| " + _args_text(t.args, bound) + " |}"
    if t.op == "not" and len(t.args) == 1:
        text = "not " + _term_text(t.args[0], bound, _P_CMP)
        return "(" + text + ")" if need > _P_NOT else text
    fix = _INFIX.get(t.op)
    if fix is not None and len(t.args) >= 2:
        prec, sym = fix
        if prec == _P_CMP and len(t.args) == 2:
            a = _term_text(t.args[0], bound, _P_CMP + 1)
            b = _term_text(t.args[1], bound, _P_CMP + 1)
            text = f"{a} {sym} {b}"
        else:
            # Left-associative chain; n-ary and/or flatten here.
            parts = [_term_text(t.args[0], bound, prec)]
            parts += [_term_text(a, bound, prec + 1) for a in t.args[1:]]
            text = (" " + sym + " ").join(parts)
        return "(" + text + ")" if need > prec else text
    return t.op + "(" + _args_text(t.args, bound) + ")"


# -------------------------------------------------------------------- rules

def _head_text(func: str, args: tuple[Term, ...], bound: frozenset[str]) -> str:
    if not args:
        return func
    return func + "(" + _args_text(args, bound) + ")"


def print_rule(r: Rule, bound: frozenset[str] = _EMPTY) -> str:
    if isinstance(r, Assign):
        return _head_text(r.func, r.args, bound) + " := " + _term_text(r.rhs, bound, _P_OR)
    if isinstance(r, PartialAssign):
        return (
            _head_text(r.func, r.args, bound)
            + " <<= "
            + r.op
            + "("
            + _args_text(r.operands, bound)
            + ")"
        )
    if isinstance(r, If):
        cond = _term_text(r.cond, bound, _P_OR)
        text = "IF " + cond + " THEN " + print_rule(r.then_branch, bound)
        if r.else_branch != Par(()):
            text += " ELSE " + print_rule(r.else_branch, bound)
        return text + " ENDIF"
    if isinstance(r, Par):
        if not r.rules:
            return "PAR ENDPAR"
        return "PAR " + " ".join(print_rule(x, bound) for x in r.rules) + " ENDPAR"
    if isinstance(r, Forall):
        inner = bound | {r.var}
        return (
            "FORALL "
            + r.var
            + " WITH "
            + _term_text(r.guard, inner, _P_OR)
            + " DO "
            + print_rule(r.body, inner)
            + " ENDDO"
        )
    if isinstance(r, Let):
        return (
            "LET "
            + r.var
            + " = "
            + _term_text(r.binding, bound, _P_OR)
            + " IN "
            + print_rule(r.body, bound | {r.var})
        )
    if isinstance(r, Import):
        return "IMPORT " + r.var + " DO " + print_rule(r.body, bound | {r.var})
    raise TypeError(f"not a rule: {r!r}")


# ------------------------------------------------------------------- states

def print_location(loc: Location) -> str:
    if not loc.args:
        return loc.symbol
    return loc.symbol + "(" + ", ".join(print_value(a) for a in loc.args) + ")"


def print_state(s: State) -> str:
    """State document text; `init pgm = #...` spells the program tree exactly."""
    lines = []
    if s.universe:
        lines.append("universe " + " ".join(print_value(v) for v in sorted(s.universe, key=value_key)))
    for sym in sorted(s.signature, key=lambda f: f.name):
        decl = f"function {sym.name}/{sym.arity}"
        if sym.kind != "dynamic":
            decl += " " + sym.kind
        lines.append(decl)
    for loc in s.locations():
        lines.append("init " + print_location(loc) + " = " + print_value(s.interp[loc]))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- traces

def rule_hash(r: Rule) -> str:
    return hashlib.sha256(print_rule(r).encode("utf-8")).hexdigest()[:16]


def format_trace(reports) -> str:
    """One block per step: index, raised-rule hash, sorted update listing,
    consistency flag.  Blocks are blank-line separated; output ends in a
    newline."""
    blocks = []
    for i, rep in enumerate(reports, 1):
        lines = [f"step {i}", "rule " + rule_hash(rep.raised_rule)]
        for u in rep.update_set.sorted():
            lines.append("update " + print_location(u.location) + " = " + print_value(u.value))
        lines.append("consistent " + ("true" if rep.consistent else "false"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
