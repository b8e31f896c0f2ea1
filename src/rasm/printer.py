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
from itertools import groupby
from typing import Iterable

from .state import Location, State
from .terms import (
    INFIX,
    P_CMP,
    P_NOT,
    P_OR,
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


# A natural or an atom in value position prints as the int or str it is.
_SCALAR_TEXT = {Natural: int.__repr__, Atom: str.__str__}


def print_value(v: Value) -> str:
    text = _SCALAR_TEXT.get(type(v))
    return text(v) if text is not None else _value_text(v, quote=False)


# -------------------------------------------------------------------- trees

def _node_text(root: Node) -> str:
    # An explicit stack of nodes still to print and text pieces still to emit,
    # so that nesting depth costs no recursion.
    out: list[str] = []
    todo: list[Node | str] = [root]
    while todo:
        n = todo.pop()
        if isinstance(n, str):
            out.append(n)
        elif n.label == XI:
            out.append("^")
        elif n.value is not None:
            out.append(n.label + "=⟨" + _value_text(n.value, quote=False) + "⟩")
        elif not n.children:
            out.append(n.label)
        else:
            out.append(n.label + "⟨")
            todo.append("⟩")
            for c in reversed(n.children[1:]):
                todo += (c, " ")
            todo.append(n.children[0])
    return "".join(out)


def print_tree(t: _TreeBase) -> str:
    return _node_text(t.root_node)


# -------------------------------------------------------------------- terms

def print_term(t: Term, bound: frozenset[str] = _EMPTY) -> str:
    return _term_text(t, bound, P_OR)


def _args_text(args: Iterable[Term], bound: frozenset[str]) -> str:
    return ", ".join(_term_text(a, bound, P_OR) for a in args)


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
        head = _term_text(t.head, inner, P_OR)
        guard = _term_text(t.guard, inner, P_OR)
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
            return "(" + _term_text(t.args[0], bound, P_OR) + ",)"
        return "(" + _args_text(t.args, bound) + ")"
    if t.op == "mset":
        if not t.args:
            return "{||}"
        return "{| " + _args_text(t.args, bound) + " |}"
    if t.op == "not" and len(t.args) == 1:
        text = "not " + _term_text(t.args[0], bound, P_CMP)
        return "(" + text + ")" if need > P_NOT else text
    fix = INFIX.get(t.op)
    if fix is not None and len(t.args) >= 2:
        prec, sym = fix
        if prec == P_CMP and len(t.args) == 2:
            a = _term_text(t.args[0], bound, P_CMP + 1)
            b = _term_text(t.args[1], bound, P_CMP + 1)
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
        return _head_text(r.func, r.args, bound) + " := " + _term_text(r.rhs, bound, P_OR)
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
        cond = _term_text(r.cond, bound, P_OR)
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
            + _term_text(r.guard, inner, P_OR)
            + " DO "
            + print_rule(r.body, inner)
            + " ENDDO"
        )
    if isinstance(r, Let):
        return (
            "LET "
            + r.var
            + " = "
            + _term_text(r.binding, bound, P_OR)
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
    return loc.symbol + "(" + ", ".join(map(print_value, loc.args)) + ")"


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


def _canonical_updates(us) -> list:
    """The update set's lines in canonical order: by `Location.key`, and
    among the updates of one location (only an inconsistent set has more
    than one) by `value_key`.  Values are keyed only for such ties."""
    ordered = sorted(us.updates, key=lambda u: u.location.key())
    if us.consistent:
        return ordered
    out = []
    for _loc, run in groupby(ordered, key=lambda u: u.location):
        run = list(run)
        out += sorted(run, key=lambda u: value_key(u.value)) if len(run) > 1 else run
    return out


def format_trace(reports) -> str:
    """One block per step: index, raised-rule hash, the update set in its
    canonical order (`_canonical_updates`), consistency flag.  Blocks are
    blank-line separated; output ends in a newline."""
    blocks = []
    digests: dict[int, str] = {}  # by identity: a pgm tree raises to one Rule object
    for i, rep in enumerate(reports, 1):
        digest = digests.get(id(rep.raised_rule))
        if digest is None:
            digest = digests[id(rep.raised_rule)] = rule_hash(rep.raised_rule)
        lines = [f"step {i}", "rule " + digest]
        for u in _canonical_updates(rep.update_set):
            lines.append("update " + print_location(u.location) + " = " + print_value(u.value))
        lines.append("consistent " + ("true" if rep.update_set.consistent else "false"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
