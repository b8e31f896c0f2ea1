"""Canonical, deterministic text for values, trees, terms, rules, states.

One walk prints them all: `_text` pops pieces off an explicit stack, so
nesting depth costs no recursion.  A piece is one of three things:

- a `str`, emitted as it is;
- a bare value or tree node, in value position (state documents, tree
  leaves, traces), where an atom prints as its name;
- `(x, bound, need)`: a term, a rule or a quoted value, with the names
  bound around it and the loosest infix level that may stand bare there.
  In term position an atom prints quoted, `'a`, since bare identifiers
  mean function symbols.

The loop itself handles strings, nodes, naturals and atoms, of which most
text is made, and literals (`INLINE`); `PIECES` gives every other form its
pieces in text order.  A literal, tuple or multiset inside a term passes
its context on, a dropped term opens a fresh one, and a tree prints its
leaf values bare.  A variable prints bare when an enclosing binder
introduced it and as `?x` when free, so dropped open terms stay
unambiguous.

The parser and these printers are inverse on canonical forms: parsing any
printed text reproduces the AST, and printing a parsed canonical document
reproduces its text byte for byte.  Traces hang off the same machinery, so
identical runs serialize identically; a trace keys and spells each location
once, however many steps write it (`format_trace`).
"""

from __future__ import annotations

import hashlib
from itertools import groupby
from operator import itemgetter

from .state import Location, State
from .terms import (
    INFIX,
    P_CMP,
    P_NOT,
    P_OR,
    SKIP,
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
from .trees import XI, Node
from .values import (
    TRUE,
    Atom,
    Boolean,
    DroppedTerm,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Undef,
    Value,
    value_key,
)

_EMPTY: frozenset[str] = frozenset()


# ----------------------------------------------------------------- the walk

# The forms `_text` prints itself, with no `PIECES` row.
INLINE = (str, Node, Natural, Atom, Literal)


def _text(pieces: list) -> str:
    out: list[str] = []
    todo = pieces[::-1]
    pop, push, emit = todo.pop, todo.append, out.append
    while todo:
        x = pop()
        t = type(x)
        if t is str:
            emit(x)
        elif t is Node:
            if x.label == XI:
                emit("^")
            elif x.value is not None:
                out += (x.label, "=⟨")
                todo += ("⟩", x.value)
            elif not x.children:
                emit(x.label)
            else:
                out += (x.label, "⟨")
                push("⟩")
                for c in reversed(x.children[1:]):
                    todo += (c, " ")
                push(x.children[0])
        elif t is Natural:
            emit(int.__repr__(x))
        elif t is Atom:
            emit(x)
        elif t is tuple:
            x, bound, need = x
            t = type(x)
            if t is Literal:  # passes its context on to its value
                x = x.value
                t = type(x)
            if t is Atom:
                emit("'" + x)
            elif t is Natural:
                emit(int.__repr__(x))
            else:
                todo += reversed(PIECES[t](x, bound, need))
        else:
            todo += reversed(PIECES[t](x, None, P_OR))
    return "".join(out)


def _listed(open_: str, items, close: str, bound, sep: str = ", ") -> list:
    """`open_`, the items with `sep` between them, `close`.  Outside a term
    (`bound` None) the items are bare values, inside one they are terms."""
    out = [open_]
    for x in items:
        out += (x if bound is None else (x, bound, P_OR), sep)
    if items:
        out.pop()
    out.append(close)
    return out


def _tuple(items, bound) -> list:
    return _listed("(", items, ",)" if len(items) == 1 else ")", bound)


def _mset(items, bound) -> list:
    return _listed("{| ", items, " |}", bound) if items else ["{||}"]


def _call(func: str, args, bound) -> list:
    """A function symbol applied: bare when it takes no arguments."""
    return _listed(func + "(", args, ")", bound) if args else [func]


def _op(t: BackgroundOp, bound: frozenset[str], need: int) -> list:
    op, args = t.op, t.args
    if op == "tuple":
        return _tuple(args, bound)
    if op == "mset":
        return _mset(args, bound)
    fix = INFIX.get(op)
    if op == "not" and len(args) == 1:
        prec, parts = P_NOT, ["not ", (args[0], bound, P_CMP)]
    elif fix is not None and len(args) >= 2:
        prec, sym = fix
        if prec == P_CMP and len(args) == 2:
            parts = [(args[0], bound, P_CMP + 1), " " + sym + " ", (args[1], bound, P_CMP + 1)]
        else:
            # Left-associative chain; n-ary and/or flatten here.
            parts = [(args[0], bound, prec)]
            for a in args[1:]:
                parts += (" " + sym + " ", (a, bound, prec + 1))
    else:
        return _listed(op + "(", args, ")", bound)
    return ["(", *parts, ")"] if need > prec else parts


def _if(r: If, bound: frozenset[str], need: int) -> list:
    out = ["IF ", (r.cond, bound, P_OR), " THEN ", (r.then_branch, bound, P_OR)]
    if r.else_branch != SKIP:
        out += (" ELSE ", (r.else_branch, bound, P_OR))
    out.append(" ENDIF")
    return out


def _comprehension(t: Comprehension, bound: frozenset[str], need: int) -> list:
    inner = bound | set(t.binders)
    binders = ", ".join(t.binders) + " " if t.binders else ""
    return ["{| ", (t.head, inner, P_OR), " | " + binders + ": ", (t.guard, inner, P_OR), " |}"]


# Each form's pieces in text order, from the form, the names bound around
# it (None for a bare value) and the loosest infix level that may stand
# bare there.
PIECES = {
    Boolean: lambda v, bound, need: ["true" if v is TRUE else "false"],
    Undef: lambda v, bound, need: ["undef"],
    TupleVal: lambda v, bound, need: _tuple(v.items, bound),
    Multiset: lambda v, bound, need: _mset(v.items, bound),
    TreeVal: lambda v, bound, need: ["#", v.root_node],
    DroppedTerm: lambda v, bound, need: ["⟦", (v.term, _EMPTY, P_OR), "⟧"],
    Var: lambda t, bound, need: [t.name if t.name in bound else "?" + t.name],
    Apply: lambda t, bound, need: _call(t.func, t.args, bound),
    BackgroundOp: _op,
    Comprehension: _comprehension,
    Assign: lambda r, bound, need: [*_call(r.func, r.args, bound), " := ", (r.rhs, bound, P_OR)],
    PartialAssign: lambda r, bound, need: [
        *_call(r.func, r.args, bound), *_listed(" <<= " + r.op + "(", r.operands, ")", bound)],
    If: _if,
    Par: lambda r, bound, need: _listed("PAR ", r.rules, " ENDPAR", bound, " ") if r.rules else ["PAR ENDPAR"],
    Forall: lambda r, bound, need: ["FORALL " + r.var + " WITH ", (r.guard, bound | {r.var}, P_OR),
                                    " DO ", (r.body, bound | {r.var}, P_OR), " ENDDO"],
    Let: lambda r, bound, need: ["LET " + r.var + " = ", (r.binding, bound, P_OR), " IN ", (r.body, bound | {r.var}, P_OR)],
    Import: lambda r, bound, need: ["IMPORT " + r.var + " DO ", (r.body, bound | {r.var}, P_OR)],
}


def print_value(v: Value) -> str:
    return _text([v])


def print_tree(t: Node) -> str:
    return _text([t])


def print_term(t: Term, bound: frozenset[str] = _EMPTY) -> str:
    return _text([(t, bound, P_OR)])


def print_rule(r: Rule, bound: frozenset[str] = _EMPTY) -> str:
    return _text([(r, bound, P_OR)])


# ------------------------------------------------------------------- states

def _location(lead: str, loc: Location, tail: str) -> list:
    """The pieces of `loc` between the strings `lead` and `tail`."""
    if not loc.args:
        return [lead + loc.symbol + tail]
    return _listed(lead + loc.symbol + "(", loc.args, ")" + tail, None)


def print_state(s: State) -> str:
    """State document text, in one `_text` walk; `init pgm = #...` spells the program tree exactly."""
    pieces = _listed("universe ", sorted(s.universe, key=value_key), "\n", None, " ") if s.universe else []
    for sym in sorted(s.signature, key=lambda f: f.name):
        kind = "" if sym.kind == "dynamic" else " " + sym.kind
        pieces.append(f"function {sym.name}/{sym.arity}{kind}\n")
    for loc in s.locations():
        pieces += (*_location("init ", loc, " = "), s.interp[loc], "\n")
    return _text(pieces) or "\n"  # a document of no lines is one newline


# ------------------------------------------------------------------- traces

def rule_hash(r: Rule) -> str:
    return hashlib.sha256(print_rule(r).encode("utf-8")).hexdigest()[:16]


def format_trace(reports) -> str:
    """One block per step: index, raised-rule hash, the update lines,
    consistency flag.  Blocks are blank-line separated; output ends in a
    newline.  Lines are in canonical order: by `Location.key`, and among one
    location's updates (only an inconsistent set has several) by
    `value_key`, so values are keyed only for such ties.  A location's key
    and its spelled head, ``"\\nupdate g(5) = "``, are made once per trace;
    a step sorts its updates' indices by them and leaves values to `_text`."""
    blocks = []
    digests: dict[Rule, str] = {}
    lines: dict[Location, tuple[tuple, str]] = {}  # location -> (key, head)
    for i, rep in enumerate(reports, 1):
        digest = digests.get(rep.raised_rule)
        if digest is None:
            digest = digests[rep.raised_rule] = rule_hash(rep.raised_rule)
        us = rep.update_set
        updates = us.updates
        entries = [lines.get(loc) or lines.setdefault(loc, (loc.key(), _text(_location("\nupdate ", loc, " = "))))
                   for loc, _v in updates]
        order = sorted(range(len(updates)), key=entries.__getitem__)
        if not us.consistent:
            runs = [list(run) for _entry, run in groupby(order, key=entries.__getitem__)]
            order = [j for run in runs for j in (sorted(run, key=lambda j: value_key(updates[j].value))
                                                 if len(run) > 1 else run)]
        pieces = [None] * (2 * len(order) + 2)
        pieces[0] = f"step {i}\nrule {digest}"
        pieces[1:-1:2] = map(itemgetter(1), map(entries.__getitem__, order))
        pieces[2:-1:2] = map(itemgetter(1), map(updates.__getitem__, order))
        pieces[-1] = "\nconsistent true\n" if us.consistent else "\nconsistent false\n"
        blocks.append(_text(pieces))
    return "\n".join(blocks) or "\n"  # no copy of the whole text to end it in a newline
