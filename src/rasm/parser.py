"""Surface syntax: terms, rules, values, trees, and state documents.

Rule text is keyword-bracketed (IF/THEN/ELSE/ENDIF, PAR/ENDPAR, FORALL x
WITH g DO r ENDDO, LET x = t IN r, IMPORT x DO r), assignments are
`f(args) := t` and `f(args) <<= op(...)`.  A bare identifier is a variable
when an enclosing binder introduced it, else a nullary application; `?x` is
always a variable; `'a` is an atom literal in term position, where bare
atoms would collide with symbols.  `⟦...⟧` quotes a term into a value (a
rule becomes a value only as a program tree); `#` starts a tree literal; `^`
is the context hole.

The scanner is one regular expression with a named group per token kind;
naturals are ASCII digit strings of any length.  Infix spellings and their
precedence levels come from `terms.INFIX`, the table the printer renders
with, and the functional operator names from `evaluator.BACKGROUND_OPS`.

All-literal tuple and multiset syntax folds to a literal value at parse
time, mirroring how the printers render literal values, so parse and print
are inverse on canonical forms.

State documents are line oriented: `universe`, `function name/arity`,
`init loc = value` directives, then either an explicit `init pgm = #pgm...`
or a trailing `program` section holding rule text; exactly one of the two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NoReturn, TypeVar

from . import machine
from .encoding import drop_program
from .errors import ParseError
from .evaluator import BACKGROUND_OPS
from .state import PGM, FunctionSymbol, Location, Signature, State
from . import terms as T
from .terms import INFIX, P_ATOM, P_CMP, P_NOT, P_OR, Rule, Term
from .trees import XI, Context, Node, Tree, _TreeBase
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    DroppedTerm,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Value,
)

KEYWORDS = frozenset(
    """IF THEN ELSE ENDIF PAR ENDPAR FORALL WITH DO ENDDO LET IN IMPORT
       and or not true false undef""".split()
)

# Background operations with a functional spelling `op(...)`: all of them
# except and/or/not, which are keywords with infix or prefix syntax.
FUNCTIONAL_OPS = frozenset(BACKGROUND_OPS) - KEYWORDS

_CONSTANTS = {"true": TRUE, "false": FALSE, "undef": UNDEF}

# Infix symbol -> (level, operation), inverted from the shared `INFIX` table.
_BINARY = {sym: (level, op) for op, (level, sym) in INFIX.items()}

# One named group per token kind.  `<<=` precedes `<=` and `<`; an atom or
# variable token's text excludes its sigil; naturals are ASCII digits.
_IDENT = "[A-Za-z_$][A-Za-z0-9_$]*"
_TOKEN = re.compile(
    rf"""(?P<newline>\n)
      | (?P<skip>[ \t\r]+|//[^\n]*)
      | (?P<punct><<=|:=|<=|>=|!=|\{{\||\|\}}|[(),:|=<>+\-*^\#⟨⟩⟦⟧/])
      | '(?P<atom>{_IDENT})
      | \?(?P<var>{_IDENT})
      | (?P<num>[0-9]+)
      | (?P<ident>{_IDENT})
      | (?P<dangling>['?])
      | (?P<stray>.)""",
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # ident | num | atom | var | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str, first_line: int) -> list[Token]:
    toks: list[Token] = []
    line, line_start = first_line, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            col = m.start() - line_start + 1
            if kind == "dangling":
                raise ParseError("dangling " + m.group(), line, col, ("identifier",))
            if kind == "stray":
                raise ParseError(f"stray character {m.group()!r}", line, col, ())
            toks.append(Token(kind, m.group(kind), line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.bound: list[str] = []

    def peek(self) -> Token:
        return self.toks[self.pos]  # `advance` never moves past eof

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind in ("punct", "ident") and t.text == text

    def take(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            t = self.peek()
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col, (text,))
        return self.advance()

    def fail(self, msg: str, expected: tuple[str, ...] = ()) -> NoReturn:
        t = self.peek()
        raise ParseError(msg, t.line, t.col, expected)

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail(f"expected {what}, found {t.text or 'end of input'!r}", ("identifier",))
        return self.advance().text

    def done(self) -> bool:
        return self.peek().kind == "eof"

    # ---------------------------------------------------------------- terms

    def term(self) -> Term:
        return self._climb(P_OR)

    def _climb(self, floor: int) -> Term:
        """A term whose infix operators bind at level `floor` or tighter.

        Precedence climbing over `INFIX`: `not` is a prefix at its own level,
        comparisons take one operator, every other level chains left to right.
        `top` is the level from which operators can no longer follow: the
        right operand took them all, or the comparison took its one.
        """
        if floor <= P_NOT and self.take("not"):
            t, top = T.BackgroundOp("not", (self._climb(P_NOT),)), P_NOT
        else:
            t, top = self._primary(), P_ATOM
        while (tok := self.peek()).kind in ("punct", "ident") and tok.text in _BINARY:
            level, op = _BINARY[tok.text]
            if not floor <= level < top:
                break
            self.advance()
            t = T.BackgroundOp(op, (t, self._climb(level + 1)))
            top = level if level == P_CMP else level + 1
        return t

    def _term_args(self) -> tuple[Term, ...]:
        self.expect("(")
        args: list[Term] = []
        if not self.at(")"):
            args.append(self.term())
            while self.take(","):
                args.append(self.term())
        self.expect(")")
        return tuple(args)

    def _primary(self) -> Term:
        v = self._constant()
        if v is not None:
            return T.Literal(v)
        t = self.peek()
        if t.kind == "atom":
            self.advance()
            return T.Literal(Atom(t.text))
        if t.kind == "var":
            self.advance()
            return T.Var(t.text)
        if self.at("("):
            return self._paren_term()
        if self.at("{|"):
            return self._mset_or_comprehension()
        if t.kind == "ident" and t.text not in KEYWORDS:
            name = self.advance().text
            if self.at("("):
                args = self._term_args()
                if name in FUNCTIONAL_OPS:
                    if name == "tuple":
                        return _mk_tuple(args)
                    if name == "mset":
                        return _mk_mset(args)
                    return T.BackgroundOp(name, args)
                return T.Apply(name, args)
            if name in self.bound:
                return T.Var(name)
            return T.Apply(name, ())
        self.fail(f"expected a term, found {t.text or 'end of input'!r}", ("term",))

    def _paren_term(self) -> Term:
        self.expect("(")
        if self.take(")"):
            return T.Literal(TupleVal(()))
        first = self.term()
        if self.at(")"):
            self.advance()
            return first  # grouping, not a 1-tuple
        parts = [first]
        while self.take(","):
            if self.at(")"):
                break  # trailing comma: explicit tuple, covers 1-tuples
            parts.append(self.term())
        self.expect(")")
        return _mk_tuple(tuple(parts))

    def _mset_or_comprehension(self) -> Term:
        self.expect("{|")
        if self.take("|}"):
            return T.Literal(Multiset(()))
        head = self.term()
        if self.at("|"):
            self.advance()
            binders: list[str] = []
            if not self.at(":"):
                binders.append(self.ident("a binder variable"))
                while self.take(","):
                    binders.append(self.ident("a binder variable"))
            self.expect(":")
            # The head is parsed before its binders are known, so binder
            # names in it surface as nullary applications; promote them.
            self.bound.extend(binders)
            try:
                guard = self.term()
            finally:
                del self.bound[len(self.bound) - len(binders) :]
            self.expect("|}")
            return T.Comprehension(T.map_term(head, frozenset(binders), _promote), tuple(binders), guard)
        parts = [head]
        while self.take(","):
            parts.append(self.term())
        self.expect("|}")
        return _mk_mset(tuple(parts))

    def _constant(self) -> Value | None:
        """The natural, boolean, undef, tree or quoted term that comes next,
        spelled alike in term and value position; None if none does."""
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Natural(int(t.text))
        if t.kind == "ident" and t.text in _CONSTANTS:
            self.advance()
            return _CONSTANTS[t.text]
        if self.take("#"):
            return TreeVal(self._tree())
        if not self.take("⟦"):
            return None
        saved, self.bound = self.bound, []
        try:
            quoted = self.term()
        finally:
            self.bound = saved
        self.expect("⟧")
        return DroppedTerm(quoted)

    # ---------------------------------------------------------------- trees

    def _tree(self) -> _TreeBase:
        n = self._tree_node()
        if n.holes == 0:
            return Tree(n)
        if n.holes == 1:
            return Context(n)
        self.fail("a tree literal may contain at most one hole")

    def _tree_node(self) -> Node:
        """One tree node, its open ancestors kept on a stack, not in frames."""
        open_nodes: list[tuple[str, list[Node]]] = []  # label, children so far
        while True:
            if open_nodes and self.take("⟩"):
                label, children = open_nodes.pop()
                n = Node(label, tuple(children))
            elif self.take("^"):
                n = Node(XI)
            else:
                t = self.peek()
                if t.kind != "ident":
                    self.fail(f"expected a node label, found {t.text or 'end of input'!r}", ("label",))
                label = self.advance().text
                if self.take("⟨"):
                    open_nodes.append((label, []))
                    continue
                v = None
                if self.take("="):
                    self.expect("⟨")
                    v = self.value()
                    self.expect("⟩")
                n = Node(label, (), v)
            if not open_nodes:
                return n
            open_nodes[-1][1].append(n)

    # --------------------------------------------------------------- values

    def value(self) -> Value:
        v = self._constant()
        if v is not None:
            return v
        t = self.peek()
        if self.at("("):
            self.advance()
            if self.take(")"):
                return TupleVal(())
            parts = [self.value()]
            trailing = False
            while self.take(","):
                if self.at(")"):
                    trailing = True
                    break
                parts.append(self.value())
            self.expect(")")
            if len(parts) == 1 and not trailing:
                return parts[0]  # grouping degenerates; values need the comma
            return TupleVal(tuple(parts))
        if self.at("{|"):
            self.advance()
            if self.take("|}"):
                return Multiset(())
            parts = [self.value()]
            while self.take(","):
                parts.append(self.value())
            self.expect("|}")
            return Multiset(parts)
        if t.kind in ("ident", "atom") and t.text not in KEYWORDS:
            self.advance()
            return Atom(t.text)
        self.fail(f"expected a value, found {t.text or 'end of input'!r}", ("value",))

    # ---------------------------------------------------------------- rules

    def rule(self) -> Rule:
        if self.at("IF"):
            self.advance()
            cond = self.term()
            self.expect("THEN")
            then_branch = self.rule()
            else_branch: Rule = T.SKIP
            if self.take("ELSE"):
                else_branch = self.rule()
            self.expect("ENDIF")
            return T.If(cond, then_branch, else_branch)
        if self.at("PAR"):
            self.advance()
            rules = []
            while not self.at("ENDPAR"):
                if self.done():
                    self.fail("unterminated PAR", ("ENDPAR",))
                rules.append(self.rule())
            self.expect("ENDPAR")
            return T.Par(tuple(rules))
        if self.at("FORALL"):
            self.advance()
            var = self.ident("a variable")
            self.expect("WITH")
            self.bound.append(var)
            try:
                guard = self.term()
                self.expect("DO")
                body = self.rule()
            finally:
                self.bound.pop()
            self.expect("ENDDO")
            return T.Forall(var, guard, body)
        if self.at("LET"):
            self.advance()
            var = self.ident("a variable")
            self.expect("=")
            binding = self.term()
            self.expect("IN")
            self.bound.append(var)
            try:
                body = self.rule()
            finally:
                self.bound.pop()
            return T.Let(var, binding, body)
        if self.at("IMPORT"):
            self.advance()
            var = self.ident("a variable")
            self.expect("DO")
            self.bound.append(var)
            try:
                body = self.rule()
            finally:
                self.bound.pop()
            return T.Import(var, body)
        func = self.ident("a rule")
        args: tuple[Term, ...] = ()
        if self.at("("):
            args = self._term_args()
        if self.take(":="):
            return T.Assign(func, args, self.term())
        if self.take("<<="):
            op = self.ident("an operator name")
            operands = self._term_args()
            return T.PartialAssign(func, args, op, operands)
        self.fail("expected ':=' or '<<=' after the update head", (":=", "<<="))


def _mk_tuple(parts: tuple[Term, ...]) -> Term:
    if all(isinstance(p, T.Literal) for p in parts):
        return T.Literal(TupleVal(tuple(p.value for p in parts)))
    return T.BackgroundOp("tuple", parts)


def _mk_mset(parts: tuple[Term, ...]) -> Term:
    if all(isinstance(p, T.Literal) for p in parts):
        return T.Literal(Multiset(p.value for p in parts))
    return T.BackgroundOp("mset", parts)


def _promote(x: Term, names: frozenset[str]) -> tuple[Term, object]:
    """`map_term`'s visit for a comprehension head, which parses before its
    binders are known: a bare nullary application of a binder name becomes
    that variable, unless a comprehension inside binds the name again."""
    if type(x) is T.Apply and not x.args and x.func in names:
        return T.Var(x.func), None
    if type(x) is T.Comprehension:
        return x, names - frozenset(x.binders)
    return x, names


_Out = TypeVar("_Out")


def _parse_all(text: str, first_line: int, parse: Callable[[_Parser], _Out]) -> _Out:
    p = _Parser(tokenize(text, first_line))
    out = parse(p)
    if not p.done():
        t = p.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col, ("end of input",))
    return out


def parse_term(text: str) -> Term:
    return _parse_all(text, 1, _Parser.term)


def parse_rule(text: str) -> Rule:
    return _parse_all(text, 1, _Parser.rule)


def parse_value(text: str) -> Value:
    return _parse_all(text, 1, _Parser.value)


def parse_tree(text: str) -> _TreeBase:
    return _parse_all(text, 1, _Parser._tree)


# ----------------------------------------------------------- state documents

def parse_state(text: str, seed: int = 0) -> State:
    universe: list[Value] = []
    symbols: list[FunctionSymbol] = []
    inits: list[tuple[Location, Value, int]] = []
    program_rule: Rule | None = None

    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line_no = i + 1
        p = _Parser(tokenize(lines[i], line_no))
        i += 1
        if p.done():
            continue
        head = p.peek()
        if head.kind == "ident" and head.text == "universe":
            p.advance()
            while not p.done():
                universe.append(p.value())
        elif head.kind == "ident" and head.text == "function":
            p.advance()
            name = p.ident("a function name")
            p.expect("/")
            arity_tok = p.peek()
            if arity_tok.kind != "num":
                p.fail("expected an arity", ("natural",))
            p.advance()
            kind = "dynamic"
            if not p.done():
                kind_tok = p.advance()
                if kind_tok.text not in ("static", "relational"):
                    raise ParseError(
                        f"unknown symbol kind {kind_tok.text!r}", kind_tok.line, kind_tok.col,
                        ("static", "relational"),
                    )
                kind = kind_tok.text
            if not p.done():
                p.fail("trailing input after function declaration")
            symbols.append(FunctionSymbol(name, int(arity_tok.text), kind))
        elif head.kind == "ident" and head.text == "init":
            p.advance()
            name = p.ident("a function name")
            args: list[Value] = []
            if p.take("("):
                if not p.at(")"):
                    args.append(p.value())
                    while p.take(","):
                        args.append(p.value())
                p.expect(")")
            p.expect("=")
            val = p.value()
            if not p.done():
                p.fail("trailing input after init binding")
            inits.append((Location(name, tuple(args)), val, line_no))
        elif head.kind == "ident" and head.text == "program":
            p.advance()
            if not p.done():
                p.fail("the program directive takes no arguments")
            program_rule = _parse_all("\n".join(lines[i:]), line_no + 1, _Parser.rule)
            break
        else:
            raise ParseError(
                f"unknown directive {head.text!r}", head.line, head.col,
                ("universe", "function", "init", "program"),
            )

    pgm_inits = [x for x in inits if x[0].symbol == PGM]
    if program_rule is not None and pgm_inits:
        raise ParseError("both a program section and an init pgm binding", pgm_inits[0][2], 1, ())
    if program_rule is None and not pgm_inits:
        raise ParseError("a state document needs a program section or an init pgm binding", len(lines), 1, ())

    if not any(s.name == PGM for s in symbols):
        symbols.append(FunctionSymbol(PGM, 0))
    sig = Signature(symbols)

    interp: dict[Location, Value] = {}
    for loc, val, line_no in inits:
        sym = sig.lookup(loc.symbol)
        if sym is None:
            raise ParseError(f"init for undeclared function {loc.symbol!r}", line_no, 1, ())
        if sym.arity != len(loc.args):
            raise ParseError(
                f"{loc.symbol!r} has arity {sym.arity}, init gives {len(loc.args)} arguments", line_no, 1, ()
            )
        if loc in interp:
            raise ParseError(f"duplicate init for {loc.symbol!r}", line_no, 1, ())
        interp[loc] = val

    if program_rule is not None:
        interp[Location(PGM)] = TreeVal(drop_program(sig, program_rule))

    s = State(sig, interp, universe, reserve_seed=seed)
    machine.validate_initial(s)
    return s
