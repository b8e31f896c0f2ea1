"""Surface syntax: terms, rules, values, trees, and state documents.

Rule text is keyword-bracketed (IF/THEN/ELSE/ENDIF, PAR/ENDPAR, FORALL x
WITH g DO r ENDDO, LET x = t IN r, IMPORT x DO r), assignments are
`f(args) := t` and `f(args) <<= op(...)`.  A bare identifier is a variable
when an enclosing binder introduced it, else a nullary application; `?x` is
always a variable; `'a` is an atom literal in term position, where bare
atoms would collide with symbols.  `⟦...⟧` quotes a term into a value (a
rule becomes a value only as a program tree); `#` starts a tree literal; `^`
is the context hole.

All-literal tuple and multiset syntax folds to a literal value at parse
time, mirroring how the printers render literal values, so parse and print
are inverse on canonical forms.

State documents are line oriented: `universe`, `function name/arity`,
`init loc = value` directives, then either an explicit `init pgm = #pgm...`
or a trailing `program` section holding rule text; exactly one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from . import machine
from .encoding import drop_program
from .errors import ParseError
from .state import PGM, FunctionSymbol, Location, Signature, State
from . import terms as T
from .terms import Rule, Term
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

# Background operations with a functional spelling; and/or/not and the
# comparison/arithmetic symbols arrive through dedicated syntax instead.
FUNCTIONAL_OPS = frozenset(
    """proj munion right_extend extend_at subst_at subst_tt subtree_at
       eq ne lt le gt ge add mul sub tuple mset""".split()
)

_PUNCT2 = ("{|", "|}", "<<=", ":=", "<=", ">=", "!=")
_PUNCT1 = "(),:|=<>+-*^#⟨⟩⟦⟧/"

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | set("0123456789")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # ident | num | atom | var | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    toks: list[Token] = []
    line, col = first_line, 1
    i, n = 0, len(text)

    def bump(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            bump(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                bump(1)
            continue
        at = (line, col)
        two = text[i : i + 3] if text.startswith("<<=", i) else text[i : i + 2]
        if two in _PUNCT2:
            toks.append(Token("punct", two, *at))
            bump(len(two))
            continue
        if c in "'?":
            bump(1)
            j = i
            if i < n and text[i] in _IDENT_START:
                while i < n and text[i] in _IDENT_CONT:
                    bump(1)
            if j == i:
                raise ParseError("dangling " + c, at[0], at[1], ("identifier",))
            toks.append(Token("atom" if c == "'" else "var", text[j:i], *at))
            continue
        if c.isdigit():
            j = i
            while i < n and text[i].isdigit():
                bump(1)
            toks.append(Token("num", text[j:i], *at))
            continue
        if c in _IDENT_START:
            j = i
            while i < n and text[i] in _IDENT_CONT:
                bump(1)
            toks.append(Token("ident", text[j:i], *at))
            continue
        if c in _PUNCT1:
            toks.append(Token("punct", c, *at))
            bump(1)
            continue
        raise ParseError(f"stray character {c!r}", at[0], at[1], ())
    toks.append(Token("eof", "", line, col))
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
        return self._or()

    def _or(self) -> Term:
        t = self._and()
        while self.at("or"):
            self.advance()
            t = T.BackgroundOp("or", (t, self._and()))
        return t

    def _and(self) -> Term:
        t = self._not()
        while self.at("and"):
            self.advance()
            t = T.BackgroundOp("and", (t, self._not()))
        return t

    def _not(self) -> Term:
        if self.at("not"):
            self.advance()
            return T.BackgroundOp("not", (self._not(),))
        return self._cmp()

    _CMP = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}

    def _cmp(self) -> Term:
        t = self._add()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in self._CMP:
            self.advance()
            return T.BackgroundOp(self._CMP[tok.text], (t, self._add()))
        return t

    def _add(self) -> Term:
        t = self._mul()
        while True:
            if self.at("+"):
                self.advance()
                t = T.BackgroundOp("add", (t, self._mul()))
            elif self.at("-"):
                self.advance()
                t = T.BackgroundOp("sub", (t, self._mul()))
            else:
                return t

    def _mul(self) -> Term:
        t = self._primary()
        while self.at("*"):
            self.advance()
            t = T.BackgroundOp("mul", (t, self._primary()))
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
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return T.Literal(Natural(int(t.text)))
        if t.kind == "atom":
            self.advance()
            return T.Literal(Atom(t.text))
        if t.kind == "var":
            self.advance()
            return T.Var(t.text)
        if self.at("true"):
            self.advance()
            return T.Literal(TRUE)
        if self.at("false"):
            self.advance()
            return T.Literal(FALSE)
        if self.at("undef"):
            self.advance()
            return T.Literal(UNDEF)
        if self.at("#"):
            self.advance()
            return T.Literal(TreeVal(self._tree()))
        if self.at("⟦"):
            return self._dropped()
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
            return T.Comprehension(_rebind(head, frozenset(binders)), tuple(binders), guard)
        parts = [head]
        while self.take(","):
            parts.append(self.term())
        self.expect("|}")
        return _mk_mset(tuple(parts))

    def _dropped(self) -> Term:
        self.expect("⟦")
        saved, self.bound = self.bound, []
        try:
            t = self.term()
        finally:
            self.bound = saved
        self.expect("⟧")
        return T.Literal(DroppedTerm(t))

    # ---------------------------------------------------------------- trees

    def _tree(self) -> _TreeBase:
        n = self._tree_node()
        if n.holes == 0:
            return Tree(n)
        if n.holes == 1:
            return Context(n)
        self.fail("a tree literal may contain at most one hole")

    def _tree_node(self) -> Node:
        if self.take("^"):
            return Node(XI)
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected a node label, found {t.text or 'end of input'!r}", ("label",))
        label = self.advance().text
        if self.at("="):
            self.advance()
            self.expect("⟨")
            v = self.value()
            self.expect("⟩")
            return Node(label, (), v)
        if self.take("⟨"):
            children = []
            while not self.at("⟩"):
                children.append(self._tree_node())
            self.expect("⟩")
            return Node(label, tuple(children))
        return Node(label)

    # --------------------------------------------------------------- values

    def value(self) -> Value:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Natural(int(t.text))
        if self.at("true"):
            self.advance()
            return TRUE
        if self.at("false"):
            self.advance()
            return FALSE
        if self.at("undef"):
            self.advance()
            return UNDEF
        if self.at("#"):
            self.advance()
            return TreeVal(self._tree())
        if self.at("⟦"):
            lit = self._dropped()
            return lit.value
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
            else_branch: Rule = T.Par(())
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


def _rebind(t: Term, binders: frozenset[str]) -> Term:
    """Comprehension heads parse before their binders are known; promote
    bare nullary applications of binder names to variables."""
    if isinstance(t, T.Apply):
        if not t.args and t.func in binders:
            return T.Var(t.func)
        return T.Apply(t.func, tuple(_rebind(a, binders) for a in t.args))
    if isinstance(t, T.BackgroundOp):
        return T.BackgroundOp(t.op, tuple(_rebind(a, binders) for a in t.args))
    if isinstance(t, T.Comprehension):
        inner = binders - frozenset(t.binders)
        return T.Comprehension(_rebind(t.head, inner), t.binders, _rebind(t.guard, inner))
    return t


def _parse_all(text: str, what: str):
    p = _Parser(tokenize(text))
    if what == "term":
        out = p.term()
    elif what == "rule":
        out = p.rule()
    elif what == "value":
        out = p.value()
    else:
        out = p._tree()
    if not p.done():
        t = p.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col, ("end of input",))
    return out


def parse_term(text: str) -> Term:
    return _parse_all(text, "term")


def parse_rule(text: str) -> Rule:
    return _parse_all(text, "rule")


def parse_value(text: str) -> Value:
    return _parse_all(text, "value")


def parse_tree(text: str) -> _TreeBase:
    return _parse_all(text, "tree")


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
        toks = tokenize(lines[i], first_line=line_no)
        i += 1
        p = _Parser(toks)
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
            rest = "\n".join(lines[i:])
            rp = _Parser(tokenize(rest, first_line=line_no + 1))
            program_rule = rp.rule()
            if not rp.done():
                t = rp.peek()
                raise ParseError(f"trailing input {t.text!r}", t.line, t.col, ("end of input",))
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
