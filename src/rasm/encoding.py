"""Program-as-tree encoding: drop, raise, and read-set extraction.

A machine's program lives in state as an ordinary tree value under the
nullary symbol ``pgm``:

    pgm⟨signature⟨func⟨name=⟨'f⟩ arity=⟨n⟩⟩ ...⟩ rule⟨R⟩⟩

Terms stay opaque in the encoding: a dropped term is a leaf value wrapping
the term AST, so drop followed by raise is the identity and tree rewriting
cannot produce syntactically broken terms, only unraisable ones.  Sub-rules
are always wrapped in a rule⟨...⟩ node, which makes "the rule under this
node" one uniform selection everywhere.

Raising is partial: anything that does not match the grammar is a
malformed-encoding error carrying the path of the offending node, never a
guess.

`beta_rule` computes the read set of a rule: one multiset comprehension per
potential update source.  Two states that agree on pgm and on the values of
all these terms are guaranteed to produce the same update multiset; the
bounded-exploration check exercises exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EncodingError, RasmError
from .state import PGM, FunctionSymbol, Signature
from . import terms as T
from .terms import Comprehension, Rule, Term, _fresh, free_vars, subst_rule, subst_term
from .trees import Node, Path, Tree, leaf, node
from .values import TRUE, Atom, DroppedTerm, Natural, TupleVal, Value

RULE_LABELS = frozenset({"update", "partial", "if", "par", "forall", "let", "import"})
LABELS = RULE_LABELS | frozenset({PGM, "signature", "func", "rule", "name", "arity", "term", "bool"})

_TRUE = T.Literal(TRUE)


# --------------------------------------------------------------------- drop

def _terms_value(ts: tuple[Term, ...]) -> TupleVal:
    return TupleVal(tuple(DroppedTerm(t) for t in ts))


def _var_leaf(name: str) -> Node:
    return leaf("term", DroppedTerm(T.Var(name)))


def _rule_node(r: Rule) -> Node:
    return node("rule", _drop_rule(r))


def _drop_rule(r: Rule) -> Node:
    if isinstance(r, T.Assign):
        return node(
            "update",
            leaf("func", Atom(r.func)),
            leaf("term", _terms_value(r.args)),
            leaf("term", DroppedTerm(r.rhs)),
        )
    if isinstance(r, T.PartialAssign):
        return node(
            "partial",
            leaf("func", Atom(r.func)),
            leaf("func", Atom(r.op)),
            leaf("term", _terms_value(r.args)),
            leaf("term", _terms_value(r.operands)),
        )
    if isinstance(r, T.If):
        return node(
            "if",
            leaf("bool", DroppedTerm(r.cond)),
            _rule_node(r.then_branch),
            _rule_node(r.else_branch),
        )
    if isinstance(r, T.Par):
        return node("par", *(_rule_node(x) for x in r.rules))
    if isinstance(r, T.Forall):
        return node("forall", _var_leaf(r.var), leaf("bool", DroppedTerm(r.guard)), _rule_node(r.body))
    if isinstance(r, T.Let):
        return node("let", _var_leaf(r.var), leaf("term", DroppedTerm(r.binding)), _rule_node(r.body))
    if isinstance(r, T.Import):
        return node("import", _var_leaf(r.var), _rule_node(r.body))
    raise TypeError(f"not a rule: {r!r}")


def drop_rule(r: Rule) -> Tree:
    return Tree(_drop_rule(r))


def drop_signature(sig: Signature) -> Tree:
    funcs = [
        node("func", leaf("name", Atom(s.name)), leaf("arity", Natural(s.arity))) for s in sig
    ]
    return Tree(node("signature", *funcs))


def drop_program(sig: Signature, r: Rule) -> Tree:
    """The self-representation tree; `sig` must already contain pgm."""
    return Tree(node(PGM, drop_signature(sig).root_node, _rule_node(r)))


# -------------------------------------------------------------------- raise

def _bad(msg: str, path: Path) -> EncodingError:
    return EncodingError("malformed-encoding", msg, path)


def _is_term(x: object) -> bool:
    if isinstance(x, T.Var):
        return True
    if isinstance(x, T.Literal):
        return isinstance(x.value, Value)
    if isinstance(x, (T.Apply, T.BackgroundOp)):
        return all(_is_term(a) for a in x.args)
    if isinstance(x, Comprehension):
        return (
            all(isinstance(b, str) for b in x.binders) and _is_term(x.head) and _is_term(x.guard)
        )
    return False


def raise_term(v: Value) -> Term:
    if isinstance(v, DroppedTerm) and _is_term(v.term):
        return v.term
    raise EncodingError("malformed-encoding", f"not a dropped term: {v!r}")


def _leaf_value(n: Node, label: str, path: Path) -> Value:
    if n.label != label:
        raise _bad(f"expected a {label} leaf, found {n.label!r}", path)
    if n.children or n.value is None:
        raise _bad(f"{label} node must be a leaf carrying a value", path)
    return n.value


def _atom_leaf(n: Node, path: Path, label: str = "func") -> str:
    v = _leaf_value(n, label, path)
    if not isinstance(v, Atom):
        raise _bad(f"{label} leaf must hold an atom, found {v!r}", path)
    return v.name


def _term_leaf(n: Node, path: Path) -> Term:
    v = _leaf_value(n, "term", path)
    if not isinstance(v, DroppedTerm) or not _is_term(v.term):
        raise _bad(f"term leaf must hold a dropped term, found {v!r}", path)
    return v.term


def _terms_leaf(n: Node, path: Path) -> tuple[Term, ...]:
    v = _leaf_value(n, "term", path)
    if not isinstance(v, TupleVal):
        raise _bad(f"term leaf must hold a tuple of dropped terms, found {v!r}", path)
    out = []
    for item in v.items:
        if not isinstance(item, DroppedTerm) or not _is_term(item.term):
            raise _bad(f"term tuple holds a non-term entry {item!r}", path)
        out.append(item.term)
    return tuple(out)


def _binder_leaf(n: Node, path: Path) -> str:
    t = _term_leaf(n, path)
    if not isinstance(t, T.Var):
        raise _bad(f"binder leaf must hold a variable, found {t!r}", path)
    return t.name


def _guard_leaf(n: Node, path: Path) -> Term:
    v = _leaf_value(n, "bool", path)
    if not isinstance(v, DroppedTerm) or not _is_term(v.term):
        raise _bad(f"bool leaf must hold a dropped term, found {v!r}", path)
    return v.term


def _arity(n: Node, k: int, path: Path) -> None:
    if len(n.children) != k:
        raise _bad(f"{n.label} node needs {k} children, found {len(n.children)}", path)
    if n.value is not None:
        raise _bad(f"{n.label} node cannot carry a value", path)


def _rule_child(n: Node, path: Path) -> Rule:
    if n.label != "rule":
        raise _bad(f"expected a rule⟨...⟩ wrapper, found {n.label!r}", path)
    _arity(n, 1, path)
    return _raise_rule(n.children[0], path + (0,))


def _raise_rule(n: Node, path: Path) -> Rule:
    c = n.children
    if n.label == "update":
        _arity(n, 3, path)
        func = _atom_leaf(c[0], path + (0,))
        args = _terms_leaf(c[1], path + (1,))
        rhs = _term_leaf(c[2], path + (2,))
        return T.Assign(func, args, rhs)
    if n.label == "partial":
        _arity(n, 4, path)
        func = _atom_leaf(c[0], path + (0,))
        op = _atom_leaf(c[1], path + (1,))
        args = _terms_leaf(c[2], path + (2,))
        operands = _terms_leaf(c[3], path + (3,))
        return T.PartialAssign(func, args, op, operands)
    if n.label == "if":
        _arity(n, 3, path)
        cond = _guard_leaf(c[0], path + (0,))
        then_branch = _rule_child(c[1], path + (1,))
        else_branch = _rule_child(c[2], path + (2,))
        return T.If(cond, then_branch, else_branch)
    if n.label == "par":
        if n.value is not None:
            raise _bad("par node cannot carry a value", path)
        return T.Par(tuple(_rule_child(x, path + (i,)) for i, x in enumerate(c)))
    if n.label == "forall":
        _arity(n, 3, path)
        var = _binder_leaf(c[0], path + (0,))
        guard = _guard_leaf(c[1], path + (1,))
        body = _rule_child(c[2], path + (2,))
        return T.Forall(var, guard, body)
    if n.label == "let":
        _arity(n, 3, path)
        var = _binder_leaf(c[0], path + (0,))
        binding = _term_leaf(c[1], path + (1,))
        body = _rule_child(c[2], path + (2,))
        return T.Let(var, binding, body)
    if n.label == "import":
        _arity(n, 2, path)
        var = _binder_leaf(c[0], path + (0,))
        body = _rule_child(c[1], path + (1,))
        return T.Import(var, body)
    raise _bad(f"{n.label!r} is not a rule form", path)


def raise_rule(t: Tree) -> Rule:
    return _raise_rule(t.root_node, ())


def raise_signature(t: Tree) -> Signature:
    root = t.root_node
    if root.label != "signature" or root.value is not None:
        raise _bad(f"expected a signature⟨...⟩ node, found {root.label!r}", ())
    symbols = []
    for i, fn in enumerate(root.children):
        path = (i,)
        if fn.label != "func":
            raise _bad(f"signature child must be a func node, found {fn.label!r}", path)
        _arity(fn, 2, path)
        name = _atom_leaf(fn.children[0], path + (0,), "name")
        av = _leaf_value(fn.children[1], "arity", path + (1,))
        if not isinstance(av, Natural):
            raise _bad(f"arity leaf must hold a natural, found {av!r}", path + (1,))
        symbols.append(FunctionSymbol(name, av.n))
    try:
        return Signature(symbols)
    except RasmError as e:
        raise _bad(e.message, ()) from None


# ------------------------------------------------------------ program trees

@dataclass(frozen=True, slots=True)
class Program:
    """A validated self-representation: raised signature and rule plus the tree."""

    signature: Signature
    rule: Rule
    tree: Tree


def _unique_child(p: Tree, label: str) -> Node:
    hits = [c for c in p.root_node.children if c.label == label]
    if len(hits) != 1:
        raise EncodingError(
            "malformed-program-tree", f"need exactly one {label} child of the root, found {len(hits)}", ()
        )
    return hits[0]


def extract_signature_subtree(p: Tree) -> Tree:
    return Tree(_unique_child(p, "signature"))


def extract_rule_subtree(p: Tree) -> Tree:
    """The rule⟨...⟩ child subtree, wrapper included."""
    return Tree(_unique_child(p, "rule"))


def as_program(t: Tree) -> Program:
    root = t.root_node
    if root.label != PGM:
        raise EncodingError("malformed-program-tree", f"root must be labelled pgm, found {root.label!r}", ())
    if len(root.children) != 2 or root.value is not None:
        raise EncodingError("malformed-program-tree", "pgm root needs exactly a signature and a rule child", ())
    sig_tree = extract_signature_subtree(t)
    rule_wrap = extract_rule_subtree(t)
    sig = raise_signature(sig_tree)
    if PGM not in sig or sig.lookup(PGM).arity != 0:
        raise EncodingError("malformed-program-tree", "encoded signature must contain nullary pgm", ())
    wrap = rule_wrap.root_node
    if len(wrap.children) != 1 or wrap.value is not None:
        raise EncodingError("malformed-program-tree", "rule wrapper needs exactly one child", ())
    rule = raise_rule(Tree(wrap.children[0]))
    return Program(sig, rule, t)


# ------------------------------------------------------------------- beta

def _neg(t: Term) -> Term:
    return T.BackgroundOp("not", (t,))


def _and(a: Term, b: Term) -> Term:
    # `true` is the neutral guard; folding it away keeps read terms legible.
    if a == _TRUE:
        return b
    if b == _TRUE:
        return a
    return T.BackgroundOp("and", (a, b))


def _comp(head: Term) -> Comprehension:
    return Comprehension(head, (), _TRUE)


def _rename_binders(e: Comprehension, avoid: frozenset[str]) -> Comprehension:
    binders = list(e.binders)
    head, guard = e.head, e.guard
    for i, b in enumerate(binders):
        if b in avoid:
            taken = avoid | set(binders) | free_vars(head) | free_vars(guard)
            nb = _fresh(b, taken)
            head = subst_term(head, {b: T.Var(nb)})
            guard = subst_term(guard, {b: T.Var(nb)})
            binders[i] = nb
    return Comprehension(head, tuple(binders), guard)


def _conjoin(entries: tuple[Comprehension, ...], extra: Term) -> tuple[Comprehension, ...]:
    # Binders of an entry must not capture the free variables of the guard
    # being pushed in from outside.
    avoid = frozenset(free_vars(extra))
    out = []
    for e in entries:
        e = _rename_binders(e, avoid)
        out.append(Comprehension(e.head, e.binders, _and(e.guard, extra)))
    return tuple(out)


def _beta(r: Rule) -> tuple[Comprehension, ...]:
    if isinstance(r, T.Assign):
        head: Term
        if r.args:
            head = T.BackgroundOp("tuple", (r.rhs,) + r.args)
        else:
            head = r.rhs
        return (_comp(head),)
    if isinstance(r, T.PartialAssign):
        folded = T.BackgroundOp(r.op, (T.Apply(r.func, r.args),) + r.operands)
        if r.args:
            head = T.BackgroundOp("tuple", r.args + (folded,))
        else:
            head = folded
        return (_comp(head),)
    if isinstance(r, T.If):
        return (
            (_comp(r.cond),)
            + _conjoin(_beta(r.then_branch), r.cond)
            + _conjoin(_beta(r.else_branch), _neg(r.cond))
        )
    if isinstance(r, T.Par):
        out: tuple[Comprehension, ...] = ()
        for x in r.rules:
            out = out + _beta(x)
        return out
    if isinstance(r, T.Forall):
        avoid = frozenset({r.var}) | frozenset(free_vars(r.guard))
        out = ()
        for e in _beta(r.body):
            e = _rename_binders(e, avoid)
            for g in (r.guard, _neg(r.guard)):
                out = out + (Comprehension(e.head, (r.var,) + e.binders, _and(e.guard, g)),)
        return out
    if isinstance(r, T.Let):
        return (_comp(r.binding),) + _beta(subst_rule(r.body, {r.var: r.binding}))
    if isinstance(r, T.Import):
        # The fresh atom is drawn, not read; body entries keep the variable
        # free and the closing pass below quantifies it away.
        return _beta(r.body)
    raise TypeError(f"not a rule: {r!r}")


def beta_rule(r: Rule) -> tuple[Comprehension, ...]:
    """Read-set comprehensions of a rule, all closed.

    Residual free variables (import-bound names survive extraction) are
    turned into extra binders so every entry evaluates under the empty
    environment.
    """
    out = []
    for e in _beta(r):
        residual = tuple(sorted(free_vars(e)))
        if residual:
            e = Comprehension(e.head, residual + e.binders, e.guard)
        out.append(e)
    return tuple(out)
