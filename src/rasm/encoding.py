"""Program-as-tree encoding: drop, raise, and read-set extraction.

A machine's program lives in state as an ordinary tree value under the
nullary symbol ``pgm``:

    pgm⟨signature⟨func⟨name=⟨'f⟩ arity=⟨n⟩⟩ ...⟩ rule⟨R⟩⟩

`FORMS` is the grammar of R, written down nowhere else: each rule form's
label, its `terms` class, and its fields in child order, each with the kind
of child that encodes it; in every form the leaves come first.  Terms stay
opaque: a dropped term is a leaf value wrapping the term AST, so drop
followed by raise is the identity and tree rewriting cannot produce
syntactically broken terms, only unraisable ones.  Sub-rules are always
wrapped in a rule⟨...⟩ node, which makes "the rule under this node" one
uniform selection everywhere.

Drop and raise are two loops over that table with explicit stacks; neither
recurses, so a rule of any nesting depth round-trips.  Raising is partial:
anything that does not match the grammar is a malformed-encoding error
carrying the path of the offending node, never a guess.  Nodes are checked
in preorder, so the error names the first fault in document order.  Each
interned node keeps what it raised to in its `raised` slot, written only by
a raise that succeeded: a rewrite of pgm re-raises only the spine it
rebuilt, and every error keeps its path.

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
from .terms import Comprehension, Rule, Term, free_vars, rename_binders, subst_term
from .trees import Node, Path, Tree, leaf, node
from .values import TRUE, Atom, DroppedTerm, Natural, TupleVal, Value

_TRUE = T.Literal(TRUE)

# label -> (class, fields in child order, each with the kind of child that
# encodes it).  A `rule` child is one rule⟨...⟩ wrapper; `rules` takes every
# child as one; every other kind is a leaf (`_LEAF_KINDS`).
FORMS: dict[str, tuple[type, tuple[tuple[str, str], ...]]] = {
    "update": (T.Assign, (("func", "func"), ("args", "terms"), ("rhs", "term"))),
    "partial": (T.PartialAssign, (("func", "func"), ("op", "func"), ("args", "terms"), ("operands", "terms"))),
    "if": (T.If, (("cond", "bool"), ("then_branch", "rule"), ("else_branch", "rule"))),
    "par": (T.Par, (("rules", "rules"),)),
    "forall": (T.Forall, (("var", "binder"), ("guard", "bool"), ("body", "rule"))),
    "let": (T.Let, (("var", "binder"), ("binding", "term"), ("body", "rule"))),
    "import": (T.Import, (("var", "binder"), ("body", "rule"))),
}
FORM_OF = {cls: (label, fields) for label, (cls, fields) in FORMS.items()}


# ----------------------------------------------------------------- leaves

def _bad(msg: str, path: Path) -> EncodingError:
    return EncodingError("malformed-encoding", msg, path)


def _is_term(x: object) -> bool:
    return all(
        type(t) in T.CHILDREN
        and (type(t) is not T.Literal or isinstance(t.value, Value))
        and (type(t) is not Comprehension or all(isinstance(b, str) for b in t.binders))
        for t, _bound in T.subterms(x)
    )


def _leaf_value(n: Node, label: str, path: Path) -> Value:
    if n.label != label:
        raise _bad(f"expected a {label} leaf, found {n.label!r}", path)
    if n.children or n.value is None:
        raise _bad(f"{label} node must be a leaf carrying a value", path)
    return n.value


def _atom_leaf(n: Node, path: Path, label: str) -> str:
    v = _leaf_value(n, label, path)
    if not isinstance(v, Atom):
        raise _bad(f"{label} leaf must hold an atom, found {v!r}", path)
    return v.name


def _term_leaf(n: Node, path: Path, label: str) -> Term:
    v = _leaf_value(n, label, path)
    if not isinstance(v, DroppedTerm) or not _is_term(v.term):
        raise _bad(f"{label} leaf must hold a dropped term, found {v!r}", path)
    return v.term


def _terms_leaf(n: Node, path: Path, label: str) -> tuple[Term, ...]:
    v = _leaf_value(n, label, path)
    if not isinstance(v, TupleVal):
        raise _bad(f"{label} leaf must hold a tuple of dropped terms, found {v!r}", path)
    for item in v.items:
        if not isinstance(item, DroppedTerm) or not _is_term(item.term):
            raise _bad(f"{label} tuple holds a non-term entry {item!r}", path)
    return tuple(item.term for item in v.items)


def _binder_leaf(n: Node, path: Path, label: str) -> str:
    t = _term_leaf(n, path, label)
    if not isinstance(t, T.Var):
        raise _bad(f"binder leaf must hold a variable, found {t!r}", path)
    return t.name


def _arity(n: Node, k: int | None, path: Path) -> None:
    """`n` has `k` children (any number when `k` is None) and no value."""
    if k is not None and len(n.children) != k:
        raise _bad(f"{n.label} node needs {k} children, found {len(n.children)}", path)
    if n.value is not None:
        raise _bad(f"{n.label} node cannot carry a value", path)


# kind -> (leaf label, field value -> leaf value, checked leaf -> field value)
_LEAF_KINDS = {
    "func": ("func", Atom, _atom_leaf),
    "term": ("term", DroppedTerm, _term_leaf),
    "terms": ("term", lambda ts: TupleVal(tuple(map(DroppedTerm, ts))), _terms_leaf),
    "bool": ("bool", DroppedTerm, _term_leaf),
    "binder": ("term", lambda name: DroppedTerm(T.Var(name)), _binder_leaf),
}


def _in_child_order(cls: type, names: list[str]):
    """`cls` as a constructor that takes its fields in child order."""
    order = [names.index(f) for f in cls.__match_args__]
    return cls if order == sorted(order) else lambda *values: cls(*[values[i] for i in order])


# What raise needs of each form, worked out once from `FORMS`: its
# constructor, its leaf decoders, and its child count (None: any).
_RAISE = {
    label: (
        _in_child_order(cls, [name for name, _kind in fields]),
        tuple((i, _LEAF_KINDS[k][0], _LEAF_KINDS[k][2]) for i, (_, k) in enumerate(fields) if k in _LEAF_KINDS),
        None if fields[-1][1] == "rules" else len(fields),
    )
    for label, (cls, fields) in FORMS.items()
}


# -------------------------------------------------------- drop and raise

def _drop_rule(r: Rule) -> Node:
    """`r` encoded, inside its rule⟨...⟩ wrapper.  The rules are listed in
    preorder and built in reverse, so the wrapped sub-rules of each are
    finished first and pop off `built` in child order."""
    order = []  # (label, leaves, sub-rule count), in preorder
    todo = [r]
    while todo:
        r = todo.pop()
        label, fields = FORM_OF[type(r)]
        leaves, subs = [], []
        for name, kind in fields:
            v = getattr(r, name)
            if kind in _LEAF_KINDS:
                leaf_label, encode, _decode = _LEAF_KINDS[kind]
                leaves.append(leaf(leaf_label, encode(v)))
            else:
                subs += [v] if kind == "rule" else v
        order.append((label, leaves, len(subs)))
        todo += reversed(subs)
    built: list[Node] = []
    for label, leaves, k in reversed(order):
        rules = [built.pop() for _ in range(k)]
        built.append(node("rule", node(label, *leaves, *rules)))
    return built[0]


def _raise_rule(n: Node, path: Path) -> Rule:
    """The rule `n` at `path` encodes.  Nodes are checked in preorder, each
    rule⟨...⟩ wrapper when it is popped, and built as in `_drop_rule`.  A
    form node keeps the rule it raised to in its `raised` slot, so a subtree
    that raised before is taken as built; a failed raise caches nothing."""
    order = []  # (node, constructor, decoded leaves, variadic, sub-rule count), in preorder
    todo = [(n, path, False)]  # True: a rule⟨...⟩ wrapper
    while todo:
        n, path, wrapped = todo.pop()
        if wrapped:
            if n.label != "rule":
                raise _bad(f"expected a rule⟨...⟩ wrapper, found {n.label!r}", path)
            _arity(n, 1, path)
            n, path = n.children[0], path + (0,)
        if n.label not in _RAISE:
            raise _bad(f"{n.label!r} is not a rule form", path)
        if n.raised is not None:  # a rule form's slot holds only a Rule
            order.append((n, None, (), False, 0))
            continue
        make, decoders, arity = _RAISE[n.label]
        _arity(n, arity, path)
        c = n.children
        leaves = [decode(c[i], path + (i,), label) for i, label, decode in decoders]
        order.append((n, make, leaves, arity is None, len(c) - len(leaves)))
        todo += [(c[i], path + (i,), True) for i in range(len(c) - 1, len(leaves) - 1, -1)]
    built: list[Rule] = []
    for n, make, leaves, variadic, k in reversed(order):
        if make is not None:
            rules = [built.pop() for _ in range(k)]
            r = make(*leaves, tuple(rules)) if variadic else make(*leaves, *rules)
            n.raised = r
        built.append(n.raised)
    return built[0]


def drop_rule(r: Rule) -> Tree:
    return Tree(_drop_rule(r).children[0])


def raise_rule(t: Tree) -> Rule:
    return _raise_rule(t.root_node, ())


def drop_signature(sig: Signature) -> Tree:
    funcs = [
        node("func", leaf("name", Atom(s.name)), leaf("arity", Natural(s.arity))) for s in sig
    ]
    return Tree(node("signature", *funcs))


def drop_program(sig: Signature, r: Rule) -> Tree:
    """The self-representation tree; `sig` must already contain pgm."""
    return Tree(node(PGM, drop_signature(sig).root_node, _drop_rule(r)))


def raise_signature(t: Tree) -> Signature:
    root = t.root_node
    if root.label != "signature" or root.value is not None:
        raise _bad(f"expected a signature⟨...⟩ node, found {root.label!r}", ())
    if root.raised is not None:
        return root.raised
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
        sig = Signature(symbols)
    except RasmError as e:
        raise _bad(e.message, ()) from None
    root.raised = sig
    return sig


# ------------------------------------------------------------ program trees

@dataclass(frozen=True, slots=True)
class Program:
    """A validated self-representation: the raised signature and rule."""

    signature: Signature
    rule: Rule


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
    """The program `t` encodes, kept on its root: a tree raises once."""
    root = t.root_node
    if root.label != PGM:
        raise EncodingError("malformed-program-tree", f"root must be labelled pgm, found {root.label!r}", ())
    if root.raised is not None:
        return root.raised
    if len(root.children) != 2 or root.value is not None:
        raise EncodingError("malformed-program-tree", "pgm root needs exactly a signature and a rule child", ())
    sig_tree = extract_signature_subtree(t)
    wrap = extract_rule_subtree(t).root_node
    sig = raise_signature(sig_tree)
    if PGM not in sig or sig.lookup(PGM).arity != 0:
        raise EncodingError("malformed-program-tree", "encoded signature must contain nullary pgm", ())
    if len(wrap.children) != 1 or wrap.value is not None:
        raise EncodingError("malformed-program-tree", "rule wrapper needs exactly one child", ())
    prog = Program(sig, raise_rule(Tree(wrap.children[0])))
    root.raised = prog
    return prog


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


def _conjoin(entries: tuple[Comprehension, ...], extra: Term) -> tuple[Comprehension, ...]:
    # Binders of an entry must not capture the free variables of the guard
    # being pushed in from outside.
    avoid = free_vars(extra)
    out = []
    for e in entries:
        e = rename_binders(e, avoid)
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
        avoid = free_vars(r.guard) | {r.var}
        out = ()
        for e in _beta(r.body):
            e = rename_binders(e, avoid)
            for g in (r.guard, _neg(r.guard)):
                out = out + (Comprehension(e.head, (r.var,) + e.binders, _and(e.guard, g)),)
        return out
    if isinstance(r, T.Let):
        bound = {r.var: r.binding}
        return (_comp(r.binding),) + tuple(subst_term(e, bound) for e in _beta(r.body))
    if isinstance(r, T.Import):
        # The fresh atom is drawn, not read: an entry that reads the
        # variable ranges over it here, where nothing outside can capture it.
        return tuple(
            Comprehension(e.head, (r.var,) + e.binders, e.guard) if r.var in free_vars(e) else e
            for e in _beta(r.body)
        )
    raise TypeError(f"not a rule: {r!r}")


def beta_rule(r: Rule) -> tuple[Comprehension, ...]:
    """Read-set comprehensions of a rule, all closed.

    The free variables of the rule itself are turned into extra binders
    so every entry evaluates under the empty environment.
    """
    out = []
    for e in _beta(r):
        residual = tuple(sorted(free_vars(e)))
        if residual:
            e = Comprehension(e.head, residual + e.binders, e.guard)
        out.append(e)
    return tuple(out)
