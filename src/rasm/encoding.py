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

Drop and raise are two loops over that table with explicit stacks, drop
through `subrules`, the one walk over a rule's sub-rules; neither recurses,
so a rule of any nesting depth round-trips.  Raising is partial:
anything that does not match the grammar is a malformed-encoding error
carrying the path of the offending node, never a guess.  Nodes are checked
in preorder, so the error names the first fault in document order.  Each
interned node keeps what it raised to in its `raised` slot, written only by
a raise that succeeded: a rewrite of pgm re-raises only the spine it
rebuilt, and every error keeps its path.

`beta_rule` computes the read set of a rule: one closed multiset
comprehension per potential update source.  Two states that agree on pgm
and on the values of all these terms are guaranteed to produce the same
update multiset; the bounded-exploration check exercises exactly this.  It
is one loop from the root down that binds names no comprehension of the rule
binds, so nothing is renamed and the read set grows linearly with the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .errors import EncodingError, RasmError
from .state import PGM, FunctionSymbol, Signature
from . import terms as T
from .terms import Comprehension, Rule, Term, free_vars, map_term, subterms
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
        for t, _bound in subterms(x)
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

def subrules(r: Rule) -> Iterator[Rule]:
    """`r` and every rule under it, in preorder, through the fields of kind
    `rule` and `rules` in each one's `FORMS` row."""
    todo = [r]
    while todo:
        r = todo.pop()
        yield r
        for name, kind in reversed(FORM_OF[type(r)][1]):
            if kind in ("rule", "rules"):
                todo += reversed(getattr(r, name)) if kind == "rules" else [getattr(r, name)]


def _drop_rule(r: Rule) -> Node:
    """`r` encoded, inside its rule⟨...⟩ wrapper.  The rules are listed in
    preorder and built in reverse, so the wrapped sub-rules of each are
    finished first and pop off `built` in child order."""
    order = []  # (label, leaves, sub-rule count), in preorder
    for x in subrules(r):
        label, fields = FORM_OF[type(x)]
        leaves, k = [], 0
        for name, kind in fields:
            v = getattr(x, name)
            if kind in _LEAF_KINDS:
                leaf_label, encode, _decode = _LEAF_KINDS[kind]
                leaves.append(leaf(leaf_label, encode(v)))
            else:
                k += 1 if kind == "rule" else len(v)
        order.append((label, leaves, k))
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


def as_program(t: Tree) -> Program:
    """The program `t` encodes, kept on its root: a tree raises once."""
    root = t.root_node
    if root.label != PGM:
        raise EncodingError("malformed-program-tree", f"root must be labelled pgm, found {root.label!r}", ())
    if root.raised is not None:
        return root.raised
    if len(root.children) != 2 or root.value is not None:
        raise EncodingError("malformed-program-tree", "pgm root needs exactly a signature and a rule child", ())
    sig, wrap = raise_signature(Tree(_unique_child(t, "signature"))), _unique_child(t, "rule")
    if PGM not in sig or sig.lookup(PGM).arity != 0:
        raise EncodingError("malformed-program-tree", "encoded signature must contain nullary pgm", ())
    if len(wrap.children) != 1 or wrap.value is not None:
        raise EncodingError("malformed-program-tree", "rule wrapper needs exactly one child", ())
    prog = Program(sig, raise_rule(Tree(wrap.children[0])))
    root.raised = prog
    return prog


# ------------------------------------------------------------------- beta

def _binders(r: Rule) -> set[str]:
    """The binders of every comprehension in `r`."""
    out = set()
    for x in subrules(r):
        for name, kind in FORM_OF[type(x)][1]:
            if kind in ("term", "bool", "terms"):
                v = getattr(x, name)
                for u in v if kind == "terms" else (v,):
                    out.update(b for t, _bound in subterms(u) if type(t) is Comprehension for b in t.binders)
    return out


_Read = tuple[Term, frozenset[str]]  # a term of the read set, and its free variables


def beta_rule(r: Rule) -> tuple[Comprehension, ...]:
    """Read-set comprehensions of a rule, all closed: one per IF condition,
    LET binding and update, and under a FORALL each one twice, under its
    guard and under the guard's negation.

    One walk from the root down.  Each FORALL and IMPORT variable and each
    free variable of `r` gets a name `x_i` that no comprehension of `r`
    binds.  Every occurrence of a variable that no comprehension binds is
    replaced, so only those binders could capture; none does, and nothing
    is renamed.
    A work item carries a sub-rule, what its variables stand for (`sigma`),
    the binders above it (a FORALL's ranges over every entry, an IMPORT's
    over those that read it) and its paths, one per choice of guard or
    negated guard at the FORALLs above, each its conditions innermost first.
    An entry's guard is one `and` over a path, read as nested `and`s read it.
    """
    names: set[str] = set()  # the binders of r, collected on the first fresh name, and the fresh names
    outside: dict[str, _Read] = {}  # the free variables of r; they lead an entry's binders, by name

    def fresh(name: str) -> _Read:
        if not names:
            names.update(_binders(r))  # r is the root: the loop below names a sub-rule `sub`
        n = next(f"{name}_{i}" for i in count(1) if f"{name}_{i}" not in names)
        names.add(n)
        return T.Var(n), frozenset((n,))

    def read(t: Term, sigma: dict[str, _Read]) -> _Read:
        """`t` with each free variable replaced by the term it stands for."""
        free = free_vars(t)
        if not free:
            return t, frozenset()
        for v in free:
            if v not in sigma and v not in outside:
                outside[v] = fresh(v)
        to = {v: sigma.get(v) or outside[v] for v in free}

        def visit(x: Term, bound: frozenset[str]) -> tuple[Term, object]:
            if type(x) is T.Var and x.name not in bound:
                return to[x.name][0], None
            return x, bound.union(x.binders) if type(x) is Comprehension else bound

        return map_term(t, frozenset(), visit), frozenset().union(*(f for _t, f in to.values()))

    def split(paths: tuple, c: _Read) -> tuple[tuple, tuple]:
        """The paths (each its conditions and their free variables) under `c`, and under `not c`."""
        no = T.BackgroundOp("not", (c[0],))
        # `true` is the neutral condition; dropping it keeps read terms legible.
        yes = tuple((conds if c[0] == _TRUE else (c[0],) + conds, free | c[1]) for conds, free in paths)
        return yes, tuple(((no,) + conds, free | c[1]) for conds, free in paths)

    out = []
    todo = [(r, {}, (), (((), frozenset()),))]  # sub-rule, sigma, binders above, paths
    while todo:
        sub, sigma, above, paths = todo.pop()
        head = None
        if isinstance(sub, T.Assign):
            head = read(T.BackgroundOp("tuple", (sub.rhs,) + sub.args) if sub.args else sub.rhs, sigma)
        elif isinstance(sub, T.PartialAssign):
            folded = T.BackgroundOp(sub.op, (T.Apply(sub.func, sub.args),) + sub.operands)
            head = read(T.BackgroundOp("tuple", sub.args + (folded,)) if sub.args else folded, sigma)
        elif isinstance(sub, T.If):
            head = read(sub.cond, sigma)
            yes, no = split(paths, head)
            todo += [(sub.else_branch, sigma, above, no), (sub.then_branch, sigma, above, yes)]
        elif isinstance(sub, T.Par):
            todo += [(x, sigma, above, paths) for x in reversed(sub.rules)]
        elif isinstance(sub, T.Forall):
            v = fresh(sub.var)
            inner = {**sigma, sub.var: v}
            yes, no = split(paths, read(sub.guard, inner))
            todo.append((sub.body, inner, above + ((v[0].name, True),), yes + no))
        elif isinstance(sub, T.Let):
            head = read(sub.binding, sigma)
            todo.append((sub.body, {**sigma, sub.var: head}, above, paths))
        elif isinstance(sub, T.Import):
            v = fresh(sub.var)
            todo.append((sub.body, {**sigma, sub.var: v}, above + ((v[0].name, False),), paths))
        else:
            raise TypeError(f"not a rule: {sub!r}")
        if head is not None:
            for conds, free in paths:
                reads = head[1] | free
                binders = tuple(t.name for _v, (t, _f) in sorted(outside.items()) if t.name in reads)
                binders += tuple(n for n, always in above if always or n in reads)
                guard = T.BackgroundOp("and", conds) if len(conds) > 1 else conds[0] if conds else _TRUE
                out.append(Comprehension(head[0], binders, guard))
    return tuple(out)
