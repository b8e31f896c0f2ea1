"""Immutable unranked labelled trees, contexts and hedges.

A tree is a finite, non-empty, ordered tree whose nodes carry labels and whose
leaves may carry values.  A context is a tree with exactly one leaf labelled
with the hole marker ``^`` (rendered that way in canonical text); substituting
a tree for the hole turns it back into a tree.  A hedge is a finite sequence
of trees (possibly empty).

The operations at the end of this module are the background tree algebra a
rule reaches through `evaluator.BACKGROUND_OPS`: the selectors `subtree` (as
`subtree_at`) and `context_at`, the substitutions `subst_cc` and `subst_ct`,
and the hedge operations `label_hedge` and `concat_hedges`.  `subst_tt` is
the one rewrite behind the tree collapse operators of `updates`.

A node is named by its path: the tuple of child indexes leading to it from
the root, which is ``()``.  Paths are the only node address; there are no
node ids.  Every operation returns a new tree and leaves its inputs alone,
so a path names the same position before and after an edit elsewhere;
lookups and edits walk down the path and rebuild the spine above it in
loops, without recursion.

Every immutable form is hash-consed through the one weak table `_INTERNED`
(Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", 2006): nodes and
trees here, the composite values of `values`, the terms and rules of
`terms`.  A constructor returns the one live form of its class with equal
fields, each keyed with its class too (leaves holding `1` and `True` stay
apart), so `==` is `is`, the hash is the identity hash, and neither walks
a form.  A node is checked and counts the hole leaves below it when first
built; its slots `raised` (what `encoding` raises it to) and `tree_key`
(on the root of a keyed tree value, its `values.value_key`) are filled
later.  Leaf values are opaque here; the runtime stores `values.Value`s.
"""

from __future__ import annotations

import weakref
from dataclasses import MISSING, dataclass
from typing import Iterator, Sequence

from .errors import TreeAlgebraError

XI = "^"  # label of the context hole; forbidden everywhere else

Path = tuple[int, ...]  # child-index path from the root


class _Entry(weakref.ref):
    """The intern table's weak reference to a form, with the form's key."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    # A form died: drop its entry, unless a new form has taken the key since.
    other = _INTERNED.pop(entry.key, entry)
    if other is not entry:
        _INTERNED[entry.key] = other


_INTERNED: dict[tuple, _Entry] = {}


class Interned:
    """Base of the immutable forms, frozen slotted dataclasses with neither
    `__eq__` nor `__init__`.  Each gets `_build(cls, *fields)`, written out
    for its fields (a loop over them costs more than the lookup), which
    returns the live form with equal fields, each keyed with its class, or
    builds and enters one; it is the constructor unless the class has its
    own, which checks or sorts the fields first."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__match_args__")  # on the slotted class `dataclass` makes
        if fields is None:
            return
        args, scope = ", ".join(fields), {}
        sets = "".join(f"\n    object.__setattr__(x, {f!r}, {f})" for f in fields)
        exec(f"""def _build(cls, {args}):
    key = (cls, {args}, {', '.join(f + '.__class__' for f in fields)})
    entry = _INTERNED.get(key)
    if entry is not None and (x := entry()) is not None:
        return x
    x = object.__new__(cls){sets}
    entry = _INTERNED[key] = _Entry(x, _forget)
    entry.key = key
    return x""", globals(), scope)
        defaults = [cls.__dataclass_fields__[f].default for f in fields]
        scope["_build"].__defaults__ = tuple(d for d in defaults if d is not MISSING) or None
        cls._build = staticmethod(scope["_build"])
        if "__new__" not in cls.__dict__:
            cls.__new__ = cls._build


class Node:
    """One tree node: a label, an ordered child tuple, an optional leaf value
    (internal nodes never carry one).  A node is shared by every tree that
    holds an equal one, so nothing assigns to its first four fields after
    this constructor; `raised` and `tree_key` are caches their owners fill.
    """

    __slots__ = ("label", "children", "value", "holes", "raised", "tree_key", "__weakref__")

    def __new__(cls, label: str, children: Sequence["Node"] = (), value: object = None) -> "Node":
        if type(children) is not tuple:
            children = tuple(children)
        key = (cls, label, children, value, value.__class__)
        entry = _INTERNED.get(key)
        if entry is not None and (n := entry()) is not None:
            return n
        if not isinstance(label, str) or not label:
            raise TreeAlgebraError("bad-label", f"label must be a non-empty string, got {label!r}")
        if children and value is not None:
            raise TreeAlgebraError("value-on-internal-node", f"node {label!r} has children and a value")
        n = object.__new__(cls)
        n.label, n.children, n.value, n.raised, n.tree_key = label, children, value, None, None
        n.holes = (label == XI) + sum([c.holes for c in children])
        entry = _INTERNED[key] = _Entry(n, _forget)
        entry.key = key
        return n

    def __repr__(self) -> str:
        return f"Node(label={self.label!r}, children={self.children!r}, value={self.value!r})"

    @property
    def is_leaf(self) -> bool:
        return not self.children


def node(label: str, *children: Node) -> Node:
    return Node(label, tuple(children))


def leaf(label: str, value: object = None) -> Node:
    return Node(label, (), value)


def _spine(root: Node, path: Path) -> list[Node]:
    """The nodes from `root` down to the node at `path`, both included."""
    spine = [root]
    for depth, i in enumerate(path):
        kids = spine[-1].children
        if not 0 <= i < len(kids):
            raise TreeAlgebraError("unknown-node", f"path {path} leaves the tree at depth {depth}")
        spine.append(kids[i])
    return spine


@dataclass(frozen=True, slots=True, eq=False, init=False)
class _TreeBase(Interned):
    """Shared accessors over a root Node; a node is named by its path."""

    _root: Node

    @property
    def root_node(self) -> Node:
        return self._root

    def at(self, path: Path) -> Node:
        """The node at `path`, found by one walk down from the root."""
        return _spine(self._root, path)[-1]

    def iter_nodes(self) -> Iterator[tuple[Path, Node]]:
        """(path, node) for every node, in preorder."""
        todo: list[tuple[Path, Node]] = [((), self._root)]
        while todo:
            path, n = todo.pop()
            yield path, n
            todo.extend((path + (i,), n.children[i]) for i in reversed(range(len(n.children))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._root!r})"


class Tree(_TreeBase):
    """A hole-free tree."""

    __slots__ = ()

    def __new__(cls, root: Node) -> "Tree":
        if root.holes != 0:
            raise TreeAlgebraError("unexpected-hole", "a Tree must contain no hole leaf")
        return cls._build(cls, root)


class Context(_TreeBase):
    """A tree with exactly one hole leaf (label ``^``, no value)."""

    __slots__ = ()

    def __new__(cls, root: Node) -> "Context":
        if root.holes != 1:
            raise TreeAlgebraError("not-a-context", f"a Context needs exactly one hole, found {root.holes}")
        return cls._build(cls, root)

    @property
    def hole(self) -> Path:
        """Path of the hole leaf, following the one child that holds it."""
        path, n = [], self._root
        while n.label != XI:
            i = next(i for i, c in enumerate(n.children) if c.holes)
            path.append(i)
            n = n.children[i]
        if not n.is_leaf or n.value is not None:
            raise TreeAlgebraError("not-a-context", "hole must be a bare leaf")
        return tuple(path)


def _splice(root: Node, path: Path, new: Node) -> Node:
    """`root` with the node at `path` replaced by `new`.

    The path is checked on the way down and the spine above it is rebuilt
    bottom-up in a loop, so depth costs no recursion.
    """
    spine = _spine(root, path)
    for parent, i in zip(reversed(spine[:-1]), reversed(path)):
        kids = parent.children
        new = Node(parent.label, kids[:i] + (new,) + kids[i + 1:], parent.value)
    return new


# ---------------------------------------------------------------- selectors

def subtree(t: _TreeBase, path: Path) -> Tree | Context:
    """Largest subtree rooted at the node at `path`."""
    n = t.at(path)
    if n.holes == 0:
        return Tree(n)
    if n.holes == 1:
        return Context(n)
    raise TreeAlgebraError("not-a-context", "subtree contains several holes")  # only via malformed input


def context_at(t: _TreeBase, p1: Path, p2: Path) -> Context:
    """The subtree at `p1` with the subtree at `p2` punched out as the hole.

    `p2` must lie strictly below `p1`, that is `p1` is a proper prefix of it.
    """
    if len(p2) <= len(p1) or p2[: len(p1)] != p1:
        raise TreeAlgebraError("not-an-ancestor", f"node {p1} is not a strict ancestor of {p2}")
    return Context(_splice(t.at(p1), p2[len(p1):], Node(XI)))


# ------------------------------------------------------------ substitutions

def subst_tt(t1: Tree, path: Path, t2: Tree) -> Tree:
    """t1 with the largest subtree at `path` replaced by t2."""
    return Tree(_splice(t1.root_node, path, t2.root_node))


def subst_cc(c1: Context, c2: Context) -> Context:
    """c1 with its hole replaced by c2 (context composition)."""
    return Context(_splice(c1.root_node, c1.hole, c2.root_node))


def subst_ct(c: Context, t: Tree) -> Tree:
    """c with its hole replaced by t; no hole remains."""
    return Tree(_splice(c.root_node, c.hole, t.root_node))


# ------------------------------------------------------------------ hedges

def label_hedge(a: str, h: Sequence[Tree]) -> Tree:
    """A new root labelled `a` over the hedge's trees (empty hedge: a leaf)."""
    if a == XI:
        raise TreeAlgebraError("xi-label-forbidden", "the hole label cannot label a new root")
    return Tree(Node(a, tuple(t.root_node for t in h)))


def concat_hedges(h1: Sequence[Tree], h2: Sequence[Tree]) -> tuple[Tree, ...]:
    return tuple(h1) + tuple(h2)
