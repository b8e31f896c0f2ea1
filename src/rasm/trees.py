"""Immutable unranked labelled trees, contexts and hedges.

A tree is a finite, non-empty, ordered tree whose nodes carry labels and whose
leaves may carry values.  A context is a tree with exactly one leaf labelled
with the hole marker ``^`` (rendered that way in canonical text); substituting
a tree for the hole turns it back into a tree.  A hedge is a finite sequence
of trees (possibly empty).

Node identifiers are canonical: the nodes of a tree are numbered 0..n-1 in
preorder, so every operation returns a freshly renumbered result and identity
of nodes across operations is tracked by child-index paths, not by ids.
There is no id index: every `Node` caches its subtree size and hole count
when it is built, and an id is found by walking down from the root, skipping
whole sibling subtrees by their cached sizes.
Leaf values are opaque here; the runtime stores `values.Value` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import TreeAlgebraError

XI = "^"  # label of the context hole; forbidden everywhere else

Path = tuple[int, ...]  # child-index path from the root


@dataclass(frozen=True, slots=True)
class Node:
    """One tree node: a label, an ordered child tuple, an optional leaf value.

    Internal nodes never carry values; this is enforced on construction.
    ``size`` (nodes in this subtree) and ``holes`` (hole leaves in it) are
    computed once from the already-built children and take no part in
    equality, hashing or repr.
    """

    label: str
    children: tuple["Node", ...] = ()
    value: object = None
    size: int = field(init=False, repr=False, compare=False)
    holes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise TreeAlgebraError("bad-label", f"label must be a non-empty string, got {self.label!r}")
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))
        if self.children and self.value is not None:
            raise TreeAlgebraError("value-on-internal-node", f"node {self.label!r} has children and a value")
        size, holes = 1, 1 if self.label == XI else 0
        for c in self.children:
            size += c.size
            holes += c.holes
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "holes", holes)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def node(label: str, *children: Node) -> Node:
    return Node(label, tuple(children))


def leaf(label: str, value: object = None) -> Node:
    return Node(label, (), value)


class _TreeBase:
    """Shared accessors over a root Node; ids are preorder positions."""

    __slots__ = ("_root", "_hash")

    def __init__(self, root: Node):
        self._root = root
        self._hash: Optional[int] = None

    @property
    def root_node(self) -> Node:
        return self._root

    @property
    def root(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return self._root.size

    @property
    def domain(self) -> range:
        return range(self.size)

    def _locate(self, o: int) -> tuple[Node, Path]:
        """The node with preorder id `o` and its path, found top-down."""
        n = self._root
        if not 0 <= o < n.size:
            raise TreeAlgebraError("unknown-node", f"node {o} not in domain of size {n.size}")
        path = []
        while o:
            o -= 1  # step past `n` itself into its first child's subtree
            for i, c in enumerate(n.children):
                if o < c.size:
                    break
                o -= c.size
            path.append(i)
            n = c
        return n, tuple(path)

    def node(self, o: int) -> Node:
        return self._locate(o)[0]

    def label_of(self, o: int) -> str:
        return self.node(o).label

    def value_of(self, o: int) -> object:
        return self.node(o).value

    def path_of(self, o: int) -> Path:
        return self._locate(o)[1]

    def children_of(self, o: int) -> tuple[int, ...]:
        ids = []
        nxt = o + 1
        for c in self.node(o).children:
            ids.append(nxt)
            nxt += c.size
        return tuple(ids)

    def node_at_path(self, path: Sequence[int]) -> int:
        o, n = 0, self._root
        for i in path:
            if not 0 <= i < len(n.children):
                raise TreeAlgebraError("unknown-node", f"path {tuple(path)} leaves the tree at {o}")
            o += 1 + sum(c.size for c in n.children[:i])
            n = n.children[i]
        return o

    def iter_nodes(self) -> Iterator[tuple[int, Node, Path]]:
        """(id, node, path) for every node, in preorder."""
        todo: list[tuple[Node, Path]] = [(self._root, ())]
        o = 0
        while todo:
            n, path = todo.pop()
            yield o, n, path
            o += 1
            todo.extend((n.children[i], path + (i,)) for i in reversed(range(len(n.children))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _TreeBase):
            return NotImplemented
        return self._root == other._root

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._root)
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._root!r})"


class Tree(_TreeBase):
    """A hole-free tree."""

    __slots__ = ()

    def __init__(self, root: Node):
        if root.holes != 0:
            raise TreeAlgebraError("unexpected-hole", "a Tree must contain no hole leaf")
        super().__init__(root)


class Context(_TreeBase):
    """A tree with exactly one hole leaf (label ``^``, no value)."""

    __slots__ = ()

    def __init__(self, root: Node):
        if root.holes != 1:
            raise TreeAlgebraError("not-a-context", f"a Context needs exactly one hole, found {root.holes}")
        super().__init__(root)

    @property
    def hole(self) -> int:
        """NodeId of the hole leaf."""
        o, n = 0, self._root
        while n.label != XI:
            o += 1
            for c in n.children:
                if c.holes:
                    break
                o += c.size
            n = c
        if not n.is_leaf or n.value is not None:
            raise TreeAlgebraError("not-a-context", "hole must be a bare leaf")
        return o


HOLE = Context(Node(XI))  # the trivial context

Hedge = tuple[Tree, ...]


def hedge(*trees: Tree) -> Hedge:
    return tuple(trees)


def _rebuild(n: Node, path: Path, depth: int, replacement) -> Node:
    """Replace the subtree at `path` below `n`; `replacement` is a Node or a
    hedge-splice marker (list of Nodes) handled by the caller for hedges."""
    if depth == len(path):
        return replacement
    i = path[depth]
    kids = list(n.children)
    kids[i] = _rebuild(kids[i], path, depth + 1, replacement)
    return Node(n.label, tuple(kids), n.value)


def _splice(n: Node, path: Path, depth: int, items: tuple[Node, ...]) -> Node:
    """Replace the node at `path` by zero or more siblings spliced in place."""
    i = path[depth]
    kids = list(n.children)
    if depth == len(path) - 1:
        kids[i:i + 1] = list(items)
    else:
        kids[i] = _splice(kids[i], path, depth + 1, items)
    return Node(n.label, tuple(kids), n.value)


# ---------------------------------------------------------------- selectors

def subtree(t: _TreeBase, o: int) -> Tree | Context:
    """Largest subtree rooted at node `o`, canonically renumbered."""
    n = t.node(o)
    if n.holes == 0:
        return Tree(n)
    if n.holes == 1:
        return Context(n)
    raise TreeAlgebraError("not-a-context", "subtree contains several holes")  # only via malformed input


def context_at(t: _TreeBase, o1: int, o2: int) -> Context:
    """The subtree at `o1` with the subtree at `o2` punched out as the hole.

    `o2` must lie strictly below `o1`.
    """
    p1, p2 = t.path_of(o1), t.path_of(o2)
    if len(p2) <= len(p1) or p2[: len(p1)] != p1:
        raise TreeAlgebraError("not-an-ancestor", f"node {o1} is not a strict ancestor of {o2}")
    sub = t.node(o1)
    rel = p2[len(p1):]
    return Context(_rebuild(sub, rel, 0, Node(XI)))


# ------------------------------------------------------------ substitutions

def subst_tt(t1: Tree, o: int, t2: Tree) -> Tree:
    """t1 with the largest subtree at `o` replaced by t2."""
    path = t1.path_of(o)
    return Tree(_rebuild(t1.root_node, path, 0, t2.root_node))


def subst_tc(t1: Tree, o: int, c: Context = HOLE) -> Context:
    """t1 with the subtree at `o` replaced by the context c.

    With the trivial context this punches a hole at `o`; the general form is
    the shortcut composition through the trivial-hole intermediate.
    """
    path = t1.path_of(o)
    punched = Context(_rebuild(t1.root_node, path, 0, Node(XI)))
    if c is HOLE or c == HOLE:
        return punched
    return subst_cc(punched, c)


def subst_cc(c1: Context, c2: Context) -> Context:
    """c1 with its hole replaced by c2 (context composition)."""
    path = c1.path_of(c1.hole)
    return Context(_rebuild(c1.root_node, path, 0, c2.root_node))


def subst_ct(c: Context, t: Tree) -> Tree:
    """c with its hole replaced by t; no hole remains."""
    path = c.path_of(c.hole)
    return Tree(_rebuild(c.root_node, path, 0, t.root_node))


# ---------------------------------------------------------------- operators

def label_hedge(a: str, h: Sequence[Tree]) -> Tree:
    """A new root labelled `a` over the hedge's trees (empty hedge: a leaf)."""
    if a == XI:
        raise TreeAlgebraError("xi-label-forbidden", "the hole label cannot label a new root")
    return Tree(Node(a, tuple(t.root_node for t in h)))


def label_context(a: str, c: Context) -> Context:
    """A new root labelled `a` over the context."""
    if a == XI:
        raise TreeAlgebraError("xi-label-forbidden", "the hole label cannot label a new root")
    return Context(Node(a, (c.root_node,)))


def left_extend(h: Sequence[Tree], c: Context) -> Context:
    """Prepend the hedge's trees to the root children of c."""
    root = c.root_node
    if root.label == XI:
        raise TreeAlgebraError("trivial-context-not-extendable", "cannot extend the trivial context")
    return Context(Node(root.label, tuple(t.root_node for t in h) + root.children, root.value))


def right_extend(h: Sequence[Tree], c: Context) -> Context:
    """Append the hedge's trees to the root children of c."""
    root = c.root_node
    if root.label == XI:
        raise TreeAlgebraError("trivial-context-not-extendable", "cannot extend the trivial context")
    return Context(Node(root.label, root.children + tuple(t.root_node for t in h), root.value))


def concat_hedges(h1: Sequence[Tree], h2: Sequence[Tree]) -> Hedge:
    return tuple(h1) + tuple(h2)


def inject_hedge(c: Context, h: Sequence[Tree]) -> Tree:
    """Replace the hole by the hedge's trees spliced at the hole position.

    An empty (or multi-tree) hedge needs the hole to sit below the root: the
    result must still be a single non-empty tree.
    """
    items = tuple(t.root_node for t in h)
    path = c.path_of(c.hole)
    if not path:  # hole at root
        if len(items) == 1:
            return Tree(items[0])
        code = "empty-hedge-at-root" if not items else "hedge-at-root"
        raise TreeAlgebraError(code, f"cannot splice {len(items)} trees at a root hole")
    return Tree(_splice(c.root_node, path, 0, items))


def inject_context(c1: Context, c2: Context) -> Context:
    """Replace c1's hole by the context c2 (alias of composition)."""
    return subst_cc(c1, c2)


def trees_equal(t1: _TreeBase, t2: _TreeBase) -> bool:
    """Structural equality: labels, sibling order and leaf values, ids ignored."""
    return t1.root_node == t2.root_node
