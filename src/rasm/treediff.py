"""Constructive diff between two self-representation trees.

`tree_diff_theta` produces an expression over the tree algebra (plus
subtree references into the old tree) that evaluates to the new tree:
unchanged subtrees are referenced, not copied, with ties broken leftmost;
changed interior nodes are rebuilt; new leaves are emitted literally; pure
signature growth becomes one right-extension of the old signature subtree.

`tree_diff_updates` expresses the same difference as shared updates on pgm,
one `subst_at` per minimal changed subtree and one `extend_at` for pure
signature growth, each naming its node by a path argument exactly as a rule
`pgm <<= subst_at(path, t)` would.  Folding them against the old tree
collapses to the single ordinary update (pgm, new tree), which is what makes
self-rewriting programs expressible with local edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .encoding import as_program
from .errors import DiffError
from .printer import print_tree
from .state import PGM_LOCATION
from .trees import Node, Path, Tree, label_hedge, subtree
from .updates import SharedUpdate, UpdateMultiset
from .values import Natural, TreeVal, TupleVal

AlgebraTerm = Union["SubtreeRef", "TreeLiteral", "Rebuild", "ExtendRight"]


@dataclass(frozen=True, slots=True)
class SubtreeRef:
    """subtree(t, o) for the node of the old tree at this path."""

    path: Path


@dataclass(frozen=True, slots=True)
class TreeLiteral:
    tree: Tree


@dataclass(frozen=True, slots=True)
class Rebuild:
    """label_hedge over rebuilt children."""

    label: str
    parts: tuple[AlgebraTerm, ...]


@dataclass(frozen=True, slots=True)
class ExtendRight:
    """The base tree with extra subtrees appended to its root hedge."""

    base: AlgebraTerm
    extras: tuple[AlgebraTerm, ...]


def eval_algebra(expr: AlgebraTerm, t: Tree) -> Tree:
    if isinstance(expr, SubtreeRef):
        return subtree(t, t.node_at_path(expr.path))
    if isinstance(expr, TreeLiteral):
        return expr.tree
    if isinstance(expr, Rebuild):
        return label_hedge(expr.label, tuple(eval_algebra(p, t) for p in expr.parts))
    if isinstance(expr, ExtendRight):
        base = eval_algebra(expr.base, t)
        extras = tuple(eval_algebra(x, t) for x in expr.extras)
        root = base.root_node
        return Tree(Node(root.label, root.children + tuple(x.root_node for x in extras)))
    raise TypeError(f"not an algebra term: {expr!r}")


def serialize_algebra(expr: AlgebraTerm) -> str:
    if isinstance(expr, SubtreeRef):
        return "subtree@root" if not expr.path else "subtree@" + ".".join(str(i) for i in expr.path)
    if isinstance(expr, TreeLiteral):
        return "#" + print_tree(expr.tree)
    if isinstance(expr, Rebuild):
        return f"label_hedge({expr.label}, " + ", ".join(serialize_algebra(p) for p in expr.parts) + ")"
    if isinstance(expr, ExtendRight):
        parts = [serialize_algebra(expr.base)] + [serialize_algebra(x) for x in expr.extras]
        return "right_extend(" + ", ".join(parts) + ")"
    raise TypeError(f"not an algebra term: {expr!r}")


# ------------------------------------------------------------------- diffs

def _check_pair(t1: Tree, t2: Tree) -> None:
    p1 = as_program(t1)
    p2 = as_program(t2)
    if not p2.signature.contains_all(p1.signature):
        missing = sorted(p1.signature.pairs() - p2.signature.pairs())
        raise DiffError("signature-shrunk", f"new tree drops symbols {missing}")


def _reuse_index(t: Tree) -> dict[Node, Path]:
    # Preorder gives the topmost-leftmost occurrence first; never overwrite.
    index: dict[Node, Path] = {}
    for _o, n, p in t.iter_nodes():
        if n not in index:
            index[n] = p
    return index


def _sig_child_path(t: Tree) -> Path:
    for o in t.children_of(t.root):
        if t.label_of(o) == "signature":
            return t.path_of(o)
    raise DiffError("malformed-program-tree", "no signature child")


def _sig_suffix(old_sig: Node, new_sig: Node) -> tuple[Node, ...] | None:
    """The appended func nodes when growth is purely a right-extension."""
    k = len(old_sig.children)
    if len(new_sig.children) > k and new_sig.children[:k] == old_sig.children:
        return new_sig.children[k:]
    return None


def tree_diff_theta(t1: Tree, t2: Tree) -> AlgebraTerm:
    _check_pair(t1, t2)
    index = _reuse_index(t1)
    sig_path = _sig_child_path(t1)
    old_sig = t1.node(t1.node_at_path(sig_path))

    def build(n: Node) -> AlgebraTerm:
        hit = index.get(n)
        if hit is not None:
            return SubtreeRef(hit)
        if not n.children:
            return TreeLiteral(Tree(n))
        if n.label == "signature":
            suffix = _sig_suffix(old_sig, n)
            if suffix is not None:
                return ExtendRight(SubtreeRef(sig_path), tuple(TreeLiteral(Tree(x)) for x in suffix))
        return Rebuild(n.label, tuple(build(c) for c in n.children))

    return build(t2.root_node)


def tree_diff_updates(t1: Tree, t2: Tree) -> UpdateMultiset:
    _check_pair(t1, t2)
    entries: list[SharedUpdate] = []

    def emit(op: str, path: Path, nodes: tuple[Node, ...]) -> None:
        at = TupleVal(tuple(Natural(i) for i in path))
        entries.append(SharedUpdate(PGM_LOCATION, op, (at,) + tuple(TreeVal(Tree(n)) for n in nodes)))

    def walk(path: Path, old: Node, new: Node) -> None:
        if old == new:
            return
        if old.label == "signature" and new.label == "signature":
            suffix = _sig_suffix(old, new)
            if suffix is not None:
                emit("extend_at", path, suffix)
                return
        if old.label != new.label or old.value != new.value or len(old.children) != len(new.children):
            emit("subst_at", path, (new,))
            return
        for i, (c1, c2) in enumerate(zip(old.children, new.children)):
            walk(path + (i,), c1, c2)

    walk((), t1.root_node, t2.root_node)
    return UpdateMultiset(entries)
