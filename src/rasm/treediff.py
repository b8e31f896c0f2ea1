"""The difference between two self-representation trees, as the rule that
rewrites the one into the other.

`tree_diff_updates` walks both trees together and emits shared updates on
pgm: one `subst_at` per minimal changed subtree and one `extend_at` when the
signature grows only at its right end, each naming its node by a path
argument exactly as a rule `pgm <<= subst_at(path, t)` would.  Folded
against the old tree they collapse to the single ordinary update
(pgm, new tree), which is what makes self-rewriting programs expressible
with local edits (partial updates as in Gurevich & Tillmann, TCS 336, 2005).

`tree_diff_rule` is the flat PAR of those partial assignments: the rule a
reflective machine holding the old tree in pgm runs to hold the new one.
The rule has no nesting, so its depth does not grow with the edit's.
"""

from __future__ import annotations

from .encoding import as_program
from .errors import DiffError
from .state import PGM, PGM_LOCATION
from .terms import Literal, Par, PartialAssign
from .trees import Node, Path
from .updates import SharedUpdate, UpdateMultiset
from .values import Natural, TreeVal, TupleVal


def _check_pair(t1: TreeVal, t2: TreeVal) -> None:
    p1 = as_program(t1)
    p2 = as_program(t2)
    if not p2.signature.contains_all(p1.signature):
        missing = sorted(p1.signature.pairs() - p2.signature.pairs())
        raise DiffError("signature-shrunk", f"new tree drops symbols {missing}")


def _sig_suffix(old_sig: Node, new_sig: Node) -> tuple[Node, ...] | None:
    """The appended func nodes when growth is purely a right-extension."""
    k = len(old_sig.children)
    if len(new_sig.children) > k and new_sig.children[:k] == old_sig.children:
        return new_sig.children[k:]
    return None


def _update(op: str, path: Path, nodes: tuple[Node, ...]) -> SharedUpdate:
    at = TupleVal(tuple(Natural(i) for i in path))
    return SharedUpdate(PGM_LOCATION, op, (at,) + tuple(map(TreeVal, nodes)))


def tree_diff_updates(t1: TreeVal, t2: TreeVal) -> UpdateMultiset:
    """The edits, in preorder of the nodes they replace or extend."""
    _check_pair(t1, t2)
    entries: list[SharedUpdate] = []
    todo: list[tuple[Path, Node, Node]] = [((), t1.root_node, t2.root_node)]
    while todo:
        path, old, new = todo.pop()
        if old == new:
            continue
        if old.label == "signature" and new.label == "signature":
            suffix = _sig_suffix(old, new)
            if suffix is not None:
                entries.append(_update("extend_at", path, suffix))
                continue
        if old.label != new.label or old.value != new.value or len(old.children) != len(new.children):
            entries.append(_update("subst_at", path, (new,)))
            continue
        todo.extend((path + (i,), old.children[i], new.children[i]) for i in reversed(range(len(old.children))))
    return UpdateMultiset(entries)


def tree_diff_rule(t1: TreeVal, t2: TreeVal) -> Par:
    """PAR pgm <<= op(path, t...) ... ENDPAR, one partial assignment per edit."""
    return Par(tuple(PartialAssign(PGM, (), u.op, tuple(map(Literal, u.args))) for u in tree_diff_updates(t1, t2)))
