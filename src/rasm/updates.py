"""Update multisets, shared updates, and the collapse into update sets.

An ordinary update fixes a location to a value.  A shared update (produced by
partial assignment) names an operator and argument values; at collapse time
all shared updates on one location are folded once, in canonical order, over
the location's current value.  The fold must not depend on that order, so
the group is consistent exactly when every two of its updates are
independent, that is when they

- are both `munion` (multiset union commutes);
- make the same edit: equal kind, path and payload, where `right_extend(x)`
  is the append `extend_at((), x)`, and `subst_tt(t)`, for a tree `t`, is
  the edit `subst_at((), t)` (the two fold to `t` in either order);
- are both tree operators and neither path is a prefix of the other; or
- one appends at a path `p`, and the other acts strictly below `p` through a
  child index that `p` already has in the current value.

Pairwise independent updates commute on every value the group can reach, so
every order folds to the same value, whatever the group's size.

Every tree operator goes through one rewrite of the node at a path: the
root for `right_extend` and `subst_tt`, the path given as first argument (a
tuple of naturals) for `extend_at` and `subst_at`; for independence an
undecodable path counts as the root.  A shared update always names a whole
location; an edit inside a tree value names its node only by that path
argument.  A group folds on the tree's root node, one `trees.subst_tt` per
edit, and the tree it ends with is wrapped in one tree value.

Entries are named tuples: an `Update` is the pair ``(location, value)``
and a `SharedUpdate` the triple ``(location, op, args)``.  They hash,
compare and read their fields in C, and the evaluator builds them, and
their locations, with `tuple.__new__` and no Python frame.  An update
multiset keeps its entries in evaluation order; it is a multiset, so it
compares and hashes without regard to that order.
`collapse` groups the entries by location in a dict: a lone ordinary
update passes through as it is, and only a shared group of two or more is
sorted, by `SharedUpdate.key`, into its canonical fold order.
`apply_update_set` writes the set over one copy of the interpretation, so a
step costs its update set, not the state.  The one canonical order of an
update set's lines is the trace's, and `printer.format_trace` sorts them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import EvalError, RasmError
from .state import Location, State
from .trees import Node, TreeAlgebraError, subst_tt, subtree
from .values import UNDEF, Multiset, Natural, TreeVal, TupleVal, Value, value_key


class Update(NamedTuple):
    """Ordinary update: set `location` to `value`."""

    location: Location
    value: Value


class SharedUpdate(NamedTuple):
    """Shared update: fold `op(current, *args)` into the location at collapse."""

    location: Location
    op: str
    args: tuple[Value, ...]

    def key(self) -> tuple:
        """Canonical fold order within one location's shared group."""
        return (self.op, tuple(map(value_key, self.args)))


Entry = Update | SharedUpdate


class UpdateMultiset:
    """Multiset of updates and shared updates.  `entries` holds them in the
    order they were given, which for the evaluator is its deterministic
    evaluation order; equality and hashing ignore that order."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Entry] = ()):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *_):
        raise AttributeError("UpdateMultiset is immutable")

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateMultiset):
            return NotImplemented
        return self.entries == other.entries or Counter(self.entries) == Counter(other.entries)

    def __hash__(self) -> int:
        return hash(frozenset(Counter(self.entries).items()))

    def __repr__(self) -> str:
        return f"UpdateMultiset({list(self.entries)!r})"


@dataclass(frozen=True, slots=True)
class UpdateSet:
    """Collapsed updates, distinct, plus the consistency verdict.  A
    consistent set has one update per location; an inconsistent one keeps
    every distinct ordinary update of a clashing location.  The tuple
    follows the multiset's entries; its order carries no meaning."""

    updates: tuple[Update, ...]
    consistent: bool


# ------------------------------------------------------- operator registry

def _fold_munion(current: Value | Node, *args: Value) -> Value:
    acc = current
    for a in args:
        if not (isinstance(acc, Multiset) and isinstance(a, Multiset)):
            return UNDEF
        acc = acc.union(a)
    return acc


def _as_path(v: Value) -> tuple[int, ...] | None:
    if not isinstance(v, TupleVal):
        return None
    out = []
    for item in v.items:
        if not isinstance(item, Natural):
            return None
        out.append(item.n)
    return tuple(out)


def _tree_arg(v: Value | Node, holes: int = 0) -> Node | None:
    """The root node of a tree value, or of a context with `holes=1`.  A
    root node stands for its tree value: a fold carries the running tree
    as its root and wraps it once, at the end (`_fold`)."""
    n = v.root_node if type(v) is TreeVal else v
    return n if type(n) is Node and n.holes == holes else None


def _rewrite_at(current: Value | Node, path: tuple[int, ...] | None, edit: Callable[[Node], Node]) -> Value | Node:
    """The tree in `current` with the node at `path` replaced by `edit(node)`.

    Undef when `current` is not a tree, `path` is missing or leaves the tree,
    or the rewrite breaks a tree invariant.
    """
    t = _tree_arg(current)
    if t is None or path is None:
        return UNDEF
    try:
        return subst_tt(t, path, edit(subtree(t, path)))
    except TreeAlgebraError:
        return UNDEF


def _extend_at(current: Value | Node, path: tuple[int, ...] | None, items: tuple[Value, ...]) -> Value | Node:
    added = tuple(_tree_arg(v) for v in items)
    if None in added:
        return UNDEF
    # Appending to a value-carrying leaf is rejected by Node validation.
    return _rewrite_at(current, path, lambda n: Node(n.label, n.children + added, n.value))


def _fold_right_extend(current: Value | Node, *args: Value) -> Value | Node:
    return _extend_at(current, (), args)


def _fold_extend_at(current: Value | Node, *args: Value) -> Value | Node:
    return _extend_at(current, _as_path(args[0]) if args else None, args[1:])


def _fold_subst_at(current: Value | Node, *args: Value) -> Value | Node:
    new = _tree_arg(args[1]) if len(args) == 2 else None
    if new is None:
        return UNDEF
    return _rewrite_at(current, _as_path(args[0]), lambda _n: new)


def _fold_subst_tt(current: Value | Node, *args: Value) -> Value:
    # Whole-value replacement.
    return args[0] if len(args) == 1 else UNDEF


Edit = tuple[str, tuple[int, ...] | None, tuple[Value, ...]]  # kind, path, payload


def _at_path(kind: str) -> Callable[[tuple[Value, ...]], Edit]:
    return lambda args: (kind, _as_path(args[0]) if args else None, args[1:])


def _subst_tt_edit(args: tuple[Value, ...]) -> Edit:
    # A tree payload makes `subst_tt(t)` the edit `subst_at((), t)`.
    kind = "subst" if len(args) == 1 and _tree_arg(args[0]) is not None else "subst_tt"
    return (kind, (), args)


@dataclass(frozen=True, slots=True)
class CollapseOp:
    fold: Callable[..., Value]
    min_args: int
    edit: Callable[[tuple[Value, ...]], Edit]  # what the pair rule compares


COLLAPSE_OPS: dict[str, CollapseOp] = {
    # Any two munion updates are independent, so they share one edit.
    "munion": CollapseOp(_fold_munion, 1, lambda args: ("munion", (), ())),
    "right_extend": CollapseOp(_fold_right_extend, 1, lambda args: ("append", (), args)),
    "extend_at": CollapseOp(_fold_extend_at, 2, _at_path("append")),
    "subst_at": CollapseOp(_fold_subst_at, 2, _at_path("subst")),
    "subst_tt": CollapseOp(_fold_subst_tt, 1, _subst_tt_edit),
}


def _fold(current: Value, steps: Iterable[tuple[str, tuple[Value, ...]]]) -> Value:
    """`current` with each (operator, arguments) step folded in, in order.
    A tree is folded as its root node, and the tree the last edit leaves is
    wrapped in one tree value, however many edits made it."""
    acc = current.root_node if type(current) is TreeVal else current
    for name, args in steps:
        op = COLLAPSE_OPS.get(name)
        if op is None:
            raise EvalError("unknown-operator", f"no collapse operator {name!r}")
        acc = op.fold(acc, *args)
    return TreeVal(acc) if type(acc) is Node else acc


# ---------------------------------------------------------------- collapse

def collapse(s: State, um: UpdateMultiset) -> UpdateSet:
    """Fold an update multiset into an update set against the current state.

    Per location: equal ordinary duplicates merge; differing ordinary
    values clash; shared updates fold over the current value, with
    order-independence verified as described in the module docstring; a mix
    of ordinary and shared updates on one location clashes.  Entries are
    grouped by location in a dict, so no location is compared with another.
    """
    entries = um.entries
    groups: dict[Location, Entry | list[Entry]] = {e.location: e for e in entries}
    if len(groups) < len(entries):  # some location has two or more entries
        groups = {}
        for e in entries:
            groups.setdefault(e.location, []).append(e)
    updates: list[Update] = []
    consistent = True
    for loc, g in groups.items():
        if type(g) is list and len(g) == 1:
            g = g[0]
        if type(g) is Update:
            updates.append(g)
        elif type(g) is SharedUpdate:
            updates.append(Update(loc, _fold(s.value_of(loc), ((g.op, g.args),))))
        elif all(type(e) is SharedUpdate for e in g):
            folded, ok = _collapse_shared(s.value_of(loc), sorted(g, key=SharedUpdate.key))
            updates.append(Update(loc, folded))
            consistent = consistent and ok
        else:
            ordinary = [e for e in g if type(e) is Update]
            distinct = list(dict.fromkeys(ordinary))
            updates += distinct
            consistent = consistent and len(distinct) == 1 and len(ordinary) == len(g)
    return UpdateSet(tuple(updates), consistent)


def _collapse_shared(current: Value, shared: list[SharedUpdate]) -> tuple[Value, bool]:
    edits = {COLLAPSE_OPS[u.op].edit(u.args) for u in shared}  # equal edits are independent
    ok = all(_independent(current, a, b) for a, b in itertools.combinations(edits, 2))
    return _fold(current, [(u.op, u.args) for u in shared]), ok


def _independent(current: Value, a: Edit, b: Edit) -> bool:
    """Whether two different edits are independent (module docstring).

    `munion` and `subst_tt` act at the root and do not append, so only
    equal edits are independent of them.
    """
    pa, pb = a[1] or (), b[1] or ()
    if len(pa) > len(pb):
        a, pa, pb = b, pb, pa
    if pb[: len(pa)] != pa:
        return True
    if a[0] != "append" or len(pb) == len(pa):
        return False
    t = _tree_arg(current)
    try:
        return t is not None and pb[len(pa)] < len(subtree(t, pa).children)
    except TreeAlgebraError:
        return False


def apply_update_set(s: State, us: UpdateSet) -> dict[Location, Value]:
    """The successor's interpretation: one copy of `s.interp` with a
    consistent update set written over it, or `s.interp` itself when the
    set is inconsistent (a stutter).

    Undef is written like any value; `State` drops such entries.  Raises
    when the set claims consistency but two updates disagree on one
    location, naming the first such location in canonical order.
    """
    if not us.consistent:
        return s.interp
    written = {u.location: u.value for u in us.updates}
    if len(written) < len(us.updates):  # a location written twice: only hand-built sets
        clashes = [u.location for u in us.updates if written[u.location] != u.value]
        if clashes:
            raise RasmError("inconsistent-update-set", f"clash at {min(clashes, key=Location.key)}")
    interp = dict(s.interp)
    interp.update(written)
    return interp
