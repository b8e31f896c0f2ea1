"""Update multisets, shared updates, and the collapse into update sets.

An ordinary update fixes a location to a value.  A shared update (produced by
partial assignment) names an operator and argument values; at collapse time
all shared updates on one location are folded over the location's current
value.  The fold must be order-independent: operators are registered with a
commutativity class.  A group whose operators are all registered commutative
is accepted at any size without trying orders.  Any other group of at most
`BRUTE_FORCE_LIMIT` shared updates is verified by trying every permutation;
a larger one is declared inconsistent.

Every tree operator goes through one rewrite of the node at a path: the
root for `right_extend`, the path given as first argument (a tuple of
naturals) for `extend_at` and `subst_at`.  A shared update always names a
whole location; an edit inside a tree value names its node only by that
path argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import EvalError, RasmError
from .state import Location, State
from .trees import Node, Tree, TreeAlgebraError, subst_tt
from .values import UNDEF, Multiset, Natural, TreeVal, TupleVal, Value, value_key

BRUTE_FORCE_LIMIT = 6


@dataclass(frozen=True, slots=True)
class Update:
    """Ordinary update: set `location` to `value`."""

    location: Location
    value: Value

    def key(self) -> tuple:
        return (0, self.location.key(), value_key(self.value))


@dataclass(frozen=True, slots=True)
class SharedUpdate:
    """Shared update: fold `op(current, *args)` into the location at collapse."""

    location: Location
    op: str
    args: tuple[Value, ...]

    def key(self) -> tuple:
        return (1, self.location.key(), self.op, tuple(value_key(a) for a in self.args))


Entry = Update | SharedUpdate


class UpdateMultiset:
    """Multiset of updates and shared updates, kept in canonical order."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Entry] = ()):
        object.__setattr__(self, "entries", tuple(sorted(entries, key=lambda e: e.key())))

    def __setattr__(self, *_):
        raise AttributeError("UpdateMultiset is immutable")

    def union(self, other: "UpdateMultiset") -> "UpdateMultiset":
        return UpdateMultiset(self.entries + other.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"UpdateMultiset({list(self.entries)!r})"


@dataclass(frozen=True, slots=True)
class UpdateSet:
    """Collapsed updates plus the consistency verdict."""

    updates: frozenset[Update]
    consistent: bool

    def sorted(self) -> tuple[Update, ...]:
        return tuple(sorted(self.updates, key=Update.key))


# ------------------------------------------------------- operator registry

COMMUTATIVE = "commutative"
CHECKED = "checked"  # order-independence established per group, not by class


def _fold_munion(current: Value, *args: Value) -> Value:
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


def _tree_arg(v: Value) -> Tree | None:
    if isinstance(v, TreeVal) and isinstance(v.tree, Tree):
        return v.tree
    return None


def _rewrite_at(current: Value, path: tuple[int, ...] | None, edit: Callable[[Node], Tree]) -> Value:
    """The tree in `current` with the node at `path` replaced by `edit(node)`.

    Undef when `current` is not a tree, `path` is missing or leaves the tree,
    or the rewrite breaks a tree invariant.
    """
    t = _tree_arg(current)
    if t is None or path is None:
        return UNDEF
    try:
        o = t.node_at_path(path)
        return TreeVal(subst_tt(t, o, edit(t.node(o))))
    except TreeAlgebraError:
        return UNDEF


def _extend_at(current: Value, path: tuple[int, ...] | None, items: tuple[Value, ...]) -> Value:
    trees = [_tree_arg(v) for v in items]
    if any(x is None for x in trees):
        return UNDEF
    # Appending to a value-carrying leaf is rejected by Node validation.
    added = tuple(x.root_node for x in trees)
    return _rewrite_at(current, path, lambda n: Tree(Node(n.label, n.children + added, n.value)))


def _fold_right_extend(current: Value, *args: Value) -> Value:
    return _extend_at(current, (), args)


def _fold_extend_at(current: Value, *args: Value) -> Value:
    return _extend_at(current, _as_path(args[0]) if args else None, args[1:])


def _fold_subst_at(current: Value, *args: Value) -> Value:
    new = _tree_arg(args[1]) if len(args) == 2 else None
    if new is None:
        return UNDEF
    return _rewrite_at(current, _as_path(args[0]), lambda _n: new)


def _fold_subst_tt(current: Value, *args: Value) -> Value:
    # Whole-value replacement.
    return args[0] if len(args) == 1 else UNDEF


@dataclass(frozen=True, slots=True)
class CollapseOp:
    fold: Callable[..., Value]
    min_args: int
    comm_class: str


COLLAPSE_OPS: dict[str, CollapseOp] = {
    "munion": CollapseOp(_fold_munion, 1, COMMUTATIVE),
    "right_extend": CollapseOp(_fold_right_extend, 1, CHECKED),
    "extend_at": CollapseOp(_fold_extend_at, 2, CHECKED),
    "subst_at": CollapseOp(_fold_subst_at, 2, CHECKED),
    "subst_tt": CollapseOp(_fold_subst_tt, 1, CHECKED),
}


def is_collapse_op(name: str) -> bool:
    return name in COLLAPSE_OPS


def _apply_shared(current: Value, u: SharedUpdate) -> Value:
    op = COLLAPSE_OPS.get(u.op)
    if op is None:
        raise EvalError("unknown-operator", f"no collapse operator {u.op!r}")
    return op.fold(current, *u.args)


# ---------------------------------------------------------------- collapse

def collapse(s: State, um: UpdateMultiset) -> UpdateSet:
    """Fold an update multiset into an update set against the current state.

    Per location: equal ordinary duplicates merge; differing ordinary
    values clash; shared updates fold over the current value, with
    order-independence verified as described in the module docstring; a mix
    of ordinary and shared updates on one location clashes.
    """
    groups: dict[Location, list[Entry]] = {}
    for e in um:
        groups.setdefault(e.location, []).append(e)

    updates: set[Update] = set()
    consistent = True
    for loc in sorted(groups, key=Location.key):
        entries = groups[loc]
        ordinary = [e for e in entries if isinstance(e, Update)]
        shared = [e for e in entries if isinstance(e, SharedUpdate)]
        if ordinary:
            updates.update(set(ordinary))
            if len({u.value for u in ordinary}) > 1 or shared:
                consistent = False
            if shared:
                continue
        if shared:
            folded, ok = _collapse_shared(s.value_of(loc), shared)
            updates.add(Update(loc, folded))
            if not ok:
                consistent = False
    return UpdateSet(frozenset(updates), consistent)


def _collapse_shared(current: Value, shared: list[SharedUpdate]) -> tuple[Value, bool]:
    canonical = sorted(shared, key=SharedUpdate.key)
    result = current
    for u in canonical:
        result = _apply_shared(result, u)
    if all(COLLAPSE_OPS[u.op].comm_class == COMMUTATIVE for u in canonical):
        return result, True
    if len(canonical) > BRUTE_FORCE_LIMIT:
        return result, False
    for perm in set(itertools.permutations(canonical)):
        acc = current
        for u in perm:
            acc = _apply_shared(acc, u)
        if acc != result:
            return result, False
    return result, True


def apply_update_set(s: State, us: UpdateSet) -> State:
    """Successor state: apply a consistent update set, stutter otherwise.

    Writing undef deletes the interpretation entry.  Raises when the set
    claims consistency but two updates disagree on one location.
    """
    if not us.consistent:
        return s
    by_loc: dict[Location, Value] = {}
    for u in us.updates:
        if u.location in by_loc and by_loc[u.location] != u.value:
            raise RasmError("inconsistent-update-set", f"clash at {u.location}")
        by_loc[u.location] = u.value
    interp = dict(s.interp)
    for loc, val in by_loc.items():
        if val == UNDEF:
            interp.pop(loc, None)
        else:
            interp[loc] = val
    return s.with_interp(interp)
