"""Runtime values: the base set every machine state draws from.

Variants: atoms, truth values, naturals, undef, tuples, multisets, trees,
and quoted terms (dropped terms).  A rule becomes a value only as its program
tree, the value of ``pgm``.  All variants are immutable and hashable so they
can serve as location arguments and multiset members.

The four scalar variants hash and compare in C.  A natural is an `int` and
an atom a `str`, so each hashes and compares as that builtin does; truth
values and undef are the singletons `TRUE`, `FALSE` and `UNDEF`, so equality
is identity.  Truth values and naturals stay distinct variants:
``Boolean(True) != Natural(1)`` even though Python's own ``True == 1``.
Only a raw `int` or `str` equals a natural or an atom; values never hold
one, and the tree intern table keys leaves by class as well.  Multisets
ignore insertion order but respect multiplicity; they keep their items
sorted by the canonical total order `value_key`, which also orders the
active domain and every printed update set.  A natural or an atom is keyed
as the `int` or `str` it is, and a tuple, multiset or tree value by one
flat token sequence, so that no key comparison recurses, however deep the
value nests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .trees import Node, _TreeBase


class Value:
    """Marker base class of every variant below."""

    __slots__ = ()


class Atom(str, Value):
    """A named base-set element.  Reserve atoms use the ``$`` namespace."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Atom":
        if not name:
            raise ValueError("atom name must be non-empty")
        return str.__new__(cls, name)

    name = property(str.__str__)  # a plain str

    def __repr__(self) -> str:
        return f"Atom(name={str.__repr__(self)})"


class Boolean(Value):
    """A truth value: `Boolean(flag)` is `TRUE` or `FALSE`, the only two."""

    __slots__ = ()

    def __new__(cls, flag: bool) -> "Boolean":
        return TRUE if flag else FALSE

    @property
    def flag(self) -> bool:
        return self is TRUE

    def __repr__(self) -> str:
        return f"Boolean(flag={self is TRUE})"


class Natural(int, Value):
    __slots__ = ()

    def __new__(cls, n: int) -> "Natural":
        if n < 0:
            raise ValueError(f"naturals are non-negative, got {n}")
        return int.__new__(cls, n)

    n = property(int.__int__)  # a plain int

    def __repr__(self) -> str:
        return f"Natural(n={int.__repr__(self)})"


class Undef(Value):
    """The undefined value, absence of an interpretation entry: `Undef()`
    is `UNDEF`, the only one."""

    __slots__ = ()

    def __new__(cls) -> "Undef":
        return UNDEF

    def __repr__(self) -> str:
        return "Undef()"


@dataclass(frozen=True, slots=True)
class TupleVal(Value):
    items: tuple[Value, ...]

    def __len__(self) -> int:
        return len(self.items)


class Multiset(Value):
    """Finite multiset of values; equality ignores order, not multiplicity."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Value] = ()):
        object.__setattr__(self, "items", tuple(sorted(items, key=value_key)))

    def __setattr__(self, *_):
        raise AttributeError("Multiset is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(("multiset", self.items))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def union(self, other: "Multiset") -> "Multiset":
        return Multiset(self.items + other.items)

    def __repr__(self) -> str:
        return f"Multiset({list(self.items)!r})"


@dataclass(frozen=True, slots=True)
class TreeVal(Value):
    """A tree (or context) as a first-class value."""

    tree: _TreeBase


@dataclass(frozen=True, slots=True)
class DroppedTerm(Value):
    """A term quoted into the value world (syntax as data)."""

    term: object  # terms.Term; untyped here to keep the layering acyclic
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The term's hash walks it in Python; one walk serves every hash.
        object.__setattr__(self, "_hash", hash(self.term))

    def __hash__(self) -> int:
        return self._hash


UNDEF = object.__new__(Undef)
TRUE = object.__new__(Boolean)
FALSE = object.__new__(Boolean)


# Token markers of a composite value's flat key: below every rank, close
# below open, so that a shorter child sequence sorts first.
_CLOSE, _OPEN = -2, -1

_SCALAR_RANK = {Natural: 2, Atom: 3}
_SINGLETON_KEY = {id(UNDEF): (0,), id(FALSE): (1, 0), id(TRUE): (1, 1)}


def _flat_key(v: Value) -> tuple:
    """The preorder token sequence of a composite value.

    A scalar is its rank and payload, a tuple or multiset its rank, its
    items' tokens and a close marker, and a tree value rank 6, then per
    node an open marker, the label, the leaf value's tokens if any, the
    children and a close marker.  Each token is compared only with one of
    the same kind, and a shorter sequence of children or items meets a
    close marker where the longer one goes on, so the tuples compare as
    the nested `(rank, payload)` keys would, without recursion.  A tree
    value's tokens are cached on its root node, once per tree value.
    """
    out: list = []
    todo: list = [v]
    pop, rank_of = todo.pop, _SCALAR_RANK.get
    while todo:
        x = pop()
        t = type(x)
        rank = rank_of(t)
        if rank is not None:
            out += (rank, x)
        elif t is int:  # a marker
            out.append(x)
        elif t is TupleVal or t is Multiset:
            out.append(4 if t is TupleVal else 5)
            todo.append(_CLOSE)
            todo += x.items[::-1]
        elif t is Node:
            out += (_OPEN, x.label)
            todo.append(_CLOSE)
            if x.value is not None:
                todo.append(x.value)
            else:
                todo += x.children[::-1]
        elif t is TreeVal:
            root = x.tree.root_node
            if root.tree_key is not None:
                out += root.tree_key
            else:
                todo += ((root, len(out)), root)
                out.append(6)
        elif t is tuple:  # the tokens of the tree value at root x[0] start at x[1]
            x[0].tree_key = tuple(out[x[1]:])
        else:
            out += value_key(x)
    return tuple(out)


def value_key(v: Value) -> tuple:
    """Total order over all values: variant rank, then payload.

    A natural or an atom is keyed `(rank, v)`, so it compares as the `int`
    or `str` it is, in C; truth values and undef have constant keys.
    Tuples, multisets and tree values have a flat key (`_flat_key`), which
    compares without recursion however deep the value nests.
    """
    rank = _SCALAR_RANK.get(type(v))
    if rank is not None:
        return (rank, v)
    key = _SINGLETON_KEY.get(id(v))
    if key is not None:
        return key
    if isinstance(v, TreeVal):
        return v.tree.root_node.tree_key or _flat_key(v)
    if isinstance(v, (TupleVal, Multiset)):
        return _flat_key(v)
    if isinstance(v, DroppedTerm):
        return (7, repr(v.term))
    raise TypeError(f"not a value: {v!r}")
