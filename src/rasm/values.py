"""Runtime values: the base set every machine state draws from.

Variants: atoms, truth values, naturals, undef, tuples, multisets, trees,
and quoted terms (dropped terms).  A rule becomes a value only as its program
tree, the value of ``pgm``.  All variants are frozen and hashable so they can
serve as location arguments and multiset members.

Truth values and naturals are distinct variants: ``Boolean(True) != Natural(1)``
even though Python's own ``True == 1``.  ``UNDEF`` is a singleton distinct from
``FALSE``.  Multisets ignore insertion order but respect multiplicity; they
keep their items sorted by the canonical total order `value_key`, which also
drives deterministic printing and active-domain enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .trees import _TreeBase


class Value:
    """Marker base class; every variant is a frozen dataclass below."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Value):
    """A named base-set element.  Reserve atoms use the ``$`` namespace."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be non-empty")


@dataclass(frozen=True, slots=True)
class Boolean(Value):
    flag: bool


@dataclass(frozen=True, slots=True)
class Natural(Value):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"naturals are non-negative, got {self.n}")


@dataclass(frozen=True, slots=True)
class Undef(Value):
    """The single undefined value; absence of an interpretation entry."""


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

    def count(self, v: Value) -> int:
        return sum(1 for x in self.items if x == v)

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


UNDEF = Undef()
TRUE = Boolean(True)
FALSE = Boolean(False)


def boolean(flag: bool) -> Boolean:
    return TRUE if flag else FALSE


def _tree_key(n) -> tuple:
    val = () if n.value is None else value_key(n.value)
    return (n.label, val, tuple(_tree_key(c) for c in n.children))


def value_key(v: Value) -> tuple:
    """Total order over all values: variant rank, then structural payload.

    Keys only ever compare payloads within the same rank, so heterogeneous
    payload shapes across ranks are safe.
    """
    if isinstance(v, Undef):
        return (0,)
    if isinstance(v, Boolean):
        return (1, 1 if v.flag else 0)
    if isinstance(v, Natural):
        return (2, v.n)
    if isinstance(v, Atom):
        return (3, v.name)
    if isinstance(v, TupleVal):
        return (4, tuple(value_key(x) for x in v.items))
    if isinstance(v, Multiset):
        return (5, tuple(value_key(x) for x in v.items))
    if isinstance(v, TreeVal):
        return (6, _tree_key(v.tree.root_node))
    if isinstance(v, DroppedTerm):
        return (7, repr(v.term))
    raise TypeError(f"not a value: {v!r}")
