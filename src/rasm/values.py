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
sorted by the canonical total order `value_key`, which also drives
deterministic printing and active-domain enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .trees import _TreeBase


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


def _tree_key(root) -> tuple:
    """`(label, leaf value key, child keys)`, cached on each interned node
    and built bottom-up with an explicit stack, so a tree is keyed once."""
    todo = [root]
    while todo:
        n = todo[-1]
        pending = [c for c in n.children if c.tree_key is None]
        if pending:
            todo += pending
            continue
        todo.pop()
        if n.tree_key is None:
            val = () if n.value is None else value_key(n.value)
            n.tree_key = (n.label, val, tuple([c.tree_key for c in n.children]))
    return root.tree_key


def value_key(v: Value) -> tuple:
    """Total order over all values: variant rank, then structural payload.

    Keys only ever compare payloads within the same rank, so heterogeneous
    payload shapes across ranks are safe.
    """
    if v is UNDEF:
        return (0,)
    if isinstance(v, Boolean):
        return (1, 1 if v is TRUE else 0)
    if isinstance(v, Natural):
        return (2, v.n)
    if isinstance(v, Atom):
        return (3, v.name)
    if isinstance(v, TupleVal):
        return (4, tuple(value_key(x) for x in v.items))
    if isinstance(v, Multiset):
        return (5, tuple(value_key(x) for x in v.items))
    if isinstance(v, TreeVal):
        root = v.tree.root_node
        return (6, root.tree_key or _tree_key(root))
    if isinstance(v, DroppedTerm):
        return (7, repr(v.term))
    raise TypeError(f"not a value: {v!r}")
