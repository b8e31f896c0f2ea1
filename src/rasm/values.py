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
The composite variants are interned (`trees.Interned`): equal ones are one
object, compared with `is` and hashed by identity, however deep they nest.
Multisets ignore insertion order but respect multiplicity; they keep their
items sorted by the canonical total order `value_key`, which also orders
the active domain and every printed update set.  A natural or an atom is
keyed as the `int` or `str` it is, every other variant by one flat token
sequence, so that no key comparison recurses.  The ranks run undef, truth
values, naturals, atoms, tuples, multisets, trees, dropped terms; dropped
terms are ordered by structure, the form's class name first, then its
fields in order, with a tuple field's length before its items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .trees import Interned, Node, _TreeBase


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


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TupleVal(Interned, Value):
    items: tuple[Value, ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Multiset(Interned, Value):
    """Finite multiset of values: its items sorted by `value_key`, so that
    order is forgotten and multiplicity kept."""

    items: tuple[Value, ...]

    def __new__(cls, items: Iterable[Value] = ()) -> "Multiset":
        return cls._build(cls, tuple(sorted(items, key=value_key)))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def union(self, other: "Multiset") -> "Multiset":
        return Multiset(self.items + other.items)

    def __repr__(self) -> str:
        return f"Multiset({list(self.items)!r})"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TreeVal(Interned, Value):
    """A tree (or context) as a first-class value."""

    tree: _TreeBase


@dataclass(frozen=True, slots=True, eq=False, init=False)
class DroppedTerm(Interned, Value):
    """A term quoted into the value world (syntax as data)."""

    term: object  # terms.Term; untyped here to keep the layering acyclic
    term_key: tuple = field(init=False, repr=False)  # its `value_key`, once keyed


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
    children and a close marker.  A dropped term is rank 7, then per term
    node its class name and its fields: a name as itself, a tuple as its
    length and items, a value by its tokens.  Tokens meet only tokens of
    their kind, and a shorter sequence meets a close marker or a smaller
    length where the longer goes on, so the tuples compare as the nested
    `(rank, payload)` keys would, without recursion.  A tree value's tokens
    are cached on its root node, a dropped term's in its `term_key`.
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
        elif t is int or t is str:  # a marker or a length, or a name in a term
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
        elif t is TreeVal or t is DroppedTerm:
            cached = x.tree.root_node.tree_key if t is TreeVal else getattr(x, "term_key", None)
            if cached is not None:
                out += cached
            else:
                todo += ((x, len(out)), x.tree.root_node if t is TreeVal else x.term)
                out.append(6 if t is TreeVal else 7)
        elif t is tuple:  # the tokens of the value x[0] start at x[1]
            if type(x[0]) is TreeVal:
                x[0].tree.root_node.tree_key = tuple(out[x[1]:])
            else:
                object.__setattr__(x[0], "term_key", tuple(out[x[1]:]))
        elif id(x) in _SINGLETON_KEY:
            out += _SINGLETON_KEY[id(x)]
        else:  # a term node
            out.append(t.__name__)
            for f in [getattr(x, name) for name in reversed(t.__match_args__)]:
                if type(f) is tuple:
                    todo += f[::-1]
                    todo.append(len(f))
                else:
                    todo.append(f)
    return tuple(out)


def value_key(v: Value) -> tuple:
    """Total order over all values: variant rank, then payload.

    A natural or an atom is keyed `(rank, v)`, so it compares as the `int`
    or `str` it is, in C; truth values and undef have constant keys.
    Tuples, multisets, tree values and dropped terms have a flat key
    (`_flat_key`), which compares without recursion however deep the value
    nests; a tree value's and a dropped term's is kept once computed.
    """
    rank = _SCALAR_RANK.get(type(v))
    if rank is not None:
        return (rank, v)
    key = _SINGLETON_KEY.get(id(v))
    if key is not None:
        return key
    if isinstance(v, TreeVal):
        return v.tree.root_node.tree_key or _flat_key(v)
    if isinstance(v, DroppedTerm):
        return getattr(v, "term_key", None) or _flat_key(v)
    if isinstance(v, (TupleVal, Multiset)):
        return _flat_key(v)
    raise TypeError(f"not a value: {v!r}")
