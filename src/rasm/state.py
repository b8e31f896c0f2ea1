"""States: signatures, locations, interpretations, and atom renaming.

A state is a finite interpretation of a signature: a mapping from locations
(function symbol + argument tuple) to values, undef everywhere else.  A
location is the tuple ``(symbol, args)`` itself, so the mapping can be read
with a bare tuple, and locations and values hash and compare in C.  The
distinguished nullary symbol ``pgm`` holds the machine's self-representation.

`rename_state` applies a bijection on atoms pointwise to every location and
value, including values quoted inside dropped terms; it is the workhorse
behind the isomorphism-commutation check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import RasmError
from .trees import Node
from . import terms as T
from .values import (
    UNDEF,
    Atom,
    DroppedTerm,
    Multiset,
    TreeVal,
    TupleVal,
    Value,
    value_key,
)

PGM = "pgm"


@dataclass(frozen=True, slots=True)
class FunctionSymbol:
    name: str
    arity: int
    kind: str = "dynamic"  # dynamic | static | relational; metadata only

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        if self.kind not in ("dynamic", "static", "relational"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")


class Signature:
    """Ordered set of function symbols, unique by name.

    Equality compares the (name, arity) set, built once; kinds are metadata
    and declaration order only matters for deterministic printing/encoding.
    """

    __slots__ = ("_by_name", "_pairs")

    def __init__(self, symbols: Iterable[FunctionSymbol] = ()):
        by_name: dict[str, FunctionSymbol] = {}
        for sym in symbols:
            if sym.name in by_name:
                raise RasmError("duplicate-symbol", f"symbol {sym.name!r} declared twice")
            by_name[sym.name] = sym
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_pairs", frozenset((s.name, s.arity) for s in by_name.values()))

    def __setattr__(self, *_):
        raise AttributeError("Signature is immutable")

    def lookup(self, name: str) -> Optional[FunctionSymbol]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[FunctionSymbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def pairs(self) -> frozenset[tuple[str, int]]:
        return self._pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self is other or self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def contains_all(self, other: "Signature") -> bool:
        """Does every (name, arity) of `other` appear here?"""
        return self is other or other._pairs <= self._pairs

    def extended(self, symbols: Iterable[FunctionSymbol]) -> "Signature":
        """This signature plus any genuinely new symbols, order preserved;
        this very object when there are none, so that a run whose signature
        stops growing keeps one signature object.

        A symbol whose name is already bound keeps its existing entry; a
        redeclaration at a different arity is an error.
        """
        out = dict(self._by_name)
        for sym in symbols:
            have = out.get(sym.name)
            if have is None:
                out[sym.name] = sym
            elif have.arity != sym.arity:
                raise RasmError(
                    "arity-conflict",
                    f"symbol {sym.name!r} redeclared at arity {sym.arity}, have {have.arity}",
                )
        return self if len(out) == len(self._by_name) else Signature(out.values())

    def __repr__(self) -> str:
        return "Signature(" + ", ".join(f"{s.name}/{s.arity}" for s in self) + ")"


class Location(tuple):
    """A function symbol name with an argument tuple: the pair
    ``(symbol, args)``, hashed and compared as that tuple, in C.  A bare
    ``(symbol, args)`` tuple therefore keys a dict like its Location, which
    is how the evaluator reads without building one."""

    __slots__ = ()

    def __new__(cls, symbol: str, args: tuple[Value, ...] = ()) -> "Location":
        return tuple.__new__(cls, (symbol, args))

    symbol = property(itemgetter(0))
    args = property(itemgetter(1))

    @property
    def base(self) -> "Location":
        # A location is its own base; bench/tracing.py still groups by it.
        return self

    def key(self) -> tuple:
        """Symbol, arity, then the arguments' keys in one flat tuple.  No
        value key is a proper prefix of another, so the concatenation orders
        as the tuple of keys would, and a sort holds one tuple per location."""
        symbol, args = self
        if len(args) == 1:
            return (symbol, 1, *value_key(args[0]))
        return (symbol, len(args), *chain.from_iterable(map(value_key, args)))

    def __repr__(self) -> str:
        return f"Location(symbol={self[0]!r}, args={self[1]!r})"


PGM_LOCATION = Location(PGM)


class State:
    """A finite first-order structure plus run metadata.

    ``interp`` is a copy of the given mapping without its undef entries
    (absence means undef), in the given order.  ``universe`` holds
    extra declared base-set values beyond those occurring in the
    interpretation.  ``reserve_cursor``/``reserve_seed`` drive deterministic
    fresh-atom draws and are excluded from equality.
    """

    __slots__ = ("signature", "interp", "universe", "reserve_cursor", "reserve_seed", "_domain", "_index")

    def __init__(
        self,
        signature: Signature,
        interp: Mapping[Location, Value] | Iterable[tuple[Location, Value]] = (),
        universe: Iterable[Value] = (),
        reserve_cursor: int = 0,
        reserve_seed: int = 0,
    ):
        clean = dict(interp)
        for loc in [loc for loc, val in clean.items() if val is UNDEF]:
            del clean[loc]
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "interp", clean)
        object.__setattr__(self, "universe", frozenset(universe))
        object.__setattr__(self, "reserve_cursor", reserve_cursor)
        object.__setattr__(self, "reserve_seed", reserve_seed)
        object.__setattr__(self, "_domain", None)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, *_):
        raise AttributeError("State is immutable; use with_* helpers")

    # -- reads ------------------------------------------------------------

    def value_of(self, loc: Location) -> Value:
        return self.interp.get(loc, UNDEF)

    def locations(self) -> tuple[Location, ...]:
        return tuple(sorted(self.interp, key=Location.key))

    # -- derived sets -----------------------------------------------------

    def active_domain(self) -> tuple[Value, ...]:
        """Every value occurring in the interpretation (recursively) plus the
        declared universe, in canonical order.  Quantifiers range over this."""
        if self._domain is None:
            seen: set[Value] = set(self.universe)
            for loc, val in self.interp.items():
                for a in loc.args:
                    _collect_values(a, seen)
                _collect_values(val, seen)
            object.__setattr__(self, "_domain", tuple(sorted(seen, key=value_key)))
        return self._domain

    def stored(self, symbol: str, position: int | None = None, value: Value = UNDEF) -> list[Location]:
        """The stored locations of `symbol`, or those holding `value` at
        argument `position`.  Indexed per symbol and position on first use;
        the interpretation never changes, so the index never goes stale."""
        if self._index is None:
            object.__setattr__(self, "_index", {})
        if (symbol, position) not in self._index:
            by_value = self._index[symbol, position] = {}
            for loc in self.interp:
                if loc.symbol == symbol:
                    by_value.setdefault(None if position is None else loc.args[position], []).append(loc)
        return self._index[symbol, position].get(None if position is None else value, [])

    def reserve_atom(self, offset: int = 0) -> Atom:
        k = self.reserve_cursor + offset
        if self.reserve_seed:
            return Atom(f"$r{self.reserve_seed}_{k}")
        return Atom(f"$r{k}")

    # -- functional updates ----------------------------------------------

    def with_signature(self, signature: Signature) -> "State":
        return State(signature, self.interp, self.universe, self.reserve_cursor, self.reserve_seed)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.interp == other.interp
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.signature, frozenset(self.interp.items()), self.universe))

    def __repr__(self) -> str:
        entries = ", ".join(f"{loc.symbol}{loc.args}={val!r}" for loc, val in list(self.interp.items())[:4])
        more = "..." if len(self.interp) > 4 else ""
        return f"State({self.signature!r}, {{{entries}{more}}})"


def _collect_values(v: Value, out: set) -> None:
    out.add(v)
    if isinstance(v, TupleVal):
        for x in v.items:
            _collect_values(x, out)
    elif isinstance(v, Multiset):
        for x in v.items:
            _collect_values(x, out)
    elif isinstance(v, TreeVal):
        todo = [v.tree.root_node]
        while todo:
            n = todo.pop()
            if n.value is not None:
                _collect_values(n.value, out)
            todo.extend(n.children)
    elif isinstance(v, DroppedTerm):
        for lit in _term_literals(v.term):
            _collect_values(lit, out)


def _term_literals(t: T.Term) -> Iterator[Value]:
    if isinstance(t, T.Literal):
        yield t.value
    elif isinstance(t, (T.Apply, T.BackgroundOp)):
        for a in t.args:
            yield from _term_literals(a)
    elif isinstance(t, T.Comprehension):
        yield from _term_literals(t.head)
        yield from _term_literals(t.guard)


# ------------------------------------------------------------- atom renaming

def atoms_of_value(v: Value) -> frozenset[str]:
    found: set[Value] = set()
    _collect_values(v, found)
    return frozenset(x.name for x in found if isinstance(x, Atom))


def atoms_of_state(s: State) -> frozenset[str]:
    found: set[Value] = set()
    for loc, val in s.interp.items():
        for a in loc.args:
            _collect_values(a, found)
        _collect_values(val, found)
    for v in s.universe:
        _collect_values(v, found)
    return frozenset(x.name for x in found if isinstance(x, Atom))


def rename_value(v: Value, pi: Mapping[str, str]) -> Value:
    if isinstance(v, Atom):
        return Atom(pi.get(v.name, v.name))
    if isinstance(v, TupleVal):
        return TupleVal(tuple(rename_value(x, pi) for x in v.items))
    if isinstance(v, Multiset):
        return Multiset(rename_value(x, pi) for x in v.items)
    if isinstance(v, TreeVal):
        return TreeVal(type(v.tree)(_rename_node(v.tree.root_node, pi)))
    if isinstance(v, DroppedTerm):
        return DroppedTerm(rename_term(v.term, pi))
    return v


def _rename_node(root: Node, pi: Mapping[str, str]) -> Node:
    """`root` rebuilt with its leaf values renamed, children before their
    parent, from an explicit stack: no recursion, however deep the tree."""
    built: list[Node] = []
    todo: list[tuple[Node, bool]] = [(root, False)]
    while todo:
        n, children_built = todo.pop()
        if n.is_leaf:
            built.append(Node(n.label, (), None if n.value is None else rename_value(n.value, pi)))
        elif children_built:
            k = len(n.children)
            kids = tuple(built[-k:])
            del built[-k:]
            built.append(Node(n.label, kids))
        else:
            todo.append((n, True))
            todo.extend((c, False) for c in reversed(n.children))
    return built[0]


def rename_term(t: T.Term, pi: Mapping[str, str]) -> T.Term:
    """Rename atoms inside literals; variables and symbol names are not atoms."""
    if isinstance(t, T.Literal):
        return T.Literal(rename_value(t.value, pi))
    if isinstance(t, T.Apply):
        return T.Apply(t.func, tuple(rename_term(a, pi) for a in t.args))
    if isinstance(t, T.BackgroundOp):
        return T.BackgroundOp(t.op, tuple(rename_term(a, pi) for a in t.args))
    if isinstance(t, T.Comprehension):
        return T.Comprehension(rename_term(t.head, pi), t.binders, rename_term(t.guard, pi))
    return t


def rename_state(s: State, pi: Mapping[str, str]) -> State:
    """Apply a bijection on atom names to the whole state.

    The bijection must cover every atom occurring in the state and must not
    merge two of them.  Booleans, naturals and undef are fixed.  The
    signature is untouched: isomorphisms act on the base set, not on the
    vocabulary.  A bijection fixing every occurring atom returns `s` itself.
    """
    occurring = atoms_of_state(s)
    missing = occurring - set(pi)
    if missing:
        raise RasmError("partial-bijection", f"bijection misses atoms {sorted(missing)[:5]}")
    relevant = {k: pi[k] for k in occurring}
    if all(k == v for k, v in relevant.items()):
        return s
    if len(set(relevant.values())) != len(relevant):
        raise RasmError("not-a-bijection", "renaming merges atoms")
    interp = {
        Location(loc.symbol, tuple(rename_value(a, pi) for a in loc.args)): rename_value(val, pi)
        for loc, val in s.interp.items()
    }
    universe = [rename_value(v, pi) for v in s.universe]
    return State(s.signature, interp, universe, s.reserve_cursor, s.reserve_seed)
