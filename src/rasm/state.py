"""States: signatures, locations, interpretations, and atom renaming.

A state is a finite interpretation of a signature: a mapping from locations
(function symbol + argument tuple) to values, undef everywhere else.  A
location is the tuple ``(symbol, args)`` itself, so the mapping can be read
with a bare tuple, and locations and values hash and compare in C.  The
distinguished nullary symbol ``pgm`` holds the machine's self-representation.

`_PARTS` gives each composite value's parts; the value walks read it.
`_values_in` is the fold, behind the active domain and the atoms of a
value or state, and `rename_value` the map, which `rename_state` applies
to every location and value for the isomorphism-commutation check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from bisect import insort
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, is_not, itemgetter

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
        redeclaration at a different arity is an error.  A signature whose
        pairs are all here already is answered from the pairs alone.
        """
        if isinstance(symbols, Signature) and self.contains_all(symbols):
            return self
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


class Location(NamedTuple):
    """A function symbol name with an argument tuple: the pair
    ``(symbol, args)``, hashed and compared as that tuple, in C.  A bare
    ``(symbol, args)`` tuple therefore keys a dict like its Location, which
    is how the evaluator reads without building one."""

    symbol: str
    args: tuple[Value, ...] = ()

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


PGM_LOCATION = Location(PGM)


class State:
    """A finite first-order structure plus run metadata.

    ``interp`` is a copy of the given mapping without its undef entries
    (absence means undef), in the given order.  ``universe`` holds
    extra declared base-set values beyond those occurring in the
    interpretation.  ``reserve_cursor``/``reserve_seed`` drive deterministic
    fresh-atom draws and are excluded from equality.
    """

    __slots__ = ("signature", "interp", "universe", "reserve_cursor", "reserve_seed", "_domain", "_prior", "_index")

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
        object.__setattr__(self, "_prior", None)
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
        declared universe, in canonical order.  Quantifiers range over this.

        `machine.step` hands a successor its pre-state's domain as the prior
        order: the prior values still present keep it, and each new one is
        bisected in at about log2(n) + 1 `value_key` calls, unless that costs
        more than the n of a full sort, as it does with no prior.  The prior
        is let go once the domain is built."""
        if self._domain is None:
            seen = _values_in(_occurring(self)) | self.universe
            order = list(filter(seen.__contains__, self._prior or ()))
            new = seen.difference(order)
            if len(new) * (len(seen).bit_length() + 1) > len(seen):
                order = sorted(seen, key=value_key)
            else:
                for v in new:
                    insort(order, v, key=value_key)
            object.__setattr__(self, "_domain", tuple(order))
            object.__setattr__(self, "_prior", None)
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
        """This state under `signature`; the state itself, with the domain
        and location index it has built, when handed its own signature
        object.  Equal signatures may differ in their symbols' kinds."""
        if signature is self.signature:
            return self
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


# ------------------------------------------------------- the one value walk

def _leaf_values(v: TreeVal) -> list[Value]:
    out, todo = [], [v.tree.root_node]
    while todo:
        n = todo.pop()
        if n.value is not None:
            out.append(n.value)
        else:
            todo += reversed(n.children)
    return out


def _with_leaf_values(v: TreeVal, values: list[Value]) -> TreeVal:
    new, built, todo = iter(values), [], [(v.tree.root_node, None)]
    while todo:
        n, k = todo.pop()
        if k is not None:  # its children are the last k built
            built[len(built) - k :] = [Node(n.label, tuple(built[len(built) - k :]))]
        elif n.children:
            todo.append((n, len(n.children)))
            todo += [(c, None) for c in reversed(n.children)]
        else:
            built.append(n if n.value is None else Node(n.label, (), next(new)))
    return TreeVal(type(v.tree)(built[0]))


def _literals(t: T.Term) -> list[Value]:
    return [x.value for x, _bound in T.subterms(t) if type(x) is T.Literal]


def _next_literal(x: T.Term, new: Iterator[Value]) -> tuple[T.Term, object]:
    if type(x) is not T.Literal:
        return x, new
    v = next(new)
    return (x if v is x.value else T.Literal(v)), None


# Each composite value's parts, in order (a tree's leaf values and a dropped
# term's literals in preorder), and the value rebuilt from new parts.
_PARTS = {
    TupleVal: (attrgetter("items"), lambda v, new: TupleVal(tuple(new))),
    Multiset: (attrgetter("items"), lambda v, new: Multiset(new)),
    TreeVal: (_leaf_values, _with_leaf_values),
    DroppedTerm: (
        lambda v: _literals(v.term),
        lambda v, new: DroppedTerm(T.map_term(v.term, iter(new), _next_literal)),
    ),
}


def _values_in(roots: Iterable[Value]) -> set[Value]:
    """The fold: `roots` and every value inside them.  A scalar is never
    pushed, and a composite is entered once however often it occurs."""
    seen = set(roots)
    todo = [v for v in seen if type(v) in _PARTS]
    while todo:
        v = todo.pop()
        for x in _PARTS[type(v)][0](v):
            if type(x) not in _PARTS:
                seen.add(x)
            elif x not in seen:
                seen.add(x)
                todo.append(x)
    return seen


def _occurring(s: State) -> Iterator[Value]:
    return chain(chain.from_iterable(map(itemgetter(1), s.interp)), s.interp.values())


# ------------------------------------------------------------- atom renaming

def atoms_of_value(v: Value) -> frozenset[str]:
    return frozenset(x.name for x in _values_in((v,)) if type(x) is Atom)


def atoms_of_state(s: State) -> frozenset[str]:
    return frozenset(x.name for x in _values_in(chain(_occurring(s), s.universe)) if type(x) is Atom)


def rename_value(v: Value, pi: Mapping[str, str]) -> Value:
    """The map: `v` with its atoms renamed by `pi`.  A scalar is renamed in
    place, and a composite whose parts all come back unchanged is kept."""
    if type(v) not in _PARTS:
        return v if (n := pi.get(v)) is None or n == v else Atom(n)
    built, todo = [], [(v, None, 0)]
    while todo:
        x, parts, k = todo.pop()
        if parts is None:
            parts = _PARTS[type(x)][0](x)
            inner = [p for p in parts if type(p) in _PARTS]
            todo.append((x, parts, len(inner)))
            todo += [(p, None, 0) for p in reversed(inner)]
            continue
        done = iter(built[len(built) - k :])  # the composite parts, built
        new = [next(done) if type(p) in _PARTS else p if (n := pi.get(p)) is None or n == p else Atom(n) for p in parts]
        built[len(built) - k :] = [_PARTS[type(x)][1](x, new) if any(map(is_not, new, parts)) else x]
    return built[0]


def rename_state(s: State, pi: Mapping[str, str], atoms: frozenset[str] | None = None) -> State:
    """Apply a bijection on atom names to the whole state.

    The bijection must cover every atom occurring in the state and must not
    merge two of them; a caller that holds `atoms_of_state(s)` passes it as
    `atoms`, and both checks run against that set.  Booleans, naturals and
    undef are fixed.  The signature is untouched: isomorphisms act on the
    base set, not on the vocabulary.  A bijection fixing every occurring
    atom returns `s` itself.
    """
    occurring = atoms_of_state(s) if atoms is None else atoms
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
