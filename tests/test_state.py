"""Signatures, locations, active domains, reserve atoms, and renaming."""

import random

import pytest

from rasm import terms as T
from rasm.errors import RasmError
from rasm.evaluator import eval_term
from rasm.state import (
    FunctionSymbol,
    Location,
    Signature,
    State,
    atoms_of_state,
    atoms_of_value,
    rename_state,
)
from rasm.trees import Tree, leaf, node
from rasm.values import UNDEF, Atom, Multiset, Natural, TreeVal, TupleVal, value_key
from conftest import random_state, random_value


def sig(*pairs):
    return Signature(tuple(FunctionSymbol(n, a) for n, a in pairs))


def test_signature_rejects_duplicates_and_bad_arity():
    with pytest.raises(RasmError, match="duplicate-symbol"):
        sig(("f", 0), ("f", 1))
    with pytest.raises(ValueError):
        FunctionSymbol("f", -1)
    with pytest.raises(ValueError):
        FunctionSymbol("f", 0, kind="oracle")


def test_signature_equality_ignores_order_and_kind():
    a = sig(("f", 0), ("g", 1))
    b = Signature((FunctionSymbol("g", 1, kind="static"), FunctionSymbol("f", 0)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.contains_all(b) and b.contains_all(a)


def test_signature_extension():
    a = sig(("f", 0))
    b = a.extended([FunctionSymbol("g", 2), FunctionSymbol("f", 0)])
    assert b.pairs() == {("f", 0), ("g", 2)}
    with pytest.raises(RasmError, match="arity-conflict"):
        a.extended([FunctionSymbol("f", 3)])


def test_interp_drops_undef():
    s = State(sig(("f", 0)), {Location("f"): UNDEF})
    assert s.interp == {}


def test_value_of_reads_into_trees():
    t = Tree(node("r", leaf("a"), node("x", leaf("b"))))
    s = State(sig(("f", 0)), {Location("f"): TreeVal(t)})

    def at(*path):
        return T.BackgroundOp("subtree_at", (T.Apply("f", ()), T.Literal(TupleVal(tuple(map(Natural, path))))))

    assert s.value_of(Location("f")) == TreeVal(t)
    assert eval_term(s, {}, at()) == TreeVal(t)
    assert eval_term(s, {}, at(1, 0)) == TreeVal(Tree(leaf("b")))
    assert eval_term(s, {}, at(9)) == UNDEF
    assert s.value_of(Location("g")) == UNDEF


def test_active_domain_collects_nested_values():
    val = TupleVal((Natural(7), Multiset((Atom("red"),))))
    s = State(sig(("f", 0)), {Location("f"): val}, frozenset({Natural(0)}))
    dom = s.active_domain()
    for v in (Natural(0), Natural(7), Atom("red"), val, Multiset((Atom("red"),))):
        assert v in dom
    assert list(dom) == sorted(dom, key=value_key)


def test_active_domain_is_deterministic_across_orderings():
    rng = random.Random(11)
    s = random_state(rng)
    shuffled = list(s.interp.items())
    rng.shuffle(shuffled)
    s2 = State(s.signature, dict(shuffled), s.universe)
    assert s.active_domain() == s2.active_domain()


def test_reserve_atom_names():
    s = State(sig(("f", 0)))
    assert s.reserve_atom() == Atom("$r0")
    assert s.reserve_atom(2) == Atom("$r2")
    assert State(sig(("f", 0)), reserve_cursor=5).reserve_atom() == Atom("$r5")
    seeded = State(sig(("f", 0)), reserve_seed=9)
    assert seeded.reserve_atom(1) == Atom("$r9_1")


def test_state_equality_ignores_run_metadata():
    a = State(sig(("f", 0)), {Location("f"): Natural(1)})
    b = State(sig(("f", 0)), {Location("f"): Natural(1)}, reserve_cursor=4, reserve_seed=2)
    assert a == b
    assert hash(a) == hash(b)


def test_rename_is_pointwise_and_total():
    s = State(
        sig(("f", 0), ("g", 1)),
        {
            Location("f"): TupleVal((Atom("red"), Natural(1))),
            Location("g", (Atom("blue"),)): Atom("red"),
        },
        frozenset({Atom("green")}),
    )
    pi = {"red": "r2", "blue": "b2", "green": "g2"}
    s2 = rename_state(s, pi)
    assert s2.value_of(Location("f")) == TupleVal((Atom("r2"), Natural(1)))
    assert s2.interp[Location("g", (Atom("b2"),))] == Atom("r2")
    assert Atom("g2") in s2.universe
    assert s2.signature == s.signature


def test_rename_rejects_partial_and_merging_maps():
    s = State(sig(("f", 0)), {Location("f"): TupleVal((Atom("red"), Atom("blue")))})
    with pytest.raises(RasmError, match="partial-bijection"):
        rename_state(s, {"red": "x"})
    with pytest.raises(RasmError, match="not-a-bijection"):
        rename_state(s, {"red": "x", "blue": "x"})


def test_rename_reaches_quoted_trees():
    t = Tree(node("r", leaf("lit", Atom("red"))))
    s = State(sig(("f", 0)), {Location("f"): TreeVal(t)})
    s2 = rename_state(s, {"red": "rose"})
    got = s2.value_of(Location("f"))
    assert got.tree.at((0,)).value == Atom("rose")


def test_atoms_of_state_is_the_union_over_its_values():
    rng = random.Random(31)
    for _ in range(200):
        s = random_state(rng)
        nested = {Location("h", (random_value(rng), random_value(rng))): random_value(rng)}
        s = State(s.signature, {**s.interp, **nested}, s.universe | {random_value(rng)})
        values = [v for loc, val in s.interp.items() for v in (*loc.args, val)] + list(s.universe)
        assert atoms_of_state(s) == frozenset().union(*map(atoms_of_value, values))


def test_rename_roundtrip_is_identity():
    rng = random.Random(23)
    for _ in range(30):
        s = random_state(rng)
        names = sorted(atoms_of_state(s))
        targets = [f"t{i}" for i in range(len(names))]
        rng.shuffle(targets)
        pi = dict(zip(names, targets))
        inv = {v: k for k, v in pi.items()}
        assert rename_state(rename_state(s, pi), inv) == s
