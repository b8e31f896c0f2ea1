"""Collapse of update multisets and application of update sets."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasm.errors import RasmError
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.trees import leaf, node
from rasm.updates import (
    COLLAPSE_OPS,
    SharedUpdate,
    Update,
    UpdateMultiset,
    apply_update_set,
    collapse,
)
from rasm.values import UNDEF, Atom, Multiset, Natural, TreeVal, TupleVal

F = Location("f")
G1 = Location("g", (Natural(1),))


def base_state(**vals):
    sig = Signature((FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    interp = {Location(name): v for name, v in vals.items()}
    return State(sig, interp, frozenset({Natural(0)}))


def mset(*ns):
    return Multiset(tuple(Natural(n) for n in ns))


def path_val(*idx):
    return TupleVal(tuple(Natural(i) for i in idx))


def test_registry_membership():
    for name in ("munion", "right_extend", "extend_at", "subst_at", "subst_tt"):
        assert name in COLLAPSE_OPS, name
    assert "add" not in COLLAPSE_OPS
    assert "" not in COLLAPSE_OPS


def test_duplicate_ordinary_updates_merge():
    um = UpdateMultiset((Update(F, Natural(1)), Update(F, Natural(1))))
    us = collapse(base_state(), um)
    assert us.consistent
    assert us.updates == (Update(F, Natural(1)),)


def test_clashing_ordinary_updates_kept_but_inconsistent():
    um = UpdateMultiset((Update(F, Natural(1)), Update(F, Natural(2))))
    us = collapse(base_state(), um)
    assert not us.consistent
    assert us.updates == (Update(F, Natural(1)), Update(F, Natural(2)))


def test_distinct_locations_never_clash():
    um = UpdateMultiset((Update(F, Natural(1)), Update(G1, Natural(2))))
    us = collapse(base_state(), um)
    assert us.consistent
    assert len(us.updates) == 2


def test_munion_folds_over_current_value():
    s = base_state(f=mset(0))
    um = UpdateMultiset((
        SharedUpdate(F, "munion", (mset(1),)),
        SharedUpdate(F, "munion", (mset(2, 2),)),
    ))
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == (Update(F, mset(0, 1, 2, 2)),)


def test_munion_on_missing_location_starts_from_undef():
    um = UpdateMultiset((SharedUpdate(F, "munion", (mset(1),)),))
    us = collapse(base_state(), um)
    # undef is not a multiset: the fold degrades to undef but stays consistent
    assert us.consistent
    assert us.updates == (Update(F, UNDEF),)


def test_mixed_ordinary_and_shared_clash():
    s = base_state(f=mset())
    um = UpdateMultiset((
        Update(F, mset(9)),
        SharedUpdate(F, "munion", (mset(1),)),
    ))
    us = collapse(s, um)
    assert not us.consistent
    assert Update(F, mset(9)) in us.updates


def two_leaf_tree():
    return node("r", leaf("a"), leaf("b"))


def test_right_extend_appends_operand_roots():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((SharedUpdate(F, "right_extend", (TreeVal(leaf("c")),)),))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    assert u.value == TreeVal(node("r", leaf("a"), leaf("b"), leaf("c")))


def test_right_extend_pair_is_order_dependent():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((
        SharedUpdate(F, "right_extend", (TreeVal(leaf("c")),)),
        SharedUpdate(F, "right_extend", (TreeVal(leaf("d")),)),
    ))
    us = collapse(s, um)
    assert not us.consistent  # c-then-d and d-then-c disagree on child order


def test_extend_at_disjoint_paths_commute():
    s = base_state(f=TreeVal(node("r", node("x", leaf("a")), node("y", leaf("b")))))
    um = UpdateMultiset((
        SharedUpdate(F, "extend_at", (path_val(0), TreeVal(leaf("p")))),
        SharedUpdate(F, "extend_at", (path_val(1), TreeVal(leaf("q")))),
    ))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    want = node("r", node("x", leaf("a"), leaf("p")), node("y", leaf("b"), leaf("q")))
    assert u.value == TreeVal(want)


def test_subst_at_same_path_twice_is_order_dependent():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((
        SharedUpdate(F, "subst_at", (path_val(0), TreeVal(leaf("p")))),
        SharedUpdate(F, "subst_at", (path_val(0), TreeVal(leaf("q")))),
    ))
    us = collapse(s, um)
    assert not us.consistent


def test_subst_at_identical_updates_commute():
    s = base_state(f=TreeVal(two_leaf_tree()))
    u = SharedUpdate(F, "subst_at", (path_val(0), TreeVal(leaf("p"))))
    us = collapse(s, UpdateMultiset((u, u)))
    assert us.consistent
    (got,) = us.updates
    assert got.value == TreeVal(node("r", leaf("p"), leaf("b")))


def test_identical_updates_are_consistent_at_any_size():
    s = base_state(f=TreeVal(two_leaf_tree()))
    u = SharedUpdate(F, "subst_at", (path_val(0), TreeVal(leaf("p"))))
    want = (Update(F, TreeVal(node("r", leaf("p"), leaf("b")))),)
    for k in range(1, 13):
        us = collapse(s, UpdateMultiset((u,) * k))
        assert us.consistent, k  # no size cap: 7 copies used to be inconsistent
        assert us.updates == want, k


def test_commutative_class_exempt_from_cap():
    s = base_state(f=mset())
    entries = tuple(SharedUpdate(F, "munion", (mset(i),)) for i in range(9))
    us = collapse(s, UpdateMultiset(entries))
    assert us.consistent
    assert us.updates == (Update(F, mset(*range(9))),)


def _count_folds(monkeypatch, name: str) -> list:
    """The arguments of every fold of the collapse operator `name` from now on."""
    import dataclasses

    calls = []
    op = COLLAPSE_OPS[name]
    counting = dataclasses.replace(op, fold=lambda current, *args: calls.append(args) or op.fold(current, *args))
    monkeypatch.setitem(COLLAPSE_OPS, name, counting)
    return calls


def test_commutative_group_skips_the_permutations(monkeypatch):
    calls = _count_folds(monkeypatch, "munion")
    entries = tuple(SharedUpdate(F, "munion", (mset(i),)) for i in range(6))
    us = collapse(base_state(f=mset()), UpdateMultiset(entries))
    assert us.consistent
    assert us.updates == (Update(F, mset(*range(6))),)
    assert len(calls) == 6  # one canonical fold, no orders tried

    calls = _count_folds(monkeypatch, "subst_at")
    t = node("r", leaf("a"), leaf("b"), leaf("c"), leaf("d"))
    entries = tuple(SharedUpdate(F, "subst_at", (path_val(i), TreeVal(leaf("z")))) for i in range(4))
    us = collapse(base_state(f=TreeVal(t)), UpdateMultiset(entries))
    assert us.consistent
    assert us.updates == (Update(F, TreeVal(node("r", *(leaf("z") for _ in range(4))))),)
    assert len(calls) == 4  # disjoint paths decide the group pair by pair


@pytest.mark.parametrize("k", [2, 8])
def test_a_shared_tree_group_builds_one_tree_value(k):
    """k disjoint `subst_at` edits on one location fold on root nodes: one
    `subst_tt` per edit, and one tree value for the whole group."""
    import sys

    from rasm import updates

    t = node("r", *(leaf("a", Natural(i)) for i in range(k)))
    s = base_state(f=TreeVal(t))
    entries = tuple(SharedUpdate(F, "subst_at", (path_val(i), TreeVal(leaf("z", Natural(i))))) for i in range(k))
    build, edit, calls = TreeVal._build.__code__, updates.subst_tt.__code__, []

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in (build, edit):
            calls.append(frame.f_code)

    sys.setprofile(hook)
    try:
        us = collapse(s, UpdateMultiset(entries))
    finally:
        sys.setprofile(None)
    assert us.consistent
    assert us.updates == (Update(F, TreeVal(node("r", *(leaf("z", Natural(i)) for i in range(k))))),)
    assert (calls.count(build), calls.count(edit)) == (1, k)


def test_subst_at_path_rewrites_node():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((
        SharedUpdate(F, "subst_at", (path_val(1), TreeVal(leaf("z")))),
    ))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    assert u.location == F
    assert u.value == TreeVal(node("r", leaf("a"), leaf("z")))


def test_extend_at_path_appends_below():
    s = base_state(f=TreeVal(node("r", node("x", leaf("a")))))
    um = UpdateMultiset((
        SharedUpdate(F, "extend_at", (path_val(0), TreeVal(leaf("b")))),
    ))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    assert u.value == TreeVal(node("r", node("x", leaf("a"), leaf("b"))))


def test_path_edit_on_non_tree_degrades_to_undef():
    s = base_state(f=Natural(3))
    um = UpdateMultiset((
        SharedUpdate(F, "subst_at", (path_val(0), TreeVal(leaf("z")))),
    ))
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == (Update(F, UNDEF),)


def test_multiset_identity_ignores_order():
    a = UpdateMultiset((Update(F, Natural(1)), Update(G1, Natural(2))))
    b = UpdateMultiset((Update(G1, Natural(2)), Update(F, Natural(1))))
    assert a == b
    assert hash(a) == hash(b)


def test_entries_are_tuples_that_compare_by_value():
    """The entries the evaluator builds with `tuple.__new__` equal and hash
    as the public constructors' do, and a multiset of them ignores their
    order but not their count.  An update never equals a shared update, and
    the reprs, which error messages print, are the dataclass reprs they
    replaced."""
    from rasm.evaluator import eval_rule
    from rasm.parser import parse_rule

    s = base_state()
    got = eval_rule(s, {}, parse_rule("PAR f := 1 g(1) <<= munion({| 2 |}) ENDPAR"))
    want = (Update(F, Natural(1)), SharedUpdate(G1, "munion", (mset(2),)))
    assert got.entries == want and tuple(map(hash, got)) == tuple(map(hash, want))
    assert tuple(map(type, got)) == (Update, SharedUpdate)
    assert (want[0].location, want[0].value) == (F, Natural(1))
    assert (want[1].location, want[1].op, want[1].args) == (G1, "munion", (mset(2),))
    flipped = UpdateMultiset(reversed(want))
    assert flipped == got and hash(flipped) == hash(got)
    assert UpdateMultiset(want + want[:1]) != got
    assert Update(F, "munion") != SharedUpdate(F, "munion", ())
    assert Update(F, mset(2)) not in {SharedUpdate(F, "munion", (mset(2),))}
    assert repr(want[0]) == "Update(location=Location(symbol='f', args=()), value=Natural(n=1))"
    assert repr(want[1]) == (
        "SharedUpdate(location=Location(symbol='g', args=(Natural(n=1),)), op='munion', "
        "args=(Multiset([Natural(n=2)]),))"
    )


def applied(s, us):
    return State(s.signature, apply_update_set(s, us), s.universe)


def test_apply_writes_and_deletes():
    s = base_state(f=Natural(1))
    us = collapse(s, UpdateMultiset((Update(F, Natural(2)), Update(G1, Natural(3)))))
    s2 = applied(s, us)
    assert s2.value_of(F) == Natural(2)
    assert s2.value_of(G1) == Natural(3)
    s3 = applied(s2, collapse(s2, UpdateMultiset((Update(F, UNDEF),))))
    assert s3.value_of(F) == UNDEF
    assert F not in s3.interp


def test_apply_inconsistent_set_stutters():
    s = base_state(f=Natural(1))
    us = collapse(s, UpdateMultiset((Update(F, Natural(2)), Update(F, Natural(3)))))
    assert applied(s, us) == s


def test_apply_rejects_lying_consistency_flag():
    from rasm.updates import UpdateSet

    s = base_state()
    bad = UpdateSet((Update(F, Natural(1)), Update(F, Natural(2))), True)
    with pytest.raises(RasmError, match="inconsistent-update-set"):
        apply_update_set(s, bad)


def test_apply_rejects_a_clash_on_a_two_argument_location():
    """The clashing updates need not be adjacent; the error names the first
    clashing location in canonical order, and equal duplicates are fine."""
    from rasm.updates import UpdateSet

    h = Location("h", (Natural(1), Atom("red")))
    bad = UpdateSet((Update(h, Natural(1)), Update(F, Natural(0)), Update(G1, Natural(5)),
                     Update(h, Natural(2)), Update(G1, Natural(5)), Update(G1, Natural(6))), True)
    with pytest.raises(RasmError) as exc:
        apply_update_set(base_state(), bad)
    assert exc.value.code == "inconsistent-update-set"
    assert exc.value.message == f"clash at {G1}"  # g(1) before h(1, red), though written after it
    fine = UpdateSet((Update(G1, Natural(5)), Update(F, Natural(0)), Update(G1, Natural(5))), True)
    assert apply_update_set(base_state(), fine) == {G1: Natural(5), F: Natural(0)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_collapse_verdict_matches_exhaustive_permutation(data):
    """For small shared groups the consistency flag is checked against every
    application order: a consistent verdict means every order folds to the
    same value, and a group whose orders all fold to one value other than
    undef is consistent."""
    import random as _random

    from conftest import iter_nodes, random_tree

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng, depth=3, branch=3)
    paths = [p for p, _n in iter_nodes(t)]
    ops = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(("subst_at", "right_extend", "extend_at"))
        p = rng.choice(paths)
        arg_tree = TreeVal(leaf(rng.choice("pqrs")))
        if kind == "subst_at":
            ops.append(SharedUpdate(F, "subst_at", (path_val(*p), arg_tree)))
        elif kind == "extend_at":
            ops.append(SharedUpdate(F, "extend_at", (path_val(*p), arg_tree)))
        else:
            ops.append(SharedUpdate(F, "right_extend", (arg_tree,)))
    s = base_state(f=TreeVal(t))
    us = collapse(s, UpdateMultiset(tuple(ops)))

    results = _outcomes(s.value_of(F), ops)
    assert not us.consistent or len(results) == 1, f"consistent, but {len(results)} distinct outcomes"
    assert us.consistent or len(results) > 1 or results == {UNDEF}, f"inconsistent, but one outcome {results}"


def _outcomes(current, ops):
    """Every value the group folds to over all application orders."""
    from rasm.updates import _fold

    results = set()
    for perm in set(itertools.permutations(ops)):
        acc = current
        for u in perm:
            acc = _fold(acc, [(u.op, u.args)])
        results.add(acc)
    return results


@pytest.mark.parametrize("current", [TreeVal(node("r", leaf("a"))), UNDEF, Natural(4)], ids=["tree", "undef", "natural"])
@pytest.mark.parametrize("path,consistent", [(path_val(), True), (Natural(0), False)], ids=["root", "undecodable"])
def test_subst_tt_beside_subst_at_at_the_root(current, path, consistent):
    """`subst_tt(t)` is the edit `subst_at((), t)`: every order folds the
    pair to `t`.  An undecodable path folds to undef in one order."""
    t = TreeVal(node("s", leaf("b")))
    ops = [SharedUpdate(F, "subst_tt", (t,)), SharedUpdate(F, "subst_at", (path, t))]
    us = collapse(base_state(f=current), UpdateMultiset(ops))
    assert us.consistent == consistent
    assert (len(_outcomes(current, ops)) == 1) == consistent
    if consistent:
        assert us.updates == (Update(F, t),)


def _mixed_group(rng, paths):
    """1-6 shared updates on `f` over every collapse operator, with some
    undecodable paths and non-tree payloads, and at times a duplicate."""

    def payload():
        return rng.choice((TreeVal(leaf("p")), TreeVal(leaf("q")), Natural(1), mset(2)))

    def path():
        if rng.random() < 0.1:
            return rng.choice((Natural(0), TupleVal((Atom("x"),))))
        return path_val(*rng.choice(paths))

    def update():
        kind = rng.choice(("munion", "subst_at", "subst_at", "extend_at", "extend_at", "right_extend", "subst_tt"))
        if kind == "munion":
            return SharedUpdate(F, kind, (rng.choice((mset(rng.randrange(3)), Natural(2))),))
        if kind in ("subst_at", "extend_at"):
            return SharedUpdate(F, kind, (path(), payload()))
        return SharedUpdate(F, kind, (payload(),))

    ops = [update() for _ in range(rng.randrange(1, 7))]
    if rng.random() < 0.3:
        ops[-1] = ops[0]  # an exact duplicate
    return ops


def test_collapse_verdict_is_sound_on_mixed_groups():
    """300 mixed groups over tree, undef, multiset and natural current
    values: a consistent verdict always means every order folds to the same
    value.  The pair rule may call a group inconsistent whose orders agree;
    that is the conservative direction."""
    import random as _random

    from conftest import iter_nodes, random_tree

    rng = _random.Random(88)
    t = random_tree(rng, depth=3, branch=3)
    paths = [p for p, _n in iter_nodes(t)] + [(0, 9), (7,)]  # two that leave the tree
    for i in range(300):
        current = rng.choice((TreeVal(t), TreeVal(t), TreeVal(t), UNDEF, mset(1), Natural(4)))
        ops = _mixed_group(rng, paths)
        if collapse(base_state(f=current), UpdateMultiset(ops)).consistent:
            assert len(_outcomes(current, ops)) == 1, (i, ops)


def _grouping_collapse(s, um):
    """Collapse as a plain dict grouping by location, every group split
    into ordinary and shared updates and each shared group sorted before
    its fold, with no fast path for lone updates.  Each group's verdict
    comes from `_collapse_shared`, which has its own oracle above."""
    from rasm.updates import _collapse_shared

    groups = {}
    for e in um:
        groups.setdefault(e.location, []).append(e)
    updates, consistent = set(), True
    for loc in sorted(groups, key=Location.key):
        ordinary = [e for e in groups[loc] if isinstance(e, Update)]
        shared = [e for e in groups[loc] if isinstance(e, SharedUpdate)]
        if ordinary:
            updates.update(ordinary)
            if len({u.value for u in ordinary}) > 1 or shared:
                consistent = False
            continue
        result, ok = _collapse_shared(s.value_of(loc), tuple(sorted(shared, key=SharedUpdate.key)))
        updates.add(Update(loc, result))
        consistent = consistent and ok
    return frozenset(updates), consistent


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_collapse_agrees_with_dict_grouping(data):
    """Random multisets over several locations, mixing duplicate ordinary
    updates, clashes, ordinary/shared mixes, munion and tree operations:
    collapse gives the plain grouping's set and verdict, and emits the set
    distinct."""
    import random as _random

    from conftest import iter_nodes, random_tree

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng, depth=3, branch=3)
    paths = [p for p, _n in iter_nodes(t)]
    locs = [F, G1, Location("g", (Natural(0),)), Location("g", (Atom("red"),))]
    s = base_state(f=TreeVal(t))
    s = State(s.signature, {**s.interp, G1: mset(0)}, s.universe)

    def ordinary(loc):
        return Update(loc, rng.choice((Natural(0), Natural(1), mset(2), UNDEF, TreeVal(t))))

    def shared(loc):
        arg = TreeVal(leaf(rng.choice("pq")))
        kind = rng.choice(("munion", "munion", "subst_at", "extend_at", "right_extend", "subst_tt"))
        if kind == "munion":
            return SharedUpdate(loc, kind, (mset(rng.randrange(3)),))
        if kind in ("subst_at", "extend_at"):
            return SharedUpdate(loc, kind, (path_val(*rng.choice(paths)), arg))
        return SharedUpdate(loc, kind, (arg,))

    entries = []
    for loc in rng.sample(locs, rng.randrange(1, len(locs) + 1)):
        make = rng.choice((ordinary, shared, shared, lambda l: rng.choice((ordinary, shared))(l)))
        entries += [make(loc) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.3:
            entries.append(entries[-1])  # an exact duplicate
    rng.shuffle(entries)
    um = UpdateMultiset(entries)

    us = collapse(s, um)
    assert (frozenset(us.updates), us.consistent) == _grouping_collapse(s, um)
    assert len(set(us.updates)) == len(us.updates)


def _groupby_collapse(s, um):
    """Collapse by sorting: `itertools.groupby` over the entries sorted by
    location, each run materialised and filtered, a shared run folded in
    `SharedUpdate.key` order."""
    from rasm.updates import _collapse_shared

    updates, consistent = set(), True
    ordered = sorted(um, key=lambda e: e.location.key())
    for loc, run in itertools.groupby(ordered, key=lambda e: e.location):
        entries = tuple(run)
        ordinary = [e for e in entries if isinstance(e, Update)]
        if ordinary:
            updates.update(ordinary)
            if len(set(ordinary)) > 1 or len(ordinary) < len(entries):
                consistent = False
        else:
            folded, ok = _collapse_shared(s.value_of(loc), sorted(entries, key=SharedUpdate.key))
            updates.add(Update(loc, folded))
            consistent = consistent and ok
    return frozenset(updates), consistent


def test_collapse_agrees_with_the_groupby_collapse_on_random_machines():
    """2,000 random machines, partial updates included: grouping by a dict
    gives the same update set and verdict as grouping a sorted multiset."""
    import random as _random

    from conftest import random_machine
    from rasm.evaluator import eval_rule

    rng = _random.Random(131)
    compared = inconsistent = shared = 0
    for _ in range(2000):
        s, rule = random_machine(rng)
        try:
            um = eval_rule(s, {}, rule)
        except RasmError:
            continue
        us = collapse(s, um)
        assert (frozenset(us.updates), us.consistent) == _groupby_collapse(s, um), rule
        assert len(set(us.updates)) == len(us.updates), rule
        compared += 1
        inconsistent += not us.consistent
        shared += any(isinstance(e, SharedUpdate) for e in um)
    assert compared > 1500 and inconsistent > 50 and shared > 100, (compared, inconsistent, shared)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_collapse_and_trace_do_not_depend_on_the_order_of_entries(data):
    """Ordinary duplicates and clashes, shared groups of 2-8 and
    ordinary/shared mixes on one location: shuffling the multiset changes
    neither the update set, nor the verdict, nor the trace text."""
    import random as _random

    from conftest import iter_nodes, random_tree
    from rasm.machine import StepReport
    from rasm.printer import format_trace
    from rasm.terms import Par

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng, depth=3, branch=3)
    paths = [p for p, _n in iter_nodes(t)]
    pairs = [Location("g", (TupleVal((Natural(1), Atom("red"))),)), Location("g", (TupleVal((Natural(1),)),))]
    locs = [F, G1, Location("g", (Natural(0),)), Location("g", (Atom("red"),)), *pairs]
    s = base_state(f=TreeVal(t))
    s = State(s.signature, {**s.interp, G1: mset(0), pairs[0]: mset(1)}, s.universe)
    pool = (Natural(0), Natural(1), Atom("red"), mset(2), TupleVal((Natural(1), Atom("red"))), TreeVal(t), UNDEF)

    def shared(loc):
        if loc != F or rng.random() < 0.3:
            return SharedUpdate(loc, "munion", (mset(rng.randrange(3)),))
        arg = TreeVal(leaf(rng.choice("pq")))
        kind = rng.choice(("subst_at", "extend_at", "right_extend", "subst_tt"))
        if kind in ("subst_at", "extend_at"):
            return SharedUpdate(loc, kind, (path_val(*rng.choice(paths)), arg))
        return SharedUpdate(loc, kind, (arg,))

    entries = []
    for loc in rng.sample(locs, rng.randrange(1, len(locs) + 1)):
        shape = rng.choice(("ordinary", "shared", "mix"))
        if shape != "shared":
            entries += [Update(loc, rng.choice(pool)) for _ in range(rng.randrange(1, 4))]
        if shape != "ordinary":
            entries += [shared(loc) for _ in range(rng.randrange(2, 9) if shape == "shared" else 1)]
        if rng.random() < 0.3:
            entries.append(entries[-1])  # an exact duplicate

    def outcome(order):
        us = collapse(s, UpdateMultiset(order))
        return frozenset(us.updates), us.consistent, format_trace([StepReport(s, s, Par(()), us)])

    want = outcome(entries)
    for _ in range(3):
        rng.shuffle(entries)
        assert outcome(entries) == want
