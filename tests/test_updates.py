"""Collapse of update multisets and application of update sets."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasm.errors import RasmError
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.trees import Tree, leaf, node, trees_equal
from rasm.updates import (
    BRUTE_FORCE_LIMIT,
    SharedUpdate,
    Update,
    UpdateMultiset,
    apply_update_set,
    collapse,
    is_collapse_op,
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
        assert is_collapse_op(name), name
    assert not is_collapse_op("add")
    assert not is_collapse_op("")


def test_duplicate_ordinary_updates_merge():
    um = UpdateMultiset((Update(F, Natural(1)), Update(F, Natural(1))))
    us = collapse(base_state(), um)
    assert us.consistent
    assert us.updates == frozenset({Update(F, Natural(1))})


def test_clashing_ordinary_updates_kept_but_inconsistent():
    um = UpdateMultiset((Update(F, Natural(1)), Update(F, Natural(2))))
    us = collapse(base_state(), um)
    assert not us.consistent
    assert us.updates == frozenset({Update(F, Natural(1)), Update(F, Natural(2))})


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
    assert us.updates == frozenset({Update(F, mset(0, 1, 2, 2))})


def test_munion_on_missing_location_starts_from_undef():
    um = UpdateMultiset((SharedUpdate(F, "munion", (mset(1),)),))
    us = collapse(base_state(), um)
    # undef is not a multiset: the fold degrades to undef but stays consistent
    assert us.consistent
    assert us.updates == frozenset({Update(F, UNDEF)})


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
    return Tree(node("r", leaf("a"), leaf("b")))


def test_right_extend_appends_operand_roots():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((SharedUpdate(F, "right_extend", (TreeVal(Tree(leaf("c"))),)),))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    assert trees_equal(u.value.tree, Tree(node("r", leaf("a"), leaf("b"), leaf("c"))))


def test_right_extend_pair_is_order_dependent():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((
        SharedUpdate(F, "right_extend", (TreeVal(Tree(leaf("c"))),)),
        SharedUpdate(F, "right_extend", (TreeVal(Tree(leaf("d"))),)),
    ))
    us = collapse(s, um)
    assert not us.consistent  # c-then-d and d-then-c disagree on child order


def test_extend_at_disjoint_paths_commute():
    s = base_state(f=TreeVal(Tree(node("r", node("x", leaf("a")), node("y", leaf("b"))))))
    um = UpdateMultiset((
        SharedUpdate(F, "extend_at", (path_val(0), TreeVal(Tree(leaf("p"))))),
        SharedUpdate(F, "extend_at", (path_val(1), TreeVal(Tree(leaf("q"))))),
    ))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    want = Tree(node("r", node("x", leaf("a"), leaf("p")), node("y", leaf("b"), leaf("q"))))
    assert trees_equal(u.value.tree, want)


def test_subst_at_same_path_twice_is_order_dependent():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((
        SharedUpdate(F, "subst_at", (path_val(0), TreeVal(Tree(leaf("p"))))),
        SharedUpdate(F, "subst_at", (path_val(0), TreeVal(Tree(leaf("q"))))),
    ))
    us = collapse(s, um)
    assert not us.consistent


def test_subst_at_identical_updates_commute():
    s = base_state(f=TreeVal(two_leaf_tree()))
    u = SharedUpdate(F, "subst_at", (path_val(0), TreeVal(Tree(leaf("p")))))
    us = collapse(s, UpdateMultiset((u, u)))
    assert us.consistent
    (got,) = us.updates
    assert trees_equal(got.value.tree, Tree(node("r", leaf("p"), leaf("b"))))


def test_brute_force_cap_is_conservative():
    s = base_state(f=TreeVal(two_leaf_tree()))
    u = SharedUpdate(F, "subst_at", (path_val(0), TreeVal(Tree(leaf("p")))))
    at_cap = collapse(s, UpdateMultiset((u,) * BRUTE_FORCE_LIMIT))
    assert at_cap.consistent
    over_cap = collapse(s, UpdateMultiset((u,) * (BRUTE_FORCE_LIMIT + 1)))
    # same fold result, but order-independence can no longer be certified
    assert not over_cap.consistent
    assert at_cap.updates == over_cap.updates


def test_commutative_class_exempt_from_cap():
    s = base_state(f=mset())
    entries = tuple(SharedUpdate(F, "munion", (mset(i),)) for i in range(BRUTE_FORCE_LIMIT + 3))
    us = collapse(s, UpdateMultiset(entries))
    assert us.consistent
    assert us.updates == frozenset({Update(F, mset(*range(BRUTE_FORCE_LIMIT + 3)))})


def test_commutative_group_skips_the_permutations(monkeypatch):
    from rasm import updates

    calls = []
    real = updates._apply_shared

    def counting(current, u):
        calls.append(u)
        return real(current, u)

    monkeypatch.setattr(updates, "_apply_shared", counting)
    entries = tuple(SharedUpdate(F, "munion", (mset(i),)) for i in range(6))
    us = collapse(base_state(f=mset()), UpdateMultiset(entries))
    assert us.consistent
    assert us.updates == frozenset({Update(F, mset(*range(6)))})
    assert len(calls) == 6  # one canonical fold, no orders tried


def test_subst_at_path_rewrites_node():
    s = base_state(f=TreeVal(two_leaf_tree()))
    um = UpdateMultiset((
        SharedUpdate(F, "subst_at", (path_val(1), TreeVal(Tree(leaf("z"))))),
    ))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    assert u.location == F
    assert trees_equal(u.value.tree, Tree(node("r", leaf("a"), leaf("z"))))


def test_extend_at_path_appends_below():
    s = base_state(f=TreeVal(Tree(node("r", node("x", leaf("a"))))))
    um = UpdateMultiset((
        SharedUpdate(F, "extend_at", (path_val(0), TreeVal(Tree(leaf("b"))))),
    ))
    us = collapse(s, um)
    assert us.consistent
    (u,) = us.updates
    assert trees_equal(u.value.tree, Tree(node("r", node("x", leaf("a"), leaf("b")))))


def test_path_edit_on_non_tree_degrades_to_undef():
    s = base_state(f=Natural(3))
    um = UpdateMultiset((
        SharedUpdate(F, "subst_at", (path_val(0), TreeVal(Tree(leaf("z"))))),
    ))
    us = collapse(s, um)
    assert us.consistent
    assert us.updates == frozenset({Update(F, UNDEF)})


def test_multiset_identity_ignores_order():
    a = UpdateMultiset((Update(F, Natural(1)), Update(G1, Natural(2))))
    b = UpdateMultiset((Update(G1, Natural(2)), Update(F, Natural(1))))
    assert a == b
    assert hash(a) == hash(b)
    assert a.union(b) == UpdateMultiset(tuple(a) + tuple(b))


def test_apply_writes_and_deletes():
    s = base_state(f=Natural(1))
    us = collapse(s, UpdateMultiset((Update(F, Natural(2)), Update(G1, Natural(3)))))
    s2 = apply_update_set(s, us)
    assert s2.value_of(F) == Natural(2)
    assert s2.value_of(G1) == Natural(3)
    s3 = apply_update_set(s2, collapse(s2, UpdateMultiset((Update(F, UNDEF),))))
    assert s3.value_of(F) == UNDEF
    assert F not in s3.interp


def test_apply_inconsistent_set_stutters():
    s = base_state(f=Natural(1))
    us = collapse(s, UpdateMultiset((Update(F, Natural(2)), Update(F, Natural(3)))))
    assert apply_update_set(s, us) == s


def test_apply_rejects_lying_consistency_flag():
    from rasm.updates import UpdateSet

    s = base_state()
    bad = UpdateSet(frozenset({Update(F, Natural(1)), Update(F, Natural(2))}), True)
    with pytest.raises(RasmError, match="inconsistent-update-set"):
        apply_update_set(s, bad)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_collapse_verdict_matches_exhaustive_permutation(data):
    """For small shared groups the consistency flag must agree with a direct
    check over every application order."""
    import random as _random

    from conftest import random_tree

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng, depth=3, branch=3)
    nodes = list(t.domain)
    ops = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(("subst_at", "right_extend", "extend_at"))
        p = t.path_of(rng.choice(nodes))
        arg_tree = TreeVal(Tree(leaf(rng.choice("pqrs"))))
        if kind == "subst_at":
            ops.append(SharedUpdate(F, "subst_at", (path_val(*p), arg_tree)))
        elif kind == "extend_at":
            ops.append(SharedUpdate(F, "extend_at", (path_val(*p), arg_tree)))
        else:
            ops.append(SharedUpdate(F, "right_extend", (arg_tree,)))
    s = base_state(f=TreeVal(t))
    us = collapse(s, UpdateMultiset(tuple(ops)))

    from rasm.updates import _apply_shared

    canonical = sorted(ops, key=SharedUpdate.key)
    results = set()
    for perm in itertools.permutations(canonical):
        acc = s.value_of(F)
        for u in perm:
            acc = _apply_shared(acc, u)
        results.add(acc)
    assert us.consistent == (len(results) == 1), (
        f"flag says {us.consistent} but {len(results)} distinct outcomes"
    )
