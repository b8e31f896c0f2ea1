"""Value universe: canonical ordering, multiset laws, dropped syntax."""

import random

from conftest import random_value
from rasm.terms import Apply, Literal
from rasm.trees import Tree, leaf, node
from rasm.values import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    DroppedTerm,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    boolean,
    value_key,
)


def test_singletons():
    assert boolean(True) is TRUE and boolean(False) is FALSE
    assert UNDEF == UNDEF and UNDEF != FALSE


def test_multiset_is_order_insensitive():
    a = Multiset((Natural(1), Natural(2), Natural(1)))
    b = Multiset((Natural(2), Natural(1), Natural(1)))
    assert a == b and hash(a) == hash(b)
    assert a.items.count(Natural(1)) == 2
    assert a.items.count(Natural(9)) == 0


def test_multiset_union_adds_multiplicities():
    a = Multiset((Natural(1),))
    b = Multiset((Natural(1), Natural(2)))
    assert a.union(b) == Multiset((Natural(1), Natural(1), Natural(2)))


def test_value_key_total_order():
    rng = random.Random(5)
    vals = [random_value(rng) for _ in range(300)]
    keys = sorted(vals, key=value_key)
    # sorting is stable and comparable across every rank mix
    assert sorted(keys, key=value_key) == keys
    for v in vals:
        assert value_key(v) == value_key(v)


def test_value_key_separates_kinds():
    distinct = [UNDEF, TRUE, Natural(0), Atom("a"), TupleVal(()), Multiset(()),
                TreeVal(Tree(leaf("x"))), DroppedTerm(Literal(Natural(0)))]
    keys = [value_key(v) for v in distinct]
    assert len(set(keys)) == len(keys)


def test_tree_values_compare_structurally():
    t1 = TreeVal(Tree(node("a", leaf("b", Natural(1)))))
    t2 = TreeVal(Tree(node("a", leaf("b", Natural(1)))))
    t3 = TreeVal(Tree(node("a", leaf("b", Natural(2)))))
    assert t1 == t2 and value_key(t1) == value_key(t2)
    assert t1 != t3


def test_dropped_terms_compare_by_ast():
    assert DroppedTerm(Apply("f")) == DroppedTerm(Apply("f"))
    assert DroppedTerm(Apply("f")) != DroppedTerm(Apply("g"))
