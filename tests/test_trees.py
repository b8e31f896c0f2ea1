"""Tree algebra: selectors, substitutions, hedge operations, and their laws.

Structural results are cross-checked against naive oracles that work on
plain nested tuples, written here from the definitions and sharing no code
with the implementation.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iter_nodes, random_context, random_node, random_rule, random_state, random_tree
from rasm import trees
from rasm.encoding import drop_program, drop_rule, raise_rule
from rasm.errors import TreeAlgebraError
from rasm.parser import parse_tree
from rasm.printer import print_tree
from rasm.state import PGM_LOCATION, State, atoms_of_state, rename_state
from rasm.trees import (
    XI,
    Node,
    _hole,
    concat_hedges,
    context_at,
    label_hedge,
    leaf,
    node,
    subst_cc,
    subst_ct,
    subst_tt,
    subtree,
)
from rasm.terms import Apply, Literal
from rasm.updates import _tree_arg
from rasm.values import TRUE, DroppedTerm, Multiset, Natural, TreeVal, TupleVal

TRIVIAL = Node(XI)  # the trivial context, a bare hole

# ------------------------------------------------------------ naive oracle
# Shape: (label, value, (child, ...)); built by recursion only.


def shape(n: Node):
    return (n.label, n.value, tuple(shape(c) for c in n.children))


def shape_subtree(s, path):
    for i in path:
        s = s[2][i]
    return s


def shape_replace(s, path, new):
    if not path:
        return new
    kids = list(s[2])
    kids[path[0]] = shape_replace(kids[path[0]], path[1:], new)
    return (s[0], s[1], tuple(kids))


def shape_hole_path(s, path=()):
    if s[0] == XI:
        return path
    for i, c in enumerate(s[2]):
        p = shape_hole_path(c, path + (i,))
        if p is not None:
            return p
    return None


def _all_paths(t):
    """Every node's path, in preorder."""
    return [p for p, _n in iter_nodes(t)]


def test_subtree_matches_naive_copier():
    rng = random.Random(11)
    for _ in range(100):
        t = random_tree(rng, depth=4)
        for p in _all_paths(t):
            assert shape(subtree(t, p)) == shape_subtree(shape(t), p)


def test_subtree_of_root_is_identity():
    rng = random.Random(12)
    for _ in range(20):
        t = random_tree(rng)
        assert subtree(t, ()) == t


def test_subtree_unknown_node():
    t = node("a", leaf("b"))
    for p in [(99,), (1,), (-1,), (0, 0)]:
        with pytest.raises(TreeAlgebraError, match="unknown-node"):
            subtree(t, p)


def test_subst_tt_matches_naive_rebuild():
    rng = random.Random(13)
    for _ in range(100):
        t1, t2 = random_tree(rng, depth=4), random_tree(rng, depth=3)
        p = rng.choice(_all_paths(t1))
        got = subst_tt(t1, p, t2)
        want = shape_replace(shape(t1), p, shape(t2))
        assert shape(got) == want


def test_subst_tt_at_root_is_replacement():
    t = node("a", leaf("b"), leaf("c"))
    t2 = leaf("d", 7)
    assert subst_tt(t, (), t2) == t2


def test_subst_tt_self_nesting():
    t = node("a", leaf("b"))
    got = subst_tt(t, (0,), t)
    assert shape(got) == ("a", None, (("a", None, (("b", None, ()),)),))


def test_subst_tt_unknown_node():
    t = node("a", leaf("b"))
    with pytest.raises(TreeAlgebraError, match="unknown-node"):
        subst_tt(t, (0, 0), leaf("z"))


def test_context_at_punches_hole_and_reinjection_restores():
    rng = random.Random(14)
    for _ in range(100):
        t = random_tree(rng, depth=4)
        below = [p for p in _all_paths(t) if p]
        if not below:
            continue
        p = rng.choice(below)
        c = context_at(t, (), p)
        assert shape_hole_path(shape(c)) == p == _hole(c)
        assert subst_ct(c, subtree(t, p)) == t


def test_context_at_requires_strict_ancestor():
    t = node("a", node("b", leaf("x")), leaf("c"))
    with pytest.raises(TreeAlgebraError, match="not-an-ancestor"):
        context_at(t, (), ())
    with pytest.raises(TreeAlgebraError, match="not-an-ancestor"):
        context_at(t, (1,), (0,))  # c is not above b
    with pytest.raises(TreeAlgebraError, match="not-an-ancestor"):
        context_at(t, (0, 0), (0,))  # x is below b, not above it
    assert shape(context_at(t, (0,), (0, 0))) == ("b", None, ((XI, None, ()),))


def test_subst_cc_identities_and_associativity():
    rng = random.Random(16)
    for _ in range(100):
        c1, c2, c3 = (random_context(rng, depth=3) for _ in range(3))
        assert subst_cc(TRIVIAL, c1) == c1
        assert subst_cc(c1, TRIVIAL) == c1
        assert subst_cc(subst_cc(c1, c2), c3) == subst_cc(c1, subst_cc(c2, c3))


def test_subst_ct_trivial_context():
    t = node("a", leaf("b", 3))
    assert subst_ct(TRIVIAL, t) == t


def test_label_hedge():
    t1, t2 = leaf("x"), leaf("y", 2)
    assert shape(label_hedge("a", ())) == ("a", None, ())
    assert shape(label_hedge("a", (t1, t2))) == ("a", None, (("x", None, ()), ("y", 2, ())))
    with pytest.raises(TreeAlgebraError, match="xi-label-forbidden"):
        label_hedge(XI, (t1,))


def test_concat_hedges():
    t1, t2, t3 = (leaf(x) for x in "abc")
    assert concat_hedges((), (t1,)) == (t1,)
    assert concat_hedges((t1,), ()) == (t1,)
    assert concat_hedges((t1,), (t2, t3)) == (t1, t2, t3)


def test_trees_equal_is_order_sensitive():
    t = node("a", leaf("b"), leaf("c"))
    swapped = node("a", leaf("c"), leaf("b"))
    assert t == t == node("a", leaf("b"), leaf("c"))
    assert t != swapped


def test_value_on_internal_node_rejected():
    with pytest.raises(TreeAlgebraError, match="value-on-internal-node"):
        Node("a", (leaf("b"),), 3)


def test_context_requires_exactly_one_hole():
    with pytest.raises(TreeAlgebraError, match="not-a-context"):
        _hole(node("a", leaf("b")))
    with pytest.raises(TreeAlgebraError, match="not-a-context"):
        _hole(node("a", Node(XI), Node(XI)))
    # A tree value decodes as a tree only without a hole, as a context only with one.
    assert _tree_arg(TreeVal(Node(XI))) is None
    assert _tree_arg(TreeVal(Node(XI)), holes=1) is Node(XI)
    assert _tree_arg(TreeVal(node("a", Node(XI), Node(XI))), holes=1) is None


# ------------------------------------------------------- hypothesis laws

@st.composite
def trees_st(draw, max_depth=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_node(random.Random(seed), max_depth)


@st.composite
def contexts_st(draw, max_depth=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_context(random.Random(seed), max_depth)


@given(trees_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_decomposition_identity(t, data):
    """subst_ct(context_at(t, (), p), subtree(t, p)) == t, all p below the root."""
    below = [p for p in _all_paths(t) if p]
    if not below:
        return
    p = data.draw(st.sampled_from(below))
    assert subst_ct(context_at(t, (), p), subtree(t, p)) == t


@given(contexts_st(), contexts_st(), contexts_st())
@settings(max_examples=150, deadline=None)
def test_composition_associativity(c1, c2, c3):
    assert subst_cc(subst_cc(c1, c2), c3) == subst_cc(c1, subst_cc(c2, c3))


@given(trees_st(), trees_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_substitution_then_selection(t1, t2, data):
    """After subst_tt at a path, selecting at that path yields t2 again."""
    path = data.draw(st.sampled_from(_all_paths(t1)))
    out = subst_tt(t1, path, t2)
    assert subtree(out, path) == t2


@given(trees_st())
@settings(max_examples=100, deadline=None)
def test_operations_do_not_mutate_inputs(t):
    before = hash(t)
    shape_before = shape(t)
    subtree(t, _all_paths(t)[-1])
    subst_tt(t, (), leaf("z"))
    label_hedge("w", (t, t))
    assert hash(t) == before and shape(t) == shape_before


# -------------------------------------- cached hole counts, path lookups


def ref_preorder(n: Node, path=()):
    """(node, path) for every node below `n`, in preorder, by recursion."""
    out = [(n, path)]
    for i, c in enumerate(n.children):
        out.extend(ref_preorder(c, path + (i,)))
    return out


def test_cached_counts_and_lookups_match_a_recursive_preorder():
    rng = random.Random(21)
    for k in range(150):
        t = random_context(rng, depth=5) if k % 2 else random_tree(rng, depth=5)
        ref = ref_preorder(t)
        walked = list(iter_nodes(t))
        assert [p for p, _n in walked] == [p for _n, p in ref]
        assert all(n is m for (_p, n), (m, _q) in zip(walked, ref))
        for n, path in ref:
            assert n.holes == sum(1 for m, _q in ref_preorder(n) if m.label == XI)
            assert subtree(t, path) is n
            with pytest.raises(TreeAlgebraError, match="unknown-node"):
                subtree(t, path + (len(n.children),))
        if t.holes == 1:
            assert _hole(t) == next(p for n, p in ref if n.label == XI)


def _chain(depth: int, bottom: Node) -> Node:
    n = bottom
    for _ in range(depth):
        n = Node("a", (n,))
    return n


def test_depth_5000_chain_needs_no_recursion():
    depth = 5000
    bottom = (0,) * depth
    t = _chain(depth, leaf("x", 1))
    assert subtree(t, bottom).value == 1
    assert sum(1 for _ in iter_nodes(t)) == depth + 1
    assert subtree(t, (0,)) is t.children[0]
    c = _chain(depth, Node(XI))
    assert _hole(c) == bottom


def test_depth_5000_chain_is_edited_without_recursion():
    depth = 5000
    bottom = (0,) * depth
    t = _chain(depth, leaf("x", 1))
    out = subst_tt(t, bottom, leaf("y", 2))
    assert subtree(out, bottom).value == 2 and subtree(out, bottom[1:]).label == "a"
    assert subtree(t, bottom).value == 1  # the input is untouched
    c = context_at(t, (), bottom)
    assert _hole(c) == bottom
    assert _hole(context_at(t, (0,) * 10, bottom)) == bottom[10:]
    assert subtree(subst_ct(c, leaf("z")), bottom).label == "z"
    assert subtree(subst_ct(c, t), bottom + bottom).value == 1
    assert _hole(subst_cc(c, node("b", Node(XI)))) == bottom + (0,)
    assert _hole(subst_cc(node("b", Node(XI)), c)) == (0,) + bottom
    assert subtree(label_hedge("w", (t, t)), (1,) + bottom).value == 1


# ------------------------------------------------------ hash-consed nodes

def _agrees_with_shape(nodes) -> None:
    """Identity, `==` and `hash` of interned hole-free nodes, and of the
    tree values over them, against `shape`."""
    for a in nodes:
        for b in nodes:
            same = shape(a) == shape(b)
            assert (a is b) == same and (a == b) == same and (TreeVal(a) == TreeVal(b)) == same
            if same:
                assert hash(a) == hash(b) and hash(TreeVal(a)) == hash(TreeVal(b))


def test_interned_nodes_agree_with_the_structural_reference():
    rng = random.Random(71)
    for _ in range(40):
        # Small trees over few labels, so that equal subtrees are common.
        roots = [random_node(rng, depth=2, branch=2) for _ in range(6)]
        pool = {id(n): n for r in roots for _p, n in iter_nodes(r)}
        _agrees_with_shape(list(pool.values()))


def test_equal_leaf_values_of_other_variants_stay_apart():
    one, true = leaf("x", Natural(1)), leaf("x", TRUE)
    assert one is not true and one != true and shape(one) != shape(true)
    assert one.value == Natural(1) and true.value == TRUE
    assert leaf("x", Natural(1)) is one
    # Python's own 1 == True does not merge them either.
    assert leaf("x", 1) is not leaf("x", True)
    assert type(leaf("x", 1).value) is int and leaf("x", True).value is True


def test_parser_drop_rename_and_subst_build_the_interned_nodes():
    rng = random.Random(73)
    for _ in range(60):
        t = random_tree(rng, depth=3, branch=3)
        assert parse_tree(print_tree(t)) is t
        p = rng.choice(_all_paths(t))
        assert subst_tt(t, p, subtree(t, p)) is t
        other = random_tree(rng, depth=2, branch=2)
        edited = subst_tt(t, p, other)
        assert subst_tt(edited, p, subtree(t, p)) is t
        _agrees_with_shape([t, edited, parse_tree(print_tree(edited))])

        r = random_rule(rng, depth=3)
        dropped = drop_rule(r)
        assert drop_rule(r) is dropped
        assert drop_rule(raise_rule(dropped)) is dropped

        base = random_state(rng, with_pgm=True)
        tree = drop_program(base.signature, r)
        s = State(base.signature, {**base.interp, PGM_LOCATION: tree}, base.universe)
        there = {a: a for a in atoms_of_state(s)} | {"red": "green", "green": "red"}
        renamed = rename_state(s, there).value_of(PGM_LOCATION)
        back = rename_state(rename_state(s, there), there).value_of(PGM_LOCATION)
        assert back is tree
        _agrees_with_shape([tree.root_node, renamed.root_node, back.root_node])


def test_intern_table_shrinks_back_when_its_trees_die():
    """Nodes, trees, terms, rules and composite values share the one table;
    each entry goes when its form dies."""
    gc.collect()
    before = len(trees._INTERNED)
    rng = random.Random(79)
    kept = [node("interning-probe", random_node(rng, depth=4), leaf("n", k)) for k in range(50)]
    probe = Natural(10**6)  # a value no other test holds
    kept += [TreeVal(n) for n in kept]
    kept += [random_rule(rng, depth=3) for _ in range(20)]
    kept += [Multiset((TupleVal((probe, Natural(k))), DroppedTerm(Apply("probe", (Literal(probe),)))))
             for k in range(50)]
    assert len(trees._INTERNED) >= before + 200
    del kept
    gc.collect()
    assert len(trees._INTERNED) == before
