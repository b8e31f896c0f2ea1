"""Value universe: canonical ordering, multiset laws, dropped syntax, and
the builtin-backed scalars and locations."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rasm
from conftest import ATOMS, LABELS, random_term, random_value
from rasm.evaluator import eval_term
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.terms import Apply, BackgroundOp, Comprehension, Literal, Var
from rasm.trees import Node, leaf, node
from rasm.values import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    Boolean,
    DroppedTerm,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Undef,
    Value,
    value_key,
)


def test_singletons():
    assert Boolean(True) is TRUE and Boolean(False) is FALSE and Undef() is UNDEF
    assert TRUE.flag is True and FALSE.flag is False
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


def nested_key(v):
    """The reference order: rank, then the payload as nested tuples."""
    if v is UNDEF:
        return (0,)
    if isinstance(v, Boolean):
        return (1, 1 if v is TRUE else 0)
    if isinstance(v, Natural):
        return (2, v.n)
    if isinstance(v, Atom):
        return (3, v.name)
    if isinstance(v, TupleVal):
        return (4, tuple(nested_key(x) for x in v.items))
    if isinstance(v, Multiset):
        return (5, tuple(nested_key(x) for x in v.items))
    if isinstance(v, TreeVal):
        return (6, _nested_node_key(v.root_node))
    return (7, _nested_term_key(v.term))


def _nested_term_key(t):
    """A term: its form's class name, then its fields in order, a name as
    itself, a tuple as its length and its items, a value by its key."""
    def field(f):
        if isinstance(f, tuple):
            return (len(f), tuple(map(field, f)))
        if isinstance(f, Value):
            return nested_key(f)
        return f if isinstance(f, str) else _nested_term_key(f)
    return (type(t).__name__, *map(field, (getattr(t, name) for name in type(t).__match_args__)))


def _nested_node_key(n):
    value = () if n.value is None else nested_key(n.value)
    return (n.label, value, tuple(_nested_node_key(c) for c in n.children))


def _trees(leaf_values):
    leaves = st.builds(lambda label, value: Node(label, (), value),
                       st.sampled_from(LABELS), st.none() | leaf_values)
    return st.recursive(leaves, lambda kids: st.builds(
        lambda label, children: Node(label, tuple(children)), st.sampled_from(LABELS),
        st.lists(kids, min_size=1, max_size=3)), max_leaves=6).map(lambda n: TreeVal(n))


VALUES = st.recursive(
    st.one_of(st.integers(0, 4).map(Natural), st.sampled_from(ATOMS).map(Atom),
              st.sampled_from((TRUE, FALSE, UNDEF, DroppedTerm(Apply("f")), DroppedTerm(Literal(Natural(0)))))),
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(lambda xs: TupleVal(tuple(xs))),
                            st.lists(inner, max_size=3).map(Multiset), _trees(inner)),
    max_leaves=12,
)


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=200, deadline=None)
@given(st.lists(VALUES, min_size=2, max_size=8), st.integers(0, 10**6))
def test_flat_key_orders_as_the_nested_reference_key(drawn, seed):
    """Tree leaves that hold tuples, multisets and trees included, and the
    generator's contexts and dropped terms beside them; and the keys of
    locations whose arguments are such values."""
    rng = random.Random(seed)
    vals = drawn + [random_value(rng, depth=rng.randrange(4)) for _ in range(4)]
    for v in vals:
        for w in vals:
            assert _sign(value_key(v), value_key(w)) == _sign(nested_key(v), nested_key(w)), (v, w)
    # A location's key concatenates its arguments' keys.
    locs = [Location("f", args) for args in ((), (vals[0],), *zip(vals, reversed(vals)))]
    for a in locs:
        for b in locs:
            nested = [(x.symbol, len(x.args), tuple(map(nested_key, x.args))) for x in (a, b)]
            assert _sign(a.key(), b.key()) == _sign(*nested), (a, b)


def test_dropped_terms_order_as_the_nested_reference_key():
    """Quoted terms, many of one form that differ in arity or in one field:
    the flat key orders them as the structural reference does, and only a
    term itself has its key."""
    rng = random.Random(5)
    terms = [random_term(rng, ("x", "y"), rng.randrange(4)) for _ in range(120)]
    terms += [BackgroundOp("tuple", args) for args in ((), (Var("x"),), (Var("y"),), (Var("x"), Var("y")))]
    terms += [Comprehension(Var("x"), binders, Literal(TRUE)) for binders in ((), ("x",), ("x", "y"), ("y",))]
    keys = [(DroppedTerm(t), value_key(DroppedTerm(t)), nested_key(DroppedTerm(t))) for t in terms]
    for v, flat_v, nested_v in keys:
        for w, flat_w, nested_w in keys:
            assert _sign(flat_v, flat_w) == _sign(nested_v, nested_w), (v, w)
            assert (flat_v == flat_w) == (v is w)


def _chain(depth, bottom):
    n = Node("y", (), Natural(bottom))
    for _ in range(depth):
        n = Node("x", (n,))
    return n


def test_5000_deep_values_sort_without_recursion():
    a, b = TreeVal(_chain(5000, 1)), TreeVal(_chain(5000, 2))
    assert sorted([b, a], key=value_key) == [a, b]
    assert value_key(a) is a.key  # kept on the tree value; nodes keep none
    assert not hasattr(_chain(4999, 1), "key")
    s, t = TupleVal((Natural(1),)), TupleVal((Natural(2),))
    for _ in range(5000):
        s, t = TupleVal((s,)), TupleVal((t,))
    assert sorted([t, s], key=value_key) == [s, t]
    # Each level keeps its key, the next one out spliced in around it.
    assert value_key(s) is s.key and s.key[1:-1] == s.items[0].key


def test_value_key_separates_kinds():
    distinct = [UNDEF, TRUE, Natural(0), Atom("a"), TupleVal(()), Multiset(()),
                TreeVal(leaf("x")), DroppedTerm(Literal(Natural(0)))]
    keys = [value_key(v) for v in distinct]
    assert len(set(keys)) == len(keys)


def test_tree_values_compare_structurally():
    t1 = TreeVal(node("a", leaf("b", Natural(1))))
    t2 = TreeVal(node("a", leaf("b", Natural(1))))
    t3 = TreeVal(node("a", leaf("b", Natural(2))))
    assert t1 == t2 and value_key(t1) == value_key(t2)
    assert t1 != t3


def test_dropped_terms_compare_by_ast():
    assert DroppedTerm(Apply("f")) == DroppedTerm(Apply("f"))
    assert DroppedTerm(Apply("f")) != DroppedTerm(Apply("g"))


# ------------------------------------------- builtin-backed scalars and locations

def test_equality_is_key_equality_and_implies_equal_hashes():
    """A natural is an int and an atom a str, so equality and hashing come
    from the builtins; across every variant, nested ones included, they
    still agree with the canonical key."""
    rng = random.Random(17)
    vals = [random_value(rng, depth=rng.randrange(3)) for _ in range(160)]
    equal_pairs = 0
    for v in vals:
        for w in vals:
            assert (v == w) == (value_key(v) == value_key(w)), (v, w)
            if v == w:
                equal_pairs += 1
                assert hash(v) == hash(w), (v, w)
    assert equal_pairs > 2 * len(vals)  # the pool repeats values, so equality is exercised


def test_scalars_that_python_equates_stay_apart():
    assert len({Natural(0), FALSE, Natural(1), TRUE, Atom("1"), UNDEF, TupleVal((Natural(1),))}) == 7
    assert Natural(1) != TRUE and Natural(0) != FALSE and Natural(1) != Atom("1")


def test_a_state_keyed_by_a_natural_does_not_answer_a_truth_value():
    one, true = Location("f", (Natural(1),)), Location("f", (TRUE,))
    assert one != true
    s = State(Signature((FunctionSymbol("f", 1),)), {one: Atom("a")})
    assert s.value_of(true) is UNDEF
    assert eval_term(s, {}, Apply("f", (Literal(TRUE),))) is UNDEF
    assert eval_term(s, {}, Apply("f", (Literal(Natural(1)),))) == Atom("a")


def test_a_bare_pair_keys_like_its_location():
    loc = Location("g", (Natural(2), Atom("a")))
    assert loc == ("g", (Natural(2), Atom("a"))) and hash(loc) == hash(("g", (Natural(2), Atom("a"))))
    assert (loc.symbol, loc.args) == ("g", (Natural(2), Atom("a"))) and loc.base is loc


def test_plain_payloads():
    assert type(Natural(3).n) is int and type(Atom("a").name) is str


@pytest.mark.parametrize("value, field", [
    (Natural(1), "n"), (Atom("a"), "name"), (TRUE, "flag"), (UNDEF, "flag"),
    (TupleVal(()), "items"), (Multiset(()), "items"), (TreeVal(leaf("x")), "root_node"),
    (DroppedTerm(Apply("f")), "term"), (Location("f"), "symbol"), (Location("f"), "args"),
], ids=lambda x: x if type(x) is str else type(x).__name__)
def test_values_and_locations_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_reprs_are_unchanged():
    assert repr(Natural(3)) == "Natural(n=3)"
    assert repr(Atom("a")) == "Atom(name='a')"
    assert repr(TRUE) == "Boolean(flag=True)" and repr(FALSE) == "Boolean(flag=False)"
    assert repr(UNDEF) == "Undef()"
    assert repr(Location("f", (Natural(1),))) == "Location(symbol='f', args=(Natural(n=1),))"
    assert str(Location("f")) == "Location(symbol='f', args=())"
    assert repr(DroppedTerm(Apply("f"))) == "DroppedTerm(term=Apply(func='f', args=()))"


def test_invalid_scalars_are_refused():
    with pytest.raises(ValueError, match="non-negative"):
        Natural(-1)
    with pytest.raises(ValueError, match="non-empty"):
        Atom("")


MIXED = """\
universe red green blue 0 1 2 true false
function n/0
function bag/0
function u/1
function seen/1
function tag/2
init n = 0
init bag = {||}
init u(red) = true
init u(green) = true
init u(blue) = true
init u(0) = true
init u(1) = true
init u(2) = true
init u(true) = true
init u(false) = true
init tag(red, 0) = true
init tag(green, true) = 1
init tag(1, false) = blue
program
PAR
n := n + 1
bag <<= munion({| n, true, 'red |})
FORALL x WITH u(x) DO seen(x) := (x, n, tag(x, n)) ENDDO
IMPORT a DO tag(a, n) := lt(n, 2)
ENDPAR
"""


# Step 1 folds a shared group of four munions on `bag`; steps 2 and 3 clash
# on every k(x), each written in the reverse of its canonical order.
CLASHING = """\
universe red green blue 0 1 2
function n/0
function bag/0
function k/1
function u/1
init n = 0
init bag = {||}
init u(red) = true
init u(green) = true
init u(blue) = true
init u(2) = true
program
PAR
n := n + 1
FORALL x WITH u(x) DO bag <<= munion({| x, (x, n) |}) ENDDO
bag <<= munion({| 'red |})
IF lt(0, n) THEN FORALL x WITH u(x) DO PAR k(x) := (x, n) k(x) := n ENDPAR ENDDO ENDIF
ENDPAR
"""


def test_trace_does_not_depend_on_the_hash_seed(tmp_path):
    """Atoms hash as strings under PYTHONHASHSEED and truth values by
    identity, and collapse groups a step's updates in a dict; no trace or
    final state may depend on any of them."""
    src = str(Path(rasm.__file__).resolve().parent.parent)
    code = "import sys; from rasm.cli import main; sys.exit(main(sys.argv[1:]))"
    traces = {}
    for name, text in (("mixed", MIXED), ("clashing", CLASHING)):
        doc = tmp_path / f"{name}.rst"
        doc.write_text(text, encoding="utf-8")
        outputs = []
        for seed in ("1", "2"):
            trace = tmp_path / f"{name}{seed}.trace"
            done = subprocess.run(
                [sys.executable, "-c", code, "run", str(doc), "--steps", "3", "--trace", str(trace)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append((trace.read_bytes(), done.stdout))
        assert outputs[0] == outputs[1], name
        traces[name] = outputs[0][0]
    assert b"update seen(true) = (true, 0, undef)" in traces["mixed"]
    assert b"update bag = {| 2, blue, green, red, red, (2, 0), (blue, 0), (green, 0), (red, 0) |}" in traces["clashing"]
    assert traces["clashing"].count(b"update k(red) = 1\nupdate k(red) = (red, 1)\n") == 2
    assert traces["clashing"].count(b"consistent false") == 2
