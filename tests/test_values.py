"""Value universe: canonical ordering, multiset laws, dropped syntax, and
the builtin-backed scalars and locations."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rasm
from conftest import random_value
from rasm.evaluator import eval_term
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.terms import Apply, Literal
from rasm.trees import Tree, leaf, node
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
    (TupleVal(()), "items"), (Multiset(()), "items"), (TreeVal(Tree(leaf("x"))), "tree"),
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


def test_trace_does_not_depend_on_the_hash_seed(tmp_path):
    """Atoms hash as strings under PYTHONHASHSEED and truth values by
    identity; no trace or final state may depend on either."""
    doc = tmp_path / "mixed.rst"
    doc.write_text(MIXED, encoding="utf-8")
    src = str(Path(rasm.__file__).resolve().parent.parent)
    code = "import sys; from rasm.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for seed in ("1", "2"):
        trace = tmp_path / f"seed{seed}.trace"
        done = subprocess.run(
            [sys.executable, "-c", code, "run", str(doc), "--steps", "3", "--trace", str(trace)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((trace.read_bytes(), done.stdout))
    assert outputs[0] == outputs[1]
    assert b"update seen(true) = (true, 0, undef)" in outputs[0][0]
