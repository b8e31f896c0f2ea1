"""Surface syntax round-trips and error positions.

Both directions matter: print(parse(text)) == text on canonical input, and
parse(print(x)) == x for arbitrary constructed objects.  The conftest
generators drive the second direction.
"""

import random

import pytest

from rasm import terms as T
from rasm.errors import EncodingError, ParseError
from rasm.parser import parse_rule, parse_state, parse_term, parse_tree, parse_value
from rasm.printer import print_rule, print_term, print_tree, print_value
from rasm.state import Location, PGM
from rasm.trees import Context, Tree, leaf, node, trees_equal
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
)
from conftest import random_rule, random_state, random_tree, random_value


# ----------------------------------------------------------- text -> object

def test_parse_values():
    assert parse_value("42") == Natural(42)
    assert parse_value("true") == TRUE
    assert parse_value("false") == FALSE
    assert parse_value("undef") == UNDEF
    assert parse_value("red") == Atom("red")
    assert parse_value("'red") == Atom("red")
    assert parse_value("()") == TupleVal(())
    assert parse_value("(1, 2)") == TupleVal((Natural(1), Natural(2)))
    assert parse_value("(1,)") == TupleVal((Natural(1),))
    assert parse_value("(1)") == Natural(1)  # grouping, not a 1-tuple
    assert parse_value("{| |}") == Multiset(())
    assert parse_value("{| 1, 1 |}") == Multiset((Natural(1), Natural(1)))
    assert parse_value("⟦f + 1⟧") == DroppedTerm(
        T.BackgroundOp("add", (T.Apply("f", ()), T.Literal(Natural(1))))
    )
    with pytest.raises(ParseError):  # a rule becomes a value only as a program tree
        parse_value("⟦rule: f := 1⟧")


def test_parse_trees():
    t = parse_tree("a⟨b c=⟨7⟩⟩")
    assert isinstance(t, Tree)
    assert trees_equal(t, Tree(node("a", leaf("b"), leaf("c", Natural(7)))))
    c = parse_tree("a⟨^ b⟩")
    assert isinstance(c, Context)
    assert parse_value("#a⟨b⟩") == TreeVal(Tree(node("a", leaf("b"))))


def test_tree_literal_hole_limits():
    with pytest.raises(ParseError):
        parse_tree("a⟨^ ^⟩")


def test_parse_terms_precedence():
    t = parse_term("1 + 2 * 3")
    assert t == T.BackgroundOp(
        "add",
        (T.Literal(Natural(1)), T.BackgroundOp("mul", (T.Literal(Natural(2)), T.Literal(Natural(3))))),
    )
    assert parse_term("not f = 0 and g(1)") == parse_term("(not (f = 0)) and (g(1))")
    assert parse_term("1 + 2 = 3") == parse_term("(1 + 2) = 3")


def test_variables_need_binders_or_sigils():
    assert parse_term("x") == T.Apply("x", ())
    assert parse_term("?x") == T.Var("x")
    r = parse_rule("FORALL x WITH x < 1 DO f := x ENDDO")
    assert r.guard == T.BackgroundOp("lt", (T.Var("x"), T.Literal(Natural(1))))
    assert r.body == T.Assign("f", (), T.Var("x"))


def test_comprehension_binders():
    t = parse_term("{| x | x : x < 1 |}")
    assert t == T.Comprehension(T.Var("x"), ("x",), T.BackgroundOp("lt", (T.Var("x"), T.Literal(Natural(1)))))
    t = parse_term("{| 1 | : true |}")
    assert t == T.Comprehension(T.Literal(Natural(1)), (), T.Literal(TRUE))


def test_quoted_terms_do_not_inherit_binders():
    # inside ⟦...⟧ the enclosing FORALL binder is out of scope
    r = parse_rule("FORALL x WITH true DO f := ⟦x⟧ ENDDO")
    assert r.body.rhs == T.Literal(DroppedTerm(T.Apply("x", ())))


def test_parse_rules():
    r = parse_rule("IF f = 0 THEN f := 1 ELSE PAR ENDPAR ENDIF")
    assert isinstance(r, T.If)
    assert r.else_branch == T.SKIP
    r = parse_rule("g(1, 2) <<= munion({| 1 |})")
    assert isinstance(r, T.PartialAssign)
    assert r.op == "munion"
    assert len(r.args) == 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_term("1 +")
    assert exc.value.line == 1 and exc.value.column == 4
    with pytest.raises(ParseError) as exc:
        parse_rule("f := 1 extra")
    assert exc.value.column == 8
    with pytest.raises(ParseError) as exc:
        parse_term("f @ 1")
    assert "stray" in exc.value.message
    with pytest.raises(ParseError) as exc:
        parse_term("?")
    assert "dangling" in exc.value.message


def test_comments_and_blank_lines():
    assert parse_rule("// nothing here\nf := 1 // write one") == parse_rule("f := 1")


# ----------------------------------------------------------- object -> text

def test_roundtrip_random_values():
    rng = random.Random(79)
    for _ in range(300):
        v = random_value(rng)
        assert parse_value(print_value(v)) == v


def test_roundtrip_random_trees():
    rng = random.Random(83)
    for _ in range(200):
        t = random_tree(rng)
        assert trees_equal(parse_tree(print_tree(t)), t)


def test_roundtrip_random_rules():
    rng = random.Random(89)
    for _ in range(300):
        r = random_rule(rng, depth=4, allow_partial=True)
        text = print_rule(r)
        assert parse_rule(text) == r, text


def test_roundtrip_text_fixpoint():
    # canonical text parses back to itself in one print
    for text in (
        "f := g(1) + 2 * h(3, 4)",
        "IF f = 0 THEN f := 1 ELSE f := 2 ENDIF",
        "FORALL x WITH x < 3 DO g(x) := x + 1 ENDDO",
        "LET y = f IN IMPORT a DO g(a) := y",
        "f <<= munion({| 1 |}, {| 2, 3 |})",
        "pgm <<= subst_at((1, 0), #update⟨func=⟨f⟩ term=⟨()⟩ term=⟨⟦2⟧⟩⟩)",
    ):
        assert print_rule(parse_rule(text)) == text, text


# ----------------------------------------------------------- state documents

GOOD_DOC = """\
// a counter
function f/0
universe 5 6
init f = 0

program
f := f + 1
"""


def test_parse_state_with_program_section():
    s = parse_state(GOOD_DOC)
    assert s.signature.pairs() == {("f", 0), ("pgm", 0)}
    assert s.value_of(Location("f")) == Natural(0)
    assert {Natural(5), Natural(6)} <= s.universe
    assert isinstance(s.value_of(Location(PGM)), TreeVal)


def test_parse_state_seed_threads_through():
    assert parse_state(GOOD_DOC, seed=3).reserve_seed == 3


def test_parse_state_with_explicit_pgm_init():
    doc = GOOD_DOC.replace("program\nf := f + 1\n", "")
    tree_text = print_tree(parse_state(GOOD_DOC).value_of(Location(PGM)).tree)
    doc = doc + "function pgm/0\ninit pgm = #" + tree_text + "\n"
    s = parse_state(doc)
    assert s == parse_state(GOOD_DOC)


def test_parse_state_errors():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_state("frobnicate 1\nprogram\nf := 1")
    with pytest.raises(ParseError, match="undeclared function"):
        parse_state("init f = 0\nprogram\npgm := pgm")
    with pytest.raises(ParseError, match="arity"):
        parse_state("function f/1\ninit f = 0\nprogram\nf(0) := 1")
    with pytest.raises(ParseError, match="duplicate init"):
        parse_state("function f/0\ninit f = 0\ninit f = 1\nprogram\nf := 0")
    with pytest.raises(ParseError, match="needs a program section"):
        parse_state("function f/0\ninit f = 0")
    with pytest.raises(ParseError, match="both a program section"):
        parse_state(
            "function f/0\ninit pgm = #pgm⟨signature⟨⟩ rule⟨par⟩⟩\nprogram\nf := 1"
        )


def test_parse_state_signature_mismatch_is_encoding_error():
    # explicit pgm init whose encoded signature disagrees with declarations
    doc = (
        "function f/0\n"
        "init pgm = #pgm⟨signature⟨func⟨name=⟨pgm⟩ arity=⟨0⟩⟩⟩ rule⟨par⟨⟩⟩⟩\n"
    )
    with pytest.raises(EncodingError, match="initial-signature-mismatch"):
        parse_state(doc)


def test_parse_state_rejects_malformed_pgm_value():
    doc = "init pgm = 7\n"
    with pytest.raises(EncodingError, match="malformed-program-tree"):
        parse_state(doc)
