"""Dropping rules into trees, raising them back, and read-set extraction.

The drop/raise pair is the loop-bearing joint of the whole machine: the
program a step executes is whatever raise recovers from the tree stored at
pgm.  Round-trip identity is therefore tested both directed (rule first,
tree first) and randomly.
"""

import random

import pytest

from rasm import terms as T
from rasm.encoding import (
    Program,
    as_program,
    beta_rule,
    drop_program,
    drop_rule,
    drop_signature,
    raise_rule,
    raise_signature,
)
from rasm.errors import EncodingError
from rasm.parser import parse_rule
from rasm.printer import print_rule
from rasm.state import FunctionSymbol, Signature
from rasm.terms import Comprehension, free_vars
from rasm.trees import leaf, node, subst_tt, subtree
from rasm.updates import COLLAPSE_OPS
from rasm.values import TRUE, Atom, DroppedTerm, Natural, TreeVal, TupleVal, value_key
from conftest import count_form_decodes, forget_raises, nested_if_else, random_rule


def rt(text):
    """Parse, drop, raise; hand back both rules."""
    r = parse_rule(text)
    return r, raise_rule(drop_rule(r))


def test_roundtrip_each_form():
    for text in (
        "f := 1",
        "g(1, ?x) := f",
        "f <<= munion({| 1 |}, {| 2 |})",
        "IF f = 0 THEN f := 1 ELSE PAR ENDPAR ENDIF",
        "PAR f := 1 g(2) := 3 ENDPAR",
        "PAR ENDPAR",
        "FORALL x WITH x < 3 DO g(x) := x ENDDO",
        "LET y = f + 1 IN f := y",
        "IMPORT a DO g(a) := 1",
    ):
        r, back = rt(text)
        assert back == r, text


def test_roundtrip_random_rules():
    rng = random.Random(31)
    for _ in range(200):
        r = random_rule(rng, depth=4, allow_partial=True)
        assert raise_rule(drop_rule(r)) == r


def test_roundtrip_5000_deep_rule():
    # Built without the parser, and compared level by level: `==` on such a
    # rule would itself recurse.
    cond = T.BackgroundOp("eq", (T.Apply("f"), T.Literal(Natural(0))))
    innermost = T.Assign("f", (), T.Literal(Natural(1)))
    r = innermost
    for _ in range(5000):
        r = T.If(cond, r, T.SKIP)
    back = raise_rule(drop_rule(r))
    for depth in range(5000):
        assert type(back) is T.If and back.cond == cond and back.else_branch == T.SKIP, depth
        back = back.then_branch
    assert back == innermost


def test_drop_assign_shape():
    root = drop_rule(parse_rule("g(1) := 2"))
    assert root.label == "update"
    assert [c.label for c in root.children] == ["func", "term", "term"]
    assert root.children[0].value == Atom("g")
    assert root.children[1].value == TupleVal((DroppedTerm(T.Literal(Natural(1))),))
    assert root.children[2].value == DroppedTerm(T.Literal(Natural(2)))


def test_drop_is_stable():
    r = parse_rule("PAR f := 1 IMPORT a DO g(a) := 2 ENDPAR")
    assert drop_rule(r) == drop_rule(r)


def test_signature_roundtrip():
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 2)))
    assert raise_signature(drop_signature(sig)) == sig


def test_program_tree_roundtrip():
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    r = parse_rule("f := f + 1")
    p = as_program(drop_program(sig, r))
    assert isinstance(p, Program)
    assert p.signature == sig
    assert p.rule == r


def test_program_subtree_paths():
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    t = drop_program(sig, parse_rule("f := 1"))
    # fixed layout: signature at child 0, rule wrapper at child 1
    assert subtree(t.root_node, (0,)).label == "signature"
    rw = subtree(t.root_node, (1,))
    assert rw.label == "rule"
    assert raise_rule(subtree(rw, (0,))) == parse_rule("f := 1") == as_program(t).rule


def bad_cases():
    yield leaf("update", Natural(1)), "update"
    yield node("update", leaf("func", Atom("f")), leaf("term", TupleVal(()))), "children"
    yield node("mystery", leaf("func", Atom("f"))), "rule form"
    yield node("if",
                    leaf("bool", DroppedTerm(T.Literal(TRUE))),
                    node("rule", leaf("update", Natural(0))),
                    node("rule", node("par"))), "nested"
    yield node("import",
                    leaf("term", DroppedTerm(T.Literal(Natural(1)))),
                    node("rule", node("par"))), "binder"
    yield node("update",
                    leaf("func", Natural(7)),
                    leaf("term", TupleVal(())),
                    leaf("term", DroppedTerm(T.Literal(TRUE)))), "func leaf"


@pytest.mark.parametrize("t,tag", list(bad_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_raise_rejects_malformed_trees(t, tag):
    with pytest.raises(EncodingError) as exc:
        raise_rule(t)
    assert exc.value.code == "malformed-encoding"


def test_malformed_encoding_reports_a_path():
    t = node("par",
                  node("rule", node("update",
                                    leaf("func", Atom("f")),
                                    leaf("term", TupleVal(())),
                                    leaf("term", Natural(3)))))
    with pytest.raises(EncodingError) as exc:
        raise_rule(t)
    assert exc.value.path == (0, 0, 2)


def prog_tree(sig_node, rule_node_):
    return TreeVal(node("pgm", sig_node, rule_node_))


def test_as_program_malformed_cases():
    good_sig = drop_signature(Signature((FunctionSymbol("pgm", 0),)))
    good_rule = node("rule", node("par"))
    for t in (
        TreeVal(node("prog", good_sig, good_rule)),  # wrong root label
        TreeVal(node("pgm", good_sig)),  # missing rule child
        TreeVal(node("pgm", good_sig, good_rule, good_rule)),  # two rule children
        prog_tree(node("signature"), good_rule),  # pgm not declared
        prog_tree(good_sig, node("rule", node("par"), node("par"))),  # fat wrapper
    ):
        with pytest.raises(EncodingError) as exc:
            as_program(t)
        assert exc.value.code == "malformed-program-tree"


def test_as_program_propagates_encoding_errors():
    sig = drop_signature(Signature((FunctionSymbol("pgm", 0),)))
    t = prog_tree(sig, node("rule", leaf("update", Natural(1))))
    with pytest.raises(EncodingError, match="malformed-encoding"):
        as_program(t)


# -------------------------------------------------------------------- beta

def comp_text(e):
    from rasm.printer import print_term

    return print_term(e)


def test_beta_assign_reads_rhs_and_args():
    (e,) = beta_rule(parse_rule("g(f) := f + 1"))
    assert e.binders == ()
    assert e.guard == T.Literal(TRUE)
    assert comp_text(e) == "{| (f + 1, f) | : true |}"


def test_beta_if_guards_both_branches():
    entries = beta_rule(parse_rule("IF f = 0 THEN f := 1 ELSE f := 2 ENDIF"))
    texts = [comp_text(e) for e in entries]
    assert texts == [
        "{| f = 0 | : true |}",
        "{| 1 | : f = 0 |}",
        "{| 2 | : not f = 0 |}",
    ]


def test_beta_forall_adds_binder_and_guard_split():
    entries = beta_rule(parse_rule("FORALL x WITH x < 2 DO g(x) := f ENDDO"))
    texts = [comp_text(e) for e in entries]
    assert texts == [
        "{| (f, x_1) | x_1 : x_1 < 2 |}",
        "{| (f, x_1) | x_1 : not x_1 < 2 |}",
    ]


def test_beta_guard_is_one_and_over_the_path_innermost_first():
    # Innermost first is the order nested two-way `and`s read the conditions
    # in, so an entry that raises raises the same error; `true` is dropped.
    r = parse_rule("FORALL x WITH x < 2 DO IF f = 0 THEN IF true THEN IF g(x) = 1 THEN h(x, x) := 1 ENDIF ENDIF ENDIF ENDDO")
    *_, e = beta_rule(r)
    assert comp_text(e) == "{| (1, x_1, x_1) | x_1 : g(x_1) = 1 and f = 0 and not x_1 < 2 |}"
    assert e.guard.op == "and" and len(e.guard.args) == 3


def test_beta_let_reads_binding_then_substitutes():
    entries = beta_rule(parse_rule("LET y = f IN g(y) := y"))
    texts = [comp_text(e) for e in entries]
    assert texts == ["{| f | : true |}", "{| (f, f) | : true |}"]


def test_beta_import_closes_the_drawn_name():
    (e,) = beta_rule(parse_rule("IMPORT a DO g(a) := f"))
    assert e.binders == ("a_1",)
    assert free_vars(e) == frozenset()


def test_beta_import_variable_is_not_under_an_enclosing_guard():
    # The imported x is a fresh atom, not the forall's x: the update's read
    # term ranges over it on its own, and p constrains only the forall's.
    r = parse_rule("FORALL x WITH p(x) DO IMPORT x DO q(x) := 1 ENDDO")
    texts = [comp_text(e) for e in beta_rule(r)]
    assert texts == ["{| (1, x_2) | x_1, x_2 : p(x_1) |}", "{| (1, x_2) | x_1, x_2 : not p(x_1) |}"]


def test_beta_let_does_not_capture_an_import_variable():
    # The let's x is a free name of the rule; the import's x is another.
    r = parse_rule("LET y = ?x IN IMPORT x DO g(x) := y")
    texts = [comp_text(e) for e in beta_rule(r)]
    assert texts == ["{| x_1 | x_1 : true |}", "{| (x_1, x_2) | x_1, x_2 : true |}"]


def test_beta_partial_assign_reads_current_value():
    (e,) = beta_rule(parse_rule("f <<= munion({| 1 |})"))
    assert comp_text(e) == "{| munion(f, {| 1 |}) | : true |}"


def test_beta_entries_always_closed():
    rng = random.Random(43)
    for _ in range(150):
        r = random_rule(rng, depth=4, allow_partial=True)
        for e in beta_rule(r):
            assert isinstance(e, Comprehension)
            assert free_vars(e) == frozenset(), print_rule(r)


def test_beta_forall_avoids_capturing_outer_binder():
    # inner comprehension over x sits under a forall over x: binders must
    # not collide after the guard is pushed in
    r = parse_rule("FORALL x WITH x < 2 DO f := {| x | x : x < 1 |} ENDDO")
    entries = beta_rule(r)
    for e in entries:
        assert len(set(e.binders)) == len(e.binders), comp_text(e)


def test_beta_fresh_name_avoids_a_binder_in_a_sibling_branch():
    # The first fresh name is needed in the THEN branch; the ELSE branch's
    # comprehension binds z_1, so the FORALL's z must not become z_1.
    r = parse_rule(
        "IF c THEN FORALL x WITH true DO g(x) := 1 ENDDO "
        "ELSE FORALL z WITH true DO h := {| g(z) | z_1 : z_1 = 'a |} ENDDO ENDIF"
    )
    *_, e = beta_rule(r)
    (z,) = e.binders
    assert z != "z_1"
    assert e.head.binders == ("z_1",) and e.head.head == T.Apply("g", (T.Var(z),))
    assert free_vars(e) == frozenset()


def test_beta_term_nodes_grow_linearly_with_if_nesting():
    # Entries share the path's conditions, and each guard is one flat `and`
    # over them, so the distinct nodes grow with n, not n squared.
    def nodes(n):
        entries = beta_rule(parse_rule(nested_if_else(n)))
        assert len(entries) == 2 * n + 1
        return len({id(x) for e in entries for x, _bound in T.subterms(e)})

    assert nodes(400) <= 4.5 * nodes(100)


# ------------------------------------------------------------ raise memos

def _par_program(n: int):
    """pgm over f/0 whose rule is a PAR of `f := k` for k < n."""
    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0)))
    return drop_program(sig, T.Par(tuple(T.Assign("f", (), T.Literal(Natural(k))) for k in range(n))))


def test_subst_at_raises_again_only_the_rebuilt_spine(monkeypatch):
    subst_at = COLLAPSE_OPS["subst_at"].fold
    t = _par_program(6)
    forget_raises(t)
    decoded = count_form_decodes(monkeypatch)
    prog = as_program(t)
    assert sorted(decoded) == ["par"] + ["update"] * 6
    for i in range(6):
        decoded.clear()
        new = drop_rule(T.Assign("f", (), T.Literal(Natural(100 + i))))
        edited = TreeVal(subst_at(t, TupleVal((Natural(1), Natural(0), Natural(i))), TreeVal(node("rule", new))))
        got = as_program(edited)
        assert sorted(decoded) == ["par", "update"]  # (1, 0) and the new form at (1, 0, i, 0)
        assert got.rule.rules[i] == T.Assign("f", (), T.Literal(Natural(100 + i)))
        assert [got.rule.rules[k] is prog.rule.rules[k] for k in range(6)] == [k != i for k in range(6)]
        decoded.clear()
        swapped = TreeVal(subst_at(t, TupleVal((Natural(1), Natural(0), Natural(i))),
                                   TreeVal(subtree(t.root_node, (1, 0, 5 - i)))))
        as_program(swapped)
        assert decoded == ["par"]  # a memoised subtree moved: only the par decodes
    forget_raises(edited)
    assert as_program(edited) == got  # a fresh raise agrees with the memo


def _error(t):
    with pytest.raises(EncodingError) as exc:
        as_program(t)
    e = exc.value
    return e.code, e.message, e.path


@pytest.mark.parametrize("where", ["below", "above"])
def test_memoised_subtrees_keep_the_error_path(where):
    t = _par_program(4)
    as_program(t)  # every node of t now holds its raise
    bad = node("update", leaf("func", Atom("f")), leaf("term", TupleVal(())), leaf("term", Natural(3)))
    if where == "below":  # a malformed form among memoised siblings
        edited = TreeVal(subst_tt(t.root_node, (1, 0, 2, 0), bad))
        want = ("malformed-encoding",
                "term leaf must hold a dropped term, found Natural(n=3) (at node path 2.0.2)", (2, 0, 2))
    else:  # memoised rules under a parent that is no rule form
        kids = subtree(t.root_node, (1, 0)).children
        edited = TreeVal(subst_tt(t.root_node, (1, 0), node("sequence", *kids)))
        want = ("malformed-encoding", "'sequence' is not a rule form (at node path root)", ())
    assert _error(edited) == want
    forget_raises(edited)
    assert _error(edited) == want
    wrapped = TreeVal(subst_tt(t.root_node, (1, 0, 1), node("rules", subtree(t.root_node, (1, 0, 1, 0)))))
    assert _error(wrapped) == (
        "malformed-encoding", "expected a rule⟨...⟩ wrapper, found 'rules' (at node path 1)", (1,))


def test_5000_deep_tree_hashes_compares_keys_and_raises_without_recursion():
    def build(bottom: int):
        cond = leaf("bool", DroppedTerm(T.BackgroundOp("eq", (T.Apply("f"), T.Literal(Natural(0))))))
        skip = node("rule", node("par"))
        n = node("update", leaf("func", Atom("f")), leaf("term", TupleVal(())),
                 leaf("term", DroppedTerm(T.Literal(Natural(bottom)))))
        for _ in range(5000):
            n = node("if", cond, node("rule", n), skip)
        sig = drop_signature(Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0))))
        return TreeVal(node("pgm", sig, node("rule", n)))

    a, b, c = build(1), build(1), build(2)
    assert a.root_node is b.root_node and a == b and hash(a) == hash(b) and a != c
    assert {a: "a"}[b] == "a"
    assert value_key(a) == value_key(b)
    assert value_key(c)[2] == "pgm"  # rank, open marker, root label
    assert value_key(a) < value_key(c)  # the keys differ only at the leaf
    r = as_program(a).rule
    for _ in range(5000):
        assert type(r) is T.If
        r = r.then_branch
    assert r == T.Assign("f", (), T.Literal(Natural(1)))
    assert as_program(b) is as_program(a)
