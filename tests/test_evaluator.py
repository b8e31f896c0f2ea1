"""Rule and term evaluation against explicit states.

Covers strictness of state functions, the three-valued connectives, the
total equality tests, comprehension enumeration over the active domain,
and the update multisets of every rule form.
"""

import itertools

import pytest

from rasm import evaluator
from rasm.conformance import check_bounded_exploration
from rasm.errors import EvalError
from rasm.evaluator import BACKGROUND_OPS, eval_rule, eval_rule_with_cursor, eval_term
from rasm.machine import step
from rasm.naive import naive_eval_rule
from rasm.parser import parse_rule, parse_state, parse_term
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.terms import Apply, Assign, BackgroundOp, Comprehension, Forall, If, Let, Literal, Par, Var
from rasm.trees import XI, Context, Node, Tree, leaf, node
from rasm.updates import SharedUpdate, Update, UpdateMultiset
from rasm.values import FALSE, TRUE, UNDEF, Atom, Boolean, Multiset, Natural, TreeVal, TupleVal
from conftest import count_lookups, nested_if_else


def small_state(**inits):
    sig = Signature((FunctionSymbol("f", 0), FunctionSymbol("g", 1), FunctionSymbol("pgm", 0)))
    interp = {}
    for name, val in inits.items():
        interp[Location(name)] = val
    return State(sig, interp, frozenset({Natural(0), Natural(1), Natural(2)}))


def ev(text, state=None, env=None):
    return eval_term(state or small_state(), env or {}, parse_term(text))


# ----------------------------------------------------------------- terms

def test_arithmetic():
    assert ev("1 + 2") == Natural(3)
    assert ev("2 * 3") == Natural(6)
    assert ev("2 - 3") == Natural(0)  # monus: no negatives
    assert ev("3 - 2") == Natural(1)


def test_arithmetic_is_strict_on_nonnaturals():
    assert ev("1 + undef") == UNDEF
    assert ev("true + 1") == UNDEF
    assert ev("1 - undef") == UNDEF


def test_equality_is_total():
    assert ev("undef = undef") == TRUE
    assert ev("undef = 0") == FALSE
    assert ev("undef != 0") == TRUE
    assert ev("f = undef") == TRUE  # uninitialized nullary reads undef


def test_comparisons_undef_outside_naturals():
    assert ev("1 < 2") == TRUE
    assert ev("2 <= 2") == TRUE
    assert ev("3 > 2") == TRUE
    assert ev("undef < 2") == UNDEF
    assert ev("true >= false") == UNDEF


def test_kleene_connectives():
    assert ev("false and undef") == FALSE
    assert ev("undef and false") == FALSE
    assert ev("true and undef") == UNDEF
    assert ev("true or undef") == TRUE
    assert ev("undef or false") == UNDEF
    assert ev("not undef") == UNDEF
    assert ev("not false") == TRUE
    assert ev("1 and true") == UNDEF  # non-boolean operand poisons


def test_state_function_strictness():
    s = small_state(f=Natural(1))
    s = State(s.signature, {**s.interp, Location("g", (Natural(1),)): Natural(5)}, s.universe)
    assert eval_term(s, {}, parse_term("g(f)")) == Natural(5)
    assert eval_term(s, {}, parse_term("g(undef)")) == UNDEF  # strict, no lookup


def test_tuple_and_projection():
    assert ev("(1, 2)") == TupleVal((Natural(1), Natural(2)))
    assert ev("proj((1, 2), 1)") == Natural(1)
    assert ev("proj((1, 2), 2)") == Natural(2)
    assert ev("proj((1, 2), 3)") == UNDEF
    assert ev("proj((1, 2), 0)") == UNDEF


def test_multiset_literals_and_munion():
    assert ev("{| 1, 1, 2 |}") == Multiset((Natural(1), Natural(1), Natural(2)))
    assert ev("munion({| 1 |}, {| 1, 2 |})") == Multiset((Natural(1), Natural(1), Natural(2)))
    assert ev("munion({| 1 |}, 3)") == UNDEF


def test_unknown_symbol_and_arity():
    with pytest.raises(EvalError, match="unknown-symbol"):
        ev("missing(1)")
    with pytest.raises(EvalError, match="arity-mismatch"):
        ev("g(1, 2)")
    # One term object, looked up again whenever the signature differs.
    t, s = parse_term("missing(1)"), small_state()
    grown = s.with_signature(s.signature.extended([FunctionSymbol("missing", 1)]))
    for state, want in ((s, None), (grown, UNDEF), (s, None)):
        if want is None:
            with pytest.raises(EvalError, match="unknown-symbol"):
                eval_term(state, {}, t)
        else:
            assert eval_term(state, {}, t) == want


def test_unbound_variable():
    with pytest.raises(EvalError, match="unbound-variable"):
        ev("?x")


def test_comprehension_over_active_domain():
    s = small_state(f=Natural(1))
    got = eval_term(s, {}, parse_term("{| x | x : x < 2 |}"))
    assert got == Multiset((Natural(0), Natural(1)))


def test_comprehension_undef_guard_skips():
    # guard undef on atom candidates: those draws are silently dropped
    s = small_state()
    s = State(s.signature, s.interp, frozenset({Natural(0), Atom("red")}))
    got = eval_term(s, {}, parse_term("{| x | x : x < 1 |}"))
    assert got == Multiset((Natural(0),))


def test_comprehension_empty_binders():
    assert ev("{| f | : true |}") == Multiset((UNDEF,))
    assert ev("{| 1 | : false |}") == Multiset(())


# ----------------------------------------------------------------- rules

def test_assign_rule():
    um = eval_rule(small_state(), {}, parse_rule("f := 1 + 1"))
    assert um == UpdateMultiset((Update(Location("f"), Natural(2)),))


def test_assign_with_args_evaluates_location():
    s = small_state(f=Natural(1))
    um = eval_rule(s, {}, parse_rule("g(f) := 0"))
    assert um == UpdateMultiset((Update(Location("g", (Natural(1),)), Natural(0)),))


def test_partial_assign_emits_shared_update():
    um = eval_rule(small_state(), {}, parse_rule("f <<= munion({| 1 |})"))
    assert um == UpdateMultiset((SharedUpdate(Location("f"), "munion", (Multiset((Natural(1),)),)),))


def test_partial_assign_unknown_operator():
    with pytest.raises(EvalError, match="unknown-operator"):
        eval_rule(small_state(), {}, parse_rule("f <<= bogus(1)"))


@pytest.mark.parametrize(
    "text",
    ["f <<= munion()", "f <<= subst_tt()", "f <<= right_extend()",
     "pgm <<= subst_at((1, 0))", "pgm <<= extend_at((1,))"],
)
def test_short_partial_assign_is_an_arity_mismatch(text):
    # The term form `munion()` already raises; the partial assignment agrees.
    with pytest.raises(EvalError, match="arity-mismatch"):
        eval_rule(small_state(), {}, parse_rule(text))


def test_if_branches_and_condition_undef():
    s = small_state(f=Natural(0))
    um = eval_rule(s, {}, parse_rule("IF f = 0 THEN f := 1 ELSE f := 2 ENDIF"))
    assert um == UpdateMultiset((Update(Location("f"), Natural(1)),))
    um = eval_rule(s, {}, parse_rule("IF f = 1 THEN f := 1 ELSE f := 2 ENDIF"))
    assert um == UpdateMultiset((Update(Location("f"), Natural(2)),))
    um = eval_rule(s, {}, parse_rule("IF f = 1 THEN f := 1 ENDIF"))
    assert um == UpdateMultiset(())
    with pytest.raises(EvalError, match="condition-undef"):
        eval_rule(s, {}, parse_rule("IF undef < 1 THEN f := 1 ENDIF"))
    with pytest.raises(EvalError, match="non-boolean-guard"):
        eval_rule(s, {}, parse_rule("IF 7 THEN f := 1 ENDIF"))


def test_par_accumulates_multiset():
    um = eval_rule(small_state(), {}, parse_rule("PAR f := 1 f := 1 f := 2 ENDPAR"))
    assert len(um) == 3  # duplicates kept at the multiset stage
    assert um == UpdateMultiset((
        Update(Location("f"), Natural(1)),
        Update(Location("f"), Natural(1)),
        Update(Location("f"), Natural(2)),
    ))


def test_forall_over_active_domain():
    um = eval_rule(small_state(), {}, parse_rule("FORALL x WITH x < 2 DO g(x) := x ENDDO"))
    assert um == UpdateMultiset((
        Update(Location("g", (Natural(0),)), Natural(0)),
        Update(Location("g", (Natural(1),)), Natural(1)),
    ))


def test_forall_unsatisfiable_guard():
    um = eval_rule(small_state(), {}, parse_rule("FORALL x WITH false DO f := x ENDDO"))
    assert um == UpdateMultiset(())


def test_let_binds_by_substitution():
    um = eval_rule(small_state(f=Natural(3)), {}, parse_rule("LET y = f + 1 IN g(y) := y"))
    assert um == UpdateMultiset((Update(Location("g", (Natural(4),)), Natural(4)),))


def test_let_shadowing():
    r = parse_rule("LET y = 1 IN LET y = 2 IN f := y")
    assert eval_rule(small_state(), {}, r) == UpdateMultiset((Update(Location("f"), Natural(2)),))


def test_import_draws_fresh_reserve_atoms():
    um, cursor = eval_rule_with_cursor(small_state(), {}, parse_rule("IMPORT a DO g(a) := 1"))
    assert cursor == 1
    assert um == UpdateMultiset((Update(Location("g", (Atom("$r0"),)), Natural(1)),))


def test_import_draws_are_sequential():
    r = parse_rule("IMPORT a DO IMPORT b DO PAR g(a) := 1 g(b) := 2 ENDPAR")
    um, cursor = eval_rule_with_cursor(small_state(), {}, r)
    assert cursor == 2
    assert um == UpdateMultiset((
        Update(Location("g", (Atom("$r0"),)), Natural(1)),
        Update(Location("g", (Atom("$r1"),)), Natural(2)),
    ))


def test_import_seeded_namespace():
    s = small_state()
    s = State(s.signature, s.interp, s.universe, 0, reserve_seed=7)
    um, cursor = eval_rule_with_cursor(s, {}, parse_rule("IMPORT a DO g(a) := 1"))
    assert um == UpdateMultiset((Update(Location("g", (Atom("$r7_0"),)), Natural(1)),))


def test_forall_draws_in_canonical_domain_order():
    # two imports inside a forall body: draw order follows enumeration order
    r = parse_rule("FORALL x WITH x < 2 DO IMPORT a DO g(a) := x ENDDO")
    um, cursor = eval_rule_with_cursor(small_state(), {}, r)
    assert cursor == 2
    assert um == UpdateMultiset((
        Update(Location("g", (Atom("$r0"),)), Natural(0)),
        Update(Location("g", (Atom("$r1"),)), Natural(1)),
    ))


def test_bound_variable_cannot_be_location():
    with pytest.raises(EvalError, match="bound-variable-as-location"):
        eval_rule(small_state(), {}, parse_rule("IMPORT a DO a := 1"))


# Each fault with the error it raises, and each place that evaluates it only
# when `reached`: symbols, arities and operators are looked up ahead of time,
# yet nothing may raise before evaluation gets there.
ONE = Literal(Natural(1))
FAULTS = {
    "unknown-symbol": (Apply("missing", (ONE,)), "no function symbol 'missing' in the signature"),
    "arity-mismatch": (Apply("g", (ONE, ONE)), "'g' has arity 1, applied to 2 arguments"),
    "unknown-operator": (BackgroundOp("bogus", ()), "no background operation 'bogus'"),
    "unbound-variable": (Var("x"), "variable 'x' is not bound"),
    "non-boolean-guard": (Comprehension(ONE, (), Literal(Natural(7))),
                          "comprehension guard evaluated to Natural(n=7)"),
}
PLACES = {
    "if-branch": lambda x, reached: If(Literal(Boolean(reached)), Assign("f", (), x), Assign("f", (), ONE)),
    "let-binding": lambda x, reached: Let("y", x, Assign("f", (), Var("y") if reached else ONE)),
    "forall-body": lambda x, reached: Forall(
        "z", BackgroundOp("eq", (Var("z"), ONE)) if reached else Literal(FALSE), Assign("f", (), x)),
    "comprehension-head": lambda x, reached: Assign("f", (), Comprehension(
        x, ("z",), BackgroundOp("eq", (Var("z"), ONE)) if reached else Literal(FALSE))),
}


@pytest.mark.parametrize("fault,place", itertools.product(FAULTS, PLACES))
def test_a_fault_raises_only_where_evaluation_reaches_it(fault, place):
    term, message = FAULTS[fault]
    build = PLACES[place]
    assert eval_rule(small_state(), {}, build(term, False)) == eval_rule(small_state(), {}, build(ONE, False))
    with pytest.raises(EvalError) as e:
        eval_rule(small_state(), {}, build(term, True))
    assert (e.value.code, e.value.message) == (fault, message)


# ----------------------------------------------- quantifiers narrowed by an index

def relational_state(p=(), value=TRUE):
    """p/1 holding `value` at each of `p`, h/1 empty, over the naturals 0-2
    and two atoms."""
    sig = Signature((FunctionSymbol("f", 0), FunctionSymbol("p", 1), FunctionSymbol("h", 1)))
    interp = {Location("p", (v,)): value for v in p}
    return State(sig, interp, frozenset({Natural(0), Natural(1), Natural(2), Atom("red"), Atom("blue")}))


def test_operations_marked_total_never_raise():
    # Narrowing skips bindings unevaluated, so a guard operation marked
    # total must return a value, possibly undef, on any arguments.
    tree, context = TreeVal(Tree(node("r", leaf("a")))), TreeVal(Context(node("r", Node(XI))))
    sample = (UNDEF, TRUE, FALSE, Natural(0), Natural(1), Atom("a"), TupleVal((Natural(0),)),
              TupleVal(()), Multiset((Natural(1),)), tree, context, TupleVal((tree, tree)))
    for name, op in BACKGROUND_OPS.items():
        if op.total:
            for n in (op.arity,) if op.arity is not None else range(3):
                for args in itertools.product(sample, repeat=n):
                    op.fn(list(args))


@pytest.mark.parametrize("text", [
    "FORALL x WITH q(x) DO f := x ENDDO",
    "FORALL x WITH p(x) and q(x) DO f := x ENDDO",
])
def test_unknown_guard_symbol_raises_with_an_empty_index(text):
    with pytest.raises(EvalError, match="unknown-symbol"):
        eval_rule(relational_state(), {}, parse_rule(text))


def test_non_boolean_stored_guard_value_raises():
    s = relational_state(p=(Natural(1),), value=Natural(5))
    with pytest.raises(EvalError, match="non-boolean-guard"):
        eval_rule(s, {}, parse_rule("FORALL x WITH p(x) DO f := x ENDDO"))
    with pytest.raises(EvalError, match="non-boolean-guard"):
        eval_term(s, {}, parse_term("{| x | x : p(x) |}"))


def test_narrowed_forall_draws_in_canonical_order(monkeypatch):
    calls = count_lookups(monkeypatch)
    s = relational_state(p=(Atom("red"), Natural(2), Natural(0)))
    um, cursor = eval_rule_with_cursor(s, {}, parse_rule("FORALL x WITH p(x) DO IMPORT y DO h(x) := y ENDDO"))
    assert calls and cursor == 3
    assert um == UpdateMultiset((
        Update(Location("h", (Natural(0),)), Atom("$r0")),
        Update(Location("h", (Natural(2),)), Atom("$r1")),
        Update(Location("h", (Atom("red"),)), Atom("$r2")),
    ))


def test_duplicate_comprehension_binders_scan_the_whole_domain(monkeypatch):
    calls = count_lookups(monkeypatch)
    s = relational_state(p=(Natural(1),))
    got = eval_term(s, {}, parse_term("{| x | x, x : p(x) |}"))
    assert not calls
    # once per value of the first binder, which the second shadows
    assert got == Multiset((Natural(1),) * len(s.active_domain()))


def test_guard_under_or_is_not_narrowed(monkeypatch):
    calls = count_lookups(monkeypatch)
    s = relational_state(p=(Natural(1),))
    s = State(s.signature, {**s.interp, Location("f"): Natural(1)}, s.universe)
    got = eval_term(s, {}, parse_term("{| x | x : p(x) or f = 1 |}"))
    assert not calls
    assert got == Multiset(s.active_domain())


# ------------------------------------------------------------ compile memo

def test_compile_memo_is_keyed_by_the_signature():
    # Compiled while g is unknown, the read is the lazy unknown-symbol
    # closure; the same rule object reads g once the signature has grown.
    r = parse_rule("f := g(1)")
    s = small_state()
    bare = State(Signature((FunctionSymbol("f", 0),)), {}, s.universe)
    with pytest.raises(EvalError, match="unknown-symbol"):
        eval_rule(bare, {}, r)
    kept = r.compiled
    with pytest.raises(EvalError, match="unknown-symbol"):
        eval_rule(bare, {}, r)
    assert r.compiled is kept  # the same signature reuses the closure
    grown = State(s.signature, {Location("g", (Natural(1),)): Natural(5)}, s.universe)
    assert eval_rule(grown, {}, r) == UpdateMultiset([Update(Location("f"), Natural(5))])
    assert r.compiled[0] is grown.signature


def test_unchanged_sub_rules_are_not_compiled_again(monkeypatch):
    a, b, c = parse_rule("f := 1"), parse_rule("g(1) := 2"), parse_rule("g(2) := 3")
    s = small_state()
    eval_rule(s, {}, Par((a, b)))
    compiled = []
    real = evaluator._update
    monkeypatch.setattr(evaluator, "_update", lambda r, sig: compiled.append(r) or real(r, sig))
    um = eval_rule(s, {}, Par((a, b, c)))
    assert compiled == [c]
    assert len(um.entries) == 3


def missed_compiles(monkeypatch) -> list:
    """Patches `_compile_term` to record each term it compiles afresh: one
    that keeps no closure for a signature equal to the one asked for."""
    missed, real = [], evaluator._compile_term

    def counting(t, sig):
        memo = getattr(t, "compiled", None)
        if memo is None or memo[0] != sig:
            missed.append(t)
        return real(t, sig)

    monkeypatch.setattr(evaluator, "_compile_term", counting)
    return missed


def test_a_term_is_compiled_again_only_under_another_signature(monkeypatch):
    t, s = parse_term("g(f) + 1"), small_state(f=Natural(1))
    equal = State(Signature(FunctionSymbol(x.name, x.arity, "static") for x in s.signature), s.interp, s.universe)
    grown = s.with_signature(s.signature.extended([FunctionSymbol("h", 0)]))
    missed = missed_compiles(monkeypatch)
    for state, fresh in ((s, 3), (s, 0), (equal, 0), (grown, 3)):  # `g(f) + 1`, `g(f)` and `f`
        del missed[:]
        assert eval_term(state, {}, t) == UNDEF
        assert len(missed) == fresh
    assert t.compiled[0] is grown.signature


def test_check_compiles_read_terms_linearly_in_if_nesting(monkeypatch, fresh_nodes):
    """The read terms of nested IF/ELSEs share the path's conditions with
    the rule, which the step compiled: the check compiles each shared
    term once, not once per read term that holds it."""
    def misses(n):
        rep = step(parse_state("function f/0\nfunction g/0\ninit f = 0\ninit g = 0\nprogram\n"
                               + nested_if_else(n) + "\n"))
        with monkeypatch.context() as m:
            missed = missed_compiles(m)
            check_bounded_exploration(rep.state, rep.next)
        return len(missed)

    assert misses(200) <= 2 * misses(100) + 10


# ------------------------------------------- closure shapes against the oracle

def outcome(evaluate, s, env, r):
    """The update set `r` yields, or the code of the error it raises."""
    try:
        got = evaluate(s, env, r)
    except EvalError as e:
        return e.code
    return frozenset(got.entries) if isinstance(got, UpdateMultiset) else got[0]


# The values an operand takes; None: the operand raises.
SHAPE_VALUES = (Natural(0), Natural(3), UNDEF, Atom("a"), TRUE, FALSE, TupleVal((Natural(1),)), None)
MISSING = Apply("missing", (ONE,))


def shape_operand(kind, side, v):
    """An operand of `kind` on `side` (0 or 1) that evaluates to `v`, as
    (term, stored entries, environment, LET bindings around the rule)."""
    if kind == "literal":
        return Literal(v), {}, {}, []
    if kind == "nullary read":
        name = f"c{side}"
        return (Apply(name, ()) if v is not None else Apply("missing", ()),
                {Location(name): v} if v not in (None, UNDEF) else {}, {}, [])
    if kind == "unary read":
        loc = Location("g", (Natural(side),))
        return (Apply("g", (Literal(Natural(side)),)) if v is not None else MISSING,
                {loc: v} if v not in (None, UNDEF) else {}, {}, [])
    if kind == "forall variable":  # bound in the environment, as FORALL binds it
        return Var(f"x{side}"), {}, {} if v is None else {f"x{side}": v}, []
    assert kind == "let variable"
    return Var(f"y{side}"), {}, {}, [(f"y{side}", MISSING if v is None else Literal(v))]


@pytest.mark.parametrize("op", sorted(n for n, o in BACKGROUND_OPS.items() if o.arity in (2, None)))
def test_binary_shapes_agree_with_the_oracle(op):
    kinds = ("literal", "nullary read", "unary read", "forall variable", "let variable")
    sig = Signature((FunctionSymbol("r", 0), FunctionSymbol("c0", 0), FunctionSymbol("c1", 0),
                     FunctionSymbol("g", 1)))
    for left_kind, right_kind in itertools.product(kinds, repeat=2):
        for lv, rv in itertools.product(SHAPE_VALUES, repeat=2):
            if (left_kind == "literal" and lv is None) or (right_kind == "literal" and rv is None):
                continue
            left, right = shape_operand(left_kind, 0, lv), shape_operand(right_kind, 1, rv)
            rule = Assign("r", (), BackgroundOp(op, (left[0], right[0])))
            for name, binding in left[3] + right[3]:
                rule = Let(name, binding, rule)
            s = State(sig, {**left[1], **right[1]}, frozenset())
            env = {**left[2], **right[2]}
            assert outcome(eval_rule, s, env, rule) == outcome(naive_eval_rule, s, env, rule), (
                op, left_kind, lv, right_kind, rv)


def test_one_rule_object_under_a_forall_and_a_let_of_its_variable():
    # One Assign object keeps one closure: x is a value under the FORALL and
    # in the environment, a LET binding under the LET, and unbound alone.
    a = Assign("g", (Var("x"),), BackgroundOp("add", (Var("x"), Apply("g", (Var("x"),)))))
    both = Par((Forall("x", BackgroundOp("lt", (Var("x"), Literal(Natural(2)))), a), Let("x", Apply("f", ()), a)))
    s = small_state(f=Natural(2))
    s = State(s.signature, {**s.interp, Location("g", (Natural(0),)): Natural(10),
                            Location("g", (Natural(2),)): Natural(20)}, s.universe)
    for r, env in ((a, {"x": Natural(2)}), (both, {}), (a, {}), (both, {"x": Natural(7)})):
        assert outcome(eval_rule, s, env, r) == outcome(naive_eval_rule, s, env, r), (r, env)
    assert outcome(eval_rule, s, {}, both) == frozenset((
        Update(Location("g", (Natural(0),)), Natural(10)), Update(Location("g", (Natural(1),)), UNDEF),
        Update(Location("g", (Natural(2),)), Natural(22))))
    assert outcome(eval_rule, s, {}, a) == "unbound-variable"
