"""The independent oracle evaluator, and its agreement with the main one.

Random agreement at scale lives in the acceptance tests; these pin down the
oracle's own behaviour and a few directed equivalence points, including the
error outcomes.
"""

import random

import pytest

from rasm.conformance import check_naive_equivalence
from rasm.errors import EvalError
from rasm.evaluator import eval_rule
from rasm.naive import naive_eval_rule, naive_eval_term
from rasm.parser import parse_rule, parse_term
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.updates import Update, collapse
from rasm.values import Multiset, Natural
from conftest import (
    count_lookups,
    random_relational_rule,
    random_relational_state,
    random_rule,
    random_rule_reusing_names,
    random_state,
)


def small_state(**inits):
    sig = Signature((FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    return State(sig, {Location(n): v for n, v in inits.items()}, frozenset({Natural(0), Natural(1)}))


def test_naive_term_evaluation():
    s = small_state(f=Natural(1))
    assert naive_eval_term(s, {}, parse_term("f + 1")) == Natural(2)
    assert naive_eval_term(s, {}, parse_term("{| x | x : x < 2 |}")) == Multiset(
        (Natural(0), Natural(1))
    )


def test_naive_rule_collects_and_scans():
    s = small_state()
    us, ok = naive_eval_rule(s, {}, parse_rule("PAR f := 1 f := 1 ENDPAR"))
    assert ok
    assert us == frozenset({Update(Location("f"), Natural(1))})
    us, ok = naive_eval_rule(s, {}, parse_rule("PAR f := 1 f := 2 ENDPAR"))
    assert not ok
    assert len(us) == 2


def test_naive_verdict_is_the_pairwise_scan():
    """The oracle's set test of consistency says what a scan of every pair
    of collected updates for two values at one location says."""
    from rasm.naive import _collect_updates, _Fresh

    rng = random.Random(101)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        s, r = random_state(rng), random_rule(rng, depth=4)
        out = []
        try:
            _collect_updates(s, {}, r, out, _Fresh(s), frozenset())
        except EvalError:
            continue
        pairwise = not any(u.location == w.location and u.value != w.value
                           for i, u in enumerate(out) for w in out[i + 1 :])
        assert naive_eval_rule(s, {}, r) == (frozenset(out), pairwise)
        verdicts[pairwise] += 1
    assert min(verdicts.values()) > 20, verdicts


def test_naive_rejects_partial_assignments():
    with pytest.raises(EvalError, match="unknown-operator"):
        naive_eval_rule(small_state(), {}, parse_rule("f <<= munion({| 1 |})"))


def test_naive_import_numbering_matches_main():
    s = small_state()
    r = parse_rule("IMPORT a DO IMPORT b DO PAR g(a) := 1 g(b) := 2 ENDPAR")
    us, ok = naive_eval_rule(s, {}, r)
    um = eval_rule(s, {}, r)
    assert ok
    assert us == frozenset(um)


@pytest.mark.parametrize(
    "text",
    [
        "f := f + 1",
        "IF f = 0 THEN f := 1 ELSE f := 2 ENDIF",
        "FORALL x WITH x < 2 DO g(x) := x ENDDO",
        "LET y = f IN g(y) := y",
        "IMPORT a DO g(a) := 1",
        "PAR f := 1 f := 2 ENDPAR",
    ],
)
def test_directed_equivalence(text):
    s = small_state(f=Natural(0))
    r = parse_rule(text)
    us, ok = naive_eval_rule(s, {}, r)
    um = eval_rule(s, {}, r)
    col = collapse(s, um)
    assert frozenset(col.updates) == us
    assert col.consistent == ok


@pytest.mark.parametrize(
    "text,code",
    [
        ("IF undef < 0 THEN f := 1 ENDIF", "condition-undef"),
        ("IF 5 THEN f := 1 ENDIF", "non-boolean-guard"),
        ("missing := 1", "unknown-symbol"),
        ("g(1, 2) := 1", "arity-mismatch"),
        ("f := ?loose", "unbound-variable"),
        # a let name never reaches head position under substitution
        ("LET y = 1 IN y := 2", "unknown-symbol"),
        ("IMPORT a DO a := 1", "bound-variable-as-location"),
        ("FORALL x WITH true DO x := 1 ENDDO", "bound-variable-as-location"),
    ],
)
def test_error_outcomes_agree(text, code):
    s = small_state()
    r = parse_rule(text)
    with pytest.raises(EvalError) as main_exc:
        eval_rule(s, {}, r)
    with pytest.raises(EvalError) as naive_exc:
        naive_eval_rule(s, {}, r)
    assert main_exc.value.code == code
    assert naive_exc.value.code == code


def test_unused_erroring_let_binding_is_no_error():
    # an unread binding is never evaluated, so neither evaluator may raise
    s = small_state()
    r = parse_rule("LET y = missing IN f := 1")
    assert eval_rule(s, {}, r) == eval_rule(s, {}, parse_rule("f := 1"))
    us, ok = naive_eval_rule(s, {}, r)
    assert ok and us == frozenset({Update(Location("f"), Natural(1))})


def test_used_erroring_let_binding_raises_in_both():
    s = small_state()
    r = parse_rule("LET y = missing IN f := y")
    with pytest.raises(EvalError, match="unknown-symbol"):
        eval_rule(s, {}, r)
    with pytest.raises(EvalError, match="unknown-symbol"):
        naive_eval_rule(s, {}, r)


def test_random_spot_equivalence():
    rng = random.Random(97)
    agreements = 0
    for _ in range(150):
        s = random_state(rng)
        r = random_rule(rng, depth=3)
        try:
            want = ("ok",) + naive_eval_rule(s, {}, r)
        except EvalError as e:
            want = ("error", e.code)
        try:
            um = eval_rule(s, {}, r)
            col = collapse(s, um)
            got = ("ok", frozenset(col.updates), col.consistent)
        except EvalError as e:
            got = ("error", e.code)
        assert got == want
        agreements += 1
    assert agreements == 150


def test_oracle_agrees_when_names_are_reused():
    # Binders and update heads share four names, so LETs shadow FORALLs and
    # IMPORTs, terms meet binders of their own names, and bound names land
    # in head position.
    failed = []
    for seed in range(3000):
        rng = random.Random(seed)
        r = random_rule_reusing_names(rng)
        rep = check_naive_equivalence(random_state(rng), r)
        if not rep.passed:
            failed.append(rep.violations[0].description)
    assert not failed, failed[:3]


RELATIONAL_PAIRS = 3000


def _relational_pairs():
    for seed in range(RELATIONAL_PAIRS):
        rng = random.Random(seed)
        yield random_relational_state(rng), random_relational_rule(rng)


def _outcome(evaluate):
    try:
        return ("ok",) + evaluate()
    except EvalError as e:
        return ("error", e.code)


def test_oracle_agrees_on_guards_that_read_relations(monkeypatch):
    # Quantifiers that enumerate only a read's stored arguments must give
    # the oracle's full-domain outcome: updates, reserve draws and errors.
    # That shows something only if the index is consulted often enough.
    looked_up = count_lookups(monkeypatch)
    failed, narrowed = [], 0
    for s, r in _relational_pairs():
        def main():
            us = collapse(s, eval_rule(s, {}, r))
            return frozenset(us.updates), us.consistent

        before = len(looked_up)
        mine, ref = _outcome(main), _outcome(lambda: naive_eval_rule(s, {}, r))
        narrowed += len(looked_up) > before
        if mine != ref:
            failed.append((r, mine, ref))
    assert not failed, failed[:3]
    assert narrowed >= RELATIONAL_PAIRS // 3
