"""Release gate: every acceptance bar at its stated scale.

Each test covers one bar end to end and emits a single PASS/FAIL line
(visible under `pytest -s tests/test_acceptance.py`).  The bars repeat
ground the per-module suites cover at smaller scale; here the point is the
stated sample sizes, tolerances, and wall-clock budget in one place.
"""

import itertools
import random
import time
from pathlib import Path

from rasm import terms as T
from rasm.cli import main
from rasm.conformance import (
    check_bounded_exploration,
    check_initial_agreement,
    check_isomorphism_closure,
    check_signature_monotonicity,
)
from rasm.encoding import as_program, drop_rule, raise_rule
from rasm.errors import MachineError, RasmError
from rasm.evaluator import eval_rule, eval_term
from rasm.machine import run, step
from rasm.naive import naive_eval_rule
from rasm.parser import parse_rule, parse_state
from rasm.printer import format_trace, print_rule
from rasm.state import FunctionSymbol, Location, PGM_LOCATION, Signature, State
from rasm.treediff import tree_diff_rule, tree_diff_updates
from rasm.trees import (
    XI,
    concat_hedges,
    context_at,
    subst_cc,
    subst_ct,
    subtree,
)
from rasm.updates import (
    SharedUpdate,
    Update,
    UpdateMultiset,
    _fold,
    collapse,
)
from rasm.values import Atom, Multiset, Natural, TreeVal, TupleVal
from conftest import (
    iter_nodes,
    random_context,
    random_program_pair,
    random_rule,
    random_state,
    random_tree,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_STEPS = (("increment", 10), ("self_rewrite", 2), ("grow_signature", 2), ("move_subrule", 2))


def gate(name, failures):
    print(("PASS " if not failures else "FAIL ") + name)
    assert not failures, f"{name}: {failures[:3]} ({len(failures)} total)"


def demo_text(name):
    return (DEMOS / f"{name}.rst").read_text(encoding="utf-8")


# ------------------------------------------------------- tree-algebra laws

def _xi_count(n):
    return int(n.label == XI) + sum(_xi_count(c) for c in n.children)


def _lit(x):
    """A tree or context, or a tuple of naturals or of trees (a path or a
    hedge), as a literal term; a term stays as it is."""
    if isinstance(x, T.Term):
        return x
    if isinstance(x, tuple):
        return T.Literal(TupleVal(tuple(Natural(i) if isinstance(i, int) else TreeVal(i) for i in x)))
    return T.Literal(TreeVal(x))


def _op(name, *args):
    return T.BackgroundOp(name, tuple(map(_lit, args)))


def _holes(v):
    return _xi_count(v.root_node) if isinstance(v, TreeVal) else None


def test_tree_algebra_laws():
    """1,000 random trees/contexts (depth <= 6, branching <= 4), under 10 s:
    decomposition identity, composition associativity, concat monoid laws,
    and hole-count invariants, each checked directly and again through
    `eval_term`, as a rule reaches them, on background-operation terms over
    literal tree values."""
    rng = random.Random(2026)
    failures = []
    s = State(Signature(()), {})

    def ev(term):
        return eval_term(s, {}, term)

    t0 = time.monotonic()
    for i in range(1000):
        t = random_tree(rng)
        c1, c2, c3 = (random_context(rng) for _ in range(3))

        below = [p for p, _n in iter_nodes(t) if p]
        if below:
            p = rng.choice(below)
            if subst_ct(context_at(t, (), p), subtree(t, p)) != t:
                failures.append(("decomposition", i))
            if ev(_op("subst_ct", _op("context_at", t, (), p), _op("subtree_at", t, p))) != TreeVal(t):
                failures.append(("decomposition-by-rule", i))

        if subst_cc(subst_cc(c1, c2), c3) != subst_cc(c1, subst_cc(c2, c3)):
            failures.append(("composition-associativity", i))
        left = ev(_op("subst_cc", _op("subst_cc", c1, c2), c3))
        if left != ev(_op("subst_cc", c1, _op("subst_cc", c2, c3))) or left != TreeVal(subst_cc(c1, subst_cc(c2, c3))):
            failures.append(("composition-associativity-by-rule", i))

        h1 = tuple(random_tree(rng, depth=2) for _ in range(rng.randrange(3)))
        h2 = tuple(random_tree(rng, depth=2) for _ in range(rng.randrange(3)))
        h3 = (t,)
        if concat_hedges(h1, ()) != h1 or concat_hedges((), h1) != h1:
            failures.append(("concat-identity", i))
        if concat_hedges(concat_hedges(h1, h2), h3) != concat_hedges(h1, concat_hedges(h2, h3)):
            failures.append(("concat-associativity", i))
        if ev(_op("concat_hedges", h1, ())) != _lit(h1).value or ev(_op("concat_hedges", (), h1)) != _lit(h1).value:
            failures.append(("concat-identity-by-rule", i))
        left = ev(_op("concat_hedges", _op("concat_hedges", h1, h2), h3))
        if left != ev(_op("concat_hedges", h1, _op("concat_hedges", h2, h3))) or left != _lit(h1 + h2 + h3).value:
            failures.append(("concat-associativity-by-rule", i))

        if _xi_count(t) != 0:
            failures.append(("tree-has-a-hole", i))
        if any(_xi_count(c) != 1 for c in (c1, c2, c3)):
            failures.append(("context-hole-count", i))
        if _xi_count(subst_cc(c1, c2)) != 1:
            failures.append(("composition-hole-count", i))
        if _xi_count(subst_ct(c1, t)) != 0:
            failures.append(("plugged-hole-count", i))
        if _holes(ev(_op("subst_cc", c1, c2))) != 1:
            failures.append(("composition-hole-count-by-rule", i))
        if _holes(ev(_op("subst_ct", c1, t))) != 0:
            failures.append(("plugged-hole-count-by-rule", i))
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(("over-time-budget", elapsed))
    gate("tree-algebra-laws", failures)


# ------------------------------------------------------------- round trips

def _forms_of(r, seen):
    seen.add(type(r).__name__)
    if isinstance(r, T.If):
        _forms_of(r.then_branch, seen)
        _forms_of(r.else_branch, seen)
    elif isinstance(r, T.Par):
        for x in r.rules:
            _forms_of(x, seen)
    elif isinstance(r, (T.Forall, T.Let, T.Import)):
        _forms_of(r.body, seen)


def test_encode_round_trips():
    """raise(drop(r)) = r and parse(print(r)) = r over 500 random rules
    covering all seven forms, partial assignments included."""
    rng = random.Random(4096)
    failures = []
    seen = set()
    for i in range(500):
        r = random_rule(rng, depth=4, allow_partial=True)
        _forms_of(r, seen)
        if raise_rule(drop_rule(r)) != r:
            failures.append(("drop-raise", i))
        if parse_rule(print_rule(r)) != r:
            failures.append(("print-parse", i))
    missing = {"Assign", "PartialAssign", "If", "Par", "Forall", "Let", "Import"} - seen
    if missing:
        failures.append(("forms-not-exercised", sorted(missing)))
    gate("encode-round-trips", failures)


# ------------------------------------------------------ oracle equivalence

def test_oracle_equivalence():
    """Strict evaluator + collapse against the naive evaluator on 1,000
    random (rule, state) pairs without partial assignments: identical
    outcomes throughout, exact update-set equality wherever both produce
    one (at least 600 of the 1,000 must)."""
    rng = random.Random(777)
    failures = []
    comparable = 0
    for i in range(1000):
        s = random_state(rng, domain=5)
        r = random_rule(rng, depth=4)
        try:
            us = collapse(s, eval_rule(s, {}, r))
            mine = ("ok", frozenset(us.updates), us.consistent)
        except RasmError as e:
            mine = ("error", e.code)
        try:
            updates, consistent = naive_eval_rule(s, {}, r)
            ref = ("ok", updates, consistent)
        except RasmError as e:
            ref = ("error", e.code)
        if mine != ref:
            failures.append(("disagreement", i, print_rule(r)))
        elif mine[0] == "ok":
            comparable += 1
    if comparable < 600:
        failures.append(("too-few-update-sets", comparable))
    gate("oracle-equivalence", failures)


# ----------------------------------------------------- collapse correctness

def test_collapse_permutation_fold():
    """200 commutative shared-update groups of size <= 6: the collapsed
    value equals the sequential fold of every permutation."""
    rng = random.Random(55)
    loc = Location("f")
    sig = Signature((FunctionSymbol("f", 0),))
    failures = []
    for i in range(200):
        def ms():
            return Multiset(Natural(rng.randrange(4)) for _ in range(rng.randrange(4)))

        interp = {} if rng.random() < 0.2 else {loc: ms()}
        s = State(sig, interp)
        entries = tuple(
            SharedUpdate(loc, "munion", (ms(),)) for _ in range(rng.randrange(1, 7))
        )
        us = collapse(s, UpdateMultiset(entries))
        if not us.consistent:
            failures.append(("inconsistent", i))
            continue
        (u,) = [u for u in us.updates if u.location == loc]
        for perm in itertools.permutations(entries):
            v = s.value_of(loc)
            for e in perm:
                v = _fold(v, [(e.op, e.args)])
            if v != u.value:
                failures.append(("fold-mismatch", i, perm))
                break
    gate("collapse-permutation-fold", failures)


# --------------------------------------------------------- reflection demos

def test_reflection_demos():
    """The four checked-in demos against their hand-evaluated traces:
    static increment, self-rewrite, signature growth, and a subrule moved
    by an assignment to pgm built from the tree algebra."""
    failures = []

    def traced(name, steps):
        reps = run(parse_state(demo_text(name)), steps=steps)
        golden = (DEMOS / f"{name}.trace").read_bytes()
        if format_trace(reps).encode("utf-8") != golden:
            failures.append((name, "trace-differs"))
        return reps

    reps = traced("increment", 10)
    if reps[-1].next.value_of(Location("f")) != Natural(10):
        failures.append(("increment", "f-not-10"))

    reps = traced("self_rewrite", 2)
    if reps[-1].next.value_of(Location("f")) != Natural(2):
        failures.append(("self_rewrite", "f-not-2"))
    rewritten = reps[0].next.value_of(PGM_LOCATION)
    if as_program(rewritten).rule != parse_rule("f := 2"):
        failures.append(("self_rewrite", "rule-not-reraised"))

    reps = traced("grow_signature", 2)
    final = reps[-1].next
    if final.value_of(Location("g", (Natural(0),))) != Natural(42):
        failures.append(("grow_signature", "g-not-assigned"))
    if final.signature.lookup("g") is None:
        failures.append(("grow_signature", "g-not-in-signature"))

    reps = traced("move_subrule", 2)
    if reps[-1].next.value_of(Location("g")) != Natural(2):
        failures.append(("move_subrule", "g-not-2"))
    moved = reps[0].next.value_of(PGM_LOCATION)
    if as_program(moved).rule != parse_rule("PAR f := 1 g := f + 1 ENDPAR"):
        failures.append(("move_subrule", "rule-not-moved"))
    gate("reflection-demos", failures)


# ----------------------------------------------------------- tree diffing

def test_tree_diff_reconciliation():
    """300 random program-tree pairs, 1-5 edits apart: the diff rule prints
    and parses back to itself and, run on the old tree, collapses to the
    single root-level replacement by the target, as its updates do."""
    rng = random.Random(8080)
    sig = Signature(
        (FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1))
    )
    failures = []
    for i in range(300):
        t1, t2 = random_program_pair(rng)
        s = State(sig, {Location("pgm"): t1})
        rule = tree_diff_rule(t1, t2)
        us = collapse(s, eval_rule(s, {}, rule))
        if parse_rule(print_rule(rule)) != rule or not us.consistent or us.updates != (
            Update(Location("pgm"), t2),
        ):
            failures.append(("rule-misses-target", i))
        us = collapse(s, tree_diff_updates(t1, t2))
        if not us.consistent or us.updates != (Update(Location("pgm"), t2),):
            failures.append(("updates-miss-target", i))
    gate("tree-diff-reconciliation", failures)


# -------------------------------------------------------- postulate checks

ATOMIC = (
    "function mark/1\n"
    "universe red green blue\n"
    "init mark(red) = 1\n"
    "\n"
    "program\n"
    "FORALL x WITH mark(x) = 1 DO mark(x) := 0 ENDDO\n"
)

# Rules for constructed bounded-exploration pairs; none of them reads h,
# and the universe pins a shared active domain however h differs.
PAIR_RULES = (
    "f := f + 1",
    "IF f = 0 THEN f := 1 ELSE f := 2 ENDIF",
    "FORALL x WITH g(x) = 1 DO g(x) := 0 ENDDO",
    "PAR f := g(0) g(1) := f ENDPAR",
    "LET y = f + 1 IN f := y",
)


def _pair_doc(rule, f0, g_inits, h):
    lines = ["universe 0 1 2 3 4", "function f/0", "function g/1", "function h/0",
             f"init f = {f0}"]
    lines += [f"init g({k}) = {v}" for k, v in g_inits]
    lines += [f"init h = {h}", "", "program", rule, ""]
    return "\n".join(lines)


def _constructed_pair(rng):
    rule = rng.choice(PAIR_RULES)
    f0 = rng.randrange(5)
    g_inits = [(k, rng.randrange(5)) for k in sorted(rng.sample(range(5), rng.randrange(3)))]
    h1, h2 = rng.sample(range(5), 2)
    return (
        parse_state(_pair_doc(rule, f0, g_inits, h1)),
        parse_state(_pair_doc(rule, f0, g_inits, h2)),
    )


def test_postulate_checks():
    """Zero violations across the demo corpus: isomorphism closure with 100
    bijections per demo, monotonicity along real runs, initial pgm
    agreement, bounded exploration on 100 constructed pairs.  The three
    negative controls must each fail their intended check."""
    failures = []

    for name, steps in DEMO_STEPS:
        s = parse_state(demo_text(name))
        rep = check_isomorphism_closure(s, trials=100, seed=9)
        if not rep.passed:
            failures.append((name, "isomorphism", rep.violations[0].description))
        states = [s] + [r.next for r in run(s, steps=steps)]
        rep = check_signature_monotonicity(states)
        if not rep.passed:
            failures.append((name, "monotonicity", rep.violations[0].description))
        rep = check_initial_agreement([s, parse_state(demo_text(name))])
        if not rep.passed:
            failures.append((name, "initial-agreement", rep.violations[0].description))

    # the demos carry no movable atoms, so exercise the bijection machinery
    # on an atom-bearing machine as well before trusting the controls below
    rep = check_isomorphism_closure(parse_state(ATOMIC), trials=100, seed=9)
    if not rep.passed or rep.instances != 100 or rep.notes:
        failures.append(("atomic", "isomorphism", rep.text()))

    rng = random.Random(31)
    for i in range(100):
        s1, s2 = _constructed_pair(rng)
        rep = check_bounded_exploration(s1, s2)
        if not rep.passed or rep.notes:
            failures.append(("bounded", i, rep.text()))

    # negative control 1: a step function that special-cases one spelling
    def crooked_step(st):
        rep = step(st)
        if any(Atom("green") in loc.args for loc in st.interp):
            extra = {**rep.next.interp, Location("mark", (Atom("green"),)): Natural(7)}
            nxt = State(rep.next.signature, extra, rep.next.universe,
                        rep.next.reserve_cursor, rep.next.reserve_seed)
            return type(rep)(rep.state, nxt, rep.raised_rule, rep.update_set)
        return rep

    rep = check_isomorphism_closure(parse_state(ATOMIC), trials=100, seed=9,
                                    step_fn=crooked_step)
    if rep.passed:
        failures.append(("negative-control", "isomorphism-not-caught"))

    # negative control 2: an update function that peeks at the unread h
    def peeking(st, rule):
        hidden = st.value_of(Location("h"))
        return UpdateMultiset(eval_rule(st, {}, rule).entries + (Update(Location("f"), hidden),))

    s1, s2 = _constructed_pair(random.Random(32))
    rep = check_bounded_exploration(s1, s2, updates_fn=peeking)
    if rep.passed:
        failures.append(("negative-control", "peeking-not-caught"))

    # negative control 3: a run whose signature loses a symbol
    big = State(Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0))), {})
    small = State(Signature((FunctionSymbol("pgm", 0),)), {})
    rep = check_signature_monotonicity([big, small])
    if rep.passed:
        failures.append(("negative-control", "shrink-not-caught"))

    gate("postulate-checks", failures)


# ------------------------------------------------------------- determinism

def test_trace_determinism(tmp_path, capsys):
    """Two driver runs of every demo with identical seeds write
    byte-identical trace files."""
    failures = []
    for name, steps in DEMO_STEPS:
        for seed in (0, 3):
            paths = [tmp_path / f"{name}-{seed}-{k}.trace" for k in (1, 2)]
            for p in paths:
                rc = main(["run", str(DEMOS / f"{name}.rst"), "--steps", str(steps),
                           "--seed", str(seed), "--trace", str(p)])
                capsys.readouterr()  # the final-state dump is not under test
                if rc != 0:
                    failures.append((name, seed, "exit", rc))
            if paths[0].read_bytes() != paths[1].read_bytes():
                failures.append((name, seed, "traces-differ"))
    gate("trace-determinism", failures)
