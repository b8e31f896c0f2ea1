"""Seeded random generators shared across the suite.

Everything takes an explicit random.Random so failures replay exactly.
Rules come out closed (variables only under their binders) with guards
built from comparisons and connectives, so the only evaluation errors a
generated rule can produce are the ones both evaluators define the same
way (an undef branch condition, chiefly).
"""

import random

import pytest

from rasm import encoding, trees
from rasm.encoding import drop_program
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm.terms import (
    Apply,
    Assign,
    BackgroundOp,
    Comprehension,
    Forall,
    If,
    Import,
    Let,
    Literal,
    Par,
    PartialAssign,
    Rule,
    Var,
)
from rasm.trees import Context, Node, Tree, XI
from rasm.values import FALSE, TRUE, UNDEF, Atom, DroppedTerm, Multiset, Natural, TreeVal, TupleVal, value_key

LABELS = ("a", "b", "c", "d", "e")
ATOMS = ("red", "green", "blue", "amber")


# ------------------------------------------------------------------- trees

def random_node(rng: random.Random, depth: int, branch: int = 4) -> Node:
    label = rng.choice(LABELS)
    if depth <= 0 or rng.random() < 0.3:
        value = rng.choice((None, None, Natural(rng.randrange(5)), Atom(rng.choice(ATOMS)), TRUE))
        return Node(label, (), value)
    kids = tuple(random_node(rng, depth - 1, branch) for _ in range(rng.randrange(branch + 1)))
    return Node(label, kids) if kids else Node(label)


def random_tree(rng: random.Random, depth: int = 6, branch: int = 4) -> Tree:
    return Tree(random_node(rng, depth, branch))


def _leaf_paths(n: Node, path=()) -> list:
    if not n.children:
        return [path]
    out = []
    for i, c in enumerate(n.children):
        out.extend(_leaf_paths(c, path + (i,)))
    return out


def _replace_at(n: Node, path, new: Node) -> Node:
    if not path:
        return new
    kids = list(n.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return Node(n.label, tuple(kids), n.value)


def random_context(rng: random.Random, depth: int = 6, branch: int = 4) -> Context:
    """A random tree with one leaf swapped for the hole.

    Built by direct node surgery, independent of the algebra under test.
    """
    n = random_node(rng, depth, branch)
    path = rng.choice(_leaf_paths(n))
    return Context(_replace_at(n, path, Node(XI)))


# ------------------------------------------------------------------ values

def random_value(rng: random.Random, depth: int = 2):
    """Any variant: the four scalars at depth 0; tuples and multisets of
    values one level shallower, small trees and contexts, and dropped terms
    above it."""
    simple = (
        lambda: Natural(rng.randrange(6)),
        lambda: Atom(rng.choice(ATOMS)),
        lambda: rng.choice((TRUE, FALSE)),
        lambda: UNDEF,
    )
    if depth <= 0:
        return rng.choice(simple)()
    deep = simple + (
        lambda: TupleVal(tuple(random_value(rng, depth - 1) for _ in range(rng.randrange(3)))),
        lambda: Multiset(tuple(random_value(rng, depth - 1) for _ in range(rng.randrange(3)))),
        lambda: TreeVal(rng.choice((random_tree, random_context))(rng, depth=depth, branch=2)),
        lambda: DroppedTerm(random_term(rng, (), depth - 1)),
    )
    return rng.choice(deep)()


# ------------------------------------------------------------------ states

def random_state(rng: random.Random, domain: int = 5, with_pgm: bool = False) -> State:
    """Small state: f/0, g/1, h/2 over a few atoms and naturals."""
    symbols = [FunctionSymbol("f", 0), FunctionSymbol("g", 1), FunctionSymbol("h", 2)]
    if with_pgm:
        symbols.append(FunctionSymbol("pgm", 0))
    sig = Signature(tuple(symbols))
    base = [Natural(i) for i in range(max(1, domain - 2))] + [Atom(a) for a in ATOMS[:2]]
    base = base[:domain]
    interp = {}
    if rng.random() < 0.8:
        interp[Location("f")] = rng.choice(base)
    for v in rng.sample(base, k=min(len(base), rng.randrange(len(base) + 1))):
        interp[Location("g", (v,))] = rng.choice(base)
    for _ in range(rng.randrange(3)):
        a, b = rng.choice(base), rng.choice(base)
        interp[Location("h", (a, b))] = rng.choice(base)
    return State(sig, interp, frozenset(base))


SYMBOL_ARITIES = {"f": 0, "g": 1, "h": 2}


# ------------------------------------------------------------------- terms

def _coll(op, parts):
    # Mirror the parser: all-literal collections fold to literal values, so
    # generated terms stay inside the parser's image and round-trip exactly.
    if all(isinstance(p, Literal) for p in parts):
        if op == "tuple":
            return Literal(TupleVal(tuple(p.value for p in parts)))
        return Literal(Multiset(p.value for p in parts))
    return BackgroundOp(op, tuple(parts))


def random_term(rng: random.Random, env: tuple, depth: int):
    """Closed except for `env` variables; never references unknown symbols."""
    leaves = [
        lambda: Literal(Natural(rng.randrange(4))),
        lambda: Literal(Atom(rng.choice(ATOMS[:2]))),
        lambda: Literal(rng.choice((TRUE, FALSE, UNDEF))),
        lambda: Apply("f"),
    ]
    if env:
        leaves.append(lambda: Var(rng.choice(env)))
    if depth <= 0:
        return rng.choice(leaves)()
    deep = leaves + [
        lambda: Apply("g", (random_term(rng, env, depth - 1),)),
        lambda: Apply("h", (random_term(rng, env, depth - 1), random_term(rng, env, depth - 1))),
        lambda: BackgroundOp("add", (random_term(rng, env, depth - 1), random_term(rng, env, depth - 1))),
        lambda: BackgroundOp("sub", (random_term(rng, env, depth - 1), random_term(rng, env, depth - 1))),
        lambda: BackgroundOp("mul", (random_term(rng, env, depth - 1), random_term(rng, env, depth - 1))),
        lambda: _coll("tuple", [random_term(rng, env, depth - 1) for _ in range(rng.randrange(1, 3))]),
        lambda: _coll("mset", [random_term(rng, env, depth - 1) for _ in range(rng.randrange(3))]),
        lambda: BackgroundOp(
            "proj",
            (_coll("tuple", [random_term(rng, env, depth - 1) for _ in range(2)]),
             Literal(Natural(rng.randrange(1, 3)))),
        ),
        lambda: _random_comprehension(rng, env, depth),
    ]
    return rng.choice(deep)()


def _random_comprehension(rng, env, depth):
    k = rng.randrange(2)
    binders = tuple(f"q{len(env) + i}" for i in range(k))
    inner = env + binders
    return Comprehension(random_term(rng, inner, depth - 1), binders, random_guard(rng, inner, depth - 1))


def random_guard(rng: random.Random, env: tuple, depth: int):
    """Boolean-or-undef shaped: comparisons and connectives only."""
    if depth <= 0 or rng.random() < 0.35:
        op = rng.choice(("eq", "ne", "lt", "le", "gt", "ge"))
        return BackgroundOp(op, (random_term(rng, env, max(depth - 1, 0)), random_term(rng, env, max(depth - 1, 0))))
    kind = rng.choice(("and", "or", "not", "lit"))
    if kind == "lit":
        return Literal(rng.choice((TRUE, FALSE)))
    if kind == "not":
        return BackgroundOp("not", (random_guard(rng, env, depth - 1),))
    return BackgroundOp(kind, (random_guard(rng, env, depth - 1), random_guard(rng, env, depth - 1)))


# ------------------------------------------------------------------- rules

def random_rule(rng: random.Random, depth: int = 4, env: tuple = (), allow_partial: bool = False) -> Rule:
    """One of the seven forms, closed over `env`."""

    def assign():
        name = rng.choice(tuple(SYMBOL_ARITIES))
        args = tuple(random_term(rng, env, depth - 1) for _ in range(SYMBOL_ARITIES[name]))
        return Assign(name, args, random_term(rng, env, depth - 1))

    if depth <= 0:
        return assign()

    def partial():
        ms = lambda: _coll("mset", [random_term(rng, env, depth - 1) for _ in range(rng.randrange(2))])
        return PartialAssign("f", (), "munion", tuple(ms() for _ in range(rng.randrange(1, 3))))

    def if_rule():
        else_b = random_rule(rng, depth - 1, env, allow_partial) if rng.random() < 0.6 else Par(())
        return If(random_guard(rng, env, depth - 1), random_rule(rng, depth - 1, env, allow_partial), else_b)

    def par():
        return Par(tuple(random_rule(rng, depth - 1, env, allow_partial) for _ in range(rng.randrange(4))))

    def forall():
        v = f"x{len(env)}"
        return Forall(v, random_guard(rng, env + (v,), depth - 1), random_rule(rng, depth - 1, env + (v,), allow_partial))

    def let():
        v = f"y{len(env)}"
        return Let(v, random_term(rng, env, depth - 1), random_rule(rng, depth - 1, env + (v,), allow_partial))

    def imp():
        v = f"z{len(env)}"
        return Import(v, random_rule(rng, depth - 1, env + (v,), allow_partial))

    forms = [assign, assign, if_rule, par, forall, let, imp]
    if allow_partial:
        forms.append(partial)
    return rng.choice(forms)()


def random_machine(rng: random.Random) -> tuple[State, Rule]:
    """`random_state` with pgm holding a random rule, partial updates
    included, and that rule."""
    base = random_state(rng, with_pgm=True)
    rule = random_rule(rng, allow_partial=True)
    interp = {**base.interp, Location("pgm"): TreeVal(drop_program(base.signature, rule))}
    return State(base.signature, interp, base.universe), rule


def nested_if_else(n: int) -> str:
    """`n` nested `IF eq(f, i) THEN ... ELSE g := i ENDIF`, `f := 1` innermost."""
    return "".join(f"IF eq(f, {i}) THEN " for i in range(n)) + "f := 1" + "".join(
        f" ELSE g := {i} ENDIF" for i in reversed(range(n)))


# ------------------------------------------------------ raise memos

@pytest.fixture
def fresh_nodes(monkeypatch):
    """An empty intern table for one test: every node, term and rule it
    builds is new, so no raise or compile memo that another test left alive
    is hit.  Forms built before it, such as `terms.SKIP`, are not in the
    table: an equal form built under it is another object, so a test that
    uses it does not print rules or compare forms."""
    monkeypatch.setattr(trees, "_INTERNED", {})


def forget_raises(t) -> None:
    """Clear the raise memo of every node of `t`: the next raise decodes the
    whole tree into new Rule objects, which compile anew."""
    for _path, n in t.iter_nodes():
        n.raised = None


def count_form_decodes(monkeypatch) -> list:
    """The label of every rule form raise decodes from now on, one entry per
    Rule it builds; a memoised subtree adds none."""
    decoded = []
    for label, (make, decoders, arity) in list(encoding._RAISE.items()):
        def counting(*fields, _make=make, _label=label):
            decoded.append(_label)
            return _make(*fields)
        monkeypatch.setitem(encoding._RAISE, label, (counting, decoders, arity))
    return decoded


# ------------------------------------------------ guards that read relations

def count_lookups(monkeypatch) -> list:
    """The argument tuples of every `State.stored` call from now on, which
    the evaluator makes only when it narrows a quantifier."""
    calls = []
    stored = State.stored
    monkeypatch.setattr(State, "stored", lambda self, *a: calls.append(a) or stored(self, *a))
    return calls


def random_relational_state(rng: random.Random) -> State:
    """`random_state` plus the relations p/1 and e/2, mostly boolean; about
    one state in ten stores a natural in one of their entries."""
    s = random_state(rng)
    base = sorted(s.universe, key=value_key)
    interp = dict(s.interp)
    for v in rng.sample(base, k=rng.randrange(len(base) + 1)):
        interp[Location("p", (v,))] = rng.choice((TRUE, TRUE, FALSE))
    for _ in range(rng.randrange(2 * len(base))):
        interp[Location("e", (rng.choice(base), rng.choice(base)))] = rng.choice((TRUE, TRUE, FALSE))
    relational = [loc for loc in interp if loc.symbol in ("p", "e")]
    if relational and rng.random() < 0.1:
        interp[rng.choice(relational)] = Natural(rng.randrange(3))
    sig = s.signature.extended((FunctionSymbol("p", 1), FunctionSymbol("e", 2)))
    return State(sig, interp, s.universe)


def random_relational_guard(rng: random.Random, env: tuple, binders: tuple):
    """A read of p or e at one of `binders`, alone or in an `and` with
    `random_guard` conjuncts.  One guard in ten puts the read under an `or`
    instead; about one in six adds a conjunct that can raise: an unknown
    symbol, a wrong arity, an unbound argument, or a comprehension whose own
    guard reads naturals."""
    x = Var(rng.choice(binders))
    u = rng.choice([Var(n) for n in env + binders] + [Literal(Natural(rng.randrange(3)))])
    read = rng.choice((Apply("p", (x,)), Apply("e", (u, x)), Apply("e", (x, u)), Apply("e", (x, x))))
    if rng.random() < 0.1:
        read = BackgroundOp("or", (read, random_guard(rng, env + binders, 1)))
    conjuncts = [read] + [random_guard(rng, env + binders, 1) for _ in range(rng.randrange(3))]
    if rng.random() < 0.15:
        q = f"q{len(env) + len(binders)}"
        conjuncts.append(rng.choice((
            Apply("missing", (x,)),
            Apply("p", (x, x)),
            Apply("e", (Var("unbound"), x)),
            BackgroundOp("eq", (Comprehension(Var(q), (q,), Apply("g", (Var(q),))), Literal(Multiset(())))),
        )))
    rng.shuffle(conjuncts)
    return conjuncts[0] if len(conjuncts) == 1 else BackgroundOp("and", tuple(conjuncts))


def random_relational_rule(rng: random.Random, depth: int = 3, env: tuple = ()) -> Rule:
    """FORALLs and 1-2-binder comprehensions guarded by
    `random_relational_guard`, IMPORT under such a FORALL, and LETs whose
    variables those guards may read (a LET binding may name an unknown
    symbol).  A comprehension binder may shadow an enclosing name.  Unlike
    `random_rule`, evaluation errors are common."""
    n = len(env)

    def inner(*bound):
        if depth > 1:
            return random_relational_rule(rng, depth - 1, env + bound)
        return random_rule(rng, 1, env + bound)

    def forall():
        return Forall(f"x{n}", random_relational_guard(rng, env, (f"x{n}",)), inner(f"x{n}"))

    def comprehension():
        binders = tuple(f"q{n + i}" for i in range(rng.randrange(1, 3)))
        if env and rng.random() < 0.3:  # the last binder shadows an enclosing name
            binders = binders[:-1] + (rng.choice(env),)
        guard = random_relational_guard(rng, env, binders)
        c = Comprehension(random_term(rng, env + binders, 1), binders, guard)
        return Assign("g", (random_term(rng, env, 0),), c)

    def imported():
        body = Import(f"z{n}", Assign("g", (Var(f"x{n}"),), Var(f"z{n}")))
        return Forall(f"x{n}", random_relational_guard(rng, env, (f"x{n}",)), body)

    def let():
        binding = Apply("missing") if rng.random() < 0.2 else random_term(rng, env, 1)
        return Let(f"y{n}", binding, inner(f"y{n}"))

    return rng.choice((forall, forall, comprehension, imported, let, lambda: Par((inner(), inner()))))()


# ------------------------------------------------- rules that reuse names

POOL = ("x", "y", "f", "g")  # every binder and update head; f and g are symbols too


def _pool_term(rng: random.Random, env: tuple, depth: int):
    """Like `random_term`, but comprehension binders come from `POOL` and a
    variable may be any pool name, bound or not."""
    if depth <= 0 or rng.random() < 0.3:
        if env and rng.random() < 0.5:
            return Var(rng.choice(env))
        if rng.random() < 0.1:
            return Var(rng.choice(POOL))  # most likely unbound
        return rng.choice((Literal(Natural(rng.randrange(4))), Literal(Atom(rng.choice(ATOMS[:2]))), Apply("f")))
    return rng.choice((
        lambda: Apply("g", (_pool_term(rng, env, depth - 1),)),
        lambda: BackgroundOp("add", (_pool_term(rng, env, depth - 1), _pool_term(rng, env, depth - 1))),
        lambda: BackgroundOp("tuple", (_pool_term(rng, env, depth - 1), _pool_term(rng, env, depth - 1))),
        lambda: _pool_comprehension(rng, env, depth),
    ))()


def _pool_guard(rng: random.Random, env: tuple, depth: int):
    op = rng.choice(("eq", "ne", "lt"))
    return BackgroundOp(op, (_pool_term(rng, env, depth - 1), _pool_term(rng, env, depth - 1)))


def _pool_comprehension(rng, env, depth):
    binders = tuple(rng.choice(POOL) for _ in range(rng.randrange(1, 3)))
    inner = env + binders
    return Comprehension(_pool_term(rng, inner, depth - 1), binders, _pool_guard(rng, inner, depth - 1))


def random_rule_reusing_names(rng: random.Random, depth: int = 4, env: tuple = ()) -> Rule:
    """A rule whose binders and update heads all come from `POOL`, so
    shadowing, capture and bound names in head position are common.  It
    need not be closed: evaluation errors are outcomes too."""

    def sub(*bound):
        return random_rule_reusing_names(rng, depth - 1, env + bound)

    def assign():
        name = rng.choice(POOL + ("f", "g"))  # symbols twice as likely
        arity = SYMBOL_ARITIES.get(name, rng.randrange(2))
        args = tuple(_pool_term(rng, env, depth - 1) for _ in range(arity))
        return Assign(name, args, _pool_term(rng, env, depth - 1))

    if depth <= 0:
        return assign()
    v = rng.choice(POOL)
    return rng.choice((
        assign,
        lambda: If(_pool_guard(rng, env, depth - 1), sub(), sub() if rng.random() < 0.5 else Par(())),
        lambda: Par(tuple(sub() for _ in range(rng.randrange(1, 3)))),
        lambda: Forall(v, _pool_guard(rng, env + (v,), depth - 1), sub(v)),
        # A bare pool name as the binding is what a later binder can capture.
        lambda: Let(v, Var(rng.choice(POOL)) if rng.random() < 0.3 else _pool_term(rng, env, depth - 1), sub(v)),
        lambda: Import(v, sub(v)),
    ))()


# ----------------------------------------------------- program-tree pairs

def _subrule_count(r: Rule) -> int:
    if isinstance(r, If):
        return 1 + _subrule_count(r.then_branch) + _subrule_count(r.else_branch)
    if isinstance(r, Par):
        return 1 + sum(_subrule_count(c) for c in r.rules)
    if isinstance(r, (Forall, Let, Import)):
        return 1 + _subrule_count(r.body)
    return 1


def _replace_subrule(r: Rule, k: int, new: Rule):
    """Replace the k-th subrule in preorder; returns (rule, remaining)."""
    if k == 0:
        return new, -1
    k -= 1
    if isinstance(r, If):
        t, k = _replace_subrule(r.then_branch, k, new)
        if k < 0:
            return If(r.cond, t, r.else_branch), -1
        e, k = _replace_subrule(r.else_branch, k, new)
        if k < 0:
            return If(r.cond, r.then_branch, e), -1
        return r, k
    if isinstance(r, Par):
        kids = list(r.rules)
        for i, c in enumerate(kids):
            c2, k = _replace_subrule(c, k, new)
            if k < 0:
                kids[i] = c2
                return Par(tuple(kids)), -1
        return r, k
    if isinstance(r, Forall):
        b, k = _replace_subrule(r.body, k, new)
        return (Forall(r.var, r.guard, b), -1) if k < 0 else (r, k)
    if isinstance(r, Let):
        b, k = _replace_subrule(r.body, k, new)
        return (Let(r.var, r.binding, b), -1) if k < 0 else (r, k)
    if isinstance(r, Import):
        b, k = _replace_subrule(r.body, k, new)
        return (Import(r.var, b), -1) if k < 0 else (r, k)
    return r, k


def random_program_pair(rng: random.Random):
    """Two encoded programs a few edits apart; the signature only grows."""
    from rasm.encoding import drop_program

    sig = Signature((FunctionSymbol("pgm", 0), FunctionSymbol("f", 0), FunctionSymbol("g", 1)))
    rule = random_rule(rng, depth=3)
    t1 = drop_program(sig, rule)
    while True:
        sig2, rule2 = sig, rule
        for _ in range(rng.randrange(1, 6)):
            name = f"n{rng.randrange(100)}"
            if rng.random() < 0.3 and sig2.lookup(name) is None:
                sig2 = sig2.extended(Signature((FunctionSymbol(name, rng.randrange(3)),)))
            else:
                spot = rng.randrange(_subrule_count(rule2))
                rule2, _ = _replace_subrule(rule2, spot, random_rule(rng, depth=2))
        t2 = drop_program(sig2, rule2)
        if t2 != t1:
            return t1, t2
