"""The one walk over terms (`terms.subterms`, `terms.map_term`), over
values (`state._values_in`, `state.rename_value`), over rules
(`encoding.beta_rule`) and the printer's one walk (`printer._text`):
stack-safe on deep input, and in agreement with the recursive walks they
replaced.

The reference walks below are the recursive originals, kept here only as
oracles.  Every form is interned, so `==` and `hash` never walk one, and a
deep result may be compared with `==` or `is`; `repr` still recurses once
per level.
"""

import random
from collections import Counter

import pytest

from rasm import encoding
from rasm.conformance import _outcome, rule_has_partial_assign
from rasm.evaluator import BACKGROUND_OPS, eval_term
from rasm.parser import _promote
from rasm.state import (
    FunctionSymbol,
    Location,
    Signature,
    State,
    _literals,
    _next_literal,
    atoms_of_state,
    atoms_of_value,
    rename_state,
    rename_value,
)
from rasm.printer import print_rule, print_term, print_tree, print_value
from rasm.terms import (
    INFIX,
    P_CMP,
    P_NOT,
    P_OR,
    SKIP,
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
    Var,
    free_vars,
    map_term,
    subterms,
)
from rasm.trees import XI, Node
from rasm.values import TRUE, UNDEF, Atom, Boolean, DroppedTerm, Multiset, Natural, TreeVal, TupleVal, value_key

from conftest import (
    ATOMS,
    _pool_term,
    iter_nodes,
    random_context,
    random_machine,
    random_relational_rule,
    random_rule,
    random_rule_reusing_names,
    random_state,
    random_term,
    random_tree,
    random_value,
)

# ------------------------------------------------------ deep terms, no parser


def _add_chain(depth):
    t = Literal(Atom("red"))
    for i in range(depth):
        t = BackgroundOp("add", (t, Var("x") if i % 2 else Literal(Natural(i))))
    return t


def _comprehension_chain(depth, clash_at):
    """`depth` nested comprehensions over a free `y`.  Each binds `q`, except
    the one `clash_at` levels above the bottom, which binds `b`."""
    c = BackgroundOp("tuple", (Var("y"), Var("q")))
    for i in range(depth):
        binder = "b" if i == clash_at else "q"
        c = Comprehension(BackgroundOp("tuple", (c, Var(binder), Var("y"))), (binder,), Literal(Natural(i)))
    return c


def _forms(t):
    return [type(x).__name__ for x, _ in subterms(t)]


def test_deep_add_chain_goes_through_every_term_walk():
    """Quoted, dropped into `pgm`, hashed, keyed, renamed and printed: the
    5,000-level chain goes through each without a frame per level."""
    t = _add_chain(5000)
    assert free_vars(t) == {"x"}
    quoted = DroppedTerm(t)
    assert quoted is DroppedTerm(_add_chain(5000)) and hash(quoted) == hash(DroppedTerm(t))
    pgm = encoding.drop_program(Signature((FunctionSymbol("f", 0),)), Assign("f", (), t))
    assert [n.value for _p, n in iter_nodes(pgm.root_node) if n.value is quoted] == [quoted]
    key = value_key(quoted)
    assert key[:4] == (7, "BackgroundOp", "add", 2) and value_key(quoted) is quoted.key == key
    # At the bottom the longer chain holds an addition where the shorter holds
    # its literal, and "BackgroundOp" < "Literal".
    assert key < value_key(DroppedTerm(_add_chain(4999)))
    renamed = rename_value(quoted, {"red": "blue"})
    assert _literals(renamed.term) == [Atom("blue")] + _literals(t)[1:]
    assert len(_literals(t)) == 2501
    tail = "".join(" + ?x" if i % 2 else f" + {i}" for i in range(5000))
    assert print_value(renamed) == "⟦'blue" + tail + "⟧"


def test_deep_forms_print_through_the_one_walk():
    depth = 5000
    t = _add_chain(depth)
    tail = "".join(" + ?x" if i % 2 else f" + {i}" for i in range(depth))
    assert print_term(t) == "'red" + tail
    assert print_term(t, frozenset({"x"})) == "'red" + tail.replace("?", "")

    r = Assign("f", (), Literal(Natural(1)))
    for i in range(depth):
        cond = BackgroundOp("eq", (Apply("f"), Literal(Natural(i))))
        r = If(cond, r, SKIP if i % 2 else Assign("g", (), Var("y")))
    heads = "".join(f"IF f = {i} THEN " for i in reversed(range(depth)))
    ends = "".join(" ENDIF" if i % 2 else " ELSE g := y ENDIF" for i in range(depth))
    assert print_rule(r, frozenset({"y"})) == heads + "f := 1" + ends
    assert print_rule(Let("y", Apply("f"), r)) == "LET y = f IN " + print_rule(r, frozenset({"y"}))

    # A multiset sorts its items by their flat key, which walks the whole
    # item, so one level in 25 is a multiset to keep building the value linear.
    v, opens, closes = Atom("red"), [], []
    for i in range(depth):
        if i % 25 == 0:
            v, o, c = Multiset((v,)), "{| ", " |}"
        elif i % 2:
            v, o, c = TupleVal((v,)), "(", ",)"
        else:
            v, o, c = TupleVal((Natural(i), v, UNDEF)), f"({i}, ", ", undef)"
        opens.append(o)
        closes.append(c)
    opened, closed = "".join(reversed(opens)), "".join(closes)
    assert print_value(v) == opened + "red" + closed
    assert print_term(Literal(v)) == opened + "'red" + closed

    # The dropped term stays shallow: quoting a term hashes it, recursively.
    pair = TupleVal((Atom("red"), Multiset((Natural(2), Atom("red")))))
    n = Node("q", (), DroppedTerm(BackgroundOp("tuple", (Literal(pair), Var("y")))))
    for i in range(depth):
        n = Node("a", (n, Node("b", (), Atom("red")))) if i % 2 else Node("c", (n,))
    quoted = "q=⟨⟦(('red, {| 2, 'red |}), ?y)⟧⟩"
    text = "".join("a⟨" if i % 2 else "c⟨" for i in reversed(range(depth))) + quoted
    text += "".join(" b=⟨red⟩⟩" if i % 2 else "⟩" for i in range(depth))
    assert print_tree(n) == text
    assert print_value(TreeVal(n)) == "#" + text
    assert print_term(Literal(TreeVal(n))) == "#" + text


def test_let_over_a_deep_comprehension_chain_reads_without_capture():
    """`b` is free in the rule, so the update's read term binds it under a
    fresh name, which the `b` the chain binds far down cannot capture."""
    t = _comprehension_chain(3000, clash_at=5)
    assert free_vars(t) == {"y"}
    binding, update = encoding.beta_rule(Let("y", Var("b"), Assign("f", (), t)))
    assert (binding.head, binding.binders) == (Var("b_1"), ("b_1",))
    assert update.binders == ("b_1",) and free_vars(update) == frozenset()
    binders = [x.binders for x, _ in subterms(update.head) if type(x) is Comprehension]
    assert binders == [x.binders for x, _ in subterms(t) if type(x) is Comprehension]
    assert binders[-6] == ("b",)  # preorder: the sixth from the bottom, not renamed
    under = [(x.name, bound) for x, bound in subterms(update.head) if type(x) is Var]
    assert all(name in bound for name, bound in under if name != "b_1")
    assert all("b_1" not in bound for name, bound in under if name == "b_1")
    assert sum(name == "b_1" for name, _ in under) == sum(type(x) is Var and x.name == "y" for x, _ in subterms(t))
    assert _forms(update.head) == _forms(t)
    renamed = map_term(t, iter([rename_value(v, {"a": "b"}) for v in _literals(t)]), _next_literal)
    assert len(_literals(renamed)) == 3000


# ---------------------------------------------- the recursive originals


def ref_free_vars(t):
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Literal):
        return frozenset()
    if isinstance(t, (Apply, BackgroundOp)):
        out = frozenset()
        for a in t.args:
            out |= ref_free_vars(a)
        return out
    if isinstance(t, Comprehension):
        return (ref_free_vars(t.head) | ref_free_vars(t.guard)) - frozenset(t.binders)
    raise TypeError(f"not a term: {t!r}")


def _ref_fresh(base, avoid):
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def ref_rename_binders(c, avoid):
    clash = [b for b in dict.fromkeys(c.binders) if b in avoid]
    if not clash:
        return c
    taken = avoid | frozenset(c.binders) | ref_free_vars(c.head) | ref_free_vars(c.guard)
    names = {}
    for b in clash:
        names[b] = _ref_fresh(b, taken)
        taken |= {names[b]}
    renamed = {b: Var(n) for b, n in names.items()}
    binders = tuple(names.get(b, b) for b in c.binders)
    return Comprehension(ref_subst_term(c.head, renamed), binders, ref_subst_term(c.guard, renamed))


def ref_subst_term(t, mapping):
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Literal):
        return t
    if isinstance(t, Apply):
        return Apply(t.func, tuple(ref_subst_term(a, mapping) for a in t.args))
    if isinstance(t, BackgroundOp):
        return BackgroundOp(t.op, tuple(ref_subst_term(a, mapping) for a in t.args))
    if isinstance(t, Comprehension):
        inner = {k: v for k, v in mapping.items() if k not in t.binders}
        t = ref_rename_binders(t, frozenset(inner).union(*map(ref_free_vars, inner.values())))
        return Comprehension(ref_subst_term(t.head, inner), t.binders, ref_subst_term(t.guard, inner))
    raise TypeError(f"not a term: {t!r}")


_TRUE = Literal(TRUE)


def _ref_and(a, b):
    if a == _TRUE:
        return b
    if b == _TRUE:
        return a
    return BackgroundOp("and", (a, b))


def _ref_comp(head):
    return Comprehension(head, (), _TRUE)


def ref_conjoin(entries, extra):
    avoid = ref_free_vars(extra)
    out = []
    for e in entries:
        e = ref_rename_binders(e, avoid)
        out.append(Comprehension(e.head, e.binders, _ref_and(e.guard, extra)))
    return tuple(out)


def ref_beta(r):
    if isinstance(r, Assign):
        return (_ref_comp(BackgroundOp("tuple", (r.rhs,) + r.args) if r.args else r.rhs),)
    if isinstance(r, PartialAssign):
        folded = BackgroundOp(r.op, (Apply(r.func, r.args),) + r.operands)
        return (_ref_comp(BackgroundOp("tuple", r.args + (folded,)) if r.args else folded),)
    if isinstance(r, If):
        return (
            (_ref_comp(r.cond),)
            + ref_conjoin(ref_beta(r.then_branch), r.cond)
            + ref_conjoin(ref_beta(r.else_branch), BackgroundOp("not", (r.cond,)))
        )
    if isinstance(r, Par):
        return tuple(e for x in r.rules for e in ref_beta(x))
    if isinstance(r, Forall):
        avoid = ref_free_vars(r.guard) | {r.var}
        out = ()
        for e in ref_beta(r.body):
            e = ref_rename_binders(e, avoid)
            for g in (r.guard, BackgroundOp("not", (r.guard,))):
                out = out + (Comprehension(e.head, (r.var,) + e.binders, _ref_and(e.guard, g)),)
        return out
    if isinstance(r, Let):
        bound = {r.var: r.binding}
        return (_ref_comp(r.binding),) + tuple(ref_subst_term(e, bound) for e in ref_beta(r.body))
    if isinstance(r, Import):
        return tuple(
            Comprehension(e.head, (r.var,) + e.binders, e.guard) if r.var in ref_free_vars(e) else e
            for e in ref_beta(r.body)
        )
    raise TypeError(f"not a rule: {r!r}")


def ref_beta_rule(r):
    out = []
    for e in ref_beta(r):
        residual = tuple(sorted(ref_free_vars(e)))
        out.append(Comprehension(e.head, residual + e.binders, e.guard) if residual else e)
    return tuple(out)


def ref_rebind(t, binders):
    if isinstance(t, Apply):
        if not t.args and t.func in binders:
            return Var(t.func)
        return Apply(t.func, tuple(ref_rebind(a, binders) for a in t.args))
    if isinstance(t, BackgroundOp):
        return BackgroundOp(t.op, tuple(ref_rebind(a, binders) for a in t.args))
    if isinstance(t, Comprehension):
        inner = binders - frozenset(t.binders)
        return Comprehension(ref_rebind(t.head, inner), t.binders, ref_rebind(t.guard, inner))
    return t


def ref_rename_value(v, pi):
    if isinstance(v, Atom):
        return Atom(pi.get(v.name, v.name))
    if isinstance(v, TupleVal):
        return TupleVal(tuple(ref_rename_value(x, pi) for x in v.items))
    if isinstance(v, Multiset):
        return Multiset(ref_rename_value(x, pi) for x in v.items)
    if isinstance(v, TreeVal):
        return TreeVal(_ref_rename_node(v.root_node, pi))
    if isinstance(v, DroppedTerm):
        return DroppedTerm(ref_rename_term(v.term, pi))
    return v


def _ref_rename_node(n, pi):
    value = None if n.value is None else ref_rename_value(n.value, pi)
    return Node(n.label, tuple(_ref_rename_node(c, pi) for c in n.children), value)


def ref_rename_term(t, pi):
    if isinstance(t, Literal):
        return Literal(ref_rename_value(t.value, pi))
    if isinstance(t, Apply):
        return Apply(t.func, tuple(ref_rename_term(a, pi) for a in t.args))
    if isinstance(t, BackgroundOp):
        return BackgroundOp(t.op, tuple(ref_rename_term(a, pi) for a in t.args))
    if isinstance(t, Comprehension):
        return Comprehension(ref_rename_term(t.head, pi), t.binders, ref_rename_term(t.guard, pi))
    return t


def ref_collect_values(v, out):
    out.add(v)
    if isinstance(v, (TupleVal, Multiset)):
        for x in v.items:
            ref_collect_values(x, out)
    elif isinstance(v, TreeVal):
        for _path, n in iter_nodes(v.root_node):
            if n.value is not None:
                ref_collect_values(n.value, out)
    elif isinstance(v, DroppedTerm):
        for lit in _ref_term_literals(v.term):
            ref_collect_values(lit, out)


def _ref_term_literals(t):
    if isinstance(t, Literal):
        yield t.value
    elif isinstance(t, (Apply, BackgroundOp)):
        for a in t.args:
            yield from _ref_term_literals(a)
    elif isinstance(t, Comprehension):
        yield from _ref_term_literals(t.head)
        yield from _ref_term_literals(t.guard)


def ref_rule_has_partial_assign(r):
    if isinstance(r, PartialAssign):
        return True
    if isinstance(r, If):
        return ref_rule_has_partial_assign(r.then_branch) or ref_rule_has_partial_assign(r.else_branch)
    if isinstance(r, Par):
        return any(ref_rule_has_partial_assign(c) for c in r.rules)
    if isinstance(r, (Forall, Let, Import)):
        return ref_rule_has_partial_assign(r.body)
    return False


def ref_value_text(v, quote):
    if v == UNDEF:
        return "undef"
    if isinstance(v, Boolean):
        return "true" if v.flag else "false"
    if isinstance(v, Natural):
        return str(v.n)
    if isinstance(v, Atom):
        return ("'" + v.name) if quote else v.name
    if isinstance(v, TupleVal):
        if not v.items:
            return "()"
        if len(v.items) == 1:
            return "(" + ref_value_text(v.items[0], quote) + ",)"
        return "(" + ", ".join(ref_value_text(x, quote) for x in v.items) + ")"
    if isinstance(v, Multiset):
        if not len(v):
            return "{||}"
        return "{| " + ", ".join(ref_value_text(x, quote) for x in v) + " |}"
    if isinstance(v, TreeVal):
        return "#" + ref_node_text(v.root_node)
    if isinstance(v, DroppedTerm):
        return "⟦" + ref_term_text(v.term, frozenset(), P_OR) + "⟧"
    raise TypeError(f"not a value: {v!r}")


def ref_node_text(n):
    if n.label == XI:
        return "^"
    if n.value is not None:
        return n.label + "=⟨" + ref_value_text(n.value, False) + "⟩"
    if not n.children:
        return n.label
    return n.label + "⟨" + " ".join(ref_node_text(c) for c in n.children) + "⟩"


def _ref_args_text(args, bound):
    return ", ".join(ref_term_text(a, bound, P_OR) for a in args)


def ref_term_text(t, bound, need):
    if isinstance(t, Literal):
        return ref_value_text(t.value, True)
    if isinstance(t, Var):
        return t.name if t.name in bound else "?" + t.name
    if isinstance(t, Apply):
        return t.func + "(" + _ref_args_text(t.args, bound) + ")" if t.args else t.func
    if isinstance(t, Comprehension):
        inner = bound | set(t.binders)
        binders = ", ".join(t.binders) + " " if t.binders else ""
        head, guard = ref_term_text(t.head, inner, P_OR), ref_term_text(t.guard, inner, P_OR)
        return "{| " + head + " | " + binders + ": " + guard + " |}"
    if not isinstance(t, BackgroundOp):
        raise TypeError(f"not a term: {t!r}")
    if t.op == "tuple":
        if len(t.args) == 1:
            return "(" + ref_term_text(t.args[0], bound, P_OR) + ",)"
        return "(" + _ref_args_text(t.args, bound) + ")"
    if t.op == "mset":
        return "{| " + _ref_args_text(t.args, bound) + " |}" if t.args else "{||}"
    if t.op == "not" and len(t.args) == 1:
        text = "not " + ref_term_text(t.args[0], bound, P_CMP)
        return "(" + text + ")" if need > P_NOT else text
    fix = INFIX.get(t.op)
    if fix is not None and len(t.args) >= 2:
        prec, sym = fix
        if prec == P_CMP and len(t.args) == 2:
            a, b = (ref_term_text(x, bound, P_CMP + 1) for x in t.args)
            text = f"{a} {sym} {b}"
        else:
            parts = [ref_term_text(t.args[0], bound, prec)]
            parts += [ref_term_text(a, bound, prec + 1) for a in t.args[1:]]
            text = (" " + sym + " ").join(parts)
        return "(" + text + ")" if need > prec else text
    return t.op + "(" + _ref_args_text(t.args, bound) + ")"


def ref_print_rule(r, bound):
    if isinstance(r, Assign):
        return ref_term_text(Apply(r.func, r.args), bound, P_OR) + " := " + ref_term_text(r.rhs, bound, P_OR)
    if isinstance(r, PartialAssign):
        head = ref_term_text(Apply(r.func, r.args), bound, P_OR)
        return head + " <<= " + r.op + "(" + _ref_args_text(r.operands, bound) + ")"
    if isinstance(r, If):
        text = "IF " + ref_term_text(r.cond, bound, P_OR) + " THEN " + ref_print_rule(r.then_branch, bound)
        if r.else_branch != Par(()):
            text += " ELSE " + ref_print_rule(r.else_branch, bound)
        return text + " ENDIF"
    if isinstance(r, Par):
        return "PAR " + " ".join(ref_print_rule(x, bound) for x in r.rules) + " ENDPAR" if r.rules else "PAR ENDPAR"
    if isinstance(r, Forall):
        inner = bound | {r.var}
        guard = ref_term_text(r.guard, inner, P_OR)
        return "FORALL " + r.var + " WITH " + guard + " DO " + ref_print_rule(r.body, inner) + " ENDDO"
    if isinstance(r, Let):
        binding = ref_term_text(r.binding, bound, P_OR)
        return "LET " + r.var + " = " + binding + " IN " + ref_print_rule(r.body, bound | {r.var})
    if isinstance(r, Import):
        return "IMPORT " + r.var + " DO " + ref_print_rule(r.body, bound | {r.var})
    raise TypeError(f"not a rule: {r!r}")


# ------------------------------------------------------------- agreement

NAMES = ("x", "y", "f", "g", "q0", "q1", "x_1", "y_1", "q0_1")


def _nodes(x):
    """Every term node and value inside `x`, in preorder."""
    out, todo = [], [x]
    while todo:
        x = todo.pop()
        out.append(x)
        if isinstance(x, (Apply, BackgroundOp)):
            todo += reversed(x.args)
        elif isinstance(x, Comprehension):
            todo += (x.guard, x.head)
        elif isinstance(x, Literal):
            todo.append(x.value)
        elif isinstance(x, (TupleVal, Multiset)):
            todo += reversed(x.items)
        elif isinstance(x, TreeVal):
            todo += reversed([n.value for _p, n in iter_nodes(x.root_node) if n.value is not None])
        elif isinstance(x, DroppedTerm):
            todo.append(x.term)
    return out


def _agree(ref, new, *inputs):
    """Equal results, and the very object wherever the reference returned a
    node of its input."""
    assert new == ref
    given = {id(x) for i in inputs for x in _nodes(i)}
    for a, b in zip(_nodes(ref), _nodes(new), strict=True):
        assert b is a or id(a) not in given


def _term(rng):
    if rng.random() < 0.5:
        return random_term(rng, NAMES[:4], rng.randrange(4))
    return _pool_term(rng, NAMES[:4], rng.randrange(5))


def _as_applications(t):
    """`t` with every variable spelt as a nullary application, as the parser
    sees a comprehension head."""
    return map_term(t, (), lambda x, s: (Apply(x.name), None) if type(x) is Var else (x, s))


def _rename(rng):
    pi = {a: rng.choice(ATOMS) for a in rng.sample(ATOMS, rng.randrange(len(ATOMS) + 1))}
    return pi if rng.random() < 0.8 else {a: a for a in ATOMS}


@pytest.mark.parametrize("seed", range(4))
def test_term_walks_agree_with_the_recursive_originals(seed):
    rng = random.Random(seed)
    for _ in range(500):
        t = _term(rng)
        assert free_vars(t) == ref_free_vars(t)
        names = frozenset(rng.sample(NAMES, rng.randrange(5)))
        spelt = _as_applications(t)
        _agree(ref_rebind(spelt, names), map_term(spelt, names, _promote), spelt)
        pi = _rename(rng)
        _agree(ref_rename_term(t, pi), rename_value(DroppedTerm(t), pi).term, t)


@pytest.mark.parametrize("seed", range(4))
def test_value_walks_agree_with_the_recursive_originals(seed):
    rng = random.Random(seed)
    for _ in range(500):
        v = random_value(rng, rng.randrange(4))
        pi = _rename(rng)
        _agree(ref_rename_value(v, pi), rename_value(v, pi), v)
        found = set()
        ref_collect_values(v, found)
        assert atoms_of_value(v) == frozenset(x.name for x in found if isinstance(x, Atom))


@pytest.mark.parametrize("seed", range(4))
def test_state_and_rule_walks_agree_with_the_recursive_originals(seed):
    rng = random.Random(seed)
    for _ in range(120):
        base, rule = random_machine(rng)
        extra = {Location("g", (random_value(rng, 2),)): random_value(rng, 3) for _ in range(rng.randrange(3))}
        s = State(base.signature, {**base.interp, **extra}, [random_value(rng, 2) for _ in range(rng.randrange(3))])
        seen, every = set(s.universe), set()
        for loc, val in s.interp.items():
            for a in (*loc.args, val):
                ref_collect_values(a, seen)
                ref_collect_values(a, every)
        for v in s.universe:
            ref_collect_values(v, every)
        assert s.active_domain() == tuple(sorted(seen, key=value_key))
        assert atoms_of_state(s) == frozenset(x.name for x in every if isinstance(x, Atom))
        atoms = sorted(atoms_of_state(s))
        pi = dict(zip(atoms, rng.sample(atoms, len(atoms))))
        renamed = rename_state(s, pi)
        assert renamed.interp == {
            Location(loc.symbol, tuple(ref_rename_value(a, pi) for a in loc.args)): ref_rename_value(val, pi)
            for loc, val in s.interp.items()
        }
        assert rule_has_partial_assign(rule) == ref_rule_has_partial_assign(rule)
    for _ in range(100):
        r = random_rule_reusing_names(rng) if rng.random() < 0.5 else random_rule(rng, allow_partial=True)
        ref, got = ref_beta_rule(r), encoding.beta_rule(r)
        assert len(got) == len(ref)
        assert all(free_vars(e) == frozenset() for e in got)
        # `random_machine`'s pgm tree puts some 30 values in the active
        # domain, too many for entries with four binders to enumerate.
        s = random_state(rng)
        loc = rng.choice([*s.interp, Location("f")])
        changed = State(s.signature, {**s.interp, loc: rng.choice(s.active_domain())}, s.universe)
        for state in (s, changed):
            assert Counter(_outcomes(state, got)) == Counter(_outcomes(state, ref))
        # the bounded-exploration precondition: every entry agrees
        assert (_outcomes(s, got) == _outcomes(changed, got)) == (_outcomes(s, ref) == _outcomes(changed, ref))


def _outcomes(s, entries):
    return [_outcome(eval_term, s, {}, e) for e in entries]


OPS = sorted(BACKGROUND_OPS)
BOUND = NAMES + ("x0", "x1", "y0", "y1", "z0", "z1", "q0", "q1", "q2")


@pytest.mark.parametrize("seed", range(4))
def test_printer_agrees_with_the_recursive_originals(seed):
    rng = random.Random(seed)
    for _ in range(300):
        v = random_value(rng, rng.randrange(5))
        assert print_value(v) == ref_value_text(v, False)
        tree = rng.choice((random_tree, random_context))(rng, depth=rng.randrange(5))
        assert print_tree(tree) == ref_node_text(tree)
        bound = frozenset(rng.sample(BOUND, rng.randrange(7)))
        # any background operation at any arity, none included: `add()`
        # parses as one and must print back with its parentheses
        op = BackgroundOp(rng.choice(OPS), tuple(_term(rng) for _ in range(rng.randrange(4))))
        for t in (_term(rng), Literal(v), Literal(DroppedTerm(_term(rng))), BackgroundOp("not", (_term(rng),)), op):
            assert print_term(t, bound) == ref_term_text(t, bound, P_OR)
        r = random_rule(rng, rng.randrange(5), allow_partial=True) if rng.random() < 0.6 else random_relational_rule(rng)
        assert print_rule(r, bound) == ref_print_rule(r, bound)
