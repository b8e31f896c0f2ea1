"""Source hygiene: every name a module imports is used in that module,
every name a module defines is read somewhere, no module has a `global`
statement, every tree operation and term walk is imported by another
module of the package, every layer the benchmark's tracer wraps still
exists, every Python file parses under the oldest supported grammar, the
parser, the printer and the evaluator agree on every background
operation, every value, term, rule and tree form has a way through the
printer, every other immutable form is interned and compares by identity,
the scalar values, locations and update entries hash and compare through
their builtins' C slots, and evaluating an entry runs no Python frame of
`updates.py` or `state.py`.

Each `src/rasm/*.py` except the package `__init__` (which the `global`
scan includes) is parsed with `ast`; a name bound by an import counts as
used when it is loaded anywhere in the module, annotations included
(string annotations are parsed too).
"""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from rasm.evaluator import BACKGROUND_OPS, eval_rule
from rasm.parser import KEYWORDS, parse_rule, parse_term
from rasm.printer import print_term
from rasm.state import FunctionSymbol, Location, Signature, State
from rasm import printer, state, terms, updates, values
from rasm.terms import (
    CHILDREN,
    INFIX,
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
    Rule,
    Term,
    Var,
)
from rasm.trees import XI, Node
from rasm.updates import SharedUpdate, Update, UpdateMultiset, apply_update_set, collapse
from rasm.values import TRUE, Atom, Boolean, DroppedTerm, Multiset, Natural, TreeVal, TupleVal, Undef, Value

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rasm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, mapped to the import's line."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                out[a.asname or a.name.split(".")[0]] = n.lineno
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            for a in n.names:
                out[a.asname or a.name] = n.lineno
    return out


def _annotations(tree: ast.AST):
    for n in ast.walk(tree):
        if isinstance(n, ast.arg) and n.annotation is not None:
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns is not None:
            yield n.returns
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def _loaded(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):  # a forward reference
                used |= _loaded(ast.parse(n.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _loaded(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _defined(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names, dunders aside,
    mapped to their line."""
    out = {}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[n.name] = n.lineno
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            for t in targets:
                for name in ast.walk(t):
                    if isinstance(name, ast.Name):
                        out[name.id] = n.lineno
    return {k: v for k, v in out.items() if not (k.startswith("__") and k.endswith("__"))}


def test_every_defined_name_is_read():
    """A name is read when its own module loads it, when a module in `src/`
    or `tests/` imports it by name from its module, or when any of them
    reads an attribute of that name."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    imported_from: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module:
                module = n.module.split(".")[-1]
                imported_from |= {(module, a.name) for a in n.names}
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attributes.add(n.attr)
    unread = []
    for path in MODULES:
        loaded = _loaded(trees[path])
        for name, line in _defined(trees[path]).items():
            if name not in loaded and (path.stem, name) not in imported_from and name not in attributes:
                unread.append(f"{path.stem}.{name} (line {line})")
    assert not unread, f"names defined but never read: {', '.join(sorted(unread))}"


def test_no_module_rebinds_a_global():
    """No function rebinds a module-level name: a memo lives in a slot of
    the object it is kept for, so it goes when that object goes."""
    found = [f"{path.name}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, ast.Global)]
    assert not found, f"global statements at {', '.join(found)}"


def test_every_tree_operation_is_imported_by_another_module():
    """Stricter than the test above, which counts tests as readers: every
    public function of `trees.py` is imported by another module of the
    package, so that a rule reaches it, and none lives only for tests.  The
    term walks of `terms.py` are held to the same bar."""
    for module in ("trees", "terms"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        public = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
        imported = set()
        for path in MODULES:
            if path.stem != module:
                for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(n, ast.ImportFrom) and n.module == module:
                        imported |= {a.name for a in n.names}
        assert not public - imported, f"{module}.py functions no other module imports: {sorted(public - imported)}"


def test_every_bench_layer_has_a_site():
    """`bench/tracing.py` reports a layer whose wrapped names are all gone as
    missing instead of failing; a refactor that drops one fails here."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def resolves(module, attr):
        try:
            owner, name = tracing._resolve(module, attr)
        except (ImportError, AttributeError):
            return False
        return hasattr(owner, name)

    missing = [layer for layer, sites in tracing.LAYERS.items() if not any(resolves(*site) for site in sites)]
    assert not missing, f"bench/tracing.py layers with no resolvable site: {missing}"


F, G, H = Apply("f"), Apply("g"), Apply("h")


def _applied(op, args):
    """`op` over as many of `args` as its arity takes (all when variadic).
    Nullary applications as arguments keep tuple/mset from folding to values."""
    arity = BACKGROUND_OPS[op].arity
    return BackgroundOp(op, args if arity is None else args[:arity])


def test_every_infix_spelling_names_a_background_op():
    assert set(INFIX) <= set(BACKGROUND_OPS)


@pytest.mark.parametrize("op", sorted(BACKGROUND_OPS))
def test_every_background_op_parses_back_from_its_printed_text(op):
    flat = _applied(op, (F, G))
    assert parse_term(print_term(flat)) == flat
    if op not in KEYWORDS:  # and/or/not have keyword syntax only
        functional = op + "(" + ", ".join(print_term(a) for a in flat.args) + ")"
        assert parse_term(functional) == flat
    for inner in BACKGROUND_OPS:  # nesting checks the two precedence tables agree
        for args in ((_applied(inner, (F, G)), H), (F, _applied(inner, (G, H)))):
            t = _applied(op, args)
            assert parse_term(print_term(t)) == t, print_term(t)


# Functions and methods that call themselves by name, nested ones included:
# each recurses once per level of its input, so a deep enough input
# exhausts the stack (ROADMAP item 4).  A new recursive walk goes here on
# purpose, or is written with a loop instead.  Compiled closures still
# recurse one frame per nesting level when they run, which this name scan
# cannot see; test_deeply_nested_rule_runs_and_prints (900 IFs) guards that.
RECURSIVE_WALKS = {
    "evaluator._compile_rule",
    "evaluator._compile_term",
    "naive.naive_eval_term",
    "naive.naive_eval_term.enumerate_binders",
    "naive._collect_updates",
    "parser._Parser._climb",
    "parser._Parser.value",
    "parser._Parser.rule",
}


def test_every_python_file_parses_as_python_3_10():
    """`pyproject.toml` allows Python 3.10, so no source, test or benchmark
    file may use syntax that came later (the grammar check that `ast` can
    do under a newer interpreter)."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _recursive_functions(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions in `tree` that call themselves: a
    function by its bare name, a method through `self` or `cls`."""
    out = set()

    def visit(n: ast.AST, qual: list[str], in_class: bool) -> None:
        for child in ast.iter_child_nodes(n):
            if isinstance(child, ast.ClassDef):
                visit(child, qual + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for c in ast.walk(child):
                    f = c.func if isinstance(c, ast.Call) else None
                    if (not in_class and isinstance(f, ast.Name) and f.id == name) or (
                        in_class and isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                    ):
                        out.add(".".join(qual + [name]))
                        break
                visit(child, qual + [name], False)
            else:
                visit(child, qual, in_class)

    visit(tree, [module], False)
    return out


def test_recursive_walks_are_listed():
    found = set()
    for path in MODULES:
        found |= _recursive_functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found - RECURSIVE_WALKS == set(), "new recursive functions: add them to RECURSIVE_WALKS on purpose"
    assert RECURSIVE_WALKS - found == set(), "no longer recursive: take them out of RECURSIVE_WALKS"


def test_every_term_form_has_a_row_in_the_walks_table():
    """`terms.subterms` and `terms.map_term` read a node's children off
    `CHILDREN` and do not enter a class without a row, so a new term form
    without one would be passed over by every walk."""
    forms = {c for c in vars(terms).values() if isinstance(c, type) and issubclass(c, Term) and c is not Term}
    assert forms == set(CHILDREN)


def test_every_form_has_a_way_through_the_printer():
    """`printer._text` prints the `INLINE` forms itself and looks every
    other one up in `PIECES`; a value, term, rule or tree form in neither
    would stop the one walk."""
    forms = {Node} | {
        c
        for module, bases in ((values, (Value,)), (terms, (Term, Rule)))
        for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, bases) and c not in bases
    }
    assert forms <= set(printer.PIECES) | set(printer.INLINE)
    assert set(printer.PIECES) & set(printer.INLINE) == set()


def _interned_forms():
    """One form of each interned class, built twice from equal parts."""
    x, one = Apply("x"), Natural(1)
    return [
        lambda: Node("n", (Node("m", (), one),)),
        lambda: TupleVal((one, TupleVal((Atom("a"),)))),
        lambda: Multiset((TupleVal(()), one, one)),
        lambda: TreeVal(Node("n")),
        lambda: TreeVal(Node("n", (Node(XI),))),
        lambda: DroppedTerm(BackgroundOp("add", (x, Literal(one)))),
        lambda: Var("v"),
        lambda: Apply("f", (x,)),
        lambda: BackgroundOp("tuple"),
        lambda: Comprehension(Var("v"), ("v",), Literal(TRUE)),
        lambda: Literal(TupleVal((one,))),
        lambda: Assign("f", (), x),
        lambda: PartialAssign("f", (), "munion", (x,)),
        lambda: If(x, SKIP, Par((Assign("f", (), x),))),
        lambda: Par(),
        lambda: Forall("v", Literal(TRUE), SKIP),
        lambda: Let("v", x, SKIP),
        lambda: Import("v", SKIP),
    ]


def test_every_immutable_form_is_interned():
    """Nodes, composite values (tree values among them), terms and rules go
    through the one intern table: two constructions of an equal form give
    one object, and `==` and `hash` are `object`'s, so neither walks a
    form, however deep."""
    forms = [(build(), build()) for build in _interned_forms()]
    for a, b in forms:
        assert a is b, a
        assert type(a).__eq__ is object.__eq__ and type(a).__hash__ is object.__hash__, type(a)
    classes = {type(a) for a, _b in forms}
    assert classes == {Node, TupleVal, Multiset, TreeVal, DroppedTerm} | set(CHILDREN) | {
        c for c in vars(terms).values() if isinstance(c, type) and issubclass(c, Rule) and c is not Rule}
    # A scalar field is keyed with its class: `1 == True` in Python does not merge them.
    assert Literal(1) is not Literal(True) and Var("v") is not Var(Atom("v"))


def test_scalars_and_locations_hash_and_compare_in_c():
    """A `@dataclass` or a Python-level `__eq__`/`__hash__` on these classes
    would put a Python frame back into every read, collapse and apply."""
    assert Natural.__hash__ is int.__hash__ and Natural.__eq__ is int.__eq__
    assert Atom.__hash__ is str.__hash__ and Atom.__eq__ is str.__eq__
    for pair in (Location, Update, SharedUpdate):
        assert pair.__hash__ is tuple.__hash__ and pair.__eq__ is tuple.__eq__
    for singleton in (Boolean, Undef):
        assert singleton.__eq__ is object.__eq__ and singleton.__hash__ is object.__hash__


def test_no_python_frame_in_updates_or_state_per_entry():
    """A FORALL over 200 bindings yields 600 entries, ordinary and shared:
    no Python-level function of `updates.py` or `state.py` runs once per
    binding while they are evaluated, nor while the ordinary ones are
    collapsed and applied.  A dataclass `__init__`, a named tuple's
    `__new__` or a `Location.__new__` would run 200 times."""
    n = 200
    sig = Signature(FunctionSymbol(name, arity) for name, arity in (("g", 1), ("h", 2), ("m", 1)))
    s = State(sig, {Location("g", (Natural(i),)): Natural(i) for i in range(n)})
    rule = parse_rule(f"FORALL x WITH lt(x, {n}) DO PAR g(x) := x h(x, x) := x m(x) <<= munion({{| 1 |}}) ENDPAR ENDDO")
    eval_rule(s, {}, rule)  # compile first: compiling runs once per rule, not per entry
    watched = {updates.__name__, state.__name__}
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        # Generated constructors, a dataclass's or a named tuple's, have no file.
        code = frame.f_code
        if event == "call" and (frame.f_globals.get("__name__") in watched or code.co_filename == "<string>"):
            calls[getattr(code, "co_qualname", code.co_name)] += 1  # co_qualname: 3.11 on

    sys.setprofile(profile)
    try:
        um = eval_rule(s, {}, rule)
        ordinary = UpdateMultiset(e for e in um if type(e) is Update)
        apply_update_set(s, collapse(s, ordinary))
    finally:
        sys.setprofile(None)
    assert len(um) == 3 * n and len(ordinary) == 2 * n
    assert calls and max(calls.values()) < n, calls.most_common(3)
