"""Source hygiene: every name a module imports is used in that module,
every name a module defines is read somewhere, every layer the benchmark's
tracer wraps still exists, and the parser, the printer and the evaluator
agree on every background operation.

Each `src/rasm/*.py` except the package `__init__` is parsed with `ast`; a
name bound by an import counts as used when it is loaded anywhere in the
module, annotations included (string annotations are parsed too).
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from rasm.evaluator import BACKGROUND_OPS
from rasm.parser import KEYWORDS, parse_term
from rasm.printer import print_term
from rasm.terms import INFIX, Apply, BackgroundOp

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
# exhausts the stack (ROADMAP item 2).  A new recursive walk goes here on
# purpose, or is written with a loop instead.  Compiled closures still
# recurse one frame per nesting level when they run, which this name scan
# cannot see; test_deeply_nested_rule_runs_and_prints (900 IFs) guards that.
RECURSIVE_WALKS = {
    "conformance.rule_has_partial_assign",
    "encoding._beta",
    "evaluator._compile_rule",
    "evaluator._compile_term",
    "naive.naive_eval_term",
    "naive.naive_eval_term.enumerate_binders",
    "naive._collect_updates",
    "parser._Parser._climb",
    "parser._Parser.value",
    "parser._Parser.rule",
    "parser._rebind",
    "printer._value_text",
    "printer._term_text",
    "printer.print_rule",
    "state._collect_values",
    "state._term_literals",
    "state.rename_value",
    "state._rename_node",
    "state.rename_term",
    "terms.free_vars",
    "terms.subst_term",
    "treediff.eval_algebra",
    "treediff.serialize_algebra",
    "treediff.tree_diff_theta.build",
    "treediff.tree_diff_updates.walk",
    "values._tree_key",
    "values.value_key",
}


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
