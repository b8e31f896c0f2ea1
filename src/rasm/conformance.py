"""Executable checks of the behavioural postulates on concrete instances.

Each check returns a CheckReport rather than asserting, so the CLI and the
test suite can both consume them.  A failed precondition (states that do
not coincide where the postulate demands it) is a note, never a violation:
the postulates are conditional statements and only their conclusions are
checkable.

The step function and the update-multiset function are injectable so
deliberately broken implementations can prove the checks have teeth.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import machine
from .encoding import as_program, beta_rule, subrules
from .errors import RasmError
from .evaluator import BACKGROUND_OPS, eval_rule, eval_term
from .naive import naive_eval_rule
from .printer import print_rule, print_state
from .state import PGM_LOCATION, Location, State, _values_in, atoms_of_state, atoms_of_value, rename_state
from .terms import PartialAssign, Rule
from .updates import UpdateMultiset, collapse
from .values import Atom, TreeVal, TupleVal, Value, value_key


@dataclass(frozen=True, slots=True)
class Violation:
    description: str
    data: dict  # replay payload: the exact inputs that re-trigger the failure


@dataclass(frozen=True, slots=True)
class CheckReport:
    name: str
    instances: int
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def text(self) -> str:
        lines = [f"check {self.name}", f"instances {self.instances}"]
        for n in self.notes:
            lines.append("note " + n)
        lines.append(f"violations {len(self.violations)}")
        for v in self.violations:
            lines.append("violation " + v.description)
        return "\n".join(lines)


def merge_reports(reports: Sequence[CheckReport]) -> str:
    blocks = [r.text() for r in sorted(reports, key=lambda r: r.name)]
    return "\n\n".join(blocks) + "\n"


def combine_reports(reports: Sequence[CheckReport]) -> CheckReport:
    """Fold same-named reports (one per instance) into a single tally."""
    names = {r.name for r in reports}
    if len(names) != 1:
        raise ValueError(f"cannot combine differently named reports: {sorted(names)}")
    return CheckReport(
        names.pop(),
        sum(r.instances for r in reports),
        tuple(v for r in reports for v in r.violations),
        tuple(n for r in reports for n in r.notes),
    )


def rule_has_partial_assign(r: Rule) -> bool:
    return any(type(x) is PartialAssign for x in subrules(r))


StepFn = Callable[[State], object]  # anything with a .next state
Plain = Callable[[], tuple[State, frozenset[str]]]  # the un-renamed successor and its atoms, made once per check


# ---------------------------------------------------- isomorphism closure

def _movable_atoms(s: State, atoms: frozenset[str]) -> list[str]:
    # Renaming a symbol-name atom would detach the encoded program from the
    # signature, and the reserve namespace is the step function's own.  Atoms
    # spelled into the stored program are syntax rather than data: a machine
    # may raise them into symbol names later (signature growth), and symbols
    # never move.  Bijections act on what remains.
    names = {sym.name for sym in s.signature}
    in_program = atoms_of_value(s.value_of(PGM_LOCATION))
    return sorted(
        a
        for a in atoms
        if a not in names
        and a not in in_program
        and not a.startswith("$")
        and a not in BACKGROUND_OPS
    )


def _extend_identity(pi: dict, atoms: frozenset[str]) -> dict:
    return {a: a for a in atoms} | pi


def _commutes(s: State, atoms: frozenset[str], pi: dict, step_fn: StepFn, plain: Plain) -> tuple[bool, str]:
    try:
        lhs = step_fn(rename_state(s, _extend_identity(pi, atoms), atoms)).next
    except RasmError as e:
        return False, f"step failed on the renamed state: {e}"
    nxt, nxt_atoms = plain()
    rhs = rename_state(nxt, _extend_identity(pi, nxt_atoms), nxt_atoms)
    if lhs == rhs or _equal_up_to_fresh(lhs, rhs, _drawn(s, lhs, rhs)):
        return True, ""
    return False, "step and renaming do not commute"


def _drawn(s: State, *successors: State) -> frozenset[str]:
    """The reserve atoms drawn by a step from `s`: from its cursor on, up to
    the furthest cursor among the successors."""
    end = max(n.reserve_cursor for n in successors)
    return frozenset(s.reserve_atom(k) for k in range(end - s.reserve_cursor))


def _equal_up_to_fresh(a: State, b: State, fresh: frozenset[str]) -> bool:
    """Whether some bijection of the `fresh` atoms, fixing every other atom,
    renames `a` into `b`.

    Locations are matched one to one, those whose arguments hold no fresh
    atom first, each with the equal location of `b`; their values bind
    fresh atoms.  The other locations are matched with `b`'s by
    backtracking.  Atoms seen only inside multisets, trees or dropped terms
    are tried in every arrangement, and each candidate is confirmed by
    renaming `a`, so the answer is exact.
    """
    if not fresh or a.signature != b.signature or len(a.interp) != len(b.interp):
        return False
    sigma = _FreshMap(fresh)
    moved: dict[tuple, list] = {}  # b's locations that hold a fresh atom, by symbol and arity
    for loc, val in b.interp.items():
        if sigma.holds_fresh(loc.args):
            moved.setdefault((loc.symbol, len(loc.args)), []).append((loc, val))

    def candidates(loc: Location) -> list:
        if sigma.holds_fresh(loc.args):
            return moved.get((loc.symbol, len(loc.args)), [])
        return [(loc, b.interp[loc])] if loc in b.interp else []

    entries = sorted(a.interp.items(), key=lambda e: sigma.holds_fresh(e[0].args))
    atoms_a = atoms_of_state(a)
    in_a, in_b = fresh & atoms_a, fresh & atoms_of_state(b)
    for _ in sigma.matchings(entries, candidates):
        rest = sorted(in_a - sigma.map.keys())
        free = sorted(in_b - sigma.image)
        if len(rest) != len(free):
            continue
        for arrangement in itertools.permutations(free):
            full = {**sigma.map, **dict(zip(rest, arrangement))}
            if rename_state(a, _extend_identity(full, atoms_a), atoms_a) == b:
                return True
    return False


class _FreshMap:
    """An injective map of fresh atoms onto fresh atoms, grown by matching
    values and shrunk again by backtracking."""

    def __init__(self, fresh: frozenset[str]):
        self.fresh = fresh
        self.map: dict[str, str] = {}
        self.image: set[str] = set()
        self.trail: list[str] = []  # bound atoms, oldest first

    def holds_fresh(self, values: Iterable[Value]) -> bool:
        return any(type(x) is Atom and x in self.fresh for x in _values_in(values))

    def undo(self, mark: int) -> None:
        """Forget the bindings made since the trail had `mark` entries."""
        while len(self.trail) > mark:
            self.image.discard(self.map.pop(self.trail.pop()))

    def match(self, xs: tuple, ys: tuple) -> bool:
        """Bind fresh atoms so that the map takes `xs` to `ys` (of one length)
        place by place; False on a conflict.  Tuples are matched item by item;
        a multiset, tree or dropped term with a fresh atom is left to the end."""
        todo = list(zip(xs, ys))
        while todo:
            x, y = todo.pop()
            if type(x) is Atom and x in self.fresh:
                if x in self.map:
                    if self.map[x] != y:
                        return False
                elif type(y) is not Atom or y not in self.fresh or y in self.image:
                    return False
                else:
                    self.map[x] = y
                    self.image.add(y)
                    self.trail.append(x)
            elif type(x) is TupleVal:
                if type(y) is not TupleVal or len(x.items) != len(y.items):
                    return False
                todo += zip(x.items, y.items)
            elif x != y and (type(x) is not type(y) or not self.holds_fresh((x,))):
                return False
        return True

    def matchings(self, entries: list, candidates: Callable) -> Iterator[None]:
        """Backtrack over one-to-one assignments of `entries` to entries from
        `candidates(location)` whose arguments and values match; yields
        each time all are assigned, the map holding the bindings they made."""
        used: set = set()
        marks: list[tuple[int, object]] = []  # per assigned entry: trail length before it, its target
        stack = [iter(candidates(entries[0][0]))] if entries else []
        if not entries:
            yield
        while stack:
            if len(marks) == len(stack):  # retract this level's previous choice
                mark, target = marks.pop()
                used.discard(target)
                self.undo(mark)
            loc, val = entries[len(stack) - 1]
            for tloc, tval in stack[-1]:
                mark = len(self.trail)
                if tloc not in used and self.match((*loc.args, val), (*tloc.args, tval)):
                    used.add(tloc)
                    marks.append((mark, tloc))
                    break
                self.undo(mark)
            else:
                stack.pop()
                continue
            if len(stack) == len(entries):
                yield
            else:
                stack.append(iter(candidates(entries[len(stack)][0])))


def check_isomorphism_closure(
    s: State, trials: int, seed: int = 0, step_fn: StepFn | None = None
) -> CheckReport:
    """Random atom bijections must commute with the step function.

    The two successors need only agree up to a bijection of the reserve
    atoms the step drew: a renaming can change the order in which a FORALL
    meets its bindings, and so which binding imports which fresh atom.
    """
    fn = step_fn if step_fn is not None else machine.step

    @functools.cache
    def plain() -> tuple[State, frozenset[str]]:
        nxt = fn(s).next
        return nxt, atoms_of_state(nxt)

    rng = random.Random(seed)
    atoms = atoms_of_state(s)
    taken = atoms | {sym.name for sym in s.signature}
    movable = _movable_atoms(s, atoms)
    violations: list[Violation] = []
    notes: list[str] = []
    if not movable:
        notes.append("no movable atoms; only the identity bijection was tried")
    passed: set[frozenset] = set()  # bijections that commuted, by the atoms they move
    for trial in range(trials):
        if movable and rng.random() < 0.3:
            # Map a slice of the atoms onto fresh spellings.
            sub = [a for a in movable if rng.random() < 0.5] or movable[:1]
            pi = {a: f"iso{trial}_{i}" for i, a in enumerate(sub) if f"iso{trial}_{i}" not in taken}
        else:
            image = movable[:]
            rng.shuffle(image)
            pi = dict(zip(movable, image))
        moved = frozenset((a, b) for a, b in pi.items() if a != b)
        if moved in passed:
            continue
        ok, why = _commutes(s, atoms, pi, fn, plain)
        if ok:
            passed.add(moved)
            continue
        violations.append(_minimize_iso(s, atoms, pi, fn, plain, why))
        break
    return CheckReport("isomorphism-closure", trials, tuple(violations), tuple(notes))


def _minimize_iso(s: State, atoms: frozenset[str], pi: dict, fn: StepFn, plain: Plain, why: str) -> Violation:
    # A single transposition that already breaks commutation is a far more
    # readable witness than a full shuffle.
    moved = sorted(a for a, b in pi.items() if a != b)
    for i, a in enumerate(moved):
        for b in moved[i + 1 :]:
            tau = {a: b, b: a}
            ok, tau_why = _commutes(s, atoms, tau, fn, plain)
            if not ok:
                return Violation(
                    f"{tau_why}; witness swaps {a!r} and {b!r}",
                    {"state": s, "pi": tau},
                )
    rendering = ", ".join(f"{a}->{b}" for a, b in sorted(pi.items()) if a != b)
    return Violation(f"{why}; witness renames {rendering}", {"state": s, "pi": dict(pi)})


# ---------------------------------------------------- bounded exploration

UpdatesFn = Callable[[State, Rule], UpdateMultiset]


def _raised_updates(s: State, r: Rule) -> UpdateMultiset:
    return eval_rule(s, {}, r)


def _outcome(fn: Callable, *args) -> tuple:
    """("ok", result) or ("error", code): an error is an outcome too."""
    try:
        return "ok", fn(*args)
    except RasmError as e:
        return "error", e.code


def check_bounded_exploration(
    s1: State, s2: State, updates_fn: UpdatesFn | None = None
) -> CheckReport:
    """States agreeing on pgm and on every extracted read term must yield
    the same update multiset; an evaluation error counts as its code, on
    either side.  Give the states equal reserve cursors, or fresh-atom
    spellings will differ for reasons the postulate ignores."""
    fn = updates_fn if updates_fn is not None else _raised_updates
    name = "bounded-exploration"
    if s1.signature != s2.signature:
        return CheckReport(name, 1, (), ("signatures differ; coincidence precondition failed",))
    p1 = s1.value_of(PGM_LOCATION)
    p2 = s2.value_of(PGM_LOCATION)
    if p1 != p2:
        return CheckReport(name, 1, (), ("pgm values differ; coincidence precondition failed",))
    if not isinstance(p1, TreeVal):
        return CheckReport(name, 1, (), ("pgm holds no tree; nothing to check",))
    prog = as_program(p1.tree)
    e1 = s1.with_signature(s1.signature.extended(prog.signature))
    e2 = s2.with_signature(s2.signature.extended(prog.signature))
    for b in beta_rule(prog.rule):
        if _outcome(eval_term, e1, {}, b) != _outcome(eval_term, e2, {}, b):
            return CheckReport(name, 1, (), ("read-term values differ; coincidence precondition failed",))
    um1 = _outcome(fn, e1, prog.rule)
    um2 = _outcome(fn, e2, prog.rule)
    if um1 == um2:
        return CheckReport(name, 1)
    v = Violation(
        "states coincide on pgm and all read terms but the update multisets differ",
        {"s1": s1, "s2": s2, "rule": prog.rule},
    )
    return CheckReport(name, 1, (v,))


# ------------------------------------------- runs and initial states

def check_signature_monotonicity(run: Sequence[State]) -> CheckReport:
    violations = []
    for i in range(len(run) - 1):
        if not run[i + 1].signature.contains_all(run[i].signature):
            lost = sorted(run[i].signature.pairs() - run[i + 1].signature.pairs())
            violations.append(
                Violation(f"step {i + 1} dropped symbols {lost}", {"before": run[i], "after": run[i + 1]})
            )
    return CheckReport("signature-monotonicity", max(len(run) - 1, 0), tuple(violations))


def check_initial_agreement(inits: Sequence[State]) -> CheckReport:
    violations = []
    if inits:
        first = inits[0].value_of(PGM_LOCATION)
        for i, s in enumerate(inits[1:], 1):
            if s.value_of(PGM_LOCATION) != first:
                violations.append(
                    Violation(f"initial state {i} disagrees on pgm", {"first": inits[0], "other": s})
                )
    return CheckReport("initial-agreement", len(inits), tuple(violations))


# ---------------------------------------------------- oracle equivalence

def _shown(outcome: tuple) -> tuple:
    """An outcome as a violation spells it, an update set in trace order."""
    if outcome[0] != "ok":
        return outcome
    return "ok", sorted(outcome[1], key=lambda u: (u.location.key(), value_key(u.value)))


def check_naive_equivalence(s: State, r: Rule) -> CheckReport:
    """evalRule+collapse against the naive evaluator on one (state, rule)
    pair; errors count as outcomes and must match too."""
    try:
        us = collapse(s, eval_rule(s, {}, r))
        main = ("ok", frozenset(us.updates), us.consistent)
    except RasmError as e:
        main = ("error", e.code)
    try:
        updates, consistent = naive_eval_rule(s, {}, r)
        ref = ("ok", updates, consistent)
    except RasmError as e:
        ref = ("error", e.code)
    if main == ref:
        return CheckReport("naive-equivalence", 1)
    v = Violation(
        f"evaluators disagree on {print_rule(r)!r}: {_shown(main)} vs {_shown(ref)}",
        {"state": s, "rule": r, "main": main, "naive": ref, "printed_state": print_state(s)},
    )
    return CheckReport("naive-equivalence", 1, (v,))
