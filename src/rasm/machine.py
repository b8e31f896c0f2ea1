"""The reflective step: raise the stored program, run it, apply, repeat.

Every step re-reads pgm, so a program that rewrites its own tree behaves
differently on the very next step.  Tree nodes are interned and each keeps
what it raised to, so an unchanged pgm is not raised again and a rewritten
one raises only the spine the rewrite rebuilt.  Phase order is strict:
raise, evaluate against the pre-state, collapse against pre-state values,
apply.  The signature used for
evaluation is raised from pgm and may only grow along a run; shrinking it
is an error, not a stutter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import Program, as_program
from .errors import EncodingError, MachineError
from .evaluator import eval_rule_with_cursor
from .state import PGM_LOCATION, Signature, State
from .terms import Rule
from .updates import UpdateSet, apply_update_set, collapse
from .values import UNDEF, TreeVal, Value

DEFAULT_MAX_STEPS = 1000


@dataclass(frozen=True, slots=True)
class StepReport:
    state: State
    next: State
    raised_rule: Rule
    update_set: UpdateSet

    @property
    def fixpoint(self) -> bool:
        """`next == state`, told from the step: the signature kept, and the
        set inconsistent (a stutter) or writing only values already held."""
        us, value_of = self.update_set, self.state.value_of
        return self.next.signature == self.state.signature and (
            not us.consistent or all(value_of(u.location) == u.value for u in us.updates))


def _stored_program(s: State) -> Program:
    v = s.value_of(PGM_LOCATION)
    if type(v) is not TreeVal or v.root_node.holes:
        raise EncodingError("malformed-program-tree", f"pgm holds {v!r}, not a tree value")
    return as_program(v)


def _check_kept(current: Signature, encoded: Signature, what: str) -> None:
    if not encoded.contains_all(current):
        missing = sorted(current.pairs() - encoded.pairs())
        raise MachineError("signature-shrunk", f"{what} dropped {missing}")


def step(s: State) -> StepReport:
    prog = _stored_program(s)
    _check_kept(s.signature, prog.signature, "encoded signature")
    pre = s.with_signature(s.signature.extended(prog.signature))

    um, cursor = eval_rule_with_cursor(pre, {}, prog.rule)
    us = collapse(pre, um)
    interp = apply_update_set(pre, us)
    sig = _grown_signature(pre.signature, interp.get(PGM_LOCATION, UNDEF))
    nxt = State(sig, interp, pre.universe, cursor, pre.reserve_seed)
    # The successor sorts only the values that changed (`State.active_domain`).
    object.__setattr__(nxt, "_prior", pre._domain)
    return StepReport(s, nxt, prog.rule, us)


def _grown_signature(current: Signature, pgm: Value) -> Signature:
    """Symbols the step introduced into pgm's signature subtree, folded in.

    A malformed rewritten pgm is not this step's error: the signature stays
    put and the next step's raise reports it.  A well-formed rewrite that
    dropped symbols is an error now.
    """
    if type(pgm) is not TreeVal or pgm.root_node.holes:
        return current
    try:
        prog = as_program(pgm)
    except EncodingError:
        return current
    _check_kept(current, prog.signature, "rewritten pgm")
    return current.extended(prog.signature)


def validate_initial(s: State) -> None:
    """An initial state's declared signature must be the one its pgm encodes."""
    prog = _stored_program(s)
    if prog.signature != s.signature:
        raise EncodingError(
            "initial-signature-mismatch",
            f"declared signature {sorted(s.signature.pairs())} vs encoded {sorted(prog.signature.pairs())}",
        )


def run(
    s: State, steps: int | None = None, max_steps: int = DEFAULT_MAX_STEPS, strict: bool = False
) -> list[StepReport]:
    """Iterate `step`.  `steps=None` runs to a fixpoint (`StepReport.fixpoint`:
    no state comparison), guarded by `max_steps`; a step count runs exactly
    that many steps.  `strict` stops after the first inconsistent step."""
    reports: list[StepReport] = []
    for _ in range(max_steps if steps is None else steps):
        rep = step(s)
        reports.append(rep)
        if (strict and not rep.update_set.consistent) or (steps is None and rep.fixpoint):
            break
        s = rep.next
    return reports
