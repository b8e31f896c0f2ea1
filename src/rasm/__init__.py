"""Reflective parallel abstract state machines.

A machine's program lives in its own state under the nullary symbol `pgm`,
encoded as a tree.  Every step raises that tree back into a rule, evaluates
it against the current state, and applies the collapsed update set; because
`pgm` is an ordinary location, the program can rewrite itself with the same
update machinery, including partial updates built from tree-algebra
operations.  The `conformance` module turns the behavioural postulates such
machines are meant to satisfy into executable checks.
"""

import sys

if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7+ caps int<->str at 4,300 digits
    sys.set_int_max_str_digits(0)  # naturals are unbounded

from .conformance import (
    CheckReport,
    Violation,
    check_bounded_exploration,
    check_initial_agreement,
    check_isomorphism_closure,
    check_naive_equivalence,
    check_signature_monotonicity,
    merge_reports,
)
from .encoding import Program, as_program, beta_rule, drop_program, drop_rule, raise_rule
from .errors import (
    DiffError,
    EncodingError,
    EvalError,
    MachineError,
    ParseError,
    RasmError,
    TreeAlgebraError,
)
from .evaluator import eval_rule, eval_term
from .machine import StepReport, run, step, validate_initial
from .parser import parse_rule, parse_state, parse_term, parse_tree, parse_value
from .printer import (
    format_trace,
    print_rule,
    print_state,
    print_term,
    print_tree,
    print_value,
    rule_hash,
)
from .state import FunctionSymbol, Location, Signature, State, rename_state
from .treediff import tree_diff_rule, tree_diff_updates
from .updates import SharedUpdate, Update, UpdateMultiset, UpdateSet, collapse
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    Boolean,
    Multiset,
    Natural,
    TreeVal,
    TupleVal,
    Undef,
)

__version__ = "0.1.0"
