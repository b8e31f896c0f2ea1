"""Exit codes, golden traces, and the on-disk shapes the driver produces.

Everything here goes through `main(argv)` rather than a subprocess, so the
exit code is the return value and capsys sees stdout/stderr directly.
"""

from pathlib import Path

import pytest

from rasm.cli import ISO_TRIALS, main
from rasm.conformance import CheckReport, Violation
from rasm.parser import parse_rule, parse_state, parse_tree
from rasm.printer import print_rule, print_state, print_tree
from rasm.state import PGM, Location
from rasm.terms import Par
from conftest import nested_if_else

DEMOS = Path(__file__).resolve().parent.parent / "demos"

HALTING = "function f/0\ninit f = 0\nprogram\nIF f = 0 THEN f := 1 ENDIF\n"
CLASHING = "function f/0\nprogram\nPAR f := 1 f := 2 ENDPAR\n"
IMPORTING = "function g/1\nprogram\nIMPORT a DO g(a) := 1\n"

# Two program trees over the same signature, differing only in the rule.
TREE_A = (
    "pgm⟨signature⟨func⟨name=⟨f⟩ arity=⟨0⟩⟩ func⟨name=⟨pgm⟩ arity=⟨0⟩⟩⟩ "
    "rule⟨update⟨func=⟨f⟩ term=⟨()⟩ term=⟨⟦f + 1⟧⟩⟩⟩⟩"
)
TREE_B = (
    "pgm⟨signature⟨func⟨name=⟨f⟩ arity=⟨0⟩⟩ func⟨name=⟨pgm⟩ arity=⟨0⟩⟩⟩ "
    "rule⟨update⟨func=⟨f⟩ term=⟨()⟩ term=⟨⟦7⟧⟩⟩⟩⟩"
)
# Same shape with the f symbol gone: diffing A against it must refuse.
TREE_SHRUNK = (
    "pgm⟨signature⟨func⟨name=⟨pgm⟩ arity=⟨0⟩⟩⟩ "
    "rule⟨update⟨func=⟨pgm⟩ term=⟨()⟩ term=⟨⟦0⟧⟩⟩⟩⟩"
)


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------- run

@pytest.mark.parametrize("name,steps", [
    ("increment", 10),
    ("self_rewrite", 2),
    ("grow_signature", 2),
    ("move_subrule", 2),
])
def test_run_reproduces_golden_trace(tmp_path, name, steps):
    out = tmp_path / "got.trace"
    rc = main(["run", str(DEMOS / f"{name}.rst"), "--steps", str(steps),
               "--trace", str(out)])
    assert rc == 0
    golden = (DEMOS / f"{name}.trace").read_bytes()
    assert out.read_bytes() == golden


def test_run_trace_is_deterministic(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    argv = ["run", str(DEMOS / "increment.rst"), "--steps", "4", "--trace"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_prints_final_state(tmp_path, capsys):
    rc = main(["run", put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text()),
               "--steps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "init f = 3" in out
    assert out.endswith("\n")
    # stdout is exactly the canonical final state, nothing else
    assert out == print_state(parse_state(out))


def test_run_default_runs_to_fixpoint(tmp_path, capsys):
    trace = tmp_path / "halt.trace"
    rc = main(["run", put(tmp_path, "halt.rst", HALTING), "--trace", str(trace)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "init f = 1" in captured.out
    assert "--max-steps guard" not in captured.err
    text = trace.read_text(encoding="utf-8")
    # the fixpoint step itself is recorded: an empty second block
    assert text.count("step ") == 2
    assert text.count("update ") == 1


def test_run_max_steps_guards_fixpoint_mode(tmp_path, capsys):
    trace = tmp_path / "inc.trace"
    rc = main(["run", put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text()),
               "--max-steps", "5", "--trace", str(trace)])
    assert rc == 0
    assert trace.read_text(encoding="utf-8").count("step ") == 5
    err = capsys.readouterr().err
    assert err.count("rasm: no fixpoint within 5 steps (--max-steps guard)\n") == 1


def test_check_warns_when_fixpoint_guard_is_hit(tmp_path, capsys):
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    assert main(["check", doc, "--max-steps", "3"]) == 0
    assert "rasm: no fixpoint within 3 steps (--max-steps guard)" in capsys.readouterr().err
    assert main(["check", doc, "--steps", "3"]) == 0
    assert "--max-steps guard" not in capsys.readouterr().err


@pytest.mark.parametrize("name,steps,raises", [
    ("increment", 50, 1),      # pgm never changes: the initial raise serves every step
    ("self_rewrite", 2, 2),    # one rewrite of pgm, one more raise
    ("grow_signature", 2, 2),
])
def test_run_raises_pgm_once_per_change(monkeypatch, fresh_nodes, name, steps, raises):
    from rasm import machine

    calls = []
    real = machine.as_program

    def counting(t):
        if t.root_node.raised is None:  # a raise that decodes, not a memo hit
            calls.append(t)
        return real(t)

    monkeypatch.setattr(machine, "as_program", counting)
    assert main(["run", str(DEMOS / f"{name}.rst"), "--steps", str(steps)]) == 0
    assert len(calls) == raises


def test_run_checks_the_initial_state_once(monkeypatch):
    from rasm import encoding

    calls = []
    real = encoding.raise_rule

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(encoding, "raise_rule", counting)
    assert main(["run", str(DEMOS / "increment.rst"), "--steps", "50"]) == 0
    assert len(calls) == 1


def test_run_seed_names_the_reserve_draws(tmp_path):
    doc = put(tmp_path, "imp.rst", IMPORTING)
    t0, t7 = tmp_path / "t0.trace", tmp_path / "t7.trace"
    assert main(["run", doc, "--steps", "1", "--trace", str(t0)]) == 0
    assert main(["run", doc, "--steps", "1", "--trace", str(t7), "--seed", "7"]) == 0
    assert "update g($r0) = 1" in t0.read_text(encoding="utf-8")
    assert "update g($r7_0) = 1" in t7.read_text(encoding="utf-8")


def test_run_inconsistent_step_is_a_warning(tmp_path, capsys):
    rc = main(["run", put(tmp_path, "clash.rst", CLASHING), "--steps", "1"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "step 1: inconsistent update set" in err


def _append_beside_edits(first):
    """A PAR of 7 rules: one appends a copy of rule 1 under the PAR at
    (1, 0), six rewrite its children (1, 0, first) and (1, 0, 1..5)."""
    lines = ["program", "PAR", "pgm <<= extend_at((1, 0), subtree_at(pgm, (1, 0, 1)))"]
    lines += [f"pgm <<= subst_at((1, 0, {i}), subtree_at(pgm, (1, 0, 1)))" for i in (first, 1, 2, 3, 4, 5)]
    return "\n".join(lines + ["ENDPAR"]) + "\n"


def test_run_append_beside_edits_of_existing_children_is_consistent(tmp_path, capsys):
    rc = main(["run", put(tmp_path, "grow.rst", _append_beside_edits(0)), "--steps", "1", "--strict"])
    out = capsys.readouterr().out
    assert rc == 0
    par = parse_state(out).value_of(Location(PGM)).tree.at((1, 0))
    assert len(par.children) == 8


def test_run_edit_of_the_appended_child_is_inconsistent(tmp_path, capsys):
    # (1, 0, 7) exists only after the append: the two orders disagree.
    rc = main(["run", put(tmp_path, "grow.rst", _append_beside_edits(7)), "--steps", "1", "--strict"])
    assert rc == 1
    assert "inconsistent" in capsys.readouterr().err


def test_run_strict_turns_inconsistency_into_failure(tmp_path, capsys):
    rc = main(["run", put(tmp_path, "clash.rst", CLASHING), "--strict"])
    assert rc == 1
    assert "inconsistent" in capsys.readouterr().err


def test_run_syntax_error_exits_2(tmp_path, capsys):
    rc = main(["run", put(tmp_path, "bad.rst", "function f/\n")])
    assert rc == 2
    assert "rasm:" in capsys.readouterr().err


def test_run_non_tree_pgm_exits_3(tmp_path, capsys):
    rc = main(["run", put(tmp_path, "bad.rst", "init pgm = 5\n")])
    assert rc == 3
    assert "malformed-program-tree" in capsys.readouterr().err


def test_run_signature_shrink_exits_5(tmp_path, capsys):
    doc = (
        "function f/0\n"
        "program\n"
        f"pgm <<= subst_tt(#{TREE_SHRUNK})\n"
    )
    rc = main(["run", put(tmp_path, "shrink.rst", doc), "--steps", "1"])
    assert rc == 5
    assert "signature-shrunk" in capsys.readouterr().err


def test_run_evaluation_error_exits_1(tmp_path, capsys):
    # f is undef, so the guard is neither true nor false
    rc = main(["run", put(tmp_path, "und.rst",
                          "function f/0\nprogram\nIF f < 0 THEN f := 1 ENDIF\n")])
    assert rc == 1
    assert "condition-undef" in capsys.readouterr().err


def test_run_missing_file_exits_1(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.rst")])
    assert rc == 1
    assert "rasm:" in capsys.readouterr().err


def test_run_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rst"
    bad.write_bytes(b"function f/0\ninit f = 0\nprogram\nf := f + 1 \xff\n")
    rc = main(["run", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "rasm: syntax-error: line 4, column 12: input is not UTF-8 text\n"


def test_run_reads_crlf_like_lf(tmp_path, capsys):
    crlf = tmp_path / "crlf.rst"
    crlf.write_bytes(HALTING.replace("\n", "\r\n").encode("utf-8"))
    assert main(["run", str(crlf)]) == 0
    got = capsys.readouterr().out
    assert main(["run", put(tmp_path, "lf.rst", HALTING)]) == 0
    assert capsys.readouterr().out == got


def test_run_rejects_negative_step_count(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", put(tmp_path, "inc.rst", HALTING), "--steps", "-1"])


@pytest.mark.parametrize("argv", [
    ["run", "--max-steps", "-3"],
    ["check", "--max-steps", "-3"],
    ["check", "--trials", "-2"],
])
def test_negative_counts_are_usage_errors(tmp_path, capsys, argv):
    doc = put(tmp_path, "inc.rst", HALTING)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], doc] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be >= 0" in err
    assert not (tmp_path / "inc.report").exists()


def test_deeply_nested_rule_runs_and_prints(tmp_path, capsys):
    for depth in (300, 900):  # drop and raise loop; 900 died in a recursive drop
        rule = "IF f = 0 THEN " * depth + "f := 1" + " ENDIF" * depth
        doc = put(tmp_path, "deep.rst", "function f/0\ninit f = 0\nprogram\n" + rule + "\n")
        trace = tmp_path / "deep.trace"
        assert main(["run", doc, "--trace", str(trace)]) == 0, depth
        assert capsys.readouterr().out.startswith("function f/0\nfunction pgm/0\ninit f = 1\ninit pgm = #pgm⟨")
        assert trace.read_text(encoding="utf-8").count("step ") == 2
        assert main(["fmt", doc]) == 0
        text = capsys.readouterr().out
        assert text.count("if⟨") == depth
        assert main(["fmt", put(tmp_path, "canon.rst", text)]) == 0
        assert capsys.readouterr().out == text
        # the diff of two such trees, differing in the innermost assignment,
        # is one flat PAR however deep the edit sits
        trees = [put(tmp_path, f"{v}.tree", print_tree(parse_state(
            f"function f/0\nprogram\n{rule.replace('f := 1', f'f := {v}')}\n").value_of(Location(PGM)).tree))
            for v in (1, 2)]
        assert main(["diff"] + trees) == 0, depth
        out = capsys.readouterr().out
        assert out.startswith("PAR pgm <<= subst_at((1, 0, ") and out.endswith(" ENDPAR\nverdict equal\n")


def test_run_prints_the_1200_deep_tuple_it_builds(tmp_path, capsys):
    """Each step wraps `f` in one more 1-tuple; the trace and the final
    state print it through the printer's one walk, at any depth."""
    doc = put(tmp_path, "wrap.rst", "function f/0\ninit f = 0\nprogram\nf := (f,)\n")

    def wrapped(n):
        return "(" * n + "0" + ",)" * n

    trace = tmp_path / "wrap.trace"
    assert main(["run", doc, "--steps", "1200", "--trace", str(trace)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and f"\ninit f = {wrapped(1200)}\ninit pgm = #pgm⟨" in out
    last = trace.read_text(encoding="utf-8").split("\n\n")[-1]
    assert last.startswith("step 1200\nrule ") and last.endswith(f"\nupdate f = {wrapped(1200)}\nconsistent true\n")
    # The parser still recurses, once per level: 900 levels read back.
    assert main(["run", doc, "--steps", "900"]) == 0
    state = capsys.readouterr().out
    assert f"\ninit f = {wrapped(900)}\n" in state
    assert main(["fmt", put(tmp_path, "final.rst", state)]) == 0
    assert capsys.readouterr().out == state


def test_deep_value_beside_a_domain_read_runs_2000_steps(tmp_path, capsys):
    """The FORALL reads the active domain, which holds every level of the
    tuple `f` has become; each level is one interned value, hashed by
    identity, so a step does not walk the tuple once per level."""
    doc = put(tmp_path, "deep.rst", "function f/0\nfunction g/0\ninit f = 0\nprogram\n"
              "PAR f := (f,) FORALL x WITH false DO g := 1 ENDDO ENDPAR\n")
    assert main(["run", doc, "--steps", "2000"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "\ninit f = " + "(" * 2000 + "0" + ",)" * 2000 + "\n" in out


@pytest.mark.parametrize("argv,rule", [
    (["check", "--steps", "1", "--trials", "1"], "IF f = 0 THEN " * 1000 + "f := 1" + " ENDIF" * 1000),
    (["run"], "f := " + "(" * 300 + "1" + ")" * 300),
    (["fmt"], "f := " + "(" * 300 + "1" + ")" * 300),
], ids=["check-1000-ifs", "run-300-parens", "fmt-300-parens"])
def test_input_too_deep_for_the_stack_exits_1_with_one_line(tmp_path, capsys, argv, rule):
    doc = put(tmp_path, "deep.rst", "function f/0\ninit f = 0\nprogram\n" + rule + "\n")
    assert main([argv[0], doc] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert err == "rasm: input nests too deeply for the interpreter's recursion limit\n"
    assert "Traceback" not in out + err


def test_check_of_900_nested_ifs_passes(tmp_path, capsys):
    # Interned nodes compare and hash by identity, so no deep pgm tree is
    # walked node by node; `run` handles the same depth.
    rule = "IF f = 0 THEN " * 900 + "f := 1" + " ENDIF" * 900
    doc = put(tmp_path, "deep.rst", "function f/0\ninit f = 0\nprogram\n" + rule + "\n")
    assert main(["check", doc, "--steps", "1", "--trials", "1"]) == 0
    assert "violations 0" in capsys.readouterr().out


def test_check_of_900_nested_if_elses_passes(tmp_path, capsys):
    # Each read term's guard is one flat `and` over the path's conditions,
    # so no read term is deeper than the rule; the conditions the read
    # terms share with the rule keep the closures the step compiled.
    doc = put(tmp_path, "deep.rst", "function f/0\nfunction g/0\ninit f = 0\ninit g = 0\nprogram\n"
              + nested_if_else(900) + "\n")
    assert main(["check", doc, "--steps", "1", "--trials", "1"]) == 0
    assert "violations 0" in capsys.readouterr().out


def test_forall_over_5000_deep_tree_values_runs(tmp_path, capsys):
    """The FORALL sorts its domain, which holds two 5,000-level tree values
    that differ only at the leaf; their keys compare without recursion."""
    def tree(v):
        return "#" + "x⟨" * 5000 + f"y=⟨{v}⟩" + "⟩" * 5000
    doc = put(tmp_path, "deep.rst", "\n".join([
        "function a/0", "function b/0", "function c/0", f"init a = {tree(1)}", f"init b = {tree(2)}",
        "program", "FORALL x WITH eq(x, 7) DO c := x ENDDO", ""]))
    assert main(["run", doc, "--steps", "1"]) == 0
    out, err = capsys.readouterr()
    assert f"init a = {tree(1)}\ninit b = {tree(2)}\n" in out and err == ""


def test_check_renames_600_and_5000_deep_tree_values(tmp_path, capsys):
    """The isomorphism check renames the atoms at the leaves of both trees."""
    def tree(v, depth):
        return "#" + "x⟨" * depth + f"y=⟨{v}⟩" + "⟩" * depth
    doc = put(tmp_path, "deep.rst", "\n".join([
        "function a/0", "function b/0", "function c/0", "init a = " + tree("'p", 600),
        "init b = " + tree("'q", 5000), "program", "c := 1", ""]))
    assert main(["check", doc, "--steps", "1", "--trials", "3"]) == 0
    out, err = capsys.readouterr()
    assert "violations 0" in out and "violations 1" not in out and err == ""


def test_run_bound_head_under_a_let_is_barred(tmp_path, capsys):
    # The LET's term mentions f; the IMPORT still binds f, so f is no
    # location symbol in the head below it.
    doc = put(tmp_path, "head.rst", "function f/0\nprogram\nLET x = ?f IN IMPORT f DO f := f\n")
    assert main(["run", doc]) == 1
    assert "bound-variable-as-location" in capsys.readouterr().err


def test_run_prints_naturals_past_4300_digits(tmp_path, capsys):
    doc = put(tmp_path, "square.rst", "function f/0\ninit f = 2\nprogram\nf := f * f\n")
    assert main(["run", doc, "--steps", "14"]) == 0
    assert f"\ninit f = {2 ** 16384}\n" in capsys.readouterr().out


def test_fmt_reads_naturals_past_4300_digits(tmp_path, capsys):
    digits = "7" * 5000
    doc = put(tmp_path, "big.rst", f"function f/0\ninit f = {digits}\nprogram\nf := f\n")
    assert main(["fmt", doc]) == 0
    assert f"\ninit f = {digits}\n" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    "function f/0\ninit f = ²\nprogram\nf := f\n",
    "function f/0\ninit f = 0\nprogram\nf := f + ٣\n",
])
def test_run_non_ascii_digit_exits_2(tmp_path, capsys, doc):
    assert main(["run", put(tmp_path, "digit.rst", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rasm: syntax-error: ") and "stray character" in err
    assert err.count("\n") == 1


# --------------------------------------------------------------------- diff

def test_diff_identical_trees(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_A)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "PAR ENDPAR\nverdict equal\n"


def test_diff_rule_change_reuses_signature(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_B)])
    out = capsys.readouterr().out
    assert rc == 0
    text, verdict = out.split("\n", 1)
    assert verdict == "verdict equal\n"
    assert text.startswith("PAR pgm <<= subst_at((1, ") and text.endswith(" ENDPAR")
    assert len(parse_rule(text).rules) == 1  # one edit, under the rule child; the signature is kept


def test_diff_unreadable_input_exits_3(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", "not a tree at all ("),
               put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("diff:")


def test_diff_missing_input_exits_3(tmp_path, capsys):
    rc = main(["diff", str(tmp_path / "absent.tree"), put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("diff: ") and "absent.tree" in err and err.count("\n") == 1


def test_diff_non_utf8_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "a.tree"
    bad.write_bytes(b"a\xe9b\n")
    rc = main(["diff", str(bad), put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3
    assert capsys.readouterr().err == "diff: syntax-error: line 1, column 2: input is not UTF-8 text\n"


def test_diff_non_program_tree_exits_3(tmp_path):
    rc = main(["diff", put(tmp_path, "a.tree", "leaf"), put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3


@pytest.mark.parametrize("side", [0, 1])
def test_diff_of_a_context_exits_3(tmp_path, capsys, side):
    files = [put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_B)]
    files[side] = put(tmp_path, "c.tree", TREE_A.replace("term=⟨()⟩", "^"))
    assert main(["diff"] + files) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"diff: {files[side]} holds a context (a tree with a hole leaf), not a tree\n"


def test_diff_signature_shrink_exits_5(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A),
               put(tmp_path, "b.tree", TREE_SHRUNK)])
    assert rc == 5
    assert "signature-shrunk" in capsys.readouterr().err


def test_diff_failed_verification_exits_1(tmp_path, capsys, monkeypatch):
    # A rule that ignores the target cannot verify; `diff` must say so.
    monkeypatch.setattr("rasm.cli.tree_diff_rule", lambda a, b: Par(()))
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_B)])
    assert rc == 1
    assert "verdict different\n" in capsys.readouterr().out


def test_diff_inconsistent_rule_exits_1(tmp_path, capsys, monkeypatch):
    # Two edits of one node clash, so the step stutters and pgm keeps the
    # old tree; that it equals the new one does not make the rule verify.
    clash = parse_rule("PAR " + " ".join(f"pgm <<= subst_at((1, 0, 2), #term=⟨⟦{v}⟧⟩)" for v in (7, 8)) + " ENDPAR")
    monkeypatch.setattr("rasm.cli.tree_diff_rule", lambda a, b: clash)
    assert main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_A)]) == 1
    assert capsys.readouterr().out.endswith("verdict different\n")


# -------------------------------------------------------------------- check

def test_check_writes_report_beside_input(tmp_path, capsys):
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    rc = main(["check", doc, "--steps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    report = tmp_path / "inc.report"
    assert report.read_text(encoding="utf-8") == out
    for name in ("isomorphism-closure", "signature-monotonicity",
                 "naive-equivalence", "bounded-exploration"):
        assert f"check {name}" in out
    assert "\nviolation " not in out


def test_check_counts_a_failing_read_term_as_an_outcome(tmp_path, capsys):
    # The LET binding reads the undeclared `g`; `run` never evaluates it.
    doc = put(tmp_path, "let.rst", "function f/0\ninit f = 0\nprogram\nLET x = g IN f := 1\n")
    assert main(["run", doc]) == 0
    capsys.readouterr()
    assert main(["check", doc, "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "check bounded-exploration" in out and "\nviolation " not in out


def test_check_matches_fresh_atoms_up_to_a_bijection(tmp_path, capsys):
    """Renaming 'a and 'b changes which binding of the FORALL draws which
    fresh atom; the successors agree up to a bijection of the drawn atoms,
    which is all the isomorphism postulate asks."""
    doc = put(tmp_path, "imp.rst", "\n".join([
        "function g/1", "function h/1", "init g('a) = 1", "init g('b) = 1", "init g('c) = 1",
        "program", "FORALL x WITH eq(g(x), 1) DO IMPORT y DO h(x) := y ENDDO", ""]))
    assert main(["check", doc, "--steps", "1", "--trials", "30"]) == 0
    out = capsys.readouterr().out
    assert "check isomorphism-closure\ninstances 30\nviolations 0" in out


def test_check_report_flag_overrides_path(tmp_path):
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    target = tmp_path / "elsewhere" / "out.report"
    target.parent.mkdir()
    rc = main(["check", doc, "--steps", "2", "--report", str(target)])
    assert rc == 0
    assert "check isomorphism-closure" in target.read_text(encoding="utf-8")
    assert not (tmp_path / "inc.report").exists()


def test_check_extra_states_join_initial_agreement(tmp_path, capsys):
    text = (DEMOS / "increment.rst").read_text()
    rc = main(["check", put(tmp_path, "a.rst", text), put(tmp_path, "b.rst", text),
               "--steps", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check initial-agreement" in out


def test_check_trials_flag_reaches_the_iso_check(tmp_path, capsys, monkeypatch):
    seen = {}

    def spy(s, trials, seed):
        seen["trials"] = trials
        return CheckReport("isomorphism-closure", trials, (), ())

    monkeypatch.setattr("rasm.cli.check_isomorphism_closure", spy)
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    assert main(["check", doc, "--steps", "1", "--trials", "3"]) == 0
    assert seen["trials"] == 3
    assert main(["check", doc, "--steps", "1"]) == 0
    assert seen["trials"] == ISO_TRIALS


def test_check_violation_exits_4(tmp_path, capsys, monkeypatch):
    rigged = CheckReport("isomorphism-closure", 1, (Violation("rigged", {}),), ())
    monkeypatch.setattr("rasm.cli.check_isomorphism_closure", lambda s, t, k: rigged)
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    rc = main(["check", doc, "--steps", "1"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "violation rigged" in out
    # the report file still lands so the failure can be inspected
    assert "violation rigged" in (tmp_path / "inc.report").read_text(encoding="utf-8")


def test_run_check_postulates_violation_exits_4(tmp_path, capsys, monkeypatch):
    rigged = CheckReport("isomorphism-closure", 1, (Violation("rigged", {}),), ())
    monkeypatch.setattr("rasm.cli.check_isomorphism_closure", lambda s, t, k: rigged)
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    rc = main(["run", doc, "--steps", "1", "--check-postulates"])
    assert rc == 4
    assert "violation rigged" in capsys.readouterr().err


def test_run_check_postulates_clean(tmp_path, capsys):
    doc = put(tmp_path, "inc.rst", (DEMOS / "increment.rst").read_text())
    rc = main(["run", doc, "--steps", "2", "--check-postulates"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "check isomorphism-closure" in captured.err
    assert "\nviolation " not in captured.err


# ---------------------------------------------------------------------- fmt

def test_fmt_state_doc_is_canonical_and_idempotent(tmp_path, capsys):
    messy = "// a comment\nfunction   f/0\ninit f=2\nprogram\nf:=f+1\n"
    rc = main(["fmt", put(tmp_path, "messy.rst", messy)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == print_state(parse_state(messy))
    assert main(["fmt", put(tmp_path, "canon.rst", out)]) == 0
    assert capsys.readouterr().out == out


def test_fmt_rule_file(tmp_path, capsys):
    rc = main(["fmt", put(tmp_path, "r.rasm", "PAR f:=1 g ( 2 ):=f ENDPAR")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == print_rule(parse_rule("PAR f := 1 g(2) := f ENDPAR")) + "\n"


def test_fmt_keeps_the_parentheses_of_an_operation_with_no_arguments(tmp_path, capsys):
    # `add()` is a background operation; a bare `add` would be a function symbol
    text = "PAR f := add() g := eq() h := (1 = 2) + mset() ENDPAR"
    assert main(["fmt", put(tmp_path, "r.rasm", text)]) == 0
    assert capsys.readouterr().out == "PAR f := add() g := eq() h := (1 = 2) + {||} ENDPAR\n"


def test_fmt_tree_file(tmp_path, capsys):
    rc = main(["fmt", put(tmp_path, "t.tree", "pgm⟨rule⟨⟩⟩   ")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "pgm⟨rule⟩\n"
    assert print_tree(parse_tree(out.strip())) == out.strip()


def test_fmt_has_no_seed_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fmt", "--seed", "1", put(tmp_path, "x.rst", HALTING)])
    assert exc.value.code == 2


def test_check_stops_at_the_first_differing_read_term(tmp_path, capsys):
    """Once a read term differs the coincidence precondition has failed, so
    the else branch's `g`, which names no symbol, is never evaluated."""
    doc = put(tmp_path, "guarded.rst",
              "function f/0\ninit f = 0\nprogram\nIF f < 2 THEN f := f + 1 ELSE f := g ENDIF\n")
    assert main(["run", doc, "--steps", "2"]) == 0
    capsys.readouterr()
    assert main(["check", doc, "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("note read-term values differ; coincidence precondition failed") == 2
