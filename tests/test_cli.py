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
from rasm.treediff import SubtreeRef

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
def test_run_raises_pgm_once_per_change(monkeypatch, name, steps, raises):
    from rasm import machine

    calls = []
    real = machine.as_program

    def counting(t):
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


# --------------------------------------------------------------------- diff

def test_diff_identical_trees(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_A)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theta subtree@root\n" in out
    assert "verdict equal\n" in out


def test_diff_rule_change_reuses_signature(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_B)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("theta label_hedge(pgm, subtree@0")
    assert "verdict equal\n" in out


def test_diff_unreadable_input_exits_3(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", "not a tree at all ("),
               put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("diff:")


def test_diff_non_utf8_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "a.tree"
    bad.write_bytes(b"a\xe9b\n")
    rc = main(["diff", str(bad), put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3
    assert capsys.readouterr().err == "diff: syntax-error: line 1, column 2: input is not UTF-8 text\n"


def test_diff_non_program_tree_exits_3(tmp_path):
    rc = main(["diff", put(tmp_path, "a.tree", "leaf"), put(tmp_path, "b.tree", TREE_A)])
    assert rc == 3


def test_diff_signature_shrink_exits_5(tmp_path, capsys):
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A),
               put(tmp_path, "b.tree", TREE_SHRUNK)])
    assert rc == 5
    assert "signature-shrunk" in capsys.readouterr().err


def test_diff_failed_verification_exits_1(tmp_path, capsys, monkeypatch):
    # A theta that ignores the target cannot verify; the driver must say so.
    monkeypatch.setattr("rasm.cli.tree_diff_theta", lambda a, b: SubtreeRef(()))
    rc = main(["diff", put(tmp_path, "a.tree", TREE_A), put(tmp_path, "b.tree", TREE_B)])
    assert rc == 1
    assert "verdict different\n" in capsys.readouterr().out


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


def test_fmt_tree_file(tmp_path, capsys):
    rc = main(["fmt", put(tmp_path, "t.tree", "pgm⟨rule⟨⟩⟩   ")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "pgm⟨rule⟩\n"
    assert print_tree(parse_tree(out.strip())) == out.strip()
