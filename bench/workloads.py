"""Seeded state documents and their expected outcomes, in plain Python.

Each workload builds one rasm state document from a seed.  The seed varies
only constants, edge sets and initial values; the shape of the machine (how
many counters, entries, shared updates, atoms and edges) is fixed, so a
step costs the same on every seed.  The expected trace and final state are
computed here by simulating the machine directly, never by calling rasm.

The checker functions compare rasm's output text against those
expectations.  They read the canonical text rasm prints: trace blocks
(`step i`, `rule <hash>`, `update <loc> = <value>` lines, `consistent
<flag>`), `init <loc> = <value>` lines of the final state, and `check
<name>` / `violations <n>` lines of a postulate report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

ALL_CHECKS = frozenset(
    {"bounded-exploration", "isomorphism-closure", "naive-equivalence", "signature-monotonicity"}
)
# The naive oracle does not cover partial assignments, so `rasm check`
# skips it for machines that use them.
CHECKS_WITHOUT_NAIVE = ALL_CHECKS - {"naive-equivalence"}


@dataclass(frozen=True)
class Machine:
    """One generated document and what running it must produce.

    `steps[i]` holds the update lines of step i + 1, pgm excluded; `pgm_updates`
    says whether each step also writes pgm.  `final` maps every non-pgm
    location to its value text after `len(steps)` steps.  `rule_hashes` is
    "constant" when pgm never changes and "alternating" when it flips
    between two programs.
    """

    document: str
    steps: tuple[frozenset[str], ...]
    final: dict[str, str]
    pgm_updates: bool
    rule_hashes: str


@dataclass(frozen=True)
class Workload:
    name: str
    run_steps: int  # steps per `rasm run` child
    check_args: tuple[str, ...]  # arguments after the document for `rasm check`
    expected_checks: frozenset[str]
    build: Callable[[int, int], Machine]  # (seed, steps) -> Machine


def _mset(items) -> str:
    items = sorted(items)
    return "{| " + ", ".join(map(str, items)) + " |}" if items else "{||}"


# ---------------------------------------------------------- static_program

STATIC_COUNTERS = 32


def static_program(seed: int, steps: int) -> Machine:
    """32 nullary counters under IF lt(c, K) in one PAR; pgm never changes."""
    rng = random.Random(seed)
    bound = rng.randint(100, 400)
    incs = [rng.randint(1, 9) for _ in range(STATIC_COUNTERS)]
    vals = [rng.randint(0, bound) for _ in range(STATIC_COUNTERS)]
    names = [f"c{i}" for i in range(STATIC_COUNTERS)]
    lines = [f"function {c}/0" for c in names]
    lines += [f"init {c} = {v}" for c, v in zip(names, vals)]
    lines += ["program", "PAR"]
    lines += [
        f"IF lt({c}, {bound}) THEN {c} := {c} + {k} ELSE {c} := 0 ENDIF"
        for c, k in zip(names, incs)
    ]
    lines.append("ENDPAR")
    expected = []
    for _ in range(steps):
        vals = [v + k if v < bound else 0 for v, k in zip(vals, incs)]
        expected.append(frozenset(f"{c} = {v}" for c, v in zip(names, vals)))
    final = {c: str(v) for c, v in zip(names, vals)}
    return Machine(_doc(lines), tuple(expected), final, False, "constant")


# ------------------------------------------------------------- domain_scan

DOMAIN_ENTRIES = 1000


def domain_scan(seed: int, steps: int) -> Machine:
    """1,000 entries g(i), all read and written by one FORALL every step."""
    rng = random.Random(seed)
    g = [rng.randint(0, DOMAIN_ENTRIES - 1) for _ in range(DOMAIN_ENTRIES)]
    n = rng.randint(0, 10_000)
    lines = ["function g/1", "function n/0"]
    lines += [f"init g({i}) = {v}" for i, v in enumerate(g)]
    lines += [f"init n = {n}", "program", "PAR"]
    lines.append(
        f"FORALL x WITH lt(x, {DOMAIN_ENTRIES}) DO IF lt(g(x), {DOMAIN_ENTRIES - 1}) "
        f"THEN g(x) := g(x) + 1 ELSE g(x) := 0 ENDIF ENDDO"
    )
    lines += ["n := n + 1", "ENDPAR"]
    expected = []
    for _ in range(steps):
        g = [v + 1 if v < DOMAIN_ENTRIES - 1 else 0 for v in g]
        n += 1
        expected.append(frozenset([f"g({i}) = {v}" for i, v in enumerate(g)] + [f"n = {n}"]))
    final = {f"g({i})": str(v) for i, v in enumerate(g)}
    final["n"] = str(n)
    return Machine(_doc(lines), tuple(expected), final, False, "constant")


# ---------------------------------------------------------- shared_rewrite

SHARED_PAYLOADS = 4  # swapped in pairs: 4 subst_at updates at disjoint paths
SHARED_MUNIONS = 6  # one group of 6 munion updates on m(p)


def shared_rewrite(seed: int, steps: int) -> Machine:
    """pgm swaps two pairs of its own subrules every step, beside a group of
    six munion updates whose multiset is cleared on alternate steps."""
    rng = random.Random(seed)
    incs = [rng.randint(1, 9) for _ in range(SHARED_PAYLOADS)]
    operands = rng.sample(range(100, 1000), SHARED_MUNIONS)
    m = {0: [rng.randint(0, 99)], 1: [rng.randint(0, 99)]}
    p = rng.randint(0, 1)
    d = [0] * SHARED_PAYLOADS
    names = [f"d{i}" for i in range(SHARED_PAYLOADS)]
    lines = [f"function {x}/0" for x in names] + ["function m/1", "function p/0"]
    lines += [f"init {x} = 0" for x in names]
    lines += [f"init m(0) = {_mset(m[0])}", f"init m(1) = {_mset(m[1])}", f"init p = {p}"]
    lines += ["program", "PAR"]
    # PAR child i sits at path (1, 0, i) of the pgm tree: rule wrapper,
    # par node, i-th rule wrapper.
    lines += [f"{x} := {x} + {k}" for x, k in zip(names, incs)]
    for a in range(0, SHARED_PAYLOADS, 2):
        b = a + 1
        lines.append(f"pgm <<= subst_at((1, 0, {a}), subtree_at(pgm, (1, 0, {b})))")
        lines.append(f"pgm <<= subst_at((1, 0, {b}), subtree_at(pgm, (1, 0, {a})))")
    lines += [f"m(p) <<= munion({{| {c} |}})" for c in operands]
    lines += ["m(sub(1, p)) := {||}", "p := sub(1, p)", "ENDPAR"]
    expected = []
    for _ in range(steps):
        d = [x + k for x, k in zip(d, incs)]
        m = {p: m[p] + operands, 1 - p: []}
        p = 1 - p
        expected.append(
            frozenset(
                [f"{x} = {v}" for x, v in zip(names, d)]
                + [f"m(0) = {_mset(m[0])}", f"m(1) = {_mset(m[1])}", f"p = {p}"]
            )
        )
    final = {x: str(v) for x, v in zip(names, d)}
    final.update({"m(0)": _mset(m[0]), "m(1)": _mset(m[1]), "p": str(p)})
    return Machine(_doc(lines), tuple(expected), final, True, "alternating")


# --------------------------------------------------------- postulate_check

REACH_ATOMS = 40
REACH_EDGES = 80


def reach_edges(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Start node and edge list: a seeded Hamiltonian cycle, so every atom is
    reachable on every seed, plus seeded extra edges up to REACH_EDGES."""
    rng = random.Random(seed)
    order = list(range(REACH_ATOMS))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % REACH_ATOMS]) for i in range(REACH_ATOMS)}
    while len(edges) < REACH_EDGES:
        a, b = rng.randrange(REACH_ATOMS), rng.randrange(REACH_ATOMS)
        if a != b:
            edges.add((a, b))
    return order[0], sorted(edges)


def postulate_check(seed: int, steps: int) -> Machine:
    """Reachability over 40 atoms with a nested FORALL."""
    start, edges = reach_edges(seed)
    lines = ["universe " + " ".join(f"a{i}" for i in range(REACH_ATOMS))]
    lines += ["function e/2", "function r/1"]
    lines += [f"init e(a{a}, a{b}) = true" for a, b in edges]
    lines += [f"init r(a{start}) = true", "program"]
    lines.append("FORALL x WITH r(x) DO FORALL y WITH e(x, y) DO r(y) := true ENDDO ENDDO")
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    reached = {start}
    expected = []
    for _ in range(steps):
        # One BFS level per step; the machine rewrites r(y) for every edge
        # out of a reached node, already-reached targets included.
        targets = {b for a in reached for b in succ.get(a, ())}
        expected.append(frozenset(f"r(a{b}) = true" for b in targets))
        reached |= targets
    final = {f"e(a{a}, a{b})": "true" for a, b in edges}
    final.update({f"r(a{x})": "true" for x in reached})
    return Machine(_doc(lines), tuple(expected), final, False, "constant")


def _doc(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "static_program",
            100,
            ("--steps", "1", "--trials", "4"),
            ALL_CHECKS,
            static_program,
        ),
        Workload(
            "domain_scan",
            15,
            ("--steps", "1", "--trials", "4"),
            ALL_CHECKS,
            domain_scan,
        ),
        Workload(
            "shared_rewrite",
            15,
            ("--steps", "1", "--trials", "4"),
            CHECKS_WITHOUT_NAIVE,
            shared_rewrite,
        ),
        Workload(
            "postulate_check",
            30,
            ("--steps", "3"),
            ALL_CHECKS,
            postulate_check,
        ),
    )
}


# ----------------------------------------------------------------- checkers

@dataclass(frozen=True)
class Block:
    index: int
    rule: str
    updates: tuple[str, ...]
    consistent: str


def parse_trace(text: str) -> list[Block]:
    blocks = []
    for chunk in text.strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        head, rule, flag = lines[0], lines[1], lines[-1]
        if not (head.startswith("step ") and rule.startswith("rule ") and flag.startswith("consistent ")):
            raise ValueError(f"malformed trace block starting {head!r}")
        updates = tuple(x[len("update "):] for x in lines[2:-1])
        blocks.append(Block(int(head[5:]), rule[5:], updates, flag[len("consistent "):]))
    return blocks


def check_trace(m: Machine, text: str) -> list[str]:
    """One message per step whose trace block differs from the expectation."""
    try:
        blocks = parse_trace(text)
    except (ValueError, IndexError) as e:
        return [f"trace unreadable: {e}"] * max(len(m.steps), 1)
    bad = []
    if len(blocks) != len(m.steps):
        bad.append(f"trace has {len(blocks)} steps, expected {len(m.steps)}")
    hashes = [b.rule for b in blocks]
    for i, (b, want) in enumerate(zip(blocks, m.steps), 1):
        plain = {u for u in b.updates if not u.startswith("pgm = ")}
        pgm = len(b.updates) - len(plain)
        if b.index != i:
            bad.append(f"step {i}: block numbered {b.index}")
        elif b.consistent != "true":
            bad.append(f"step {i}: inconsistent update set")
        elif plain != want:
            bad.append(f"step {i}: {len(plain ^ want)} update lines differ")
        elif pgm != (1 if m.pgm_updates else 0):
            bad.append(f"step {i}: {pgm} pgm updates")
        elif m.rule_hashes == "constant" and b.rule != hashes[0]:
            bad.append(f"step {i}: rule hash changed on a static program")
        elif m.rule_hashes == "alternating" and (
            b.rule != hashes[(i - 1) % 2] or len(hashes) > 1 and hashes[0] == hashes[1]
        ):
            bad.append(f"step {i}: rule hash does not alternate between two programs")
    return bad


def parse_final_state(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("init ") and not line.startswith("init pgm = "):
            loc, _, val = line[5:].partition(" = ")
            out[loc] = val
    return out


def check_final(m: Machine, text: str) -> list[str]:
    got = parse_final_state(text)
    if got == m.final:
        return []
    diff = sorted(set(got.items()) ^ set(m.final.items()))
    return [f"final state differs at {len(diff)} entries, first {diff[0]}"]


def check_report(expected_checks: frozenset[str], text: str) -> list[str]:
    """Every expected postulate check present, each with zero violations."""
    names, bad = set(), []
    name = None
    for line in text.splitlines():
        if line.startswith("check "):
            name = line[6:]
            names.add(name)
        elif line.startswith("violations ") and line != "violations 0":
            bad.append(f"check {name}: {line}")
    if names != expected_checks:
        bad.append(f"checks run {sorted(names)}, expected {sorted(expected_checks)}")
    return bad
