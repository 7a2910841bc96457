"""The benchmark workloads, one timed pass over them, and the correctness gate.

A workload is a list of commands built from the workload seed.  Every command
but one goes through the public entry point ``trunclat.cli.main``; the
``repro`` workload adds one direct ``engine.repro_example43`` call.  Each
command's output is checked, and every pass after the first must reproduce
the first pass byte for byte.

An *operation* is one law report, one assertion line, one repro id or the
``example43`` report.  It fails on an unexpected refutation, an exception, a
nonzero exit code, a repro hash mismatch, or output that differs from the
first pass of the same run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAW_DIR = SRC / "trunclat" / "laws"
README = ROOT / "README.md"

# (config name, --space argument); the default truncation of each space is the
# cataloged one, and the shipped assertion file is named after the config.
CATALOG = (
    ("sparse_seq", "sparse_seq"),
    ("lex_plane", "lex_plane"),
    ("identity_line", "identity_line"),
    ("finite_pointwise", "finite_pointwise:3"),
)
CATALOG_TRIALS = 400
WIDE_DIMS = (10, 11)
WIDE_TRIALS = 300
EXAMPLE43_WINDOW = 24

WORKLOADS = ("catalog_check", "repro", "wide_pointwise")

INPUT_SIZES = {
    "catalog_check": (
        f"4 catalog configurations (finite_pointwise dim 3), --trials {CATALOG_TRIALS}, "
        "plus the shipped .law file of each (12 assertions x trials)"
    ),
    "repro": (
        "the 6 README repro ids (pinned seeds) plus repro_example43 on tolerances "
        f"1/a, 1/b with a in [20, 40], b in [150, 180] drawn from the seed, window {EXAMPLE43_WINDOW}"
    ),
    "wide_pointwise": (
        f"check --space finite_pointwise:N for N in {list(WIDE_DIMS)}, --trials {WIDE_TRIALS}"
    ),
}

_README_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|.*\|\s*`([0-9a-f]{16})`\s*\|\s*$")


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


@dataclass(frozen=True)
class Command:
    cid: str  # command id, unique within a workload: "check:<config>", "repro:<id>", ...
    kind: str  # "check" | "repro" | "example43"
    label: str  # config name, repro id or "example43"
    argv: tuple[str, ...] = ()
    expected: frozenset[str] = frozenset()  # law ids whose refutation the theory predicts
    sha16: str = ""  # README hash prefix, repro only
    eps: tuple[Fraction, ...] = ()  # example43 tolerances


@dataclass
class Outcome:
    seconds: float
    code: int | None
    out: str
    error: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def readme_hashes() -> dict[str, str]:
    """The repro table of README.md: id -> first 16 hex digits of the output's sha256."""
    try:
        text = README.read_text(encoding="utf-8")
    except OSError as exc:
        raise SetupError(f"cannot read {README.name}: {exc}") from exc
    rows = {}
    for line in text.splitlines():
        match = _README_ROW.match(line.strip())
        if match:
            rows[match.group(1)] = match.group(2)
    if not rows:
        raise SetupError("README.md has no repro hash table")
    return rows


def build(workload: str, seed: int) -> list[Command]:
    """The workload's commands; the same seed always gives the same list."""
    from trunclat.engine import LawContext, catalog, expected_violations
    from trunclat.spaces import FinitePointwise, fp_const
    from trunclat.truncation import MeetWithUnit, truncation

    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog_check":
        contexts = catalog()
        commands = []
        for config, space_arg in CATALOG:
            law_file = LAW_DIR / f"{config}.law"
            if not law_file.is_file():
                raise SetupError(f"missing assertion file {law_file.name}")
            argv = (
                "check", "--space", space_arg, "--format", "json",
                "--seed", str(rng.randrange(2**31)), "--trials", str(CATALOG_TRIALS),
                "--assertions", str(law_file),
            )
            expected = expected_violations(contexts[config])
            commands.append(Command(f"check:{config}", "check", config, argv, expected))
        return commands
    if workload == "wide_pointwise":
        commands = []
        for dim in WIDE_DIMS:
            space = FinitePointwise(dim)
            ctx = LawContext(space, truncation(space, MeetWithUnit(fp_const(dim, 1))))
            argv = (
                "check", "--space", f"finite_pointwise:{dim}", "--format", "json",
                "--seed", str(rng.randrange(2**31)), "--trials", str(WIDE_TRIALS),
            )
            commands.append(
                Command(f"check:finite_pointwise:{dim}", "check", "finite_pointwise", argv,
                        expected_violations(ctx))
            )
        return commands
    if workload == "repro":
        commands = [
            Command(f"repro:{rid}", "repro", rid, ("repro", rid), sha16=sha16)
            for rid, sha16 in readme_hashes().items()
        ]
        eps = (Fraction(1, rng.randint(20, 40)), Fraction(1, rng.randint(150, 180)))
        commands.append(Command("engine:example43", "example43", "example43", eps=eps))
        return commands
    raise SetupError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _example43(eps: tuple[Fraction, ...], seed: int) -> str:
    from trunclat.engine import catalog, default_limit_candidates, repro_example43
    from trunclat.report import reports_to_jsonl
    from trunclat.unitization import unitize

    ctx = unitize(catalog()["sparse_seq"].trunc)
    report = repro_example43(ctx, list(eps), EXAMPLE43_WINDOW, default_limit_candidates(), seed)
    return reports_to_jsonl([report])


def run_command(cmd: Command, seed: int, tracer=None) -> Outcome:
    """Run one command with its output captured; never raises for program errors."""
    from trunclat.cli import main

    out = io.StringIO()
    span = tracer.command_span(cmd.cid) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if cmd.kind == "example43":
                out.write(_example43(cmd.eps, seed))
                code = 0
            else:
                code = main(list(cmd.argv))
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return Outcome(time.perf_counter() - start, None, out.getvalue(), repr(exc))
    return Outcome(time.perf_counter() - start, code, out.getvalue())


def run_pass(commands: list[Command], seed: int, tracer=None) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outcomes = [run_command(cmd, seed, tracer) for cmd in commands]
    return time.perf_counter() - start, outcomes


def _ops(cmd: Command, outcome: Outcome) -> int:
    if cmd.kind == "check":
        return max(1, len(outcome.out.splitlines()))
    return 1


def verify(cmd: Command, outcome: Outcome, reference: Outcome | None, tally: Tally) -> None:
    """Check one command's outcome; ``reference`` is the same command's first-pass outcome."""
    ops = _ops(cmd, outcome)
    tally.attempted += ops
    if outcome.error or outcome.code != 0:
        tally.fail(ops, f"{cmd.cid}: exit={outcome.code} {outcome.error}".strip())
        return
    if reference is not None and outcome.out != reference.out:
        new, old = outcome.out.splitlines(), reference.out.splitlines()
        differing = sum(a != b for a, b in zip(new, old)) + abs(len(new) - len(old))
        tally.fail(min(ops, max(1, differing)), f"{cmd.cid}: output differs from pass 1")
        return
    if cmd.kind == "check":
        _verify_check(cmd, outcome.out, tally)
    elif cmd.kind == "repro":
        digest = hashlib.sha256(outcome.out.encode("utf-8")).hexdigest()[:16]
        if digest != cmd.sha16 or not outcome.out.endswith(f"REPRODUCED: {cmd.label}\n"):
            tally.fail(1, f"{cmd.cid}: sha256 {digest} != README {cmd.sha16}")
    else:
        report = json.loads(outcome.out)
        if report.get("verdict") != "pass":
            tally.fail(1, f"{cmd.cid}: verdict {report.get('verdict')} {outcome.out.strip()}")


def _verify_check(cmd: Command, out: str, tally: Tally) -> None:
    lines = out.splitlines()
    if not lines:
        tally.fail(1, f"{cmd.cid}: empty report")
        return
    seen = set()
    for line in lines:
        try:
            report = json.loads(line)
            law_id, verdict = report["law_id"], report["verdict"]
        except (ValueError, KeyError, TypeError):
            tally.fail(1, f"{cmd.cid}: malformed report line {line[:80]!r}")
            continue
        if law_id in seen:
            tally.fail(1, f"{cmd.cid}: duplicate report for {law_id}")
            continue
        seen.add(law_id)
        if verdict == "refuted":
            if law_id.startswith("assert:") or law_id not in cmd.expected:
                tally.fail(1, f"{cmd.cid}: unexpected refutation of {law_id}")
        elif verdict not in ("pass", "inconclusive"):
            tally.fail(1, f"{cmd.cid}: unknown verdict {verdict!r} for {law_id}")
