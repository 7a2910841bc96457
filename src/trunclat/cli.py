"""Batch command-line front end.

Three subcommands: ``check`` runs the law suite (plus optional assertion
files) for one space/truncation configuration and emits JSON lines or a
table; ``eval`` parses and evaluates one expression against JSON bindings;
``repro`` replays the named scripted demonstrations with pinned seeds.  A
demonstration decides nothing itself: each one is a :class:`PinnedRun` of
registered laws on catalog configurations.

Exit codes: 0 on success (counterexamples predicted by the theory are
reported but do not fail the run), 1 on an unexpected refutation, 2 on a
configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .dsl import (
    Lattice,
    check_assertion,
    evaluate,
    free_variables,
    load_assertion_text,
    parse,
)
from .engine import cataloged_truncation, derive_seed, expected_violations, run_law, run_suite
from .errors import DslError, TrunclatError
from .report import PASS, REFUTED, LawReport, render_table, reports_to_jsonl
from .sampling import SampleGen
from .spaces import element_from_json, space_from_json, space_from_text
from .truncation import truncation_from_json
from .unitization import UnitizationCtx, unitize, unitized_from_json

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200

class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one ``error:`` line, not argparse's usage block
        raise CliError(message)


def _parse_space(text: str | None):
    text = "sparse_seq" if text is None else text.strip()
    try:
        if text.startswith("{"):
            return space_from_json(json.loads(text))
        return space_from_text(text)
    except (json.JSONDecodeError, TrunclatError) as exc:
        raise CliError(f"bad space descriptor: {exc}") from exc


def _parse_trunc(space, text: str | None):
    # a kind named alone is the space's cataloged truncation, the one kind it admits besides a unit's meet
    text = space.trunc_kind if text is None else text.strip()
    if text == space.trunc_kind:
        return cataloged_truncation(space)
    try:
        return truncation_from_json(space, json.loads(text) if text.startswith("{") else {"kind": text})
    except (json.JSONDecodeError, ValueError, TrunclatError) as exc:
        raise CliError(f"bad truncation descriptor: {exc}") from exc


def _run_assertion_file(path: str, cli_lat: Lattice, seed: int, trials: int) -> list[LawReport]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = load_assertion_text(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read assertions file: {exc}") from exc
    except TrunclatError as exc:
        raise CliError(f"bad assertions file: {exc}") from exc
    lat = loaded.ctx or cli_lat
    unitized = isinstance(lat, UnitizationCtx)
    reports = []
    for lineno, assertion in loaded.assertions:
        law_id = f"assert:{lineno:03d}"
        gen = SampleGen(derive_seed(seed, law_id), lat.space)
        # the row reports its own stream seed, as every registered law does, so it replays alone
        names = sorted(free_variables(assertion.lhs) | free_variables(assertion.rhs))
        witness = None
        for _ in range(trials):
            env = {name: (gen.unitized() if unitized else gen.element()) for name in names}
            try:
                outcome = check_assertion(assertion, env, lat)
            except DslError as exc:
                raise CliError(f"assertion at line {lineno} failed to evaluate: {exc}") from exc
            if not outcome.holds:
                witness = {name: lat.to_json(v) for name, v in env.items()}
                break
        if witness is None:
            reports.append(LawReport.passed(law_id, trials, gen.seed))
        else:
            reports.append(LawReport.refuted(law_id, trials, gen.seed, witness))
    return reports


def cmd_check(args) -> int:
    space = _parse_space(args.space)
    trunc = _parse_trunc(space, args.trunc)
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    reports = run_suite(space, trunc, args.seed, args.trials)
    if args.assertions:
        reports = reports + _run_assertion_file(args.assertions, trunc, args.seed, args.trials)
    expected = expected_violations(unitize(trunc))
    if args.format == "json":
        output = reports_to_jsonl(reports)
    else:
        output = render_table(reports, expected)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:
            raise CliError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(output)
    unexpected = [r for r in reports if r.verdict == REFUTED and r.law_id not in expected]
    inconclusive = [r for r in reports if r.verdict == "inconclusive"]
    if inconclusive:
        ids = ", ".join(r.law_id for r in inconclusive)
        print(f"note: {len(inconclusive)} inconclusive report(s): {ids}", file=sys.stderr)
    return 1 if unexpected else 0


def cmd_eval(args) -> int:
    space = _parse_space(args.space)
    trunc = _parse_trunc(space, args.trunc)
    lat = unitize(trunc) if args.unitize else trunc
    env = {}
    for binding in args.bind or ():
        name, sep, payload = binding.partition("=")
        if not sep:
            raise CliError(f"--bind needs name=JSON, got {binding!r}")
        if name in env:
            raise CliError(f"variable {name!r} is bound more than once")
        try:
            obj = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise CliError(f"bad JSON for binding {name!r}: {exc}") from exc
        if args.unitize and isinstance(obj, dict) and ("e" in obj or "lambda" in obj):
            env[name] = unitized_from_json(space, obj)
        else:
            env[name] = element_from_json(space, obj)
    term = parse(args.expr)
    value = evaluate(term, env, lat)
    print(json.dumps(lat.to_json(value), separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# Scripted reproductions
# ---------------------------------------------------------------------------

def _config_context(config: str) -> UnitizationCtx:
    """The ``check --space config`` configuration, with its cataloged truncation."""
    return unitize(_parse_trunc(_parse_space(config), None))


@dataclass(frozen=True)
class PinnedRun:
    """A demonstration that is a run of registered laws on catalog configurations.

    Each run is ``(config, law id, trials, verdict)``: the law runs as ``check
    --space config --seed seed --trials trials`` runs it, and the
    demonstration reproduces only if every law reaches its verdict.  It prints
    the ``check --format table`` rows of each such ``check`` in turn, headed
    by that command line when there is more than one.
    """

    seed: int
    runs: tuple[tuple[str, str, int, str], ...]

    def __call__(self, out) -> bool:
        checks: dict[tuple[str, int], list[LawReport]] = {}
        ok = True
        for config, law_id, trials, verdict in self.runs:
            report = run_law(_config_context(config), law_id, self.seed, trials)
            checks.setdefault((config, trials), []).append(report)
            ok &= report.verdict == verdict
        for (config, trials), reports in checks.items():
            if len(checks) > 1:
                out(f"check --space {config} --seed {self.seed} --trials {trials}")
            out(render_table(reports, expected_violations(_config_context(config))).rstrip("\n"))
        return ok


def _runs(config: str, trials: int, verdicts: dict[str, str]) -> tuple[tuple[str, str, int, str], ...]:
    return tuple((config, law_id, trials, verdict) for law_id, verdict in sorted(verdicts.items()))


_REPROS = {
    # a truncation with the multiples axiom on a base that is not Archimedean
    "lex-trunc-archimedean": PinnedRun(
        1001, _runs("lex_plane", 1000, {"archimedean.space": REFUTED, "tau1": PASS, "tau2": PASS, "tau3": PASS})
    ),
    # an Archimedean base whose identity truncation fails the multiples axiom
    "identity-trunc-tau3": PinnedRun(
        1002, _runs("identity_line", 1000, {"archimedean.space": PASS, "tau1": PASS, "tau2": PASS, "tau3": REFUTED})
    ),
    # the real sequence space c00 is relatively uniformly complete
    "c00-ruc": PinnedRun(1003, _runs("sparse_seq", 1, {"ruc.space": PASS})),
    # its unitization c00 + R1 is Archimedean but not relatively uniformly complete
    "unitization-not-ruc": PinnedRun(
        1004, _runs("sparse_seq", 1, {"archimedean.unitization": PASS, "ruc.unitization": REFUTED})
    ),
    # 10 trials of the supremum form over a non-unital base, the first at x = 1
    "thm33-sup": PinnedRun(1005, _runs("sparse_seq", 200, {"thm33.sup": PASS})),
    # each band law halves its trials: 125 components on each dimension 1..4, and 500 projections
    "band-decomposition": PinnedRun(
        1006,
        tuple((f"finite_pointwise:{dim}", "band.component", 250, PASS) for dim in range(1, 5))
        + (("finite_pointwise:3", "band.project", 1000, PASS),),
    ),
}


def cmd_repro(args) -> int:
    ok = _REPROS[args.id](print)
    print(("REPRODUCED: " if ok else "FAILED: ") + args.id)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trunclat",
        description="Exact law checking for truncated vector lattices and their unitizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the law suite for one configuration")
    check.add_argument("--space", help="sparse_seq | lex_plane | identity_line | finite_pointwise[:N] | JSON")
    check.add_argument("--trunc", help="meet_with_one | lex_meet_zero_one | identity | meet_with_unit | JSON")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default: {DEFAULT_SEED}")
    check.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    check.add_argument("--out", help="write the report here instead of stdout")
    check.add_argument("--format", choices=("json", "table"), default="table")
    check.add_argument("--assertions", help="assertion file to run alongside the suite")
    check.set_defaults(fn=cmd_check)

    evaluate_cmd = sub.add_parser("eval", help="evaluate one expression")
    evaluate_cmd.add_argument("expr")
    evaluate_cmd.add_argument("--bind", action="append", metavar="NAME=JSON")
    evaluate_cmd.add_argument("--space")
    evaluate_cmd.add_argument("--trunc")
    evaluate_cmd.add_argument("--unitize", action="store_true")
    evaluate_cmd.set_defaults(fn=cmd_eval)

    repro = sub.add_parser("repro", help="replay a scripted demonstration")
    repro.add_argument("id", choices=_REPROS, metavar="id", help=" | ".join(_REPROS))
    repro.set_defaults(fn=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # only --help exits: a usage error raises CliError
        return 0
    except (CliError, TrunclatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
