"""Batch command-line front end.

Three subcommands: ``check`` runs the law suite (plus optional assertion
files) for one space/truncation configuration and emits JSON lines or a
table; ``eval`` parses and evaluates one expression against JSON bindings;
``repro`` replays the named scripted demonstrations with pinned seeds.  A
demonstration decides nothing itself: a :class:`PinnedRun` is a run of
registered laws, and the others print reports of engine routines.

Exit codes: 0 on success (counterexamples predicted by the theory are
reported but do not fail the run), 1 on an unexpected refutation, 2 on a
configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .dsl import (
    Lattice,
    check_assertion,
    evaluate,
    free_variables,
    load_assertion_text,
    parse,
)
from .engine import (
    catalog,
    cataloged_truncation,
    default_certified_fixtures,
    default_limit_candidates,
    derive_seed,
    expected_violations,
    repro_c00_ruc,
    repro_example43,
    run_law,
    run_suite,
)
from .errors import DslError, TrunclatError
from .report import PASS, REFUTED, LawReport, render_table, reports_to_jsonl
from .sampling import SampleGen
from .spaces import FinitePointwise, SparseSeq, element_from_json, space_from_json
from .truncation import truncation_from_json
from .unitization import UnitizationCtx, unitize, unitized_from_json

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200

class CliError(Exception):
    pass


def _parse_space(text: str | None):
    if text is None:
        return SparseSeq()
    text = text.strip()
    try:
        if text.startswith("{"):
            return space_from_json(json.loads(text))
    except (json.JSONDecodeError, TrunclatError) as exc:
        raise CliError(f"bad space descriptor: {exc}") from exc
    name, _, arg = text.partition(":")
    if name in ("sparse_seq", "lex_plane", "identity_line"):
        return space_from_json({"space": name})
    if name == "finite_pointwise":
        try:
            return FinitePointwise(int(arg) if arg else 3)
        except ValueError as exc:
            raise CliError(f"bad dimension {arg!r}") from exc
    raise CliError(f"unknown space {text!r}")


def _parse_trunc(space, text: str | None):
    if text is None:
        return cataloged_truncation(space)
    text = text.strip()
    try:
        if text.startswith("{"):
            return truncation_from_json(space, json.loads(text))
        if text in ("meet_with_one", "lex_meet_zero_one", "identity"):
            return truncation_from_json(space, {"kind": text})
        if text == "meet_with_unit":
            if isinstance(space, FinitePointwise):
                return cataloged_truncation(space)
            raise CliError(
                "meet_with_unit needs an explicit unit on this space; pass a JSON descriptor"
            )
    except (json.JSONDecodeError, ValueError, TrunclatError) as exc:
        raise CliError(f"bad truncation descriptor: {exc}") from exc
    raise CliError(f"unknown truncation {text!r}")


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

@dataclass(frozen=True)
class PinnedRun:
    """A demonstration that is one run of registered laws on a catalog configuration.

    It prints the ``check --format table`` rows of its laws at its seed and
    trial count, and reproduces only if every law reaches its verdict.
    """

    config: str
    seed: int
    trials: int
    verdicts: dict[str, str]  # law id -> the verdict the demonstration expects

    def reports(self, ctx: UnitizationCtx) -> list[LawReport]:
        return [run_law(ctx, law_id, self.seed, self.trials) for law_id in sorted(self.verdicts)]

    def __call__(self, out) -> bool:
        ctx = catalog()[self.config]
        reports = self.reports(ctx)
        out(render_table(reports, expected_violations(ctx)).rstrip("\n"))
        return all(r.verdict == self.verdicts[r.law_id] for r in reports)


def _repro_c00_ruc(out) -> bool:
    report = repro_c00_ruc(default_certified_fixtures(), seed=1003)
    out(f"certified limits extracted and re-verified: {report.verdict} ({report.detail})")
    return report.ok and report.verdict == "pass"


def _repro_unitization_not_ruc(out) -> bool:
    ctx = catalog()["sparse_seq"]
    report = repro_example43(
        ctx,
        [Fraction(1, 10), Fraction(1, 100)],
        window=50,
        candidates=default_limit_candidates(),
        seed=1004,
    )
    out(f"uniform-Cauchy windows and candidate refutations: {report.verdict} ({report.detail})")
    return report.verdict == "pass"


def _repro_band_decomposition(out) -> bool:
    seed, total = 1006, 500
    # each band law halves its trials: 125 components on each dimension 1..4, and 500 projections
    components = [run_law(catalog(d)["finite_pointwise"], "band.component", seed, 250) for d in range(1, 5)]
    projection = run_law(catalog()["finite_pointwise"], "band.project", seed, 2 * total)
    matched = sum(r.trials for r in components if r.verdict == "pass")
    good = projection.trials if projection.verdict == "pass" else 0
    out(f"band components matching the corner-join oracle: {matched}/{total}")
    out(f"unitized band projections disjoint, summing, and member-checked: {good}/{total}")
    return matched == total and good == total


_REPROS = {
    # a truncation with the multiples axiom on a base that is not Archimedean
    "lex-trunc-archimedean": PinnedRun(
        "lex_plane", 1001, 1000, {"archimedean.space": REFUTED, "tau1": PASS, "tau2": PASS, "tau3": PASS}
    ),
    # an Archimedean base whose identity truncation fails the multiples axiom
    "identity-trunc-tau3": PinnedRun(
        "identity_line", 1002, 1000, {"archimedean.space": PASS, "tau1": PASS, "tau2": PASS, "tau3": REFUTED}
    ),
    "c00-ruc": _repro_c00_ruc,
    "unitization-not-ruc": _repro_unitization_not_ruc,
    # 10 trials of the supremum form over a non-unital base, the first at x = 1
    "thm33-sup": PinnedRun("sparse_seq", 1005, 200, {"thm33.sup": PASS}),
    "band-decomposition": _repro_band_decomposition,
}

REPRO_IDS = tuple(_REPROS)


def cmd_repro(args) -> int:
    if args.id not in _REPROS:
        raise CliError(f"unknown reproduction id {args.id!r}; known: {', '.join(REPRO_IDS)}")
    lines = []

    def out(text: str) -> None:
        lines.append(text)

    ok = _REPROS[args.id](out)
    for text in lines:
        print(text)
    print(("REPRODUCED: " if ok else "FAILED: ") + args.id)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    repro.add_argument("id", help=" | ".join(REPRO_IDS))
    repro.set_defaults(fn=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, TrunclatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
