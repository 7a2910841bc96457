"""One workload in one process: timed passes, the correctness gate, optional tracing.

``run.py`` starts this as a child so that its peak RSS belongs to the workload
alone.  It prints one JSON document on stdout.

Untraced (``--trace 0``): passes run back to back until the next one would
end after ``--seconds``, with at least two, so the byte-identity check always
has a second pass.  ``wall_s`` is the median pass time; ``slowest_cmd_s`` is
the largest per-command median over the passes.

Traced (``--trace 1``): untraced and traced passes alternate, starting
untraced, until ``--seconds`` is used up, with at least one untraced and two
traced passes.  Per-layer times are medians over the traced passes; exact
counts must agree between all traced passes, and every traced pass must
reproduce the untraced output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads  # benchmark module next to this file; imports no trunclat code
from workloads import Tally, build, run_pass, verify

sys.path.insert(0, str(workloads.SRC))

LAW_IDS = (
    "archimedean.space", "archimedean.unitization", "band.component", "band.project",
    "chain.decompose", "chain.sup_additivity", "lemma23.self", "lemma54.transfer",
    "prop21", "prop22", "remark34.sup", "tau1", "tau2", "tau3", "thm11.density",
    "thm11.fixedset", "thm11.ideal", "thm11.orthocomplement", "thm31.equivalence",
    "thm33.sup", "thm62.disjoint_scalars", "unitization.abs_lub",
    "unitization.cone_sanity", "unitization.prop21", "unitization.prop22",
    "unitization.tau1", "unitization.tau2", "unitization.triangle",
)
REPRO_IDS = (
    "lex-trunc-archimedean", "identity-trunc-tau3", "c00-ruc",
    "unitization-not-ruc", "thm33-sup", "band-decomposition",
)
CONFIGS = tuple(config for config, _ in workloads.CATALOG)


def _check_pass(commands, outcomes, reference, tally: Tally) -> None:
    for i, (cmd, outcome) in enumerate(zip(commands, outcomes)):
        verify(cmd, outcome, reference[i] if reference else None, tally)


def untraced(workload: str, seed: int, seconds: float) -> dict:
    commands = build(workload, seed)
    tally = Tally()
    passes, reference = [], None
    per_command = {cmd.cid: [] for cmd in commands}
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + passes[-1] <= seconds:
        wall, outcomes = run_pass(commands, seed)
        _check_pass(commands, outcomes, reference, tally)
        reference = reference or outcomes
        passes.append(wall)
        for cmd, outcome in zip(commands, outcomes):
            per_command[cmd.cid].append(outcome.seconds)
    command_medians = {cid: statistics.median(times) for cid, times in per_command.items()}
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "pass_seconds": passes,
        "command_median_seconds": command_medians,
        "metrics": {
            "wall_s": statistics.median(passes),
            "slowest_cmd_s": max(command_medians.values()),
        },
    }


def traced(workload: str, seed: int, seconds: float, trace_path: Path) -> dict:
    from tracer import Tracer

    commands = build(workload, seed)
    tally = Tally()
    plain, traced_walls, samples, reference = [], [], [], None
    last = None
    start = time.perf_counter()
    while True:
        plain_next = len(plain) <= len(samples)
        if plain and len(samples) >= 2:
            estimate = plain[-1] if plain_next else traced_walls[-1]
            if time.perf_counter() - start + estimate > seconds:
                break
        if plain_next:
            wall, outcomes = run_pass(commands, seed)
            plain.append(wall)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                wall, outcomes = run_pass(commands, seed, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            samples.append(layer_metrics(tracer, commands))
            last = tracer
        _check_pass(commands, outcomes, reference, tally)
        reference = reference or outcomes
    per_layer = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if is_count(name):
            if len(set(values)) != 1:
                tally.fail(1, f"exact count {name} differs between traced passes: {values}")
            per_layer[name] = values[0]
        else:
            per_layer[name] = statistics.median(values)
    per_layer["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain)
    last.dump(trace_path, {"workload": workload, "seed": seed, "commands": [c.cid for c in commands]})
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "pass_seconds": plain,
        "traced_pass_seconds": traced_walls,
        "trace_file": str(trace_path),
        "metrics": per_layer,
    }


def is_count(name: str) -> bool:
    """Whether a per-layer metric is an exact count, which must repeat for a fixed seed."""
    return name.endswith((".calls", ".ops", ".corners", ".pairs", ".draws", ".spans",
                          ".max_support", ".max_bits")) or name.startswith("engine.verdict.")


def layer_metrics(tracer, commands) -> dict:
    """Every per-layer metric of one traced pass, by name.

    ``<item>.ops`` counts the traced calls made inside a law run or a command;
    it is the exact counterpart of the item's time ``<item>.s``.
    """
    m: dict[str, float | int] = {}
    totals = tracer.layer_totals()
    counts = tracer.counts
    for layer in ("spaces", "unitization", "truncation", "sampling", "engine", "dsl",
                  "report", "rational", "cli"):
        m[f"{layer}.self_s"] = totals[layer][1]

    spaces = tracer.function_totals("spaces")
    m["spaces.calls"] = totals["spaces"][0]
    for op in ("add", "scale", "leq", "join", "meet", "zero"):
        m[f"spaces.{op}.calls"] = spaces.get(op, [0])[0]
    for name, (calls, own) in tracer.space_self.items():
        m[f"spaces.{name}.calls"] = calls
        m[f"spaces.{name}.us_per_op"] = own / calls * 1e6 if calls else 0.0
    m["spaces.max_support"] = tracer.max_support
    m["spaces.max_bits"] = tracer.max_bits

    unit = tracer.function_totals("unitization")
    for fn in ("abs_u", "is_positive", "meet_u", "join_u", "truncate_u"):
        m[f"unitization.{fn}.calls"] = unit.get(fn, [0])[0]
    calls, seconds = unit.get("abs_u", [0, 0.0])[:2]
    m["unitization.abs_u.us_per_call"] = seconds / calls * 1e6 if calls else 0.0

    m["truncation.truncate.calls"] = tracer.function_totals("truncation").get("truncate", [0])[0]
    m["sampling.draws"] = counts.get("sampling.draws", 0)

    engine = tracer.function_totals("engine")
    for law_id in LAW_IDS:
        row = engine.get("law:" + law_id, [0, 0.0, 0.0, 0])
        m[f"engine.law.{law_id}.s"] = row[1]
        m[f"engine.law.{law_id}.ops"] = row[3]
    for verdict in ("pass", "refuted_expected", "inconclusive"):
        m[f"engine.verdict.{verdict}"] = counts.get("engine.verdict." + verdict, 0)
    m["engine.band_oracle.corners"] = counts.get("engine.band_oracle.corners", 0)
    m["engine.uniform_cauchy.pairs"] = counts.get("engine.uniform_cauchy.evals", 0) // 2
    m["engine.harmonic_prefix.calls"] = engine.get("harmonic_prefix", [0])[0]

    by_command = tracer.function_totals("command")
    for config in CONFIGS:
        rows = [by_command[c.cid] for c in commands if c.kind == "check" and c.label == config]
        m[f"cli.check.{config}.s"] = sum(row[1] for row in rows)
        m[f"cli.check.{config}.ops"] = sum(row[3] for row in rows)
    for rid in REPRO_IDS:
        row = by_command.get(f"repro:{rid}", [0, 0.0, 0.0, 0])
        m[f"cli.repro.{rid}.s"] = row[1]
        m[f"cli.repro.{rid}.ops"] = row[3]

    dsl = tracer.function_totals("dsl")
    m["dsl.load.calls"] = dsl.get("load_assertion_text", [0])[0]
    m["dsl.check_assertion.calls"] = dsl.get("check_assertion", [0])[0]
    m["trace.spans"] = tracer.span_count
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, args.trace_file)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
