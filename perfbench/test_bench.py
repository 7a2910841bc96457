"""Tests of the benchmark itself: exact counts repeat per seed and move with it.

    python3 -m pytest -q perfbench/test_bench.py

Each traced ``catalog_check`` pass takes roughly 15 s on a 2-core machine.
"""

from __future__ import annotations

import json
import sys

import pytest

import worker  # puts src/ on sys.path
import workloads
from tracer import Tracer


def traced_counts(workload: str, seed: int) -> dict:
    """The exact counts of one traced pass, after the pass's outputs passed the gate."""
    commands = workloads.build(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        _, outcomes = workloads.run_pass(commands, seed, tracer)
    finally:
        tracer.uninstall()
    tally = workloads.Tally()
    for cmd, outcome in zip(commands, outcomes):
        workloads.verify(cmd, outcome, None, tally)
    assert tally.failed == 0, tally.problems
    metrics = worker.layer_metrics(tracer, commands)
    return {name: value for name, value in metrics.items() if worker.is_count(name)}


@pytest.fixture(scope="module")
def catalog_counts():
    """Two traced catalog_check passes with seed 7 and one with seed 8."""
    return [traced_counts("catalog_check", seed) for seed in (7, 7, 8)]


def test_exact_counts_repeat_for_the_same_seed(catalog_counts):
    first, second, _ = catalog_counts
    assert first == second
    assert first["spaces.calls"] > 0 and first["dsl.check_assertion.calls"] > 0


def test_exact_counts_move_with_the_seed(catalog_counts):
    first, _, other = catalog_counts
    changed = [name for name in first if first[name] != other[name]]
    assert "spaces.calls" in changed and "sampling.draws" in changed


def test_tracer_restores_every_binding():
    import trunclat.engine as engine
    import trunclat.spaces as spaces
    from trunclat.sampling import SampleGen

    before = (spaces.add, engine.REGISTRY, SampleGen.element, sys.modules["trunclat.truncation"].truncate)
    tracer = Tracer()
    tracer.install()
    assert spaces.add is not before[0] and engine.REGISTRY is not before[1]
    tracer.uninstall()
    after = (spaces.add, engine.REGISTRY, SampleGen.element, sys.modules["trunclat.truncation"].truncate)
    assert all(a is b for a, b in zip(before, after))


def test_same_seed_same_commands_and_readme_table():
    assert workloads.build("repro", 3) == workloads.build("repro", 3)
    assert workloads.build("catalog_check", 3) != workloads.build("catalog_check", 4)
    assert len(workloads.readme_hashes()) == 6


def test_every_declared_per_layer_metric_is_computed():
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set(worker.layer_metrics(Tracer(), []))
    names.add("trace.overhead_ratio")
    assert {m["name"] for m in declared["per_layer"]} <= names
