"""Every committed ``BENCH_*.json`` covers what ``BENCHMARK.json`` declares.

A ``BENCH_*.json`` records, for the commit before a change and for the
change, the end-to-end metrics of every benchmark workload as the median and
quartiles of alternating runs, together with the metadata needed to rerun
them.  Only ``BENCHMARK.json`` is read to know the workloads and metrics.

The benchmark's own files under ``perfbench/`` change only together with the
benchmark, so the names they import from ``trunclat`` and the calls they make
are checked here, where a refactor of the package runs them.
"""

import ast
import importlib
import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_covers_the_declared_benchmark(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    meta = doc["meta"]
    assert isinstance(meta["python"], str) and meta["python"]
    assert isinstance(meta["nproc"], int) and meta["nproc"] > 0
    assert isinstance(meta["seconds"], numbers.Real) and meta["seconds"] > 0
    for workload in DECLARED["workloads"]:
        entry = doc["workloads"][workload["name"]]
        assert isinstance(entry["pairs"], int) and entry["pairs"] > 0
        assert len(entry["seeds"]) == entry["pairs"]
        for metric in DECLARED["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            for side in SIDES:
                stats = row[side]
                q1, median, q3 = stats["q1"], stats["median"], stats["q3"]
                assert all(isinstance(v, numbers.Real) for v in (q1, median, q3))
                assert q1 <= median <= q3, (workload["name"], metric["name"], side)


def _trunclat_imports():
    """(file, module, name) for each ``from trunclat.<module> import name`` in ``perfbench/``."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trunclat."):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_name_the_benchmark_imports_resolves():
    found = list(_trunclat_imports())
    assert found
    for filename, module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{filename}: {module}.{name}"


def test_the_benchmark_calls_keep_their_signatures():
    import trunclat
    from trunclat.engine import LawContext, catalog, expected_violations, run_suite
    from trunclat.spaces import FinitePointwise, fp_const
    from trunclat.truncation import MeetWithUnit, truncation

    # workloads.py: the wide_pointwise context and its expected refutations
    space = FinitePointwise(2)
    ctx = LawContext(space, truncation(space, MeetWithUnit(fp_const(2, 1))))
    assert trunclat.LawContext is LawContext
    assert expected_violations(ctx) == frozenset()
    # crosscheck.py: run_suite(space, trunc, seed, trials) on each catalog configuration
    for ctx in catalog().values():
        assert run_suite(ctx.space, ctx.trunc, 42, 1)
