"""Every committed ``BENCH_*.json`` covers what ``BENCHMARK.json`` declares.

A ``BENCH_*.json`` records, for the commit before a change and for the
change, the end-to-end metrics of every benchmark workload as the median and
quartiles of alternating runs, together with the metadata needed to rerun
them.  Only ``BENCHMARK.json`` is read to know the workloads and metrics.
"""

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
