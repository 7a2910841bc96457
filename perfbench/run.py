"""trunclat benchmark entry point.

    python3 perfbench/run.py --workload catalog_check --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  With ``--trace 0`` it measures set-up time
over several fresh interpreters, then runs the workload untraced in a child
process and prints the end-to-end metrics.  With ``--trace 1`` the child
alternates untraced and traced passes and the per-layer metrics are printed.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
metadata, which also goes to ``perfbench/out/`` together with the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # benchmark module next to this file; imports no trunclat code

HERE = Path(__file__).resolve().parent
ROOT, SRC = workloads.ROOT, workloads.SRC
OUT = HERE / "out"

SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170.0
SETUP_CODE = (
    "import sys\n"
    "import trunclat.cli\n"
    "trunclat.cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TRUNCLAT_SEED", None)
    # Set-up time is measured with the bytecode cache, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh_import_seconds(env: dict) -> float:
    """Seconds from spawning an interpreter until ``trunclat.cli`` is imported and its parser built."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code})")
    return elapsed


def measure_setup(env: dict) -> list[float]:
    fresh_import_seconds(env)  # fills the bytecode cache, which users do not pay for again
    return [fresh_import_seconds(env) for _ in range(SETUP_RUNS)]


def run_worker(args, env: dict, trace_file: Path) -> tuple[int, dict | None, str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1, None, "worker timed out"
    if proc.returncode != 0:
        return proc.returncode, None, err
    return 0, json.loads(out.strip().splitlines()[-1]), err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trunclat benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trunclat" / "__init__.py").is_file() or not (ROOT / "README.md").is_file():
        print(f"error: {ROOT} is not a trunclat source checkout (src/trunclat and README.md needed)",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)

    env = child_env()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    setup = [] if args.trace else measure_setup(env)
    code, result, err = run_worker(args, env, OUT / f"trace-{stem}.json")
    if result is None:
        sys.stderr.write(err)
        print(f"error: workload child failed (exit {code})", file=sys.stderr)
        return 1

    if args.trace:
        values = result["metrics"]
        wanted = declared["per_layer"]
    else:
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_size": workloads.INPUT_SIZES[args.workload],
        "setup_seconds": setup,
        "run_seconds": time.perf_counter() - started,
        "worker": {k: v for k, v in result.items() if k != "metrics"},
    }
    if args.trace:
        # Per-item times (per law, per command, DSL, per space) exist only on the
        # workloads that reach the item, so they are kept here, not in the result.
        declared_names = {m["name"] for m in wanted}
        meta["layer_detail"] = {k: v for k, v in values.items() if k not in declared_names}
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    with open(OUT / f"run-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics}, handle, indent=1)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
