"""Re-measure the ROADMAP re-anchor figures, printed next to the ROADMAP's numbers.

    python3 perfbench/crosscheck.py [--repeat K]

These are single configurations outside the benchmark's workloads: the suite
at trials 1000, one repro and one wide pointwise check.  Each figure is the
median of K runs (default 1); the two CLI figures are whole ``trunclat``
processes, as a user starts them.  Takes about 20 s per repeat on a 2-core
machine.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

from run import SRC, child_env

sys.path.insert(0, str(SRC))

# Figures from the ROADMAP re-anchor: a 2-core machine, Python 3.11.7, single
# runs, +-15%.
ROADMAP_BASELINE = {
    "run_suite, 4 catalog configs, seed 42, trials 1000": "9.5 s",
    "trunclat repro unitization-not-ruc": "3.1 s",
    "trunclat check --space finite_pointwise:16 --trials 40": "2.8 s",
}


def suite_seconds() -> float:
    from trunclat.engine import catalog, run_suite

    start = time.perf_counter()
    for ctx in catalog().values():
        run_suite(ctx.space, ctx.trunc, 42, 1000)
    return time.perf_counter() - start


def cli_seconds(*argv: str) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "trunclat.cli", *argv],
        check=True, stdout=subprocess.DEVNULL, env=child_env(), timeout=170,
    )
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    figures = dict(zip(ROADMAP_BASELINE, (
        suite_seconds,
        lambda: cli_seconds("repro", "unitization-not-ruc"),
        lambda: cli_seconds("check", "--space", "finite_pointwise:16", "--trials", "40", "--seed", "42"),
    )))
    print(f"{'figure':58s} {'ROADMAP':>8s} {'measured':>9s}")
    for name, measure in figures.items():
        seconds = statistics.median(measure() for _ in range(args.repeat))
        print(f"{name:58s} {ROADMAP_BASELINE[name]:>8s} {seconds:8.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
