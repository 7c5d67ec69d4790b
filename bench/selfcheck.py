"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python -m bench.selfcheck [--seed N] [--seconds S]

Runs the full benchmark twice, prints per workload x metric both values,
their relative difference and the bound, and exits non-zero if any pair
disagrees by more than its bound.  A bound that fails here on a quiet
machine is too tight: widen that bound in ``bench/metrics.py`` (and
``BENCHMARK.json``) and write the measured spread in ``bench/README.md``
— do not switch statistic.
"""

from __future__ import annotations

import argparse
import sys

from .metrics import END_TO_END, RUN_SECONDS
from .run import run_workloads
from .workloads import WORKLOADS

__all__ = ["compare", "main"]


def compare(first: dict, second: dict) -> list[tuple[str, str, float, float, float, float]]:
    """Rows of (workload, metric, first, second, relative difference,
    bound) for two ``run_workloads`` results."""
    rows = []
    for name, w in first["workloads"].items():
        for m in END_TO_END:
            a = w["metrics"][m.name]
            b = second["workloads"][name]["metrics"][m.name]
            rows.append((name, m.name, a, b, abs(b - a) / abs(a), m.bound))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.selfcheck", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args(argv)
    sets = [run_workloads(list(WORKLOADS), args.seed, args.seconds) for _ in range(2)]
    failed_ops = sum(w["failed"] for s in sets for w in s["workloads"].values())
    rows = compare(*sets)
    print(f"{'workload':<18}{'metric':<32}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}")
    for workload, metric, a, b, diff, bound in rows:
        verdict = "" if diff <= bound else "  DISAGREE"
        print(f"{workload:<18}{metric:<32}{a:>12.6g}{b:>12.6g}{diff:>9.2%}{bound:>8.0%}{verdict}")
    disagree = sum(diff > bound for *_, diff, bound in rows)
    print(f"{disagree} of {len(rows)} pairs disagree beyond their bound; {failed_ops} failed ops")
    return 1 if disagree or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
