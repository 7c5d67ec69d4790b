"""Experiment registry and CLI.

``python -m repro.experiments.registry [names...] [--fast] [--seed N]``
runs the requested reproductions (all of them by default) and prints
each one's table and shape checks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable

from .base import ExperimentResult
from . import (
    ablations,
    crossplane,
    faultsweep,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    internode,
    llm_cadence,
    perfbench,
    restart,
    restart_storm,
    table1,
    table2,
    tenant_storm,
)

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "fig3": fig3.run,
    "fig5": fig5.run,
    "table2": table2.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    # beyond the numbered artifacts:
    "restart": restart.run,  # Section V-F claim
    "internode": internode.run,  # Section VII future work, prototyped
    "ablations": ablations.run,  # Section V-B and the design's alternatives
    "crossplane": crossplane.run,  # repo artifact: shared-kernel parity
    "faultsweep": faultsweep.run,  # repo artifact: writeback resilience
    "perfbench": perfbench.run,  # repo artifact: perf-regression gate
    "tenant_storm": tenant_storm.run,  # repo artifact: multi-tenant isolation
    "restart_storm": restart_storm.run,  # repo artifact: mass concurrent restore
    "llm_cadence": llm_cadence.run,  # repo artifact: incremental checkpoint cadence
}


def run_experiment(name: str, seed: int = 2011, fast: bool = False) -> ExperimentResult:
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; know {sorted(EXPERIMENTS)}"
        ) from None
    return fn(seed=seed, fast=fast)


def export_result(result: ExperimentResult, out_dir: pathlib.Path) -> None:
    """Write one experiment's report (.txt) and data (.json) to disk."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{result.name}.txt").write_text(result.render() + "\n")
    payload = {
        "name": result.name,
        "title": result.title,
        "ok": result.ok,
        "measured": result.measured,
        "paper": result.paper,
        "checks": [
            {"description": c.description, "passed": c.passed, "detail": c.detail}
            for c in result.checks
        ],
    }
    (out_dir / f"{result.name}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", default=[], help="experiments to run")
    parser.add_argument("--fast", action="store_true", help="reduced problem sizes")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to export per-experiment .txt and .json reports",
    )
    args = parser.parse_args(argv)
    names = args.names or list(EXPERIMENTS)
    failures = 0
    for name in names:
        result = run_experiment(name, seed=args.seed, fast=args.fast)
        print(result.render())
        print()
        if args.out is not None:
            export_result(result, args.out)
        if not result.ok:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) with failing shape checks", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
