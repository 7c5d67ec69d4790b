"""``python -m repro.perf`` — run the sim-plane suite, or check it.

Typical loop::

    # the gate: re-run at the baseline's seed and size class, exit 1
    # and print every path that differs from the committed baseline
    python -m repro.perf check

    # measure the sim plane (deterministic: two runs, identical files)
    python -m repro.perf run --out results/perf/BENCH.json

    # a PR that moves the sim plane on purpose re-pins the baseline;
    # its diff is the list of numbers that moved
    python -m repro.perf run --out benchmarks/baselines/baseline.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any

from ..util.tables import TextTable
from .artifact import ArtifactError, build_artifact, check, dump_artifact, load_artifact
from .runner import run_suite

__all__ = ["main", "DEFAULT_BASELINE", "DEFAULT_OUT"]

DEFAULT_BASELINE = pathlib.Path("benchmarks/baselines/baseline.json")
DEFAULT_OUT = pathlib.Path("results/perf/BENCH.json")


def _summary_table(scenarios: dict[str, Any]) -> str:
    table = TextTable(
        ["scenario", "goodput MiB/s", "write p50 s", "write p95 s", "chunks", "drain s"],
        title="Perf harness run (sim plane)",
    )
    for name, m in scenarios.items():
        table.add_row(
            [
                name,
                f"{m['goodput_mib_s']:.2f}",
                f"{m['write_latency_p50_s']:.2e}",
                f"{m['write_latency_p95_s']:.2e}",
                str(m["chunks_written"]),
                f"{m['drain_time_s']:.2e}",
            ]
        )
    return table.render()


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = run_suite(args.seed, fast=args.fast)
    dump_artifact(build_artifact(scenarios, args.seed, args.fast), args.out)
    print(_summary_table(scenarios))
    print(f"\nwrote {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        baseline = load_artifact(args.baseline)
    except ArtifactError as exc:
        print(f"cannot load baseline: {exc}", file=sys.stderr)
        return 2
    differences = check(baseline)
    for line in differences:
        print(line)
    what = f"{args.baseline} (seed {baseline['seed']}, fast {baseline['fast']})"
    if differences:
        print(f"check: FAIL, {len(differences)} path(s) differ from {what}")
        return 1
    print(f"check: PASS, planes equal to {what}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the scenario set, write one artifact")
    run_p.add_argument("--seed", type=int, default=2011)
    run_p.add_argument("--fast", action="store_true", help="reduced image sizes")
    run_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"artifact file to write (default: {DEFAULT_OUT})",
    )
    run_p.set_defaults(fn=_cmd_run)

    chk_p = sub.add_parser(
        "check", help="re-run at the baseline's seed; exit 1 if any number differs"
    )
    chk_p.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=DEFAULT_BASELINE,
        help=f"baseline artifact (default: {DEFAULT_BASELINE})",
    )
    chk_p.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
