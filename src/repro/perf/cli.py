"""``python -m repro.perf`` — play the workload table on the sim plane, or check it.

Typical loop::

    # the gate: re-run at the baseline's seed and size class, exit 1
    # and print every path that differs from the committed baseline
    python -m repro.perf check

    # measure the sim plane (deterministic: two runs, identical files)
    python -m repro.perf run --out results/perf/BENCH.json

    # a change that moves the sim plane on purpose re-pins the baseline;
    # its diff is the list of numbers that moved
    python -m repro.perf run --out src/repro/perf/baseline.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ..experiments.perfbench import suite, summary
from .artifact import ArtifactError, build_artifact, check, dump_artifact, load_artifact

__all__ = ["main", "DEFAULT_BASELINE", "DEFAULT_OUT"]

#: The committed baseline, beside this module.
DEFAULT_BASELINE = pathlib.Path(__file__).with_name("baseline.json")
DEFAULT_OUT = pathlib.Path("results/perf/BENCH.json")


def _cmd_run(args: argparse.Namespace) -> int:
    arms = suite(args.seed, fast=args.fast)
    dump_artifact(build_artifact(arms, args.seed, args.fast), args.out)
    print(summary(arms))
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

    run_p = sub.add_parser("run", help="play the workload table, write one artifact")
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
        help="baseline artifact (default: the committed one)",
    )
    chk_p.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
