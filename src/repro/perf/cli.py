"""``python -m repro.perf`` — run / compare / check / update the baseline.

Typical loop::

    # structural gate: the committed baseline covers every scenario
    python -m repro.perf check-baseline

    # measure the sim plane (deterministic, so it can gate CI)
    python -m repro.perf run --out results/perf

    # gate: nonzero exit when any metric regresses
    python -m repro.perf compare results/perf/BENCH_*.json

    # a PR that intentionally shifts perf re-pins the baseline
    python -m repro.perf update-baseline
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any

from ..util.tables import TextTable
from .compare import compare_artifacts, render_report
from .runner import run_suite
from .scenarios import SCENARIOS
from .schema import (
    REQUIRED_METRICS,
    ArtifactError,
    artifact_filename,
    build_artifact,
    dump_artifact,
    load_artifact,
)

__all__ = ["main", "check_baseline", "DEFAULT_BASELINE", "DEFAULT_OUT_DIR"]

DEFAULT_BASELINE = pathlib.Path("benchmarks/baselines/baseline.json")
DEFAULT_OUT_DIR = pathlib.Path("results/perf")


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


def _load(path: pathlib.Path, what: str) -> dict[str, Any] | None:
    """Load an artifact, or report why not on stderr (the exit-2 cases)."""
    try:
        return load_artifact(path)
    except ArtifactError as exc:
        print(f"cannot load {what}: {exc}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = run_suite(args.seed, fast=args.fast, scenario_names=args.scenario)
    artifact = build_artifact(scenarios, seed=args.seed, fast=args.fast)
    out = args.out / artifact_filename(artifact["created"])
    dump_artifact(artifact, out)
    print(_summary_table(scenarios))
    print(f"\nwrote {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    new = _load(args.artifact, "artifact")
    baseline = _load(args.baseline, "baseline")
    if new is None or baseline is None:
        return 2
    report = compare_artifacts(new, baseline)
    print(render_report(report, verbose=args.verbose))
    return 0 if report.ok else 1


def check_baseline(baseline: dict[str, Any]) -> list[str]:
    """Structural sanity of a committed baseline; returns problems.

    The metric *values* are the compare gate's business — this guards
    the baseline's shape: every curated scenario present with its
    required metrics, and each subsystem scenario carrying the stats
    section that proves its machinery actually engaged (so a future
    regeneration can't silently pin a baseline where readahead,
    batching, tenancy, tiering, or the restart storm never ran).
    """
    problems: list[str] = []
    scenarios = baseline.get("planes", {}).get("sim", {})
    if not scenarios:
        return ["baseline has no sim plane"]

    for name in SCENARIOS:
        if name not in scenarios:
            problems.append(f"scenario {name!r} missing from the baseline")
            continue
        missing = [k for k in REQUIRED_METRICS if k not in scenarios[name]]
        if missing:
            problems.append(f"{name}: required metric(s) missing: {missing}")
    for name in scenarios:
        if name not in SCENARIOS:
            problems.append(f"baseline pins unknown scenario {name!r}")

    def sub(scenario: str, *path: str) -> Any:
        node: Any = scenarios.get(scenario)
        for key in path:
            if not isinstance(node, dict) or key not in node:
                problems.append(
                    f"{scenario}: missing {'.'.join(path)} in the snapshot"
                )
                return None
            node = node[key]
        return node

    read = sub("restart_readahead", "stats", "read")
    if read is not None and not (read.get("prefetched", 0) > 0):
        problems.append("restart_readahead: no prefetches in the baseline")

    def fetched_once(scenario: str, read: Any) -> None:
        # A sequential restore that wastes a prefetch fetched a chunk
        # twice: the window evicted its own unread prefetch.
        if read is not None and read.get("prefetch_wasted", 0) != 0:
            problems.append(
                f"{scenario}: {read['prefetch_wasted']} prefetch(es) wasted — "
                "a sequential restore must fetch every chunk once"
            )

    fetched_once("restart_readahead", read)

    batch = sub("batched_writeback", "stats", "batch")
    if batch is not None and not (batch.get("batches", 0) > 0):
        problems.append("batched_writeback: the gather never coalesced")

    tenants = sub("tenant_storm", "stats", "tenants")
    if tenants is not None:
        if not {"storm", "alice", "bob"} <= set(tenants):
            problems.append(
                f"tenant_storm: tenants incomplete: {sorted(tenants)}"
            )
        elif not tenants["storm"]["chunks_written"] > 0:
            problems.append("tenant_storm: the storm tenant never drained")

    tiers = sub("tiered_staging", "stats", "tiers")
    if tiers is not None:
        if tiers.get("levels") != 2:
            problems.append(f"tiered_staging: expected 2 tiers: {tiers}")
        else:
            deep = tiers["per_tier"]["1"]
            if not deep["chunks_staged"] > 0:
                problems.append("tiered_staging: nothing reached the deep tier")
            if deep["chunks_stranded"] != 0:
                problems.append("tiered_staging: chunks stranded in staging")

    storm_read = sub("restart_storm", "stats", "read")
    if storm_read is not None:
        for key in ("window_grown", "window_shrunk", "current_window"):
            if key not in storm_read:
                problems.append(
                    f"restart_storm: adaptive counter {key!r} missing"
                )
        if not storm_read.get("prefetched", 0) > 0:
            problems.append("restart_storm: no prefetches in the baseline")
        fetched_once("restart_storm", storm_read)
    if sub("restart_storm", "restore_span_s") is not None:
        if not scenarios["restart_storm"]["restore_span_s"] > 0:
            problems.append("restart_storm: restore_span_s not positive")

    delta = sub("llm_cadence", "stats", "delta")
    if delta is not None:
        if not delta.get("generations", 0) > 0:
            problems.append("llm_cadence: no delta generations committed")
        if not 0 < delta.get("bytes_written", 0) < delta.get("logical_bytes", 0):
            problems.append(
                "llm_cadence: delta bytes_written not strictly below the "
                "full-rewrite logical bytes — the delta path never saved "
                f"anything: {delta}"
            )
        if not delta.get("restores", 0) > 0:
            problems.append("llm_cadence: no chain restore in the baseline")
        if not delta.get("reassembly_reads", 0) > 0:
            problems.append("llm_cadence: restore never read a reassembly run")
    if sub("llm_cadence", "restore_span_s") is not None:
        if not scenarios["llm_cadence"]["restore_span_s"] > 0:
            problems.append("llm_cadence: restore_span_s not positive")

    mem = sub("zero_copy", "stats", "mem")
    if mem is not None:
        zc = scenarios["zero_copy"]
        for key in ("bytes_copied", "copies", "copy_ratio"):
            if key not in zc:
                problems.append(f"zero_copy: copy metric {key!r} missing")
        if mem.get("bytes_copied") != zc["bytes_in"]:
            problems.append(
                "zero_copy: the sequential write path must pay exactly one "
                f"copy per ingested byte (bytes_copied {mem.get('bytes_copied')} "
                f"!= bytes_in {zc['bytes_in']})"
            )
        by_site = mem.get("by_site", {})
        for site in ("read_boundary", "fetch"):
            if by_site.get(site, {}).get("bytes", 0) != 0:
                problems.append(
                    f"zero_copy: write-only scenario recorded {site} copies: "
                    f"{by_site.get(site)}"
                )

    return problems


def _cmd_check_baseline(args: argparse.Namespace) -> int:
    baseline = _load(args.baseline, "baseline")
    if baseline is None:
        return 2
    problems = check_baseline(baseline)
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    names = sorted(baseline["planes"]["sim"])
    print(
        f"baseline ok: {len(names)} scenario(s) "
        f"[{', '.join(names)}] with required metrics and stats sections"
    )
    return 0


def _cmd_update_baseline(args: argparse.Namespace) -> int:
    if args.from_artifact is not None:
        artifact = _load(args.from_artifact, "artifact")
        if artifact is None:
            return 2
    else:
        scenarios = run_suite(args.seed, fast=args.fast)
        artifact = build_artifact(scenarios, seed=args.seed, fast=args.fast)
    dump_artifact(artifact, args.baseline)
    print(f"baseline updated: {args.baseline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the scenario set, emit BENCH_*.json")
    run_p.add_argument("--seed", type=int, default=2011)
    run_p.add_argument("--fast", action="store_true", help="reduced image sizes")
    run_p.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    run_p.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT_DIR,
        help=f"artifact directory (default: {DEFAULT_OUT_DIR})",
    )
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="diff an artifact against the baseline; exit 1 on regression"
    )
    cmp_p.add_argument("artifact", type=pathlib.Path, help="BENCH_*.json to judge")
    cmp_p.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help=f"baseline artifact (default: {DEFAULT_BASELINE})",
    )
    cmp_p.add_argument(
        "--verbose", action="store_true", help="show all metrics, not just drift"
    )
    cmp_p.set_defaults(fn=_cmd_compare)

    chk_p = sub.add_parser(
        "check-baseline",
        help="verify the committed baseline covers every scenario; exit 1 if not",
    )
    chk_p.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help=f"baseline artifact (default: {DEFAULT_BASELINE})",
    )
    chk_p.set_defaults(fn=_cmd_check_baseline)

    up_p = sub.add_parser(
        "update-baseline", help="re-pin the committed baseline"
    )
    up_p.add_argument("--seed", type=int, default=2011)
    up_p.add_argument("--fast", action="store_true")
    up_p.add_argument(
        "--from-artifact", type=pathlib.Path, default=None, metavar="PATH",
        help="promote an existing artifact instead of re-running",
    )
    up_p.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help=f"baseline path to write (default: {DEFAULT_BASELINE})",
    )
    up_p.set_defaults(fn=_cmd_update_baseline)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
