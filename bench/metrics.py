"""Metric definitions and how each is computed from the rounds.

The names, units, directions and bounds here are the benchmark's
contract; ``BENCHMARK.json`` at the repo root is :func:`manifest`
written out (a test keeps the two equal).  Later issues cite these
names.

Every time metric is the **lower quartile over all timed epochs of all
rounds**: host interference only ever adds time, so a low quantile
estimates the program where a median drifts with the host.  Set-up time
is the **minimum** over the fresh launches, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.units import MiB
from repro.util.stats import percentile

from .workloads import WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "Metric", "end_to_end", "manifest", "per_layer"]

#: Default ``--seconds``: timed seconds per run, split evenly over the rounds.
RUN_SECONDS = 15


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: Share of the parent's median by which the metric may worsen before
    #: it counts as a regression (end-to-end metrics only).
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("epoch_s", "s", "lower", 0.25),
    Metric("goodput_mib_s", "MiB/s", "higher", 0.25),
    Metric("epoch_cpu_s", "s", "lower", 0.25),
    Metric("backend_ops_per_epoch", "count", "lower", 0.02),
    Metric("backend_bytes_per_logical_byte", "ratio", "lower", 0.02),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
)

#: Counts and seconds are **per timed epoch** of the traced round.
PER_LAYER: tuple[Metric, ...] = (
    Metric("core.handle.write_calls", "count", "lower"),
    Metric("core.handle.write_s", "s", "lower"),
    Metric("core.handle.write_self_s", "s", "lower"),
    Metric("core.handle.write_p99_us", "us", "lower"),
    Metric("pipeline.planner.plan_calls", "count", "lower"),
    Metric("pipeline.planner.plan_s", "s", "lower"),
    Metric("pipeline.kernel.note_write_s", "s", "lower"),
    Metric("pipeline.kernel.emit_calls", "count", "lower"),
    Metric("pipeline.kernel.emit_s", "s", "lower"),
    Metric("core.chunk.append_calls", "count", "lower"),
    Metric("core.chunk.append_s", "s", "lower"),
    Metric("core.chunk.append_mib_s", "MiB/s", "higher"),
    Metric("pipeline.copies.copy_ratio", "ratio", "lower"),
    Metric("core.buffer_pool.acquire_calls", "count", "lower"),
    Metric("core.buffer_pool.acquire_s", "s", "lower"),
    Metric("core.buffer_pool.waits", "count", "lower"),
    Metric("core.buffer_pool.wait_share", "ratio", "lower"),
    Metric("core.workqueue.puts", "count", "lower"),
    Metric("core.workqueue.put_s", "s", "lower"),
    Metric("core.workqueue.residency_s", "s", "lower"),
    Metric("core.workqueue.max_depth", "count", "lower"),
    Metric("core.iopool.busy_s", "s", "lower"),
    Metric("core.iopool.busy_share", "ratio", "higher"),
    Metric("core.filetable.drain_waits", "count", "lower"),
    Metric("core.filetable.drain_wait_s", "s", "lower"),
    Metric("backends.pwrite_calls", "count", "lower"),
    Metric("backends.pwrite_s", "s", "lower"),
    Metric("backends.pwrite_mib_s", "MiB/s", "higher"),
    Metric("backends.fsync_calls", "count", "lower"),
    Metric("backends.fsync_s", "s", "lower"),
    Metric("backends.pread_calls", "count", "lower"),
    Metric("backends.pread_s", "s", "lower"),
    Metric("backends.bytes_written", "bytes", "lower"),
    Metric("backends.bytes_read", "bytes", "lower"),
    Metric("core.readcache.read_calls", "count", "lower"),
    Metric("core.readcache.read_s", "s", "lower"),
    Metric("core.readcache.hit_ratio", "ratio", "higher"),
    Metric("pipeline.readahead.prefetched", "count", "lower"),
    Metric("pipeline.readahead.wasted_ratio", "ratio", "lower"),
    Metric("pipeline.readahead.dropped", "count", "lower"),
    Metric("checkpoint.sizedist.plan_s", "s", "lower"),
    Metric("ceiling.memcpy_mib_s", "MiB/s", "higher"),
    Metric("ceiling.backend_pwrite_mib_s", "MiB/s", "higher"),
    Metric("ceiling.empty_write_calls_per_s", "1/s", "higher"),
    Metric("efficiency.copy", "ratio", "higher"),
    Metric("efficiency.backend", "ratio", "higher"),
    Metric("efficiency.e2e", "ratio", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


def manifest() -> dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench.run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


#: Backend ops that move data: what ``backend_ops_per_epoch`` counts.
_WRITE_OPS = ("pwrite", "pwritev")
_READ_OPS = ("pread", "pread_into")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _data_ops(round_: dict[str, Any], *ops: str) -> tuple[int, int]:
    """(calls, bytes) a round's backend saw for the given ops."""
    records = [round_["backend"].get(op, {"calls": 0, "bytes": 0}) for op in ops]
    return sum(r["calls"] for r in records), sum(r["bytes"] for r in records)


def end_to_end(rounds: list[dict[str, Any]], setups: list[float]) -> dict[str, Any]:
    """The seven end-to-end metrics of one workload, plus the epoch
    median/p90 and counts printed beside them as information.

    ``rounds`` are full (untraced) round results; ``setups`` is every
    fresh launch's set-up time, set-up-only children included."""
    walls = [w for r in rounds for w in r["epochs"]["wall_s"]]
    cpus = [c for r in rounds for c in r["epochs"]["cpu_s"]]
    epochs = len(walls)
    logical = rounds[0]["logical_bytes_per_epoch"]
    calls = bytes_ = 0
    for r in rounds:
        c, b = _data_ops(r, *_WRITE_OPS, *_READ_OPS)
        calls += c
        bytes_ += b
    epoch_s = percentile(walls, 25)
    return {
        "metrics": {
            "setup_s": min(setups),
            "epoch_s": epoch_s,
            "goodput_mib_s": logical / MiB / epoch_s,
            "epoch_cpu_s": percentile(cpus, 25),
            "backend_ops_per_epoch": calls / epochs,
            "backend_bytes_per_logical_byte": bytes_ / (epochs * logical),
            "peak_rss_mib": max(r["rss_kib"] for r in rounds) / 1024,
        },
        "info": {
            "epoch_median_s": percentile(walls, 50),
            "epoch_p90_s": percentile(walls, 90),
            "round_p25_s": [percentile(r["epochs"]["wall_s"], 25) for r in rounds],
            "setup_median_s": percentile(setups, 50),
            "launches": len(setups),
            "epochs_per_round": [len(r["epochs"]["wall_s"]) for r in rounds],
        },
    }


def per_layer(traced: dict[str, Any], untraced: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric, from one traced round and the untraced
    round (with ceilings) that ran beside it."""
    epochs = len(traced["epochs"]["wall_s"])
    layers = traced["layers"]
    stats = traced["stats"]

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / epochs

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0) / epochs

    def own(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0) / epochs

    def per_epoch(value: float) -> float:
        return value / epochs

    wall = sum(traced["epochs"]["wall_s"])
    io_threads = WORKLOADS[traced["workload"]].crfs_config().io_threads
    write_calls, bytes_written = _data_ops(traced, *_WRITE_OPS)
    read_calls, bytes_read = _data_ops(traced, *_READ_OPS)
    write_s = sum(total(f"backends.{op}") for op in _WRITE_OPS)
    read_s = sum(total(f"backends.{op}") for op in _READ_OPS)
    # Every ingested byte is copied into a chunk exactly once, by append.
    append_mib_s = _ratio(stats["bytes_in"] / MiB / epochs, total("core.chunk.append"))
    backend_mib_s = _ratio((bytes_written + bytes_read) / MiB / epochs, write_s + read_s)

    # A ceiling is what the machine allows when nothing interferes:
    # the upper quartile of the rates sampled between the epochs.
    ceiling = {k: percentile(v, 75) if v else 0.0 for k, v in untraced["ceilings"].items()}
    untraced_epoch_s = percentile(untraced["epochs"]["wall_s"], 25)
    goodput = untraced["logical_bytes_per_epoch"] / MiB / untraced_epoch_s
    reads = stats["read"]
    return {
        "core.handle.write_calls": calls("core.handle.write"),
        "core.handle.write_s": total("core.handle.write"),
        "core.handle.write_self_s": own("core.handle.write"),
        "core.handle.write_p99_us": traced["write_p99_s"] * 1e6,
        "pipeline.planner.plan_calls": calls("pipeline.planner.plan"),
        "pipeline.planner.plan_s": total("pipeline.planner.plan"),
        "pipeline.kernel.note_write_s": total("pipeline.kernel.note_write"),
        "pipeline.kernel.emit_calls": calls("pipeline.kernel.emit"),
        "pipeline.kernel.emit_s": total("pipeline.kernel.emit"),
        "core.chunk.append_calls": calls("core.chunk.append"),
        "core.chunk.append_s": total("core.chunk.append"),
        "core.chunk.append_mib_s": append_mib_s,
        "pipeline.copies.copy_ratio": _ratio(stats["mem"]["bytes_copied"], stats["bytes_in"]),
        "core.buffer_pool.acquire_calls": per_epoch(stats["pool"]["acquires"]),
        "core.buffer_pool.acquire_s": total("core.buffer_pool.acquire"),
        "core.buffer_pool.waits": per_epoch(stats["pool"]["waits"]),
        "core.buffer_pool.wait_share": _ratio(stats["pool"]["waits"], stats["pool"]["acquires"]),
        "core.workqueue.puts": per_epoch(stats["queue"]["puts"]),
        "core.workqueue.put_s": total("core.workqueue.put"),
        "core.workqueue.residency_s": per_epoch(traced["chunks"]["residency_s"]),
        "core.workqueue.max_depth": stats["queue"]["max_depth"],
        "core.iopool.busy_s": per_epoch(traced["chunks"]["busy_s"]),
        "core.iopool.busy_share": _ratio(traced["chunks"]["busy_s"], io_threads * wall),
        "core.filetable.drain_waits": per_epoch(stats["drain"]["waits"]),
        "core.filetable.drain_wait_s": per_epoch(stats["drain"]["time_total"]),
        "backends.pwrite_calls": per_epoch(write_calls),
        "backends.pwrite_s": write_s,
        "backends.pwrite_mib_s": _ratio(bytes_written / MiB / epochs, write_s),
        "backends.fsync_calls": calls("backends.fsync"),
        "backends.fsync_s": total("backends.fsync"),
        "backends.pread_calls": per_epoch(read_calls),
        "backends.pread_s": read_s,
        "backends.bytes_written": per_epoch(bytes_written),
        "backends.bytes_read": per_epoch(bytes_read),
        "core.readcache.read_calls": calls("core.readcache.read"),
        "core.readcache.read_s": total("core.readcache.read"),
        "core.readcache.hit_ratio": _ratio(reads["hits"], reads["hits"] + reads["misses"]),
        "pipeline.readahead.prefetched": per_epoch(reads["prefetched"]),
        "pipeline.readahead.wasted_ratio": _ratio(reads["prefetch_wasted"], reads["prefetched"]),
        "pipeline.readahead.dropped": per_epoch(reads["prefetch_dropped"]),
        "checkpoint.sizedist.plan_s": traced["plan_s"],
        "ceiling.memcpy_mib_s": ceiling["memcpy_mib_s"],
        "ceiling.backend_pwrite_mib_s": ceiling["backend_pwrite_mib_s"],
        "ceiling.empty_write_calls_per_s": ceiling["empty_write_calls_per_s"],
        "efficiency.copy": _ratio(append_mib_s, ceiling["memcpy_mib_s"]),
        "efficiency.backend": _ratio(backend_mib_s, ceiling["backend_pwrite_mib_s"]),
        "efficiency.e2e": _ratio(
            goodput, min(ceiling["memcpy_mib_s"], ceiling["backend_pwrite_mib_s"])
        ),
        "trace.overhead_ratio": _ratio(
            percentile(traced["epochs"]["wall_s"], 25), untraced_epoch_s
        ),
    }
