"""Fault sweep: writeback resilience under injected backend faults.

Beyond the paper's artifacts: the paper's IO-thread pool assumes the
backing filesystem never fails a ``write()``; this experiment measures
what the resilience layer (retry/backoff + circuit breaker, see
``pipeline/resilience.py``) buys when it does.  It sweeps fault mode ×
retry budget on both planes and reports goodput (fraction of the
checkpoint that landed in the backing store), retries, latched errors,
and — where the breaker trips — the recovery latency.

Functional-plane rows drive the real threaded mount over a
:class:`~repro.backends.faulty.FaultyBackend`; timing-plane rows drive
:class:`~repro.simcrfs.SimCRFS` over a
:class:`~repro.simio.faulty.FaultySimFilesystem` — the same
:class:`~repro.backends.faulty.FaultRule` vocabulary on both.
"""

from __future__ import annotations

from dataclasses import replace

from ..backends import FaultRule, FaultyBackend, MemBackend, TieredBackend
from ..config import CRFSConfig, RetryPolicy
from ..core import CRFS
from ..errors import BackendIOError
from ..pipeline import BackendRecovered, EventLog
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio.faulty import FaultySimFilesystem
from ..simio.nullfs import NullSimFilesystem
from ..simio.tiered import TieredSimFilesystem
from ..simio.params import DEFAULT_HW
from ..units import KiB
from ..util.rng import rng_for
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {
    "narrative": "resilient writeback under backend faults "
    "(beyond the paper: its testbed never fails a write)"
}

CHUNK = 64 * KiB
#: Single IO thread keeps the functional plane's fault schedule
#: deterministic (chunk pwrites hit the FaultyBackend in seal order).
CONFIG = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1)
#: Fast, deterministic backoff for the sweep (microseconds of real sleep).
RETRY = RetryPolicy(backoff=1e-4, backoff_max=1e-3)


def _workload(fast: bool) -> list[int]:
    """A fixed append stream: whole chunks plus a trailing partial."""
    nchunks = 8 if fast else 24
    return [CHUNK] * nchunks + [CHUNK // 2]


def _fault_rules(mode: str, seed: int) -> list[FaultRule]:
    """The fault matrix axis, shared verbatim by both planes."""
    if mode == "none":
        return []
    if mode == "transient":
        # every chunk write fails exactly once, then its retry succeeds
        return [FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))]
    if mode == "flaky":
        return [FaultRule(op="pwrite", p=0.3, seed=seed, error=OSError("EIO"))]
    if mode == "outage":
        # ops 1..2 fail, then the backend heals — a bounded outage
        return [
            FaultRule(op="pwrite", nth=1, until=2, every=True, error=OSError("EIO"))
        ]
    raise ValueError(f"unknown fault mode {mode!r}")


def _functional_row(mode: str, attempts: int, sizes: list[int], seed: int) -> dict:
    mem = MemBackend()
    backend = FaultyBackend(mem, _fault_rules(mode, seed), sleep=lambda s: None)
    config = CONFIG.with_(retry=replace(RETRY, attempts=attempts))
    path = "/rank0.img"
    write_errors = close_errors = 0
    with CRFS(backend, config) as fs:
        f = fs.open(path)
        for size in sizes:
            try:
                f.write(b"\xa5" * size)
            except BackendIOError:
                write_errors += 1
        try:
            f.close()
        except BackendIOError:
            close_errors += 1
        stats = fs.stats()
    total = sum(sizes)
    landed = mem.stat(path).size if mem.exists(path) else 0
    return {
        "plane": "functional",
        "mode": mode,
        "attempts": attempts,
        "goodput": landed / total,
        "retried": stats["resilience"]["chunks_retried"],
        "latched": stats["resilience"]["errors_latched"],
        "write_errors": write_errors,
        "close_errors": close_errors,
        "content": mem.pread(mem.open(path, create=False), landed, 0)
        if landed
        else b"",
    }


def _timing_row(mode: str, attempts: int, sizes: list[int], seed: int) -> dict:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    inner = NullSimFilesystem(sim, hw, rng_for(seed, f"faultsweep/{mode}/{attempts}"))
    backend = FaultySimFilesystem(inner, _fault_rules(mode, seed))
    log = EventLog()
    # threshold 2: the outage (2 failing ops) trips the breaker exactly
    # when every attempt inside it has failed
    config = CONFIG.with_(
        retry=replace(RETRY, attempts=attempts), breaker_threshold=2
    )
    crfs = SimCRFS(sim, hw, config, backend, membus, observers=(log,))
    errors: list[str] = []

    def writer(name: str, stream: list[int]):
        f = crfs.open(name)
        for size in stream:
            try:
                yield from crfs.write(f, size)
            except BackendIOError:
                errors.append(f"{name}:write")
                break
        try:
            yield from crfs.close(f)
        except BackendIOError:
            errors.append(f"{name}:close")

    if attempts > 1:
        # one file: the in-chunk retry chain rides out the outage
        procs = [sim.spawn(writer("/rank0.img", sizes))]
    else:
        # no retries: each failing chunk latches its file; spread the
        # stream over files so the breaker trips and later files probe
        per_file = max(1, len(sizes) // 4)
        streams = [sizes[i : i + per_file] for i in range(0, len(sizes), per_file)]
        procs = [
            sim.spawn(writer(f"/rank{i}.img", stream))
            for i, stream in enumerate(streams)
        ]
    sim.run_until_complete(procs)
    stats = crfs.stats()
    total = sum(sizes)
    recoveries = log.of(BackendRecovered)
    return {
        "plane": "timing",
        "mode": mode,
        "attempts": attempts,
        "goodput": (stats["bytes_out"] + stats["write_through_bytes"]) / total
        if total
        else 0.0,
        "retried": stats["resilience"]["chunks_retried"],
        "latched": stats["resilience"]["errors_latched"],
        "trips": stats["resilience"]["breaker_trips"],
        "recoveries": stats["resilience"]["breaker_recoveries"],
        "degraded_writes": stats["resilience"]["degraded_writes"],
        "recovery_latency": recoveries[0].downtime if recoveries else 0.0,
        "errors": len(errors),
    }


# -- tiered rows: deep-tier faults against the staging pump -------------------
#
# The per-tier resilience claim: a fault on the *deep* tier of a
# staging chain is absorbed by that tier's own retry chain and breaker
# — migrations strand ("durable at tier 0") instead of dragging the
# mount into write-through, and the mount-level resilience counters
# never move.  Single pump thread and batch size 1 keep the deep-tier
# fault schedule in seal order, so every counter below is
# workload-determined and comparable across planes.

#: The tier counters a free-running (ungated) run still determines:
#: everything except the pump-queue depth gauge and time-valued fields.
_TIER_COMPARED = (
    "chunks_staged",
    "bytes_staged",
    "chunks_migrated",
    "bytes_migrated",
    "chunks_stranded",
    "bytes_stranded",
    "migrate_errors",
    "migrate_retries",
    "breaker_trips",
    "breaker_recoveries",
)


def _tier_fault_rules(mode: str) -> list[FaultRule]:
    """Deep-tier fault axis (applies to migration pwrites only)."""
    if mode == "tier_transient":
        # every odd deep write fails: with retries each migration rides
        # it out; without, odd extents strand and even ones land
        return [FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))]
    if mode == "tier_dead":
        # the deep store never comes back: everything strands at tier 0
        return [FaultRule(op="pwrite", nth=1, every=True, error=OSError("EIO"))]
    raise ValueError(f"unknown tier fault mode {mode!r}")


def _tier_config(attempts: int) -> CRFSConfig:
    return CONFIG.with_(
        retry=replace(RETRY, attempts=attempts),
        breaker_threshold=2,
        tier_pump_threads=1,
        tier_pump_batch_chunks=1,
    )


def _tier_row_fields(stats: dict, total: int, sync_errors: int) -> dict:
    per_tier = stats["tiers"]["per_tier"]
    return {
        "deep_goodput": per_tier["1"]["bytes_staged"] / total,
        "stranded": per_tier["1"]["chunks_stranded"],
        "migrate_retries": per_tier["1"]["migrate_retries"],
        "tier_trips": per_tier["1"]["breaker_trips"],
        "mount_retried": stats["resilience"]["chunks_retried"],
        "mount_trips": stats["resilience"]["breaker_trips"],
        "sync_errors": sync_errors,
        "compared": {
            level: {k: counters[k] for k in _TIER_COMPARED}
            for level, counters in per_tier.items()
        },
    }


def _functional_tier_row(mode: str, attempts: int, sizes: list[int]) -> dict:
    tier0 = MemBackend()
    deep_mem = MemBackend()
    deep = FaultyBackend(deep_mem, _tier_fault_rules(mode), sleep=lambda s: None)
    path = "/rank0.img"
    sync_errors = 0
    with CRFS(TieredBackend([tier0, deep]), _tier_config(attempts)) as fs:
        f = fs.open(path)
        for size in sizes:
            f.write(b"\xa5" * size)
        try:
            # Durability through the deepest tier: waits out the pump,
            # surfaces the strand error when the deep tier is gone.
            f.fsync()
        except OSError:
            sync_errors += 1
        f.close()
        stats = fs.stats()
    deep_size = deep_mem.stat(path).size if deep_mem.exists(path) else 0
    row = {"plane": "functional", "mode": mode, "attempts": attempts}
    row.update(_tier_row_fields(stats, sum(sizes), sync_errors))
    row["deep_content"] = (
        deep_mem.pread(deep_mem.open(path, create=False), deep_size, 0)
        if deep_size
        else b""
    )
    row["tier0_content"] = tier0.pread(
        tier0.open(path, create=False), tier0.stat(path).size, 0
    )
    return row


def _timing_tier_row(mode: str, attempts: int, sizes: list[int], seed: int) -> dict:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    deep = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(seed, f"faultsweep/{mode}/deep")),
        _tier_fault_rules(mode),
    )
    backend = TieredSimFilesystem(
        [NullSimFilesystem(sim, hw, rng_for(seed, f"faultsweep/{mode}/t0")), deep]
    )
    crfs = SimCRFS(sim, hw, _tier_config(attempts), backend, membus)
    sync_errors = [0]

    def writer():
        f = crfs.open("/rank0.img")
        for size in sizes:
            yield from crfs.write(f, size)
        try:
            yield from crfs.fsync(f)
        except OSError:
            sync_errors[0] += 1
        yield from crfs.close(f)

    sim.run_until_complete([sim.spawn(writer())])
    sim.run_until_complete([sim.spawn(crfs.drain_staging(), name="drain")])
    crfs.shutdown()
    row = {"plane": "timing", "mode": mode, "attempts": attempts}
    row.update(_tier_row_fields(crfs.stats(), sum(sizes), sync_errors[0]))
    return row


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    sizes = _workload(fast)
    func_rows = [
        _functional_row(mode, attempts, sizes, seed)
        for mode in ("none", "transient", "flaky")
        for attempts in (1, 4)
    ]
    timing_rows = [
        _timing_row(mode, attempts, sizes, seed)
        for mode in ("none", "outage")
        for attempts in (1, 4)
    ]
    tier_cells = [
        (mode, attempts)
        for mode in ("tier_transient", "tier_dead")
        for attempts in (1, 4)
    ]
    func_tier_rows = [
        _functional_tier_row(mode, attempts, sizes) for mode, attempts in tier_cells
    ]
    timing_tier_rows = [
        _timing_tier_row(mode, attempts, sizes, seed)
        for mode, attempts in tier_cells
    ]

    table = TextTable(
        [
            "plane",
            "fault mode",
            "attempts",
            "goodput",
            "retried",
            "latched",
            "trips",
            "recoveries",
            "recovery latency",
        ],
        title="Fault rate x retry budget (goodput = landed/attempted bytes)",
    )
    for row in func_rows + timing_rows:
        table.add_row(
            [
                row["plane"],
                row["mode"],
                str(row["attempts"]),
                f"{row['goodput']:.3f}",
                str(row["retried"]),
                str(row["latched"]),
                str(row.get("trips", "-")),
                str(row.get("recoveries", "-")),
                f"{row['recovery_latency']:.4f}s"
                if row.get("recovery_latency")
                else "-",
            ]
        )

    tier_table = TextTable(
        [
            "plane",
            "deep-tier fault",
            "attempts",
            "deep goodput",
            "migrate retries",
            "stranded",
            "tier-1 trips",
            "mount retried",
            "sync errors",
        ],
        title="Deep-tier fault x retry budget (tiered staging: a strand "
        "means durable at tier 0, never mount write-through)",
    )
    for row in func_tier_rows + timing_tier_rows:
        tier_table.add_row(
            [
                row["plane"],
                row["mode"],
                str(row["attempts"]),
                f"{row['deep_goodput']:.3f}",
                str(row["migrate_retries"]),
                str(row["stranded"]),
                str(row["tier_trips"]),
                str(row["mount_retried"]),
                str(row["sync_errors"]),
            ]
        )

    by = {(r["plane"], r["mode"], r["attempts"]): r for r in func_rows + timing_rows}
    clean = by[("functional", "none", 1)]
    recovered = by[("functional", "transient", 4)]
    exhausted = by[("functional", "transient", 1)]
    flaky = by[("functional", "flaky", 4)]
    outage = by[("timing", "outage", 4)]
    probe = by[("timing", "outage", 1)]

    checks = [
        Check(
            "no-fault rows are clean (goodput 1.0, nothing retried or latched)",
            all(
                by[k]["goodput"] == 1.0
                and by[k]["retried"] == 0
                and by[k]["latched"] == 0
                for k in by
                if k[1] == "none"
            ),
        ),
        Check(
            "retries ride out transient faults: every-pwrite-fails-once "
            "completes with zero latched errors and byte-identical output",
            recovered["latched"] == 0
            and recovered["close_errors"] == 0
            and recovered["retried"] > 0
            and recovered["content"] == clean["content"],
            f"retried {recovered['retried']} chunks",
        ),
        Check(
            "with retries exhausted the error still latches and surfaces "
            "at close()",
            exhausted["latched"] > 0 and exhausted["close_errors"] > 0,
            f"latched {exhausted['latched']}",
        ),
        Check(
            "probabilistic faults exercise the retry path",
            flaky["retried"] > 0,
            f"retried {flaky['retried']}",
        ),
        Check(
            "a bounded outage with retry budget trips the breaker and "
            "recovers with zero latched errors",
            outage["latched"] == 0
            and outage["trips"] >= 1
            and outage["recoveries"] >= 1
            and outage["recovery_latency"] > 0
            and outage["goodput"] == 1.0,
            f"recovered after {outage['recovery_latency']:.4f}s virtual downtime",
        ),
        Check(
            "without retries the outage latches, trips the breaker, and a "
            "degraded write-through probe restores async mode",
            probe["latched"] > 0
            and probe["trips"] >= 1
            and probe["degraded_writes"] >= 1
            and probe["recoveries"] >= 1,
            f"{probe['degraded_writes']} degraded write(s) probed the backend",
        ),
    ]

    tby = {
        (r["plane"], r["mode"], r["attempts"]): r
        for r in func_tier_rows + timing_tier_rows
    }
    t_recovered = tby[("functional", "tier_transient", 4)]
    t_dead = tby[("functional", "tier_dead", 4)]
    checks += [
        Check(
            "tier rows: workload-determined tier counters bit-identical "
            "across planes in every cell",
            all(
                tby[("functional", mode, attempts)]["compared"]
                == tby[("timing", mode, attempts)]["compared"]
                for mode, attempts in tier_cells
            ),
            f"{len(tier_cells)} cells x {len(_TIER_COMPARED)} counters/tier",
        ),
        Check(
            "per-tier retries ride out transient deep faults: zero strands "
            "and the deep tier holds the image byte-identically",
            t_recovered["stranded"] == 0
            and t_recovered["sync_errors"] == 0
            and t_recovered["migrate_retries"] == len(sizes)
            and t_recovered["deep_content"] == t_recovered["tier0_content"],
            f"retried {t_recovered['migrate_retries']} migration(s)",
        ),
        Check(
            "a dead deep tier degrades to durable-at-tier-0: every extent "
            "strands, the deep-durability fsync surfaces the error, and "
            "tier 0 still holds the full image",
            t_dead["stranded"] == len(sizes)
            and t_dead["deep_goodput"] == 0.0
            and t_dead["sync_errors"] == 1
            and t_dead["deep_content"] == b""
            and len(t_dead["tier0_content"]) == sum(sizes),
            f"{t_dead['stranded']} extent(s) stranded at tier 0",
        ),
        Check(
            "breaker attribution stays on the faulty tier: mount-level "
            "resilience counters never move in any tier cell, and only "
            "the dead deep tier trips its breaker",
            all(
                r["mount_retried"] == 0 and r["mount_trips"] == 0
                for r in tby.values()
            )
            and all(
                tby[(plane, "tier_dead", attempts)]["tier_trips"] == 1
                for plane in ("functional", "timing")
                for attempts in (1, 4)
            )
            and all(
                tby[(plane, "tier_transient", 4)]["tier_trips"] == 0
                for plane in ("functional", "timing")
            ),
            "tier-1 breaker only; resilience section untouched",
        ),
    ]
    measured = {
        "rows": [
            {k: v for k, v in row.items() if k != "content"}
            for row in func_rows + timing_rows
        ],
        "tier_rows": [
            {
                k: v
                for k, v in row.items()
                if k not in ("deep_content", "tier0_content", "compared")
            }
            for row in func_tier_rows + timing_tier_rows
        ],
    }
    return ExperimentResult(
        name="faultsweep",
        title="Writeback resilience: fault rate x retry budget",
        table=table.render() + "\n\n" + tier_table.render(),
        measured=measured,
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
