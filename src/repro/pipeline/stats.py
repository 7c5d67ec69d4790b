"""PipelineStats: the counter registry behind ``stats()``.

One instance per mount, shared by every pipeline component (file
pipelines, buffer pool, work queue, IO workers) on *either* plane.
Counters are bumped under one lock by the registry's routes on the
kernel's event stream (:data:`_HANDLERS`, one handler per record type)
— all but the per-call facts (an application write or read, a cache
hit or miss, a budgeted copy), which take no record: a write that fits
its open chunk and a read served from resident cache chunks are
counted in the open file's :class:`HotCounts` cell without that lock,
which :meth:`snapshot` folds in, and every other one by a direct call
that takes the lock and goes through the fold's own arithmetic.
Either way :meth:`snapshot` returns one atomic, mutually-consistent
view — the functional plane's ``CRFS.stats()`` and the timing plane's
``SimCRFS.stats()`` both return exactly this schema, which the
cross-plane differential tests compare field-for-field.

Every counter is declared once, in :func:`_new_counters` and the two
slice factories, in the nested shape and key order the snapshot has;
a handler bumps it there, and the snapshot is a copy of that structure
plus the fields derived from it.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Iterable

from ..util.stats import nearest_rank
from .copies import INGEST, READ_BOUNDARY, CopyLedger
from .events import (
    AdmissionWait,
    BackendDegraded,
    BackendRecovered,
    BatchBroken,
    BatchWritten,
    ChunkPrefetched,
    ChunkRetried,
    ChunkSealed,
    ChunkWritten,
    DeltaGenerationCommitted,
    DeltaRestored,
    ErrorLatched,
    FileClosed,
    FileDrained,
    FileOpened,
    PipelineEvent,
    PipelineObserver,
    PoolPressure,
    PrefetchDropped,
    PrefetchWasted,
    QueuePressure,
    TierMigrated,
    TierPumpPressure,
    TierStaged,
    TierSynced,
    WindowGrown,
    WindowShrunk,
    WorkersDrained,
)
from .planner import SealReason

__all__ = ["HotCounts", "PipelineStats"]

Counters = dict[str, Any]


def _new_tenant_counters() -> Counters:
    """One tenant's slice of the snapshot's ``tenants`` section.

    ``drain_time_max`` doubles as the per-tenant drain-latency proxy the
    ``tenant_storm`` experiment gates on (the worst close/fsync wait the
    tenant observed); the snapshot appends ``drain_p50``/``drain_p99``
    from the retained FileDrained samples.  All of these are
    time-valued, so the cross-plane differential excludes them.
    """
    return {
        "writes": 0,
        "bytes_in": 0,
        "reads": 0,
        "bytes_read": 0,
        "chunks_queued": 0,
        "chunks_written": 0,
        "bytes_out": 0,
        "io_errors": 0,
        "queue_max_depth": 0,
        "pool_max_in_use": 0,
        "admission_waits": 0,
        "drain_waits": 0,
        "drain_waits_blocked": 0,
        "drain_time_total": 0.0,
        "drain_time_max": 0.0,
    }


def _new_tier_counters() -> Counters:
    """One tier's slice of the snapshot's ``tiers`` section.

    Pure workload-determined counts only — no time-valued fields — so
    the whole section stays bit-identical across planes without
    exclusions.  The snapshot appends ``bytes_resident`` (staged minus
    migrated-out).
    """
    return {
        "bytes_staged": 0,
        "chunks_staged": 0,
        "bytes_migrated": 0,
        "chunks_migrated": 0,
        "bytes_stranded": 0,
        "chunks_stranded": 0,
        "migrate_errors": 0,
        "migrate_retries": 0,
        "pump_queue_max": 0,
        "breaker_trips": 0,
        "breaker_recoveries": 0,
        "syncs": 0,
    }


def _new_counters(
    chunk_size: int, pool_chunks: int, tenants: Iterable[str], tiers: int, fsync_tier: int
) -> Counters:
    """The whole snapshot shape: every counter and gauge, at zero.

    Configured tenants and tiers are pre-seeded so both planes report
    the identical key set for the identical config, even when idle.
    """
    return {
        "writes": 0,
        "bytes_in": 0,
        "write_through_bytes": 0,
        "chunks_written": 0,
        "bytes_out": 0,
        "io_errors": 0,
        "seals": {reason.value: 0 for reason in SealReason},
        "open_files": 0,
        # chunks/chunk_size are structural gauges
        "pool": {
            "chunks": pool_chunks,
            "chunk_size": chunk_size,
            "acquires": 0,
            "waits": 0,
            "max_in_use": 0,
            "releases": 0,
        },
        "queue": {"puts": 0, "max_depth": 0, "admission_waits": 0},
        "tenants": {name: _new_tenant_counters() for name in tenants},
        # coalesced writeback (all zero with writeback_batch_chunks=1);
        # per_batch: batch size -> batches
        "batch": {"batches": 0, "chunks": 0, "bytes": 0, "errors": 0, "broken": 0, "per_batch": {}},
        # drain waits (close/fsync/unmount) and pool shutdown
        "drain": {
            "waits": 0,
            "waits_blocked": 0,
            "time_total": 0.0,
            "time_max": 0.0,
            "shutdown_drains": 0,
            "shutdown_time_total": 0.0,
        },
        # readahead cache (zeros with the cache disabled); current_window
        # is the width on the last Window* event, a gauge
        "read": {
            "reads": 0,
            "bytes_read": 0,
            "hits": 0,
            "misses": 0,
            "prefetched": 0,
            "prefetch_dropped": 0,
            "prefetch_wasted": 0,
            "window_grown": 0,
            "window_shrunk": 0,
            "current_window": 0,
        },
        # str tier keys so the section survives a JSON round trip unchanged
        "tiers": {
            "levels": tiers,
            "fsync_tier": fsync_tier,
            "sync_through": -1,
            "per_tier": {str(level): _new_tier_counters() for level in range(tiers)},
        },
        "mem": None,  # the CopyLedger's, at snapshot time (DESIGN.md §3k)
        # incremental (delta) checkpointing (zeros without delta use)
        "delta": {
            "generations": 0,
            "dirty_chunks": 0,
            "clean_chunks": 0,
            "bytes_written": 0,
            "logical_bytes": 0,
            "manifest_writes": 0,
            "manifest_bytes": 0,
            "restores": 0,
            "reassembly_reads": 0,
            "reassembly_bytes": 0,
        },
        # retry/backoff + circuit breaker
        "resilience": {
            "chunks_retried": 0,
            "errors_latched": 0,
            "breaker_trips": 0,
            "breaker_recoveries": 0,
            "degraded_writes": 0,
            "degraded_bytes": 0,
        },
    }


def _copy(counters: Counters) -> Counters:
    """A copy of nested counter dicts, no dict shared."""
    return {k: _copy(v) if isinstance(v, dict) else v for k, v in counters.items()}


class HotCounts:
    """One open file's count of the per-call facts of the cases its own
    serialisation covers: writes that fit their open chunk, reads served
    from resident cache chunks.

    The file's writer — whoever holds its write serialisation (the
    threaded plane's per-file ``write_lock``; the simulator is
    single-threaded) — replaces :attr:`writes` whole, and its reader —
    whoever holds its read-cache lock — :attr:`reads`, so the registry
    reads a whole number of calls at any instant without a lock they
    would have to share.  The ``folded_*`` twins (how much of each the
    registry has absorbed) and :attr:`opens` belong to the registry and
    its lock.
    """

    __slots__ = ("tenant", "opens", "writes", "folded_writes", "reads", "folded_reads")

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.opens = 0  # FileOpened minus FileClosed seen for the file
        #: cumulative (writes, bytes, ingest copies)
        self.writes = (0, 0, 0)
        self.folded_writes = (0, 0, 0)
        #: cumulative (reads, bytes — each read joined once at the shim
        #: boundary —, chunk hits)
        self.reads = (0, 0, 0)
        self.folded_reads = (0, 0, 0)


class PipelineStats(PipelineObserver):
    """Thread-safe counter registry fed by the pipeline event stream
    and by direct per-call counts.

    ``_counts`` holds every counter in the snapshot's shape; read them
    through :meth:`snapshot`, which folds the open files' hot counts in
    and returns fields consistent with each other.
    """

    def __init__(
        self,
        chunk_size: int = 0,
        pool_chunks: int = 0,
        tenants: Iterable[str] = ("default",),
        tiers: int = 0,
        fsync_tier: int = -1,
    ):
        self._lock = threading.Lock()
        self._counts = _new_counters(chunk_size, pool_chunks, tenants, tiers, fsync_tier)
        self.copies = CopyLedger()
        # Hot counters of the files now open, by (path, tenant); folded
        # by every snapshot, folded and dropped at FileClosed.
        self._hot: dict[tuple[str, str], HotCounts] = {}
        # Per-tenant drain-wait samples retained for the p50/p99
        # histogram; FileDrained counts are modest (one per close/fsync
        # wait), so keeping them is cheap.
        self._drain_samples: dict[str, list[float]] = {}

    def _tenant(self, name: str) -> Counters:
        """The per-tenant counter dict (caller holds the lock); tenants
        outside the pre-seeded set (explicit unconfigured ids) appear on
        first event."""
        tenants = self._counts["tenants"]
        counters = tenants.get(name)
        if counters is None:
            counters = tenants[name] = _new_tenant_counters()
        return counters

    def _tier(self, level: int) -> Counters:
        return self._counts["tiers"]["per_tier"][str(level)]

    # -- per-file hot counters ---------------------------------------------------

    def hot_counts(self, path: str, tenant: str) -> HotCounts:
        """The cell an open file's pipeline counts its fitting writes
        and resident reads in."""
        with self._lock:
            return self._hot_cell(path, tenant)

    def _hot_cell(self, path: str, tenant: str) -> HotCounts:
        hot = self._hot.get((path, tenant))
        if hot is None:
            hot = self._hot[(path, tenant)] = HotCounts(tenant)
        return hot

    def _fold(self, hot: HotCounts) -> None:
        """Absorb what ``hot`` gathered since it was last folded (caller
        holds the lock), through the arithmetic the direct counts use."""
        counts = hot.writes
        writes, nbytes, copies = (now - was for now, was in zip(counts, hot.folded_writes))
        if writes:
            self._add_writes(hot.tenant, writes, nbytes)
            self.copies.record(INGEST, nbytes, copies)
            hot.folded_writes = counts
        counts = hot.reads
        reads, nbytes, hits = (now - was for now, was in zip(counts, hot.folded_reads))
        if reads:
            self._add_reads(hot.tenant, reads, nbytes, hits)
            self.copies.record(READ_BOUNDARY, nbytes, reads)
            hot.folded_reads = counts

    def _add_writes(self, tenant: str, writes: int, nbytes: int) -> None:
        """``writes`` accepted application writes of ``nbytes`` in all
        (caller holds the lock)."""
        for counters in (self._counts, self._tenant(tenant)):
            counters["writes"] += writes
            counters["bytes_in"] += nbytes

    def _add_reads(self, tenant: str, reads: int, nbytes: int, hits: int = 0) -> None:
        """``reads`` application reads asking for ``nbytes`` in all, and
        ``hits`` cache hits (caller holds the lock)."""
        for counters in (self._counts["read"], self._tenant(tenant)):
            counters["reads"] += reads
            counters["bytes_read"] += nbytes
        self._counts["read"]["hits"] += hits

    # -- per-call facts outside a hot cell ------------------------------------
    # Counted by the pipeline where nothing serialises the file for a
    # cell: each takes the lock.

    def _count_write(self, tenant: str, length: int, write_through: bool, degraded: bool) -> None:
        """One application write; an aggregated one paid its ``ingest``
        copy, a write-through none."""
        with self._lock:
            self._add_writes(tenant, 1, length)
            if write_through:
                self._counts["write_through_bytes"] += length
            elif length > 0:
                self.copies.record(INGEST, length)
            if degraded:
                r = self._counts["resilience"]
                r["degraded_writes"] += 1
                r["degraded_bytes"] += length

    def _count_read(self, tenant: str, length: int, copied: int) -> None:
        """One application read of ``length`` bytes, ``copied`` of them
        joined at the shim boundary."""
        with self._lock:
            self._add_reads(tenant, 1, length)
            if copied > 0:
                self.copies.record(READ_BOUNDARY, copied)

    def _count_access(self, hit: bool) -> None:
        """One chunk-aligned cache lookup."""
        with self._lock:
            self._counts["read"]["hits" if hit else "misses"] += 1

    def _count_copy(self, site: str, length: int) -> None:
        """One budgeted copy of ``length`` bytes at ``site``."""
        with self._lock:
            self.copies.record(site, length)

    # -- event intake ---------------------------------------------------------

    def on_event(self, event: PipelineEvent) -> None:
        handler = _HANDLERS.get(type(event))
        if handler is not None:
            self._handle(handler, event)

    def _routes(self) -> dict[type, Callable[[PipelineEvent], None]]:
        """The registry's route of each record type it counts: the
        type's handler, under the lock — what :meth:`on_event` does
        with the lookup already made."""
        return {kind: functools.partial(self._handle, h) for kind, h in _HANDLERS.items()}

    def _handle(self, handler: "Handler", event: PipelineEvent) -> None:
        with self._lock:
            handler(self, event)

    # One handler per event type (caller holds the lock); ``_HANDLERS``
    # below maps each exact type to its handler — no event class is
    # subclassed, so the exact type is the whole dispatch.

    def _on_chunk_sealed(self, event: ChunkSealed) -> None:
        self._counts["seals"][event.reason.value] += 1
        self._tenant(event.tenant)["chunks_queued"] += 1

    def _on_chunk_written(self, event: ChunkWritten) -> None:
        for counters in (self._counts, self._tenant(event.tenant)):
            if event.error is None:
                counters["chunks_written"] += 1
                counters["bytes_out"] += event.length
            else:
                counters["io_errors"] += 1

    def _on_batch_written(self, event: BatchWritten) -> None:
        b = self._counts["batch"]
        if event.error is None:
            b["batches"] += 1
            b["chunks"] += event.chunks
            b["bytes"] += event.length
            b["per_batch"][event.chunks] = b["per_batch"].get(event.chunks, 0) + 1
        else:
            b["errors"] += 1

    def _on_pool_pressure(self, event: PoolPressure) -> None:
        p = self._counts["pool"]
        if event.released:
            p["releases"] += 1
            return
        p["acquires"] += 1
        if event.waited:
            p["waits"] += 1
        p["max_in_use"] = max(p["max_in_use"], event.in_use)
        t = self._tenant(event.tenant)
        t["pool_max_in_use"] = max(t["pool_max_in_use"], event.tenant_in_use)

    def _on_queue_pressure(self, event: QueuePressure) -> None:
        q = self._counts["queue"]
        q["puts"] += 1
        q["max_depth"] = max(q["max_depth"], event.depth)
        t = self._tenant(event.tenant)
        t["queue_max_depth"] = max(t["queue_max_depth"], event.tenant_depth)

    def _on_admission_wait(self, event: AdmissionWait) -> None:
        self._counts["queue"]["admission_waits"] += 1
        self._tenant(event.tenant)["admission_waits"] += 1

    def _on_file_opened(self, event: FileOpened) -> None:
        self._counts["open_files"] += 1
        self._hot_cell(event.path, event.tenant).opens += 1

    def _on_file_closed(self, event: FileClosed) -> None:
        self._counts["open_files"] -= 1
        key = (event.path, event.tenant)
        hot = self._hot.get(key)
        if hot is not None:
            hot.opens -= 1
            if hot.opens <= 0:
                self._fold(hot)
                del self._hot[key]

    def _on_file_drained(self, event: FileDrained) -> None:
        d, t = self._counts["drain"], self._tenant(event.tenant)
        d["waits"] += 1
        t["drain_waits"] += 1
        if event.outstanding:
            d["waits_blocked"] += 1
            t["drain_waits_blocked"] += 1
        d["time_total"] += event.duration
        t["drain_time_total"] += event.duration
        d["time_max"] = max(d["time_max"], event.duration)
        t["drain_time_max"] = max(t["drain_time_max"], event.duration)
        self._drain_samples.setdefault(event.tenant, []).append(event.duration)

    def _on_workers_drained(self, event: WorkersDrained) -> None:
        d = self._counts["drain"]
        d["shutdown_drains"] += 1
        d["shutdown_time_total"] += event.duration

    def _on_window_moved(self, event: WindowGrown | WindowShrunk) -> None:
        r = self._counts["read"]
        r["window_grown" if type(event) is WindowGrown else "window_shrunk"] += 1
        r["current_window"] = event.window

    def _on_delta_committed(self, event: DeltaGenerationCommitted) -> None:
        d = self._counts["delta"]
        d["generations"] += 1
        d["dirty_chunks"] += event.dirty_chunks
        d["clean_chunks"] += event.clean_chunks
        d["bytes_written"] += event.dirty_bytes
        d["logical_bytes"] += event.logical_bytes
        d["manifest_writes"] += 1
        d["manifest_bytes"] += event.manifest_bytes

    def _on_delta_restored(self, event: DeltaRestored) -> None:
        d = self._counts["delta"]
        d["restores"] += 1
        d["reassembly_reads"] += event.reassembly_reads
        d["reassembly_bytes"] += event.reassembly_bytes

    def _on_tier_staged(self, event: TierStaged) -> None:
        t = self._tier(0)
        t["chunks_staged"] += 1
        t["bytes_staged"] += event.length

    def _on_tier_migrated(self, event: TierMigrated) -> None:
        dst = self._tier(event.tier)
        if event.error is None:
            dst["chunks_staged"] += event.chunks
            dst["bytes_staged"] += event.length
            src = self._tier(event.tier - 1)
            src["chunks_migrated"] += event.chunks
            src["bytes_migrated"] += event.length
        else:
            dst["migrate_errors"] += 1
            dst["chunks_stranded"] += event.chunks
            dst["bytes_stranded"] += event.length

    def _on_tier_pump_pressure(self, event: TierPumpPressure) -> None:
        t = self._tier(event.tier)
        t["pump_queue_max"] = max(t["pump_queue_max"], event.depth)

    def _on_tier_synced(self, event: TierSynced) -> None:
        self._tier(event.tier)["syncs"] += 1
        tiers = self._counts["tiers"]
        tiers["sync_through"] = max(tiers["sync_through"], event.tier)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One atomic, plane-identical view of every counter."""
        with self._lock:
            for hot in self._hot.values():
                self._fold(hot)
            snap = _copy(self._counts)
            tenants = snap["tenants"]
            snap["tenants"] = {name: tenants[name] for name in sorted(tenants)}
            for name, t in snap["tenants"].items():
                samples = self._drain_samples.get(name, [])
                t["drain_p50"] = nearest_rank(samples, 50.0)
                t["drain_p99"] = nearest_rank(samples, 99.0)
            batch = snap["batch"]
            # str keys so the section survives a JSON round trip
            # unchanged (perf artifacts re-load it for diffing)
            batch["per_batch"] = {str(k): v for k, v in sorted(batch["per_batch"].items())}
            for t in snap["tiers"]["per_tier"].values():
                t["bytes_resident"] = t["bytes_staged"] - t["bytes_migrated"]
            snap["mem"] = self.copies.snapshot()
            return snap


Handler = Callable[[PipelineStats, Any], None]


def _one(section: str, key: str) -> Handler:
    """The handler of an event that adds one to ``section.key``."""

    def handler(stats: PipelineStats, event: Any) -> None:
        stats._counts[section][key] += 1

    return handler


def _one_by_tier(key: str, tier_key: str) -> Handler:
    """The handler of a record stamped with the tier it happened at:
    tier 0 (the mount's backend) adds one to ``resilience.key``, tier k
    to ``tiers.per_tier[k].tier_key``."""

    def handler(stats: PipelineStats, event: Any) -> None:
        if event.tier:
            stats._tier(event.tier)[tier_key] += 1
        else:
            stats._counts["resilience"][key] += 1

    return handler


_HANDLERS: dict[type, Handler] = {
    ChunkSealed: PipelineStats._on_chunk_sealed,
    ChunkWritten: PipelineStats._on_chunk_written,
    BatchWritten: PipelineStats._on_batch_written,
    BatchBroken: _one("batch", "broken"),
    PoolPressure: PipelineStats._on_pool_pressure,
    QueuePressure: PipelineStats._on_queue_pressure,
    AdmissionWait: PipelineStats._on_admission_wait,
    FileOpened: PipelineStats._on_file_opened,
    FileClosed: PipelineStats._on_file_closed,
    ErrorLatched: _one("resilience", "errors_latched"),
    ChunkRetried: _one_by_tier("chunks_retried", "migrate_retries"),
    BackendDegraded: _one_by_tier("breaker_trips", "breaker_trips"),
    BackendRecovered: _one_by_tier("breaker_recoveries", "breaker_recoveries"),
    FileDrained: PipelineStats._on_file_drained,
    WorkersDrained: PipelineStats._on_workers_drained,
    ChunkPrefetched: _one("read", "prefetched"),
    PrefetchDropped: _one("read", "prefetch_dropped"),
    PrefetchWasted: _one("read", "prefetch_wasted"),
    WindowGrown: PipelineStats._on_window_moved,
    WindowShrunk: PipelineStats._on_window_moved,
    DeltaGenerationCommitted: PipelineStats._on_delta_committed,
    DeltaRestored: PipelineStats._on_delta_restored,
    TierStaged: PipelineStats._on_tier_staged,
    TierMigrated: PipelineStats._on_tier_migrated,
    TierPumpPressure: PipelineStats._on_tier_pump_pressure,
    TierSynced: PipelineStats._on_tier_synced,
}
