"""PipelineStats: the counter registry behind ``stats()``.

One instance per mount, shared by every pipeline component (file
pipelines, buffer pool, work queue, IO workers) on *either* plane.
Counters are derived from the unified event stream in :meth:`on_event`
and bumped under one lock — all but the per-call ones of a write that
fits its open chunk and of a read served from resident cache chunks,
which each open file gathers in its own :class:`HotCounts` cell without
that lock and :meth:`snapshot` folds in.
Either way :meth:`snapshot` returns one atomic, mutually-consistent
view — the functional plane's ``CRFS.stats()`` and the timing plane's
``SimCRFS.stats()`` both return exactly this schema, which the
cross-plane differential tests compare field-for-field.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

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
    CopyObserved,
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
    ReadHit,
    ReadMiss,
    ReadObserved,
    TierDegraded,
    TierMigrated,
    TierPumpPressure,
    TierRecovered,
    TierRetried,
    TierStaged,
    TierSynced,
    WindowGrown,
    WindowShrunk,
    WorkersDrained,
    WriteObserved,
)
from .planner import SealReason

__all__ = ["HotCounts", "PipelineStats", "flatten_snapshot"]


def _new_tenant_counters() -> dict[str, Any]:
    """One tenant's slice of the snapshot's ``tenants`` section.

    ``drain_time_max`` doubles as the per-tenant drain-latency proxy the
    ``tenant_storm`` experiment gates on (the worst close/fsync wait the
    tenant observed); ``drain_p50``/``drain_p99`` (added at snapshot
    time from retained FileDrained samples) give the histogram view the
    ROADMAP item-1 follow-on asked for.  All of these are time-valued,
    so the cross-plane differential excludes them.
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


def _new_tier_counters() -> dict[str, Any]:
    """One tier's slice of the snapshot's ``tiers`` section.

    Pure workload-determined counts only — no time-valued fields — so
    the whole section stays bit-identical across planes without
    exclusions.  ``bytes_resident`` (staged minus migrated-out) is
    derived at snapshot time.
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


def flatten_snapshot(
    snapshot: dict[str, Any], prefix: str = "", sep: str = "."
) -> dict[str, Any]:
    """Flatten a nested ``stats()`` snapshot into dot-keyed scalars.

    ``{"pool": {"waits": 3}}`` becomes ``{"pool.waits": 3}`` — the form
    the perf harness records in its JSON artifacts and diffs between
    runs.  Key order follows the snapshot's own (insertion) order, so
    the output is deterministic for a deterministic snapshot.
    """
    flat: dict[str, Any] = {}
    for key, value in snapshot.items():
        name = f"{prefix}{sep}{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten_snapshot(value, prefix=name, sep=sep))
        else:
            flat[name] = value
    return flat


class HotCounts:
    """One open file's count of the per-call cases that build no event:
    writes that fit their open chunk, reads served from resident cache
    chunks.

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
    """Thread-safe counter registry fed by the pipeline event stream.

    ``chunk_size``/``pool_chunks`` are structural gauges reported in the
    snapshot's ``pool`` section; everything else is counted from events
    or folded from the open files' :class:`HotCounts`.  Reading an
    individual attribute is a single-int read (atomic in CPython), but
    ``writes``, ``bytes_in``, ``reads``, ``bytes_read``, ``read_hits``,
    their per-tenant shares and the ingest and read-boundary copies are
    only as fresh as the last fold; use :meth:`snapshot`
    for those, and whenever fields must be consistent with each other.
    """

    def __init__(
        self,
        chunk_size: int = 0,
        pool_chunks: int = 0,
        tenants: Iterable[str] = ("default",),
        tiers: int = 0,
        fsync_tier: int = -1,
    ):
        self.chunk_size = chunk_size
        self.pool_chunks = pool_chunks
        self._lock = threading.Lock()
        # Pre-seeded per-tenant counters: configured tenants appear in
        # the snapshot with zeros even when idle, so both planes report
        # the identical key set for the identical config.
        self.tenants: dict[str, dict[str, Any]] = {
            name: _new_tenant_counters() for name in tenants
        }
        # Pre-seeded per-tier counters, same reasoning (str keys so the
        # section survives a JSON round trip unchanged).
        self.tier_levels = tiers
        self.fsync_tier = fsync_tier
        self.sync_through = -1
        self.tiers: dict[str, dict[str, Any]] = {
            str(level): _new_tier_counters() for level in range(tiers)
        }
        # Hot counters of the files now open, by (path, tenant); folded
        # by every snapshot, folded and dropped at FileClosed.
        self._hot: dict[tuple[str, str], HotCounts] = {}
        # -- write path
        self.writes = 0
        self.bytes_in = 0
        self.write_through_bytes = 0
        self.seal_counts: dict[SealReason, int] = {r: 0 for r in SealReason}
        # -- IO workers
        self.chunks_written = 0
        self.bytes_out = 0
        self.io_errors = 0
        self.errors_latched = 0
        # -- coalesced writeback (all zero with writeback_batch_chunks=1)
        self.batches_written = 0
        self.batch_chunks = 0
        self.batch_bytes = 0
        self.batch_errors = 0
        self.batches_broken = 0
        self.batch_histogram: dict[int, int] = {}
        # -- resilience (retry/backoff + circuit breaker)
        self.chunks_retried = 0
        self.breaker_trips = 0
        self.breaker_recoveries = 0
        self.degraded_writes = 0
        self.degraded_bytes = 0
        # -- read path (readahead cache; zeros with the cache disabled)
        self.reads = 0
        self.bytes_read = 0
        self.read_hits = 0
        self.read_misses = 0
        self.chunks_prefetched = 0
        self.prefetch_dropped = 0
        self.prefetch_wasted = 0
        self.window_grown = 0
        self.window_shrunk = 0
        # The width carried on the last Window* event (0 until the
        # adaptive controller moves); a gauge, not a counter.
        self.current_window = 0
        # Per-tenant drain-wait samples retained for the p50/p99
        # histogram; FileDrained counts are modest (one per close/fsync
        # wait), so keeping them is cheap.
        self._drain_samples: dict[str, list[float]] = {
            name: [] for name in self.tenants
        }
        # -- incremental (delta) checkpointing (zeros without delta use)
        self.delta_generations = 0
        self.delta_dirty_chunks = 0
        self.delta_clean_chunks = 0
        self.delta_bytes_written = 0
        self.delta_logical_bytes = 0
        self.delta_manifest_writes = 0
        self.delta_manifest_bytes = 0
        self.delta_restores = 0
        self.delta_reassembly_reads = 0
        self.delta_reassembly_bytes = 0
        # -- copy accounting (DESIGN.md §3k; the stats()["mem"] section)
        self.copies = CopyLedger()
        # -- files
        self.open_files = 0
        # -- drain waits (close/fsync/unmount) and pool shutdown
        self.drain_waits = 0
        self.drain_waits_blocked = 0
        self.drain_time_total = 0.0
        self.drain_time_max = 0.0
        self.shutdown_drains = 0
        self.shutdown_drain_time = 0.0
        # -- pressure gauges
        self.pool_acquires = 0
        self.pool_waits = 0
        self.pool_max_in_use = 0
        self.pool_releases = 0
        self.queue_puts = 0
        self.queue_max_depth = 0
        self.admission_waits = 0

    def _tenant(self, name: str) -> dict[str, Any]:
        """The per-tenant counter dict (caller holds the lock); tenants
        outside the pre-seeded set (explicit unconfigured ids) appear on
        first event."""
        counters = self.tenants.get(name)
        if counters is None:
            counters = self.tenants[name] = _new_tenant_counters()
        return counters

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
        holds the lock) — through the same arithmetic as the
        ``WriteObserved``/``ReadObserved``/``ReadHit``/``CopyObserved``
        events these calls replace."""
        counts = hot.writes
        writes, nbytes, copies = (now - was for now, was in zip(counts, hot.folded_writes))
        if writes:
            self._count_writes(hot.tenant, writes, nbytes)
            self.copies.record(INGEST, nbytes, copies)
            hot.folded_writes = counts
        counts = hot.reads
        reads, nbytes, hits = (now - was for now, was in zip(counts, hot.folded_reads))
        if reads:
            self._count_reads(hot.tenant, reads, nbytes)
            self.read_hits += hits
            self.copies.record(READ_BOUNDARY, nbytes, reads)
            hot.folded_reads = counts

    # -- event intake ---------------------------------------------------------

    def on_event(self, event: PipelineEvent) -> None:
        handler = _HANDLERS.get(type(event))
        if handler is not None:
            with self._lock:
                handler(self, event)

    # One handler per event type (caller holds the lock); ``_HANDLERS``
    # below maps each exact type to its handler — no event class is
    # subclassed, so the exact type is the whole dispatch.

    def _count_writes(self, tenant: str, writes: int, nbytes: int) -> None:
        """``writes`` accepted application writes of ``nbytes`` in all
        — one ``WriteObserved``, or what a file's hot counters gathered
        since they were last folded."""
        self.writes += writes
        self.bytes_in += nbytes
        t = self._tenant(tenant)
        t["writes"] += writes
        t["bytes_in"] += nbytes

    def _on_write(self, event: WriteObserved) -> None:
        self._count_writes(event.tenant, 1, event.length)
        if event.write_through:
            self.write_through_bytes += event.length
        if event.degraded:
            self.degraded_writes += 1
            self.degraded_bytes += event.length

    def _on_copy(self, event: CopyObserved) -> None:
        self.copies.record(event.site, event.length)

    def _on_chunk_sealed(self, event: ChunkSealed) -> None:
        self.seal_counts[event.reason] += 1
        self._tenant(event.tenant)["chunks_queued"] += 1

    def _on_chunk_written(self, event: ChunkWritten) -> None:
        t = self._tenant(event.tenant)
        if event.error is None:
            self.chunks_written += 1
            self.bytes_out += event.length
            t["chunks_written"] += 1
            t["bytes_out"] += event.length
        else:
            self.io_errors += 1
            t["io_errors"] += 1

    def _on_batch_written(self, event: BatchWritten) -> None:
        if event.error is None:
            self.batches_written += 1
            self.batch_chunks += event.chunks
            self.batch_bytes += event.length
            self.batch_histogram[event.chunks] = (
                self.batch_histogram.get(event.chunks, 0) + 1
            )
        else:
            self.batch_errors += 1

    def _on_batch_broken(self, event: BatchBroken) -> None:
        self.batches_broken += 1

    def _on_pool_pressure(self, event: PoolPressure) -> None:
        if event.released:
            self.pool_releases += 1
            return
        self.pool_acquires += 1
        if event.waited:
            self.pool_waits += 1
        if event.in_use > self.pool_max_in_use:
            self.pool_max_in_use = event.in_use
        t = self._tenant(event.tenant)
        if event.tenant_in_use > t["pool_max_in_use"]:
            t["pool_max_in_use"] = event.tenant_in_use

    def _on_queue_pressure(self, event: QueuePressure) -> None:
        self.queue_puts += 1
        if event.depth > self.queue_max_depth:
            self.queue_max_depth = event.depth
        t = self._tenant(event.tenant)
        if event.tenant_depth > t["queue_max_depth"]:
            t["queue_max_depth"] = event.tenant_depth

    def _on_admission_wait(self, event: AdmissionWait) -> None:
        self.admission_waits += 1
        self._tenant(event.tenant)["admission_waits"] += 1

    def _on_file_opened(self, event: FileOpened) -> None:
        self.open_files += 1
        self._hot_cell(event.path, event.tenant).opens += 1

    def _on_file_closed(self, event: FileClosed) -> None:
        self.open_files -= 1
        key = (event.path, event.tenant)
        hot = self._hot.get(key)
        if hot is not None:
            hot.opens -= 1
            if hot.opens <= 0:
                self._fold(hot)
                del self._hot[key]

    def _on_error_latched(self, event: ErrorLatched) -> None:
        self.errors_latched += 1

    def _on_chunk_retried(self, event: ChunkRetried) -> None:
        self.chunks_retried += 1

    def _on_backend_degraded(self, event: BackendDegraded) -> None:
        self.breaker_trips += 1

    def _on_backend_recovered(self, event: BackendRecovered) -> None:
        self.breaker_recoveries += 1

    def _on_file_drained(self, event: FileDrained) -> None:
        self.drain_waits += 1
        if event.outstanding:
            self.drain_waits_blocked += 1
        self.drain_time_total += event.duration
        if event.duration > self.drain_time_max:
            self.drain_time_max = event.duration
        t = self._tenant(event.tenant)
        t["drain_waits"] += 1
        if event.outstanding:
            t["drain_waits_blocked"] += 1
        t["drain_time_total"] += event.duration
        if event.duration > t["drain_time_max"]:
            t["drain_time_max"] = event.duration
        self._drain_samples.setdefault(event.tenant, []).append(event.duration)

    def _on_workers_drained(self, event: WorkersDrained) -> None:
        self.shutdown_drains += 1
        self.shutdown_drain_time += event.duration

    def _count_reads(self, tenant: str, reads: int, nbytes: int) -> None:
        """``reads`` application reads asking for ``nbytes`` in all —
        one ``ReadObserved``, or what a file's hot counters gathered
        since they were last folded."""
        self.reads += reads
        self.bytes_read += nbytes
        t = self._tenant(tenant)
        t["reads"] += reads
        t["bytes_read"] += nbytes

    def _on_read(self, event: ReadObserved) -> None:
        self._count_reads(event.tenant, 1, event.length)

    def _on_read_hit(self, event: ReadHit) -> None:
        self.read_hits += 1

    def _on_read_miss(self, event: ReadMiss) -> None:
        self.read_misses += 1

    def _on_chunk_prefetched(self, event: ChunkPrefetched) -> None:
        self.chunks_prefetched += 1

    def _on_prefetch_dropped(self, event: PrefetchDropped) -> None:
        self.prefetch_dropped += 1

    def _on_prefetch_wasted(self, event: PrefetchWasted) -> None:
        self.prefetch_wasted += 1

    def _on_window_grown(self, event: WindowGrown) -> None:
        self.window_grown += 1
        self.current_window = event.window

    def _on_window_shrunk(self, event: WindowShrunk) -> None:
        self.window_shrunk += 1
        self.current_window = event.window

    def _on_delta_committed(self, event: DeltaGenerationCommitted) -> None:
        self.delta_generations += 1
        self.delta_dirty_chunks += event.dirty_chunks
        self.delta_clean_chunks += event.clean_chunks
        self.delta_bytes_written += event.dirty_bytes
        self.delta_logical_bytes += event.logical_bytes
        self.delta_manifest_writes += 1
        self.delta_manifest_bytes += event.manifest_bytes

    def _on_delta_restored(self, event: DeltaRestored) -> None:
        self.delta_restores += 1
        self.delta_reassembly_reads += event.reassembly_reads
        self.delta_reassembly_bytes += event.reassembly_bytes

    def _on_tier_staged(self, event: TierStaged) -> None:
        t = self.tiers["0"]
        t["chunks_staged"] += 1
        t["bytes_staged"] += event.length

    def _on_tier_migrated(self, event: TierMigrated) -> None:
        dst = self.tiers[str(event.tier)]
        if event.error is None:
            dst["chunks_staged"] += event.chunks
            dst["bytes_staged"] += event.length
            src = self.tiers[str(event.tier - 1)]
            src["chunks_migrated"] += event.chunks
            src["bytes_migrated"] += event.length
        else:
            dst["migrate_errors"] += 1
            dst["chunks_stranded"] += event.chunks
            dst["bytes_stranded"] += event.length

    def _on_tier_pump_pressure(self, event: TierPumpPressure) -> None:
        t = self.tiers[str(event.tier)]
        if event.depth > t["pump_queue_max"]:
            t["pump_queue_max"] = event.depth

    def _on_tier_synced(self, event: TierSynced) -> None:
        self.tiers[str(event.tier)]["syncs"] += 1
        if event.tier > self.sync_through:
            self.sync_through = event.tier

    def _on_tier_retried(self, event: TierRetried) -> None:
        self.tiers[str(event.tier)]["migrate_retries"] += 1

    def _on_tier_degraded(self, event: TierDegraded) -> None:
        self.tiers[str(event.tier)]["breaker_trips"] += 1

    def _on_tier_recovered(self, event: TierRecovered) -> None:
        self.tiers[str(event.tier)]["breaker_recoveries"] += 1

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One atomic, plane-identical view of every counter."""
        with self._lock:
            for hot in self._hot.values():
                self._fold(hot)
            return {
                "writes": self.writes,
                "bytes_in": self.bytes_in,
                "write_through_bytes": self.write_through_bytes,
                "chunks_written": self.chunks_written,
                "bytes_out": self.bytes_out,
                "io_errors": self.io_errors,
                "seals": {r.value: c for r, c in self.seal_counts.items()},
                "open_files": self.open_files,
                "pool": {
                    "chunks": self.pool_chunks,
                    "chunk_size": self.chunk_size,
                    "acquires": self.pool_acquires,
                    "waits": self.pool_waits,
                    "max_in_use": self.pool_max_in_use,
                    "releases": self.pool_releases,
                },
                "queue": {
                    "puts": self.queue_puts,
                    "max_depth": self.queue_max_depth,
                    "admission_waits": self.admission_waits,
                },
                "tenants": {
                    name: dict(
                        self.tenants[name],
                        drain_p50=nearest_rank(
                            self._drain_samples.get(name, []), 50.0
                        ),
                        drain_p99=nearest_rank(
                            self._drain_samples.get(name, []), 99.0
                        ),
                    )
                    for name in sorted(self.tenants)
                },
                "batch": {
                    "batches": self.batches_written,
                    "chunks": self.batch_chunks,
                    "bytes": self.batch_bytes,
                    "errors": self.batch_errors,
                    "broken": self.batches_broken,
                    # str keys so the section survives a JSON round trip
                    # unchanged (perf artifacts re-load it for diffing)
                    "per_batch": {
                        str(k): v for k, v in sorted(self.batch_histogram.items())
                    },
                },
                "drain": {
                    "waits": self.drain_waits,
                    "waits_blocked": self.drain_waits_blocked,
                    "time_total": self.drain_time_total,
                    "time_max": self.drain_time_max,
                    "shutdown_drains": self.shutdown_drains,
                    "shutdown_time_total": self.shutdown_drain_time,
                },
                "read": {
                    "reads": self.reads,
                    "bytes_read": self.bytes_read,
                    "hits": self.read_hits,
                    "misses": self.read_misses,
                    "prefetched": self.chunks_prefetched,
                    "prefetch_dropped": self.prefetch_dropped,
                    "prefetch_wasted": self.prefetch_wasted,
                    "window_grown": self.window_grown,
                    "window_shrunk": self.window_shrunk,
                    "current_window": self.current_window,
                },
                "tiers": {
                    "levels": self.tier_levels,
                    "fsync_tier": self.fsync_tier,
                    "sync_through": self.sync_through,
                    "per_tier": {
                        level: dict(
                            counters,
                            bytes_resident=counters["bytes_staged"]
                            - counters["bytes_migrated"],
                        )
                        for level, counters in sorted(
                            self.tiers.items(), key=lambda kv: int(kv[0])
                        )
                    },
                },
                "mem": self.copies.snapshot(),
                "delta": {
                    "generations": self.delta_generations,
                    "dirty_chunks": self.delta_dirty_chunks,
                    "clean_chunks": self.delta_clean_chunks,
                    "bytes_written": self.delta_bytes_written,
                    "logical_bytes": self.delta_logical_bytes,
                    "manifest_writes": self.delta_manifest_writes,
                    "manifest_bytes": self.delta_manifest_bytes,
                    "restores": self.delta_restores,
                    "reassembly_reads": self.delta_reassembly_reads,
                    "reassembly_bytes": self.delta_reassembly_bytes,
                },
                "resilience": {
                    "chunks_retried": self.chunks_retried,
                    "errors_latched": self.errors_latched,
                    "breaker_trips": self.breaker_trips,
                    "breaker_recoveries": self.breaker_recoveries,
                    "degraded_writes": self.degraded_writes,
                    "degraded_bytes": self.degraded_bytes,
                },
            }


_HANDLERS = {
    WriteObserved: PipelineStats._on_write,
    CopyObserved: PipelineStats._on_copy,
    ChunkSealed: PipelineStats._on_chunk_sealed,
    ChunkWritten: PipelineStats._on_chunk_written,
    BatchWritten: PipelineStats._on_batch_written,
    BatchBroken: PipelineStats._on_batch_broken,
    PoolPressure: PipelineStats._on_pool_pressure,
    QueuePressure: PipelineStats._on_queue_pressure,
    AdmissionWait: PipelineStats._on_admission_wait,
    FileOpened: PipelineStats._on_file_opened,
    FileClosed: PipelineStats._on_file_closed,
    ErrorLatched: PipelineStats._on_error_latched,
    ChunkRetried: PipelineStats._on_chunk_retried,
    BackendDegraded: PipelineStats._on_backend_degraded,
    BackendRecovered: PipelineStats._on_backend_recovered,
    FileDrained: PipelineStats._on_file_drained,
    WorkersDrained: PipelineStats._on_workers_drained,
    ReadObserved: PipelineStats._on_read,
    ReadHit: PipelineStats._on_read_hit,
    ReadMiss: PipelineStats._on_read_miss,
    ChunkPrefetched: PipelineStats._on_chunk_prefetched,
    PrefetchDropped: PipelineStats._on_prefetch_dropped,
    PrefetchWasted: PipelineStats._on_prefetch_wasted,
    WindowGrown: PipelineStats._on_window_grown,
    WindowShrunk: PipelineStats._on_window_shrunk,
    DeltaGenerationCommitted: PipelineStats._on_delta_committed,
    DeltaRestored: PipelineStats._on_delta_restored,
    TierStaged: PipelineStats._on_tier_staged,
    TierMigrated: PipelineStats._on_tier_migrated,
    TierPumpPressure: PipelineStats._on_tier_pump_pressure,
    TierSynced: PipelineStats._on_tier_synced,
    TierRetried: PipelineStats._on_tier_retried,
    TierDegraded: PipelineStats._on_tier_degraded,
    TierRecovered: PipelineStats._on_tier_recovered,
}
