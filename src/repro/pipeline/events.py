"""The unified pipeline event stream.

Every state transition of the aggregation pipeline — on either plane —
is published as one of these event records through the mount's
:class:`~repro.pipeline.kernel.PipelineKernel`.  Consumers subscribe a
:class:`PipelineObserver`; the canonical subscriber is
:class:`~repro.pipeline.stats.PipelineStats`, which derives every
counter the ``stats()`` snapshot reports, but trace recorders
(:class:`~repro.trace.recorder.TraceObserver`) and the plain
:class:`EventLog` tap the same stream.

Timestamps (``t``/``start``/``duration``) are in the emitting plane's
clock: wall seconds on the functional plane, virtual seconds on the
timing plane.  Events may be emitted while per-file pipeline locks are
held — observers must not call back into the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .planner import SealReason

__all__ = [
    "PipelineEvent",
    "PipelineObserver",
    "EventLog",
    "AdmissionWait",
    "FileOpened",
    "FileClosed",
    "WriteObserved",
    "ChunkSealed",
    "ChunkWritten",
    "BatchWritten",
    "BatchBroken",
    "ChunkRetried",
    "DeltaGenerationCommitted",
    "DeltaRestored",
    "FileDrained",
    "WorkersDrained",
    "ErrorLatched",
    "BackendDegraded",
    "BackendRecovered",
    "PoolPressure",
    "QueuePressure",
    "ReadObserved",
    "CopyObserved",
    "ReadHit",
    "ReadMiss",
    "ChunkPrefetched",
    "PrefetchWasted",
    "PrefetchDropped",
    "WindowGrown",
    "WindowShrunk",
    "TierStaged",
    "TierMigrated",
    "TierPumpPressure",
    "TierSynced",
    "TierRetried",
    "TierDegraded",
    "TierRecovered",
]


@dataclass(frozen=True)
class PipelineEvent:
    """Base class for everything on the stream."""


@dataclass(frozen=True)
class FileOpened(PipelineEvent):
    """A file entered the pipeline (first open of the path)."""

    path: str
    t: float = 0.0
    tenant: str = "default"


@dataclass(frozen=True)
class FileClosed(PipelineEvent):
    """The last reference to a file left the pipeline."""

    path: str
    t: float = 0.0
    tenant: str = "default"


@dataclass(frozen=True)
class WriteObserved(PipelineEvent):
    """One application ``write()`` was accepted (Section IV-B entry).

    ``degraded`` marks a write served synchronously because the backend
    circuit breaker is open (degraded writes are also write-through)."""

    path: str
    offset: int
    length: int
    start: float
    duration: float
    write_through: bool = False
    degraded: bool = False
    tenant: str = "default"


@dataclass(frozen=True)
class ChunkSealed(PipelineEvent):
    """A chunk was sealed and handed to the work queue
    (``write_chunk_count`` was incremented)."""

    path: str
    file_offset: int
    length: int
    reason: SealReason
    t: float = 0.0
    tenant: str = "default"


@dataclass(frozen=True)
class ChunkWritten(PipelineEvent):
    """An IO worker finished one chunk writeback
    (``complete_chunk_count`` was incremented).  ``error`` is the
    backend failure, if any — the write then moved no bytes."""

    path: str
    file_offset: int
    length: int
    start: float
    duration: float
    error: Optional[BaseException] = None
    tenant: str = "default"


@dataclass(frozen=True)
class BatchWritten(PipelineEvent):
    """An IO worker finished one coalesced writeback: ``chunks``
    contiguous chunks of one file (``length`` bytes in total, starting
    at ``file_offset``) issued as a single vectored backend write.
    Emitted alongside the per-chunk ``ChunkWritten`` events, which keep
    the drain accounting; ``error`` is the backend failure, if any — it
    is then attributed to every chunk in the batch."""

    path: str
    file_offset: int
    chunks: int
    length: int
    start: float
    duration: float
    error: Optional[BaseException] = None
    tenant: str = "default"


@dataclass(frozen=True)
class BatchBroken(PipelineEvent):
    """A gathered batch was not issued as one vectored write and fell
    back to per-chunk writes — e.g. the circuit breaker opened between
    the gather and the issue (``reason`` says why)."""

    path: str
    file_offset: int
    chunks: int
    reason: str
    t: float = 0.0


@dataclass(frozen=True)
class ChunkRetried(PipelineEvent):
    """A chunk writeback attempt failed and will be retried after
    ``delay`` seconds of backoff.  ``attempt`` is the 1-based attempt
    that failed; degraded-mode probe writes reuse this event with the
    write's file offset."""

    path: str
    file_offset: int
    attempt: int
    delay: float
    error: BaseException
    t: float = 0.0


@dataclass(frozen=True)
class BackendDegraded(PipelineEvent):
    """The backend health tracker tripped its circuit breaker after
    ``consecutive_failures`` failed write attempts; the mount degrades
    to synchronous write-through until a probe write succeeds."""

    consecutive_failures: int
    t: float = 0.0


@dataclass(frozen=True)
class BackendRecovered(PipelineEvent):
    """A probe write succeeded while the circuit breaker was open; the
    mount restored asynchronous aggregation after ``downtime`` seconds
    in degraded mode."""

    downtime: float
    t: float = 0.0


@dataclass(frozen=True)
class FileDrained(PipelineEvent):
    """A drain wait (close()/fsync()/unmount, or a read-your-writes
    read) observed ``complete_chunk_count == write_chunk_count`` after
    ``duration`` seconds.  ``outstanding`` is how many chunks were in
    flight when the wait began — 0 means the wait was satisfied
    immediately."""

    path: str
    duration: float
    outstanding: int = 0
    t: float = 0.0
    tenant: str = "default"


@dataclass(frozen=True)
class WorkersDrained(PipelineEvent):
    """The IO worker pool finished its drain-close at shutdown:
    the work queue emptied and every worker exited after ``duration``
    seconds."""

    duration: float
    t: float = 0.0


@dataclass(frozen=True)
class ErrorLatched(PipelineEvent):
    """An asynchronous writeback failure was latched into the file
    entry, to be raised from the next close()/fsync()."""

    path: str
    error: BaseException


@dataclass(frozen=True)
class PoolPressure(PipelineEvent):
    """A buffer-pool chunk changed hands.

    ``released=False`` (an acquire): ``waited`` means the writer blocked
    for it (the Figure 5 backpressure stall).  ``released=True``: the
    chunk went back to the pool — emitted so the ``in_use`` gauge falls
    in the stats timeline as well as rises.  ``tenant``/``tenant_in_use``
    attribute the movement to the owning tenant's quota accounting.
    """

    waited: bool
    in_use: int
    tenant: str = "default"
    tenant_in_use: int = 0
    released: bool = False


@dataclass(frozen=True)
class QueuePressure(PipelineEvent):
    """A chunk was enqueued on the work queue at the given global depth;
    ``tenant_depth`` is the enqueuing tenant's own high-band depth."""

    depth: int
    tenant: str = "default"
    tenant_depth: int = 0


@dataclass(frozen=True)
class AdmissionWait(PipelineEvent):
    """A tenant's high-band put blocked at admission control: the tenant
    was at its ``queue_quota`` (``depth`` queued chunks), so the writer
    parked instead of flooding the queue."""

    tenant: str
    depth: int
    t: float = 0.0


@dataclass(frozen=True)
class ReadObserved(PipelineEvent):
    """One application ``read()``/``pread()`` was served.

    Emitted on every read path — passthrough, degraded and cached alike
    — so the ``read`` stats section counts reads even with the readahead
    cache disabled.  ``length`` is the *requested* size (both planes
    agree on it; the functional plane's short reads at EOF would
    otherwise diverge from the data-free timing plane)."""

    path: str
    offset: int
    length: int
    start: float
    duration: float
    tenant: str = "default"


@dataclass(frozen=True)
class CopyObserved(PipelineEvent):
    """The pipeline materialized ``length`` bytes: one of the budgeted
    data copies on the hot path (DESIGN.md §3k).

    ``site`` names the call-site class — ``"ingest"`` (user buffer →
    pooled chunk buffer, the single copy the write path is allowed),
    ``"read_boundary"`` (cached view(s) → the ``bytes`` handed across
    the POSIX-shim boundary) or ``"fetch"`` (backend → pooled cache
    buffer when a read fills a cached chunk).  Backend-*internal*
    materializations (e.g. a passthrough ``pread``) are a property of
    the backend, not the pipeline, and are documented at the
    :class:`~repro.backends.base.Backend` interface instead of counted
    here — both planes therefore emit identical copy streams."""

    path: str
    site: str
    length: int
    t: float = 0.0


@dataclass(frozen=True)
class ReadHit(PipelineEvent):
    """A chunk-aligned cache lookup found the chunk resident or already
    in flight (a wait-then-serve on an issued prefetch still counts as a
    hit: the fetch was saved either way)."""

    path: str
    file_offset: int
    t: float = 0.0


@dataclass(frozen=True)
class ReadMiss(PipelineEvent):
    """A chunk-aligned cache lookup found nothing; the chunk is fetched
    on demand (or, with the pool starved, the slice is read uncached)."""

    path: str
    file_offset: int
    t: float = 0.0


@dataclass(frozen=True)
class ChunkPrefetched(PipelineEvent):
    """An asynchronous readahead fetch completed and its chunk entered
    the cache."""

    path: str
    file_offset: int
    length: int
    t: float = 0.0


@dataclass(frozen=True)
class PrefetchWasted(PipelineEvent):
    """A successfully prefetched chunk left the cache (eviction,
    invalidation or teardown) without ever serving a read."""

    path: str
    file_offset: int
    t: float = 0.0


@dataclass(frozen=True)
class PrefetchDropped(PipelineEvent):
    """An issued prefetch was abandoned before delivering: the pool had
    no free chunk, the backend fetch failed, or the entry was evicted
    while still in flight.  Dropped prefetches are silent — the chunk is
    simply refetched on demand when a read wants it."""

    path: str
    file_offset: int
    t: float = 0.0


@dataclass(frozen=True)
class WindowGrown(PipelineEvent):
    """The adaptive readahead window widened by one chunk after a
    streak of consecutive sequential hits; ``window`` is the new
    width.  Never emitted with ``readahead_adaptive`` off."""

    path: str
    window: int
    t: float = 0.0


@dataclass(frozen=True)
class WindowShrunk(PipelineEvent):
    """The adaptive readahead window halved under cache pressure — an
    unread prefetch was evicted, a fetch was dropped on a starved pool,
    or a delivered prefetch went to waste; ``window`` is the new width.
    Never emitted with ``readahead_adaptive`` off."""

    path: str
    window: int
    t: float = 0.0


@dataclass(frozen=True)
class DeltaGenerationCommitted(PipelineEvent):
    """One incremental checkpoint generation committed: its dirty
    chunks landed in the generation file, the manifest write succeeded,
    and the chunk-ownership chain advanced.  ``dirty_bytes`` is what the
    pipeline actually wrote for data; ``logical_bytes`` is the full
    image a non-delta checkpoint would have rewritten."""

    path: str
    generation: int
    dirty_chunks: int
    clean_chunks: int
    dirty_bytes: int
    logical_bytes: int
    manifest_bytes: int
    t: float = 0.0


@dataclass(frozen=True)
class DeltaRestored(PipelineEvent):
    """A delta restore reassembled the current image across the
    generation chain: ``reassembly_reads`` contiguous same-owner runs
    read through the normal (cacheable) read path, ``reassembly_bytes``
    logical bytes delivered."""

    path: str
    generation: int
    reassembly_reads: int
    reassembly_bytes: int
    t: float = 0.0


@dataclass(frozen=True)
class TierStaged(PipelineEvent):
    """A hierarchical mount accepted one write extent into tier 0.

    The application's write is complete at this point; the extent now
    owes one arrival (a :class:`TierMigrated`) to every deeper tier."""

    path: str
    file_offset: int
    length: int
    t: float = 0.0


@dataclass(frozen=True)
class TierMigrated(PipelineEvent):
    """A pump op finished moving ``chunks`` staged extents (``length``
    bytes, starting at ``file_offset``) from tier ``tier - 1`` into tier
    ``tier``.  ``error`` is the surviving backend failure, if any — the
    extents then *strand* at the shallower tier (they stay durable
    there; deeper tiers never receive them)."""

    tier: int
    path: str
    file_offset: int
    length: int
    chunks: int
    start: float
    duration: float
    error: Optional[BaseException] = None


@dataclass(frozen=True)
class TierPumpPressure(PipelineEvent):
    """A migration extent was enqueued for the pump at the given queue
    depth, destined for tier ``tier``."""

    tier: int
    depth: int


@dataclass(frozen=True)
class TierSynced(PipelineEvent):
    """An ``fsync`` completed through tier ``tier``: every extent the
    file staged has arrived at (or stranded short of) tiers 0..``tier``
    and each of those tiers acknowledged its own fsync."""

    tier: int
    path: str
    t: float = 0.0


@dataclass(frozen=True)
class TierRetried(PipelineEvent):
    """A migration attempt into tier ``tier`` failed and will be
    retried after ``delay`` seconds of backoff (the per-tier analogue of
    :class:`ChunkRetried`; kept separate so deep-tier trouble is never
    attributed to the mount's own backend)."""

    tier: int
    path: str
    file_offset: int
    attempt: int
    delay: float
    error: BaseException
    t: float = 0.0


@dataclass(frozen=True)
class TierDegraded(PipelineEvent):
    """Tier ``tier``'s own circuit breaker tripped after
    ``consecutive_failures`` failed migration attempts; extents bound
    for it keep probing, and on exhaustion strand one tier shallower."""

    tier: int
    consecutive_failures: int
    t: float = 0.0


@dataclass(frozen=True)
class TierRecovered(PipelineEvent):
    """A migration into tier ``tier`` succeeded while its breaker was
    open; the tier resumed normal staging after ``downtime`` seconds."""

    tier: int
    downtime: float
    t: float = 0.0


class PipelineObserver:
    """Hook protocol for the unified event stream.

    Subclass and override :meth:`on_event`; dispatch on the event type.
    Observers are invoked synchronously at the emission point (possibly
    under per-file locks) and must be cheap and non-reentrant.
    """

    def on_event(self, event: PipelineEvent) -> None:  # pragma: no cover
        """Receive one event.  Default: ignore."""


class EventLog(PipelineObserver):
    """Every event on the stream, in emission order — the one log a
    test, an experiment or a report reads instead of a recorder of its
    own.  (``list.append`` is atomic, so writers and IO workers may
    emit at once.)"""

    def __init__(self) -> None:
        self.events: list[PipelineEvent] = []

    def on_event(self, event: PipelineEvent) -> None:
        self.events.append(event)

    def of(self, *types: type) -> list[PipelineEvent]:
        """The logged events of any of ``types``, in order."""
        return [e for e in self.events if isinstance(e, types)]
