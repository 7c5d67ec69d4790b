"""The plane-agnostic aggregation-pipeline kernel.

This is the one place the paper's per-file pipeline state machine
(Section IV) exists: chunk fill/seal planning, the
``write_chunk_count``/``complete_chunk_count`` drain accounting, and the
latched writeback-error contract.  The threaded runtime
(:mod:`repro.core.mount`) and the discrete-event model
(:mod:`repro.simcrfs.model`) both drive it; only *execution* differs
per plane — real buffers, locks and blocking waits on the functional
plane, generators and virtual-clock waits on the timing plane.

Split of responsibilities:

* :class:`FilePipeline` — per-file state machine.  ``plan_*`` methods
  decide what happens (fail-fast on a latched error, then delegate to
  the shared :class:`~repro.pipeline.planner.WritePlanner`);
  ``note_*`` methods account for what the plane executed and emit the
  matching record on the unified stream.  The per-call cases that
  can neither block nor seal have plain functions of their own: a
  write that fits the open chunk (:meth:`FilePipeline.fit_write`) and a
  read served from resident cache chunks
  (:func:`repro.pipeline.readahead.read_resident`, which asks
  :attr:`FilePipeline.clean` and uses ``count_read``); each counts its
  facts in the file's hot cell, and its caller builds the records
  (``_observe_write``/``_observe_read``) only for the types routed.
  The drain *predicate* (``drained``) and the raise-exactly-once error
  contract (:meth:`FilePipeline.raise_latched`) live here; how a
  caller blocks until drained is the plane's business (condition
  variables vs. sim events).
* :class:`PipelineKernel` — per-mount: the route table that delivers
  each record by its type, the shared
  :class:`~repro.pipeline.stats.PipelineStats` registry, and the
  :class:`FilePipeline` factory.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

from ..errors import BackendIOError, FileStateError
from .copies import INGEST, READ_BOUNDARY
from .delta import DeltaTracker
from .events import (
    BatchBroken,
    BatchWritten,
    ChunkRetried,
    ChunkSealed,
    ChunkWritten,
    CopyObserved,
    ErrorLatched,
    FileClosed,
    FileDrained,
    FileOpened,
    PipelineEvent,
    PipelineObserver,
    ReadObserved,
    WriteObserved,
)
from .planner import PlanOp, Seal, WritePlanner
from .stats import PipelineStats

__all__ = ["FilePipeline", "PipelineKernel"]

EmitFn = Callable[[PipelineEvent], None]


class _NullLock:
    """No-op lock for single-threaded (timing-plane) pipelines."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class _Emit(PipelineObserver):
    """A bare ``emit`` callable as an observer of every type."""

    def __init__(self, emit: EmitFn):
        self.on_event = emit


def _own_kernel(
    chunk_size: int, emit: EmitFn | None, clock: Callable[[], float] | None
) -> "PipelineKernel":
    """The kernel of a pipeline part built without its mount's: every
    record goes to ``emit`` (if any), and the registry is read by
    nobody."""
    return PipelineKernel(chunk_size, clock=clock, observers=() if emit is None else (_Emit(emit),))


class FilePipeline:
    """Per-file aggregation state machine — shared by both planes.

    ``lock`` protects the drain counters and the error latch; the
    functional plane passes the :class:`threading.RLock` its drain
    condition is built on, the timing plane passes nothing (virtual
    time needs no lock).  ``kernel`` is the mount's
    :class:`PipelineKernel`, which supplies the stream, the registry and
    the clock (``time.perf_counter`` or the simulator's ``now``); a
    pipeline built without one gets its own, which routes every record
    to ``emit`` and timestamps them with ``clock``.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int,
        emit: EmitFn | None = None,
        lock: Any = None,
        clock: Callable[[], float] | None = None,
        tenant: str = "default",
        kernel: "PipelineKernel | None" = None,
    ):
        if kernel is None:
            kernel = _own_kernel(chunk_size, emit, clock)
        self.path = path
        self.tenant = tenant
        self.planner = WritePlanner(chunk_size)
        self.clock = kernel.clock
        self._kernel = kernel
        self._emit = kernel.emit
        # Writes that fit the open chunk and reads of resident cache
        # chunks are counted in a cell the registry folds.
        self._hot = kernel.stats.hot_counts(path, tenant)
        self._lock = lock if lock is not None else _NullLock()
        self.write_chunk_count = 0  # chunks handed to the work queue
        self.complete_chunk_count = 0  # chunks the IO workers finished
        self._error: BaseException | None = None

    # -- planning (fail-fast + delegate to the shared planner) ----------------

    def _check_writable(self) -> None:
        """Fail fast under the lock: a prior async write already failed;
        accepting more data into chunks would silently lose it."""
        if self._error is not None:
            raise BackendIOError(
                f"{self.path}: earlier async chunk write failed: {self._error}"
            ) from self._error

    def plan_write(self, offset: int, length: int) -> list[PlanOp]:
        """Plan one aggregated write; raises if an error is latched."""
        with self._lock:
            self._check_writable()
            return self.planner.write(offset, length)

    def fit_write(self, offset: int, length: int) -> int | None:
        """Plan and count a write that continues the append point and
        leaves room in the open chunk — or is empty — by arithmetic
        alone.

        Returns the chunk offset to copy the ``length`` bytes to, having
        advanced the planner exactly as
        :meth:`~repro.pipeline.planner.WritePlanner.write` would (its
        plan for this case is one ``Fill``, or nothing) and counted the
        write, and its one ingest copy, in the file's hot counters —
        what :meth:`note_write` counts under the registry lock (an
        empty write copies nothing).  Returns None, with
        planner and counters untouched, for every other write — no
        chunk open yet, the chunk fills or spans, a gap or a rewind —
        which goes through :meth:`plan_write`.  Raises, like it, if an
        error is latched.  The caller holds whatever serialises writers
        of this file (the per-file ``write_lock``; the simulator is
        single-threaded) and copies the bytes before releasing it; the
        drain lock is not needed — the latch is one attribute read and
        the planner and the ``writes`` cell are only ever advanced by
        those writers.
        """
        if self._error is not None:
            self._check_writable()
        planner = self.planner
        fill = planner.chunk_fill
        if length > 0:
            if (
                fill == 0
                or offset != planner.chunk_file_offset + fill
                or fill + length >= planner.chunk_size
            ):
                return None
            planner.chunk_fill = fill + length
            planner.total_bytes += length
        elif length < 0 or offset < 0:
            return None  # the planner rejects it
        planner.total_writes += 1
        hot = self._hot
        writes, nbytes, copies = hot.writes
        hot.writes = (writes + 1, nbytes + length, copies + (length > 0))
        return fill

    def plan_flush(self) -> list[PlanOp]:
        """Seal ops for the partial chunk (close()/fsync() path)."""
        with self._lock:
            return self.planner.flush()

    def plan_write_through(self, offset: int, length: int) -> list[PlanOp]:
        """Seal ops that must precede a write that bypasses aggregation."""
        with self._lock:
            self._check_writable()
            return self.planner.note_external_write(offset, length)

    # -- accounting (the state machine proper) --------------------------------

    def note_write(
        self,
        offset: int,
        length: int,
        start: float | None = None,
        write_through: bool = False,
        degraded: bool = False,
    ) -> None:
        """One application write() finished its synchronous part.

        An aggregated write paid exactly one copy — user buffer into
        the pooled chunk buffer at ingest (the aliasing snapshot
        point), so it is accounted here rather than at each
        ``Chunk.append`` call.  Write-through bypasses aggregation and
        hands the caller's view straight to the backend: no pipeline
        copy.
        """
        self._kernel.stats._count_write(self.tenant, length, write_through, degraded)
        self._observe_write(offset, length, start, write_through, degraded)

    def _observe_write(
        self,
        offset: int,
        length: int,
        start: float | None,
        write_through: bool = False,
        degraded: bool = False,
    ) -> None:
        """The records of one counted write, each built only if its type
        is routed."""
        routes = self._kernel._routes
        now = self.clock()
        if start is None:
            start = now
        # Positional: a per-call path, and keywords cost a quarter of
        # what building these two records does.
        if not write_through and length > 0 and CopyObserved in routes:
            self._emit(CopyObserved(self.path, INGEST, length, now))
        if WriteObserved in routes:
            self._emit(
                WriteObserved(
                    self.path,
                    offset,
                    length,
                    start,
                    now - start,
                    write_through,
                    degraded,
                    self.tenant,
                )
            )

    def note_read(
        self,
        offset: int,
        length: int,
        start: float | None = None,
        copied: int = 0,
    ) -> None:
        """One application read()/pread() was served (any read path —
        passthrough, degraded or cached).

        ``copied`` is the pipeline-level byte count materialized at the
        POSIX-shim boundary: the bytes joined out of cached views on a
        cache-served read.  Passthrough reads pass 0 — the backend's
        return value crosses the shim untouched (any materialization
        inside the backend is its own boundary property, documented on
        :class:`~repro.backends.base.Backend`).
        """
        self._kernel.stats._count_read(self.tenant, length, copied)
        self._observe_read(offset, length, start, copied)

    def count_read(self, length: int, hits: int) -> None:
        """A read of ``length`` bytes was served from ``hits`` resident
        cache chunks and joined at the shim boundary: count it, the
        hits and that one ``read_boundary`` copy in the file's hot
        counters — what :meth:`note_read` and ``ReadaheadCore.access``
        count under the registry lock.  The caller holds the file's
        read-cache lock, which serialises such reads."""
        hot = self._hot
        reads, nbytes, total_hits = hot.reads
        hot.reads = (reads + 1, nbytes + length, total_hits + hits)

    def _observe_read(self, offset: int, length: int, start: float | None, copied: int) -> None:
        """The records of one counted read, each built only if its type
        is routed."""
        routes = self._kernel._routes
        now = self.clock()
        if start is None:
            start = now
        if copied > 0 and CopyObserved in routes:
            self._emit(CopyObserved(self.path, READ_BOUNDARY, copied, now))
        if ReadObserved in routes:
            self._emit(ReadObserved(self.path, offset, length, start, now - start, self.tenant))

    def note_retry(
        self, file_offset: int, attempt: int, delay: float, error: BaseException
    ) -> None:
        """A writeback attempt for this file failed and will be retried."""
        self._emit(
            ChunkRetried(
                path=self.path,
                file_offset=file_offset,
                attempt=attempt,
                delay=delay,
                error=error,
                t=self.clock(),
            )
        )

    def note_queued(self, seal: Seal | None = None) -> None:
        """A sealed chunk was handed to the work queue."""
        with self._lock:
            self.write_chunk_count += 1
        if seal is not None:
            self._emit(
                ChunkSealed(
                    path=self.path,
                    file_offset=seal.file_offset,
                    length=seal.length,
                    reason=seal.reason,
                    t=self.clock(),
                    tenant=self.tenant,
                )
            )

    def note_complete(
        self,
        length: int = 0,
        file_offset: int = 0,
        error: BaseException | None = None,
        start: float | None = None,
    ) -> bool:
        """An IO worker finished one chunk writeback.

        Latches the first ``error`` for the next close()/fsync() and
        returns whether the file is now drained, so the plane can wake
        its drain waiters.
        """
        now = self.clock()
        if start is None:
            start = now
        with self._lock:
            if self.complete_chunk_count >= self.write_chunk_count:
                raise FileStateError(
                    f"{self.path}: chunk completion with no outstanding write"
                )
            latched = error is not None and self._error is None
            if latched:
                self._error = error
            # After the latch: whoever sees this count sees the error
            # (``clean`` reads both without the lock).
            self.complete_chunk_count += 1
            drained = self.complete_chunk_count >= self.write_chunk_count
        self._emit(
            ChunkWritten(
                path=self.path,
                file_offset=file_offset,
                length=length,
                start=start,
                duration=now - start,
                error=error,
                tenant=self.tenant,
            )
        )
        if latched:
            assert error is not None
            self._emit(ErrorLatched(path=self.path, error=error))
        return drained

    def note_batch(
        self,
        file_offset: int,
        chunks: int,
        length: int,
        start: float | None = None,
        error: BaseException | None = None,
    ) -> None:
        """An IO worker issued ``chunks`` contiguous chunks as one
        vectored backend write.

        Purely observational: the drain counters and the error latch are
        still advanced by the per-chunk :meth:`note_complete` calls the
        plane makes for every member of the batch (with the batch's
        ``error``, if any, attributed to each of them).
        """
        now = self.clock()
        if start is None:
            start = now
        self._emit(
            BatchWritten(
                path=self.path,
                file_offset=file_offset,
                chunks=chunks,
                length=length,
                start=start,
                duration=now - start,
                error=error,
                tenant=self.tenant,
            )
        )

    def note_batch_broken(self, file_offset: int, chunks: int, reason: str) -> None:
        """A gathered batch fell back to per-chunk writes."""
        self._emit(
            BatchBroken(
                path=self.path,
                file_offset=file_offset,
                chunks=chunks,
                reason=reason,
                t=self.clock(),
            )
        )

    def note_drained(self, start: float, outstanding: int = 0) -> None:
        """A drain wait that began at ``start`` (with ``outstanding``
        chunks then in flight) observed the drained state.

        Called by the plane's blocking primitive once the wait is over
        — this is the one place drain latency is measured, so callers
        (experiments, the perf harness) read it from ``stats()``
        instead of re-timing close()/fsync() themselves.
        """
        now = self.clock()
        self._emit(
            FileDrained(
                path=self.path,
                duration=now - start,
                outstanding=outstanding,
                t=now,
                tenant=self.tenant,
            )
        )

    # -- drain protocol --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self.write_chunk_count - self.complete_chunk_count

    @property
    def drained(self) -> bool:
        with self._lock:
            return self.complete_chunk_count >= self.write_chunk_count

    @property
    def clean(self) -> bool:
        """Whether a read has nothing to flush, wait for or be told: no
        open chunk, every sealed chunk written, no latched error still
        to surface.  Only a read of a file that is not clean enters the
        plane's flush + drain.

        Lock-free, and still never true while bytes of a *finished*
        write are short of the backend, because of the order things
        change and are read in: the planner counts a seal before it
        empties ``chunk_fill`` (and counts it at plan time, ahead of
        ``write_chunk_count``), a completion latches its error before
        it is counted, and this reads fill, then completions, then
        seals, then the latch.  A write still in its call may be missed
        — as by any read racing it.
        """
        planner = self.planner
        return (
            planner.chunk_fill == 0
            and self.complete_chunk_count >= planner.sealed_chunks
            and self._error is None
        )

    # -- error latch (the POSIX writeback-error contract) ----------------------

    def peek_error(self) -> BaseException | None:
        with self._lock:
            return self._error

    def take_error(self) -> BaseException | None:
        """Consume the latched error (at most once returns non-None)."""
        with self._lock:
            error, self._error = self._error, None
            return error

    def raise_latched(self) -> None:
        """Raise the latched writeback error exactly once.

        This is the close()/fsync() error-reporting contract: the first
        drain after a failed chunk write surfaces it, later drains
        succeed.
        """
        error = self.take_error()
        if error is not None:
            raise BackendIOError(
                f"{self.path}: async chunk write failed: {error}"
            ) from error


class PipelineKernel:
    """Per-mount kernel: event routing, stats registry, pipeline factory.

    Both planes own exactly one; ``CRFS.stats()`` and ``SimCRFS.stats()``
    are both ``kernel.stats.snapshot()``.

    :meth:`emit` is the one way a record is delivered: ``_routes`` maps
    each exact record type to the callables it goes to — the registry's
    handler first, then each observer routed the type, in the order
    they joined.  A per-call site builds its record only while its type
    is in the table.  The table is replaced whole when an observer
    joins, never changed in place, so an emit running meanwhile
    delivers by the old table or the new one.
    """

    def __init__(
        self,
        chunk_size: int,
        pool_chunks: int = 0,
        clock: Callable[[], float] | None = None,
        observers: Iterable[PipelineObserver] = (),
        tenants: Iterable[str] = ("default",),
        tiers: int = 0,
        fsync_tier: int = -1,
    ):
        self.chunk_size = chunk_size
        self.clock = clock if clock is not None else time.perf_counter
        self.stats = PipelineStats(
            chunk_size=chunk_size,
            pool_chunks=pool_chunks,
            tenants=tenants,
            tiers=tiers,
            fsync_tier=fsync_tier,
        )
        self._routes: dict[type, tuple[EmitFn, ...]] = {
            kind: (route,) for kind, route in self.stats._routes().items()
        }
        self._subscribing = threading.Lock()
        for observer in observers:
            self.subscribe(observer)
        # Per-path delta-checkpoint generation chains (created lazily;
        # non-delta mounts never populate this).
        self._deltas: dict[str, DeltaTracker] = {}

    def subscribe(self, observer: PipelineObserver) -> None:
        """Route ``observer`` the record types its ``types`` names
        (every type when that is None, or when it has no ``types``)."""
        types = getattr(observer, "types", None)
        with self._subscribing:
            routes = dict(self._routes)
            for kind in PipelineEvent.__subclasses__() if types is None else types:
                routes[kind] = routes.get(kind, ()) + (observer.on_event,)
            self._routes = routes

    def emit(self, event: PipelineEvent) -> None:
        for route in self._routes.get(type(event), ()):
            route(event)

    def file(
        self, path: str, lock: Any = None, tenant: str = "default"
    ) -> FilePipeline:
        """A per-file pipeline wired to this kernel's stream and clock."""
        return FilePipeline(
            path, self.chunk_size, lock=lock, tenant=tenant, kernel=self
        )

    def delta(self, path: str) -> DeltaTracker:
        """The path's delta generation chain (created on first use),
        wired to this kernel's event stream and clock."""
        tracker = self._deltas.get(path)
        if tracker is None:
            tracker = self._deltas[path] = DeltaTracker(
                path, self.chunk_size, emit=self.emit, clock=self.clock
            )
        return tracker

    def file_opened(self, path: str, tenant: str = "default") -> None:
        self.emit(FileOpened(path=path, t=self.clock(), tenant=tenant))

    def file_closed(self, path: str, tenant: str = "default") -> None:
        self.emit(FileClosed(path=path, t=self.clock(), tenant=tenant))

    def snapshot(self) -> dict[str, Any]:
        """Shorthand for ``kernel.stats.snapshot()``."""
        return self.stats.snapshot()
