"""The CRFS mount: POSIX-style facade over the aggregation pipeline.

This is the functional-plane equivalent of the paper's FUSE mount.  An
application opens files, writes, reads, closes — and behind the facade
writes coalesce into pooled chunks that IO threads push to the backing
:class:`~repro.backends.base.Backend` asynchronously (Section IV).

Semantics preserved from the paper:

* **write** returns as soon as the data is copied into a chunk;
* **close/fsync** flush the partial chunk and block until the file's
  ``complete_chunk_count`` equals its ``write_chunk_count``;
* **read and namespace ops pass through** to the backend untouched;
* the **file layout on the backend is unchanged**, so anything written
  through CRFS is readable without it (the paper's restart property).

Error contract: an asynchronous chunk-write failure is latched in the
file entry and raised from the next close()/fsync() on that file — the
POSIX writeback-error contract.

The pipeline *state machine* — fill/seal planning, drain accounting,
the error latch — lives in the shared, plane-agnostic
:class:`~repro.pipeline.kernel.FilePipeline`; this module supplies its
threaded execution: real buffers, locks, IO threads.  Every state
transition is emitted on the mount's
:class:`~repro.pipeline.kernel.PipelineKernel` event stream, from which
— with the per-call facts the pipeline counts directly — the
:meth:`CRFS.stats` snapshot is derived (and to which callers may
``subscribe`` extra observers, e.g. a trace recorder).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Iterable

from .. import waits
from ..backends.base import Backend, BackendStat, byte_view, normalize_path
from ..backends.tiered import TieredBackend
from ..config import CRFSConfig, DEFAULT_CONFIG
from ..errors import FileStateError, MountError
from ..pipeline import CopyObserved, Fill, PipelineKernel, PipelineObserver, Seal, WriteObserved
from ..pipeline import readahead
from ..pipeline.readahead import ReadaheadCore
from ..pipeline.resilience import BackendHealth
from ..pipeline.tenancy import DRRScheduler
from ..pipeline.writeback import Extent, blocking, flush, ingest, run, write_through
from .buffer_pool import BufferPool
from .chunk import BULK_COPY_BYTES
from .delta import DeltaCheckpointer
from .filetable import FileEntry, OpenFileTable
from .handle import CRFSFile
from .iopool import IOThreadPool, WorkItem
from .readcache import ReadCache
from .workqueue import WorkQueue

__all__ = ["CRFS"]


class CRFS:
    """A mounted CRFS instance.

    >>> from repro.backends import MemBackend
    >>> with CRFS(MemBackend()) as fs:
    ...     with fs.open("/ckpt/rank0.img") as f:
    ...         _ = f.write(b"snapshot bytes")
    """

    def __init__(
        self,
        backend: Backend,
        config: CRFSConfig = DEFAULT_CONFIG,
        observers: Iterable[PipelineObserver] = (),
    ):
        self.backend = backend
        self.config = config
        self.tenants = config.tenant_registry()
        # Hierarchical staging: a tiered backend joins the mount's
        # pipeline — its tier events feed the unified stream (the
        # `tiers` stats section) and its per-tier retry/breaker policy
        # comes from the same config knobs as the mount's own.
        self.tiered = backend if isinstance(backend, TieredBackend) else None
        self.kernel = PipelineKernel(
            config.chunk_size,
            pool_chunks=config.pool_chunks,
            clock=time.perf_counter,
            observers=observers,
            tenants=self.tenants.names,
            tiers=len(self.tiered.tiers) if self.tiered is not None else 0,
            fsync_tier=(
                self.tiered.resolve_fsync_tier(config.fsync_tier)
                if self.tiered is not None
                else -1
            ),
        )
        self.retry = config.retry
        self.health = BackendHealth(self.kernel, config.breaker_threshold)
        if self.tiered is not None:
            self.tiered.bind(self.kernel, config)
        self.pool = BufferPool(
            self.kernel, config.pool_size, reservations=self.tenants.reservations()
        )
        self.queue = WorkQueue(
            emit=self.kernel.emit,
            scheduler=DRRScheduler(weights=self.tenants.weights()),
            quotas=self.tenants.quotas(),
        )
        self.iopool = IOThreadPool(
            backend,
            self.queue,
            self.pool,
            config.io_threads,
            self.kernel,
            self.retry,
            self.health,
            batch_chunks=config.writeback_batch_chunks,
        )
        self.table = OpenFileTable()
        self.delta = DeltaCheckpointer(self)
        #: Writes at least this long bypass aggregation (no write is as
        #: long as ``sys.maxsize`` while ``write_through_threshold`` is 0).
        self._direct_from = config.write_through_threshold or sys.maxsize
        self._mounted = False
        self._lifecycle = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def mount(self) -> "CRFS":
        with self._lifecycle:
            if self._mounted:
                raise MountError("already mounted")
            if self.queue.closed:
                raise MountError("unmounted: a CRFS mount is not reusable")
            self.iopool.start()
            self._mounted = True
        return self

    def unmount(self) -> None:
        """Flush and drain every open file, stop the IO threads.

        Files still open are flushed and their backend handles closed (a
        forced unmount); their CRFSFile handles become unusable.  Every
        file is flushed before any is drained, and the drains and the
        worker joins share one deadline (:func:`waits.one_deadline`), so
        a stuck pipeline costs the teardown one ``waits.STUCK_S``, not
        one per file.  An error (a latched writeback failure, a stuck
        drain, a worker that will not exit) does not stop the teardown:
        every file is torn down, the workers are stopped, the pool is
        closed and the mount is down, then the first error is raised,
        each later one its ``__context__``.
        """
        errors: list[Exception] = []
        with self._lifecycle:
            if not self._mounted:
                return
            with waits.one_deadline():
                self._teardown(errors)
            self.pool.close()
            self._mounted = False
        if errors:
            for error, later in zip(errors, errors[1:]):
                error.__context__ = later
            raise errors[0]

    def _teardown(self, errors: list[Exception]) -> None:
        """Flush, drain and close every open file, then stop the IO
        workers and the tier pump, appending each error to ``errors``."""
        entries = [
            (path, entry)
            for path in self.table.paths()
            if (entry := self.table.lookup(path)) is not None
        ]
        # Every partial chunk is queued before the first drain waits, so
        # one stuck file does not hold the others' chunks back.
        unflushed: set[str] = set()
        for path, entry in entries:
            try:
                with entry.write_lock:
                    run(flush(self, entry))
            except Exception as exc:  # noqa: BLE001 - raised by unmount
                errors.append(exc)
                unflushed.add(path)
        for path, entry in entries:
            if path not in unflushed:
                try:
                    entry.wait_drained()
                except Exception as exc:  # noqa: BLE001 - raised by unmount
                    errors.append(exc)
            if entry.read_cache is not None:
                # Before iopool.shutdown: in-flight prefetch entries
                # are marked evicted and the (still running) workers
                # return their buffers themselves.
                readahead.clear(entry.read_cache)
            # drop all remaining references
            last = False
            while not last:
                _, last = self.table.close(path)
            try:
                self.backend.close(entry.backend_handle)
            except Exception as exc:  # noqa: BLE001 - raised by unmount
                errors.append(exc)
            self.kernel.file_closed(path, tenant=entry.tenant)
        # The IO workers stop first, so tier 0 holds everything it
        # will ever hold; then the tier pump drains to the deepest
        # tier and stops.
        stops = [self.iopool.shutdown]
        if self.tiered is not None:
            stops.append(self.tiered.shutdown)
        for stop in stops:
            try:
                stop()
            except Exception as exc:  # noqa: BLE001 - raised by unmount
                errors.append(exc)

    def __enter__(self) -> "CRFS":
        return self.mount()

    def __exit__(self, *exc: Any) -> None:
        self.unmount()

    @property
    def mounted(self) -> bool:
        return self._mounted

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise MountError("filesystem is not mounted")

    # -- file open/close -------------------------------------------------------

    def open(
        self,
        path: str,
        create: bool = True,
        truncate: bool = False,
        tenant: str | None = None,
    ) -> CRFSFile:
        """Open (by default create) a file for aggregated writing.

        Mirrors the paper's open path: look up the hash table; bump the
        refcount if already open, otherwise insert a fresh entry and
        open/create the backing file.

        ``tenant`` pins the open to a tenant explicitly; by default the
        mount's :class:`~repro.pipeline.tenancy.TenantRegistry` maps the
        path through the configured fnmatch rules (falling back to
        ``default``).  The tenant decides the file's table partition,
        its buffer-pool quota and its IO scheduling share.
        """
        self._require_mounted()
        norm = normalize_path(path)
        resolved = self.tenants.resolve(norm, tenant)

        def make_entry() -> FileEntry:
            handle = self.backend.open(norm, create=create, truncate=truncate)
            self.kernel.file_opened(norm, tenant=resolved)
            entry = FileEntry(norm, handle, self.kernel, tenant=resolved)
            if self.config.read_cache_chunks > 0:
                entry.read_cache = ReadCache(
                    norm,
                    self.backend,
                    handle,
                    ReadaheadCore(
                        norm,
                        self.kernel,
                        capacity=self.config.read_cache_chunks,
                        depth=self.config.readahead_chunks,
                        adaptive=self.config.readahead_adaptive,
                    ),
                    self.pool,
                    self.queue,
                    health=self.health,
                    tenant=resolved,
                )
            return entry

        entry = self.table.open(norm, make_entry)
        return CRFSFile(self, entry)

    def _close_entry(self, entry: FileEntry) -> None:
        """close() semantics (Section IV-C): flush the partial chunk, wait
        for all outstanding chunk writes, then drop the reference."""
        self._require_mounted()
        with entry.write_lock:
            run(flush(self, entry))
        try:
            entry.wait_drained()
        finally:
            _, last = self.table.close(entry.path)
            if last:
                if entry.read_cache is not None:
                    readahead.clear(entry.read_cache)
                self.backend.close(entry.backend_handle)
                self.kernel.file_closed(entry.path, tenant=entry.tenant)

    # -- write path ---------------------------------------------------------

    def _write(
        self, entry: FileEntry, data: bytes | memoryview, offset: int | None
    ) -> int:
        """Aggregate one write (Section IV-B).  Returns the file offset
        just past its bytes.

        ``offset`` None is an ``O_APPEND`` write: it lands at the end of
        the file (:meth:`file_size`), resolved under the file's
        ``write_lock``, so appends through any number of handles never
        overlap.

        A write that continues the append point and leaves room in the
        open chunk — what a checkpoint mostly issues — is planned and
        counted by ``FilePipeline.fit_write`` and copied under the
        per-file lock alone; any other is the general write, the shared
        :func:`~repro.pipeline.writeback.ingest` flow (acquire, fill,
        seal, enqueue) over this mount as its port.  The fitting case
        enters no Python frame besides the handle's call, this one and
        ``fit_write``: every check it needs is an attribute read here.

        With ``write_through_threshold`` set, writes at least that large
        skip aggregation, and while the backend circuit breaker is open
        every write does (bypassing the buffer pool, and doubling as a
        recovery probe): :func:`~repro.pipeline.writeback.flush` seals
        the partial chunk first (preserving issue order), then
        :func:`~repro.pipeline.writeback.write_through` writes the bytes
        synchronously, retried and fed to the breaker like any chunk.
        """
        if not self._mounted:
            raise MountError("filesystem is not mounted")
        view = data if type(data) is memoryview else memoryview(data)
        if not view.c_contiguous:
            raise BufferError(f"{entry.path}: write of a non-contiguous buffer")
        if view.format != "B" or view.ndim != 1:
            # Flat unsigned bytes before anything is planned: the chunk
            # copy needs equal item formats, and a write refused after
            # the planner advanced would wedge the file.
            view = byte_view(view)
        nbytes = len(view)
        routes = self.kernel._routes
        # The write's records are built only for the types routed; the
        # registry counts it either way.
        t0 = self.kernel.clock() if WriteObserved in routes else None
        pipeline = entry.pipeline
        degraded = self.health.degraded
        if nbytes >= self._direct_from or degraded:
            with entry.write_lock:
                if offset is None:
                    offset = self.file_size(entry)
                if entry.read_cache is not None:
                    readahead.invalidate(entry.read_cache, offset, nbytes)
                run(flush(self, entry, (offset, nbytes)))
            # Outside write_lock: the write retries with backoff, and
            # sleeping under the per-file lock would stall every
            # concurrent writer to this file for the full retry budget.
            # Issue order is already pinned — the seal above was
            # enqueued under the lock, and positional pwrites to
            # disjoint offsets commute.
            extent = Extent(entry, 0, offset, nbytes, data=view)
            run(write_through(self.iopool, extent))
            pipeline.note_write(
                offset, nbytes, start=t0, write_through=True, degraded=degraded
            )
            return offset + nbytes
        # acquire/release, not ``with``: the with-statement's __enter__ /
        # __exit__ protocol costs a fitting write 0.1 µs more (CPython 3.11).
        lock = entry.write_lock
        lock.acquire()
        try:
            if offset is None:
                offset = self.file_size(entry)
            # Either plan fails fast if a prior async write already
            # failed — writing more data into chunks would be silently
            # lost.
            at = pipeline.fit_write(offset, nbytes)
            if entry.read_cache is not None:
                # Cached chunks covering these bytes are stale the moment
                # the write is accepted (reads go flush+drain first, but
                # the cache would otherwise keep serving the old bytes).
                readahead.invalidate(entry.read_cache, offset, nbytes)
            if at is None:
                run(ingest(self, entry, offset, nbytes, view))
            elif nbytes:
                chunk = entry.current_chunk
                if nbytes < BULK_COPY_BYTES:
                    # What ``Chunk.append`` would check, ``fit_write``
                    # just proved: under ``write_lock`` the open chunk's
                    # ``valid`` is the planner's ``chunk_fill``, and
                    # ``at + nbytes`` is short of its end.  A divergence
                    # still surfaces, at the seal (:meth:`seal`).
                    end = at + nbytes
                    chunk.view[at:end] = view
                    chunk.valid = end
                else:
                    chunk.append(view, at, nbytes)
        finally:
            lock.release()
        if at is None:
            pipeline.note_write(offset, nbytes, start=t0)
        elif t0 is not None or CopyObserved in routes:
            pipeline._observe_write(offset, nbytes, t0)
        return offset + nbytes

    # The write flows' port (threaded plane): ``ingest`` and ``flush``
    # run these under the file's ``write_lock``.

    def pool_would_wait(self, entry: FileEntry) -> bool:
        return self.pool.would_wait(entry.tenant)

    def shed_read_caches(self) -> None:
        """Pool-pressure relief: return every read-cache-held buffer.

        Read-cache leases draw on the write pool, and a fully populated
        cache (capacity >= pool) could otherwise pin every chunk and
        starve a writer forever.  Cross-file on purpose — any open
        file's cache may be what pins the pool.  In-flight fetches are
        marked evicted and release on completion, so a shed may free
        chunks slightly later than it returns; ``pool.acquire`` then
        waits the short remainder."""
        for path in self.table.paths():
            entry = self.table.lookup(path)
            if entry is not None and entry.read_cache is not None:
                readahead.clear(entry.read_cache)

    @blocking
    def acquire(self, entry: FileEntry, file_offset: int) -> None:
        chunk = self.pool.acquire(tenant=entry.tenant)
        chunk.open_for(entry, file_offset)
        entry.current_chunk = chunk

    @blocking
    def fill(self, entry: FileEntry, op: Fill, view: memoryview) -> None:
        start = op.data_offset
        entry.current_chunk.append(view[start : start + op.length], op.chunk_offset, op.length)

    @blocking
    def seal(self, entry: FileEntry, seal: Seal) -> None:
        chunk = entry.current_chunk
        if chunk.valid != seal.length or chunk.file_offset != seal.file_offset:
            raise FileStateError(
                f"{entry.path}: planner/runtime divergence "
                f"(chunk {chunk.file_offset}+{chunk.valid}, "
                f"seal {seal.file_offset}+{seal.length})"
            )
        entry.current_chunk = None
        entry.note_chunk_queued(seal)
        item = WorkItem(chunk=chunk, entry=entry)
        try:
            self.queue.put(item, tenant=entry.tenant)
        except BaseException as exc:
            # Sealed and counted but never queued (a stalled or closed
            # queue): complete it as failed, so the cause is latched for
            # the next write and close, and the buffer is recycled.
            self.iopool.complete(item, exc, None)
            raise

    def _fsync(self, entry: FileEntry) -> None:
        """fsync() semantics (Section IV-D2): enqueue the current buffer
        chunk, wait for all outstanding chunk writes, then fsync the
        underlying file."""
        self._require_mounted()
        with entry.write_lock:
            run(flush(self, entry))
        entry.wait_drained()
        self.backend.fsync(entry.backend_handle)

    # -- read path (passthrough or readahead cache) ----------------------------

    def _read(self, entry: FileEntry, size: int, offset: int) -> bytes:
        """read(): passthrough by default, cached with readahead on —
        the definitions in :mod:`repro.pipeline.readahead` both planes
        run.  A cached file's reads go through its
        :meth:`~repro.core.readcache.ReadCache.read`, which serves
        resident bytes with the plain ``read_resident`` and everything
        else with the ``read`` flow.

        The paper's behaviour (Section IV-D1) — "we directly pass it to
        the underlying filesystem without any additional operation" —
        is the default and the ``read_cache_chunks=0`` path.  A cached
        read flushes and drains first if anything is pending
        (read-your-writes for non-checkpoint workloads).
        """
        if not self._mounted:
            raise MountError("filesystem is not mounted")
        cache = entry.read_cache
        if cache is None:
            return run(readahead.read(self, entry, size, offset))
        return cache.read(self, entry, size, offset)

    # The read flow's mount-level port (threaded plane); the per-file
    # half is the entry's :class:`~repro.core.readcache.ReadCache`.

    @blocking
    def flush_drain(self, entry: FileEntry) -> None:
        with entry.write_lock:
            run(flush(self, entry))
        entry.wait_drained()

    @blocking
    def read_through(self, entry: FileEntry, size: int, offset: int) -> bytes:
        return self.backend.pread(entry.backend_handle, size, offset)

    def file_size(self, entry: FileEntry) -> int:
        """Logical size: the backend's, or the end of what the planner
        took in — buffered or still in flight — whichever is larger."""
        return max(self.backend.file_size(entry.backend_handle), entry.pipeline.planner.size)

    # -- incremental (delta) checkpointing --------------------------------------

    def delta_checkpoint(
        self,
        path: str,
        image: bytes | bytearray | memoryview,
        dirty: Iterable[int] | None = None,
        tenant: str | None = None,
    ):
        """Commit one delta generation of ``path`` (see
        :class:`~repro.core.delta.DeltaCheckpointer`)."""
        return self.delta.checkpoint(path, image, dirty=dirty, tenant=tenant)

    def delta_restore(self, path: str, tenant: str | None = None) -> bytes:
        """Reassemble ``path``'s current image across its generation
        chain, consulting the manifest."""
        return self.delta.restore(path, tenant=tenant)

    # -- namespace passthrough (Section IV-D3) -----------------------------------

    def exists(self, path: str) -> bool:
        self._require_mounted()
        return self.backend.exists(normalize_path(path))

    def stat(self, path: str) -> BackendStat:
        self._require_mounted()
        return self.backend.stat(normalize_path(path))

    def unlink(self, path: str) -> None:
        self._require_mounted()
        norm = normalize_path(path)
        if self.table.lookup(norm) is not None:
            # An open CRFS file may still have chunks in flight whose
            # pwrites would recreate confusion; the paper's workload never
            # unlinks open checkpoints, so we refuse loudly.
            raise FileStateError(f"{norm} is open through CRFS; close it first")
        self.backend.unlink(norm)

    def mkdir(self, path: str) -> None:
        self._require_mounted()
        self.backend.mkdir(normalize_path(path))

    def rmdir(self, path: str) -> None:
        self._require_mounted()
        self.backend.rmdir(normalize_path(path))

    def listdir(self, path: str) -> list[str]:
        self._require_mounted()
        return self.backend.listdir(normalize_path(path))

    def rename(self, old: str, new: str) -> None:
        self._require_mounted()
        if self.table.lookup(normalize_path(old)) is not None:
            raise FileStateError(f"{old} is open through CRFS; close it first")
        self.backend.rename(normalize_path(old), normalize_path(new))

    def truncate(self, path: str, size: int) -> None:
        self._require_mounted()
        if self.table.lookup(normalize_path(path)) is not None:
            raise FileStateError(f"{path} is open through CRFS; close it first")
        self.backend.truncate(normalize_path(path), size)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One atomic snapshot of the pipeline counters.

        Served straight from the kernel's :class:`PipelineStats`
        registry — the timing plane's ``SimCRFS.stats()`` returns the
        identical schema from the identical code path.
        """
        return self.kernel.snapshot()
