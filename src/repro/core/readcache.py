"""The threaded plane's read-cache port (restart read path).

:class:`~repro.pipeline.readahead.ReadaheadCore` makes every decision
(hit/miss, admit/evict, the prefetch window) and the flows in
:mod:`repro.pipeline.readahead` execute them — the same definitions the
timing plane runs.  This module is what those flows stand on here:
chunk buffers leased from the mount's
:class:`~repro.core.buffer_pool.BufferPool`, blocking backend reads,
and — over a backend with latency — prefetches pushed through the
existing :class:`~repro.core.workqueue.WorkQueue` as low-priority
:class:`~repro.pipeline.readahead.Prefetch` items.

A chunk's backend read is two port steps, **warm** and **fill**, and
the backend decides which one moves the bytes
(:attr:`ReadCache.warm_reads`):

* over a backend with latency of its own, the warm is the read — a
  ``pread_into`` the IO workers run on the prefetches between
  writebacks, so the window hides the latency — and the fill is free.
  A reader that reaches a chunk still in flight parks on the cache
  condition until it lands;
* over a backend that reads from memory
  (:attr:`~repro.backends.base.Backend.reads_from_memory`: a RAM store,
  the page cache) there is no latency to hide, and a worker's copy was
  one the reader then waited for.  There the warm is free: the reader
  that slid the window leases each prefetch's buffer itself, under the
  cache lock it already holds (a read still collecting views of pooled
  buffers does so once they are joined, or when it reaches the chunk),
  and the first reader to touch the entry fills it with its own
  ``pread_into``, GIL released, right before its copy-out — a read
  inside that one chunk in the plain ``read_resident``, without
  entering the read flow.  No reader waits on another thread, no
  prefetch is queued, and no IO worker wakes for one.

Deadlock discipline (the shutdown-safety contract the regression tests
pin):

* nothing on the read path blocks on the pool — a prefetch's lease is
  a :meth:`BufferPool.try_acquire`, *dropped* when starved, so a full
  pool cannot park a worker and hang the mount's ``stop_workers``;
* low-band queue puts never block, so a reader holding the cache lock
  cannot stall behind write backpressure;
* teardown (:func:`~repro.pipeline.readahead.clear`) never waits for
  in-flight fetches — it marks their entries evicted and the worker
  releases the buffer itself when the fetch lands.

Lock order: ``entry.write_lock`` → ``ReadCache.lock`` → pool/queue
internal locks.  A demand read and a reader's fill run under ``lock``
(same-file readers serialize, different files don't); prefetch workers
drop ``lock`` around their ``pread`` so foreground hits overlap with
background fetches.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from .. import waits
from ..errors import FileStateError
from ..pipeline import CopyObserved, ReadObserved, readahead
from ..pipeline.readahead import CacheEntry, Prefetch, ReadaheadCore
from ..pipeline.writeback import blocking, run
from .chunk import Chunk
from .filetable import FileEntry
from .workqueue import QueueClosed

if TYPE_CHECKING:  # pragma: no cover
    from .mount import CRFS

__all__ = ["ReadCache"]


class ReadCache:
    """Per-file readahead cache on the functional plane: the port the
    shared read flows drive, for file ``entry`` open on mount ``fs``
    (as :class:`~repro.simcrfs.model.SimReadCache` takes its mount and
    file).  The mount's backend, pool, queue and breaker and the
    file's handle and tenant are kept as attributes: the read paths
    reach them per chunk."""

    def __init__(self, fs: "CRFS", entry: FileEntry, core: ReadaheadCore):
        self.path = entry.path
        self.backend = fs.backend
        self.backend_handle = entry.backend_handle
        self.core = core
        self.pool = fs.pool
        self.queue = fs.queue
        #: The mount's breaker, fed each fetch's outcome.
        self.health = fs.health
        #: The owning file's tenant: cache leases draw on its pool quota
        #: and prefetches queue under its name (low band, so they are
        #: never weighed against the tenant's writeback share).
        self.tenant = entry.tenant
        #: Whether the warm is the backend read (the IO workers fetch
        #: ahead) rather than the fill (the reader fetches what it
        #: consumes) — fixed for the cache's life.
        self.warm_reads = not fs.backend.reads_from_memory
        self.lock = threading.RLock()
        self._cond = threading.Condition(self.lock)
        # Deferred-release machinery for the zero-copy serve path: while
        # a read is collecting views of pooled buffers (_defer_depth >
        # 0), an evicted payload the read has already collected a view
        # of (its id is in _held) parks in _deferred instead of
        # returning to the pool — releasing it mid-read would let
        # another writer recycle a buffer the pending join still
        # references.  Evictees the read does *not* hold views of
        # release immediately, preserving the pre-zero-copy pool timing
        # (a concurrent prefetch's try_acquire must not starve on a
        # buffer that's merely parked).  Drained when the read's join
        # completes.  Guarded by lock.
        self._defer_depth = 0
        self._deferred: list[Chunk] = []
        self._held: set[int] = set()
        # Prefetches a collecting read slid the window for, when the
        # reader warms them: warmed once its views are joined and its
        # deferred buffers are back (the lease must not starve on one),
        # or when the same read reaches the chunk (await_entry).
        # Guarded by lock.
        self._unwarmed: list[Prefetch] = []

    def read(self, fs: Any, entry: Any, size: int, offset: int) -> bytes:
        """One pread of the file this cache belongs to (``entry``, open
        on mount ``fs``).  Bytes that are resident are a slice: the
        shared plain function finds them (filling a warmed chunk first
        where the reader fills), and they are joined — before the window
        slides, so no view outlives a buffer and nothing is deferred —
        under one hold of ``lock``; if its fill failed, the flow it
        hands back refetches the chunk and joins instead.  Any other
        read runs :func:`repro.pipeline.readahead.read`, the flow."""
        kernel = fs.kernel
        routes = kernel._routes
        # The read's records are built only for the types routed; the
        # file's hot cell counts it either way.
        t0 = kernel.clock() if ReadObserved in routes else None
        with self.lock:
            served = readahead.read_resident(fs, entry, size, offset)
            if served is not None:
                parts, flow = served
                if parts is None:  # the fill failed: the demand fetch serves it
                    data = run(flow)
                else:
                    # The POSIX-shim boundary: the one materialization a
                    # cached read pays (the read_boundary copy).
                    data = b"".join(parts)
                    if flow is not None:
                        run(flow)
        if served is None:
            return run(readahead.read(fs, entry, size, offset))
        if t0 is not None or CopyObserved in routes:
            entry.pipeline._observe_read(offset, size, t0, copied=size)
        return data

    # -- the read engine's port (threaded plane) -------------------------------

    @blocking
    def serve_read(self, offset: int, end: int, file_size: int) -> bytes:
        """Serve ``[offset, end)`` (already clipped at ``file_size``,
        the caller-resolved size after any flush+drain) from the cache,
        fetching and prefetching."""
        with self.lock:
            self._defer_depth += 1
            try:
                # The POSIX-shim boundary again — the flow handed back
                # views of pooled buffers.
                return b"".join(run(readahead.serve(self, offset, end, file_size)))
            finally:
                self._defer_depth -= 1
                if self._defer_depth == 0:
                    self._held.clear()
                    if self._deferred:
                        drained, self._deferred = self._deferred, []
                        for chunk in drained:
                            self.pool.release(chunk)
                    if self._unwarmed:
                        pending, self._unwarmed = self._unwarmed, []
                        for item in pending:
                            run(readahead.service_prefetch(item))

    @blocking
    def try_lease(self) -> Chunk | None:
        return self.pool.try_acquire(tenant=self.tenant)

    @blocking
    def warm(self, chunk: Chunk, offset: int, length: int) -> int:
        """The backend read where the warm is it (an IO worker's
        prefetch, without ``lock``; a demand miss, under it); free —
        the fill will read — otherwise."""
        return self.read_into(chunk, offset, length) if self.warm_reads else length

    @blocking
    def fill(self, chunk: Chunk, offset: int, length: int) -> int:
        """The reader's backend read, under ``lock``, where the warm
        did not read; free otherwise."""
        return length if self.warm_reads else self.read_into(chunk, offset, length)

    def read_into(self, chunk: Chunk, offset: int, length: int) -> int:
        """Fill the leased buffer directly (``pread_into`` — no
        intermediate bytes): the backend read of :meth:`warm` and
        :meth:`fill`, and ``read_resident``'s fill as a plain call.  A
        prefetch's chunk is exclusively its IO worker's until
        ``warm_done`` hands it to the cache, so the worker needs no lock; the
        read happens before ``open_for``, so a failed one leaves the
        chunk clean."""
        got = self.backend.pread_into(self.backend_handle, chunk.view[:length], offset)
        chunk.open_for(self, offset)
        chunk.fill_external(got)
        return got

    @blocking
    def read_uncached(self, offset: int, length: int) -> bytes:
        return self.backend.pread(self.backend_handle, length, offset)

    def view(self, chunk: Chunk, lo: int, hi: int) -> memoryview:
        """A zero-copy view of a resident buffer, valid until the
        collecting read's join: the flow's is kept alive by deferred
        release, a resident read joins before anything can evict."""
        if self._defer_depth:
            self._held.add(id(chunk))
        return chunk.view[lo:hi]

    @blocking
    def await_entry(self, centry: CacheEntry) -> None:
        """Until ``centry`` is warmed or evicted (caller holds
        ``lock``).  Where the reader warms, only this read's own slide
        can have left it unwarmed: warm it now, on this thread.
        Otherwise park on the cache condition while an IO worker
        fetches it."""
        if not self.warm_reads:
            for i, item in enumerate(self._unwarmed):
                if item.centry is centry:
                    del self._unwarmed[i]
                    run(readahead.service_prefetch(item))
                    return
            return
        if not self._cond.wait_for(
            lambda: centry.ready or centry.evicted, waits.bound()
        ):
            base = centry.index * self.core.chunk_size
            raise FileStateError(
                f"{self.path}: readahead fetch stuck (chunk @{base})"
            )

    def wake(self, centry: CacheEntry) -> None:
        if self.warm_reads:  # nobody parks where the reader warms
            self._cond.notify_all()

    def release(self, chunk: Chunk) -> None:
        """Return one leased buffer to the pool — unless the read in
        mid-collection holds a view of it, in which case park it until
        the read's views are joined (caller holds ``lock``).  Buffers
        the read never collected release immediately: eviction victims
        are LRU while the read's chunks are MRU, so the common case pays
        no deferral and the pool sees the same timing as an eager
        release (the cross-plane differential pins that a prefetch
        try-acquire never starves on a merely-parked buffer)."""
        if self._defer_depth > 0 and id(chunk) in self._held:
            self._deferred.append(chunk)
        else:
            self.pool.release(chunk)

    @blocking
    def enqueue_prefetch(self, item: Prefetch) -> None:
        """Queue the prefetch for the IO workers — or, where the
        reader warms, lease and warm it on this thread (the caller holds
        ``lock``): right here, or — while a read is collecting views —
        once they are joined; then nothing is queued and no worker
        wakes.  Either way a queue closed by a racing unmount drops the
        entry before it leases."""
        if self.warm_reads:
            self.queue.put(item, low=True, tenant=self.tenant)
            return
        if self.queue.closed:
            raise QueueClosed("work queue closed")
        if self._defer_depth:
            self._unwarmed.append(item)
        else:
            run(readahead.service_prefetch(item))
