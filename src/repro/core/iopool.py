"""The IO thread pool that drains the work queue.

The paper (Section IV-B): "CRFS manipulates a pool of worker IO threads
waiting on the work queue...  The IO thread then calls a write() with the
underlying filesystem to write the data to its actual file.  Once
completed, the 'complete chunk count' in the file's metadata entry is
incremented.  Then the chunk is returned to the buffer pool to be reused."

The thread count is the paper's IO-throttling knob: fewer threads means
fewer concurrent writes hitting the back-end filesystem.  Completion
accounting goes through the entry's shared
:class:`~repro.pipeline.kernel.FilePipeline`, which emits a
``ChunkWritten`` event on the unified stream, which the mount's
:class:`~repro.pipeline.stats.PipelineStats` registry counts
(``stats()``'s ``chunks_written``/``bytes_out``/``io_errors``).

The same workers also service restart-readahead prefetches
(:class:`~repro.pipeline.readahead.Prefetch`, stepped by
:func:`~repro.pipeline.readahead.service_prefetch`), queued on the work
queue's low-priority band so speculative reads never delay a checkpoint
writeback — over a backend with latency of its own.  Over one that
reads from memory the reader that slides the window warms and fills
each prefetch itself and queues nothing, so no worker wakes for it.

What a worker does with a dequeued run of chunks — retry under the
mount's :class:`~repro.pipeline.resilience.RetryPolicy`, batch
accounting, breaker fallback — is :func:`repro.pipeline.writeback.writeback`,
the one definition both planes run.  This module is the threads, the
queue wiring, and the engine's threaded *port*: blocking backend calls
presented as generators that never yield.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Sequence

from .. import waits
from ..backends.tiered import TieredBackend
from ..pipeline.events import WorkersDrained
from ..pipeline.kernel import EmitFn
from ..pipeline.readahead import Prefetch, service_prefetch
from ..pipeline.resilience import BackendHealth, RetryPolicy
from ..pipeline.writeback import Extent, blocking, contiguous, run, writeback
from .buffer_pool import BufferPool
from .chunk import Chunk
from .filetable import FileEntry
from .workqueue import QueueClosed, WorkQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..backends.base import Backend

__all__ = ["IOThreadPool", "WorkItem"]


class WorkItem(Extent):
    """A sealed chunk bound for the backing filesystem: the engine's
    tier-0 extent plus the pooled buffer to recycle.  ``data`` is one
    payload view for all attempts — the chunk stays leased (and stable)
    until its completion."""

    __slots__ = ("chunk",)

    def __init__(self, chunk: Chunk, entry: FileEntry):
        super().__init__(
            entry, 0, chunk.file_offset, chunk.valid, data=chunk.payload()
        )
        self.chunk = chunk


class IOThreadPool:
    """N daemon threads: get chunk -> pwrite to backend -> account -> recycle."""

    def __init__(
        self,
        backend: "Backend",
        queue: WorkQueue,
        pool: BufferPool,
        nthreads: int,
        name: str = "crfs-io",
        retry: RetryPolicy | None = None,
        health: BackendHealth | None = None,
        emit: EmitFn | None = None,
        batch_chunks: int = 1,
    ):
        if nthreads < 1:
            raise ValueError(f"need at least 1 IO thread, got {nthreads}")
        if batch_chunks < 1:
            raise ValueError(f"batch_chunks must be >= 1, got {batch_chunks}")
        self.backend = backend
        self.tiered = backend if isinstance(backend, TieredBackend) else None
        self.queue = queue
        self.pool = pool
        self.nthreads = nthreads
        self.batch_chunks = batch_chunks
        self.retry = retry if retry is not None else RetryPolicy()
        # A standalone pool gets a breaker that never trips (threshold 0).
        self.health = health if health is not None else BackendHealth()
        # Shutdown drain time goes out on the mount's event stream; a
        # standalone pool drops it.
        self._emit: EmitFn = emit if emit is not None else (lambda event: None)
        self._threads: list[threading.Thread] = []
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.nthreads):
            t = threading.Thread(
                target=self._worker, name=f"crfs-io-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def _worker(self) -> None:
        while True:
            try:
                items = self.queue.get_batch(self.batch_chunks, contiguous)
            except QueueClosed:
                return
            if isinstance(items[0], Prefetch):
                # Readahead prefetch (low band): the flow leases its
                # buffer with try_lease and drops starved fetches, so
                # this path can never park the worker on a full pool —
                # shutdown() always drains.  Low-band items are never
                # batched, so the list is a singleton.
                run(service_prefetch(items[0]))
            else:
                run(writeback(self, items))

    # -- the writeback engine's port (threaded plane) ---------------------------

    sleep = staticmethod(blocking(time.sleep))

    @blocking
    def backend_write(
        self, entry: FileEntry, extents: Sequence[Extent], offset: int
    ) -> None:
        backend, handle = self.backend, entry.backend_handle
        if self.tiered is not None:
            # Tier 0 directly: the engine stages a run once, after its
            # attempt loop — never once per reissued attempt.
            backend, handle = self.tiered.tier0(handle)
        if len(extents) == 1:
            backend.pwrite(handle, extents[0].data, offset)
        else:
            backend.pwritev(handle, [e.data for e in extents], offset)

    @blocking
    def stage(self, entry: FileEntry, offset: int, length: int) -> None:
        if self.tiered is not None:
            self.tiered.stage(entry.backend_handle, offset, length)

    def complete(
        self, item: WorkItem, error: BaseException | None, start: float
    ) -> None:
        item.file.note_chunk_complete(
            error, nbytes=item.length, file_offset=item.offset, start=start
        )
        self.pool.release(item.chunk)

    def shutdown(self) -> None:
        """Drain-close the queue and join the workers.

        The time the drain-close took is emitted as a ``WorkersDrained``
        event (``stats()['drain']`` accumulates it), so callers never
        re-time shutdown themselves.
        """
        was_started = self._started
        start = time.monotonic()
        self.queue.close()
        alive = waits.join_all(self._threads)
        if alive:
            raise TimeoutError(f"IO threads did not exit: {alive}")
        self._threads.clear()
        self._started = False
        if was_started:
            self._emit(WorkersDrained(duration=time.monotonic() - start, t=start))
