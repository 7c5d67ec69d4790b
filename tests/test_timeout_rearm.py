"""Deadline semantics of the threaded plane's timeout loops.

Every blocking wait in the functional plane treats its ``timeout`` as a
*deadline*, not a per-wakeup budget: a wakeup that finds the condition
still false must wait only on the remainder.  The regression these
tests pin: a "teaser" thread hammering the condition with notifies
(spurious wakeups, completions for other files/chunks) must not extend
the wait — each loop still gives up within the original deadline.

Covered loops: ``WorkQueue.get`` / ``WorkQueue.get_batch``,
``FileEntry.wait_drained``, ``TieredBackend.fsync_through`` /
``TieredBackend.drain``, and the readahead cache's in-flight wait,
``ReadCache.await_entry`` (the threaded port's one waiting method, so
its deadline is a plain argument) — which parks only over a backend
that does not read from memory, where the IO workers fetch the window.
"""

import threading
import time

import pytest

from repro.backends import FaultRule, FaultyBackend, MemBackend, TieredBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.core.buffer_pool import BufferPool
from repro.core.filetable import FileEntry
from repro.core.readcache import ReadCache
from repro.core.workqueue import WorkQueue
from repro.errors import BackendTimeoutError, FileStateError
from repro.pipeline.readahead import PREFETCH, ReadaheadCore
from repro.pipeline.writeback import run
from repro.units import KiB

CHUNK = 64 * KiB

#: The storm must not extend a 0.3 s deadline anywhere near this bound;
#: generous so slow CI machines never flake.
SLACK = 5.0


class _Teaser:
    """A thread that notifies ``cond`` in a tight loop until stopped —
    every notify is a spurious wakeup for the waiter under test."""

    def __init__(self, cond: threading.Condition):
        self.cond = cond
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            with self.cond:
                self.cond.notify_all()
            time.sleep(0.001)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()


def assert_deadline(fn, exc_type, timeout):
    start = time.monotonic()
    with pytest.raises(exc_type):
        fn()
    elapsed = time.monotonic() - start
    assert timeout * 0.5 <= elapsed < timeout + SLACK, elapsed


class TestWorkQueueDeadlines:
    def test_get_times_out_under_notify_storm(self):
        q = WorkQueue()
        with _Teaser(q._not_empty):
            assert_deadline(lambda: q.get(timeout=0.3), TimeoutError, 0.3)

    def test_get_batch_times_out_under_notify_storm(self):
        q = WorkQueue()
        with _Teaser(q._not_empty):
            assert_deadline(
                lambda: q.get_batch(4, lambda a, b: True, timeout=0.3),
                TimeoutError,
                0.3,
            )

    def test_get_still_returns_a_late_item(self):
        """The deadline must not fire early either: an item arriving
        mid-wait (amid the storm) is returned, not dropped."""
        q = WorkQueue()
        with _Teaser(q._not_empty):
            threading.Timer(0.1, lambda: q.put("late")).start()
            assert q.get(timeout=5.0) == "late"


class TestWaitDrainedDeadline:
    def test_wait_drained_times_out_under_notify_storm(self):
        entry = FileEntry("/stuck", None, CHUNK)
        entry.note_chunk_queued()  # one chunk forever outstanding
        with _Teaser(entry._drain):
            assert_deadline(
                lambda: entry.wait_drained(timeout=0.3), FileStateError, 0.3
            )

    def test_wait_drained_wakes_on_real_completion(self):
        entry = FileEntry("/ok", None, CHUNK)
        entry.note_chunk_queued()
        with _Teaser(entry._drain):
            threading.Timer(0.1, entry.note_chunk_complete).start()
            entry.wait_drained(timeout=5.0)  # must not raise


def _held_tiered_backend():
    """A two-tier backend whose pump is stuck forever in its first deep
    write (the gate is never set), leaving staging debt outstanding."""
    gate = threading.Event()
    deep = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, every=True, delay=1.0)],
        sleep=lambda _s: gate.wait(),
    )
    return gate, TieredBackend([MemBackend(), deep])


class TestTierStagingDeadlines:
    def test_fsync_through_times_out_under_notify_storm(self):
        gate, backend = _held_tiered_backend()
        try:
            h = backend.open("/ckpt")
            backend.pwrite(h, b"x" * CHUNK, 0)
            with _Teaser(backend._idle):
                assert_deadline(
                    lambda: backend.fsync_through(h, 1, timeout=0.3),
                    BackendTimeoutError,
                    0.3,
                )
        finally:
            gate.set()  # free the pump so shutdown drains cleanly
            backend.shutdown()

    def test_drain_times_out_under_notify_storm(self):
        gate, backend = _held_tiered_backend()
        try:
            h = backend.open("/ckpt")
            backend.pwrite(h, b"x" * CHUNK, 0)
            assert backend.outstanding > 0
            with _Teaser(backend._idle):
                assert_deadline(
                    lambda: backend.drain(timeout=0.3),
                    BackendTimeoutError,
                    0.3,
                )
        finally:
            gate.set()
            backend.shutdown()


class TestReadCacheInFlightWait:
    def _parked(self):
        """A cache with one prefetch entry nobody will ever land, over a
        backend whose reads are delayed — so a reader parks on it."""
        slow = FaultyBackend(MemBackend(), [FaultRule(op="pread", delay=1.0)])
        cache = ReadCache(
            "/stuck", slow, None,
            ReadaheadCore("/stuck", CHUNK, capacity=4, depth=1),
            BufferPool(CHUNK, 4 * CHUNK), WorkQueue(),
        )
        centry, _ = cache.core.admit(3, PREFETCH)
        return cache, centry

    def test_inflight_wait_times_out_under_notify_storm(self):
        cache, centry = self._parked()

        def wait():
            with cache.lock:
                run(cache.await_entry(centry, timeout=0.3))

        with _Teaser(cache._cond):
            assert_deadline(wait, FileStateError, 0.3)

    def test_inflight_wait_returns_when_the_fetch_lands(self):
        cache, centry = self._parked()

        def land():
            with cache.lock:
                cache.core.warm_done(centry, object(), CHUNK)
                cache.wake(centry)

        with _Teaser(cache._cond):
            threading.Timer(0.1, land).start()
            with cache.lock:
                run(cache.await_entry(centry, timeout=5.0))  # must not raise
        assert centry.ready

    def test_inflight_wait_survives_spurious_wakeups(self):
        """A read that lands on its own in-flight prefetch is woken by
        completions for *other* chunks (spurious for it) and must keep
        waiting — then return the bytes once its fetch really lands."""
        mem = MemBackend()
        # slow every backend pread a little so demand reads overlap the
        # queued prefetches and the in-flight branch is actually taken
        backend = FaultyBackend(
            mem,
            [FaultRule(op="pread", nth=1, every=True, delay=0.01)],
            sleep=time.sleep,
        )
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=2,
            read_cache_chunks=4, readahead_chunks=2,
        )
        data = bytes(range(256)) * (CHUNK // 256) * 4
        with CRFS(backend, cfg) as fs:
            f = fs.open("/ckpt")
            f.write(data)
            f.fsync()
            out = b"".join(f.pread(CHUNK, i * CHUNK) for i in range(4))
            assert out == data
            f.close()
