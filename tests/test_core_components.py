"""Tests for Chunk, BufferPool, WorkQueue and IOThreadPool."""

import threading
import time

import pytest

from repro import waits
from repro.backends import MemBackend
from repro.core.buffer_pool import BufferPool
from repro.core.chunk import Chunk
from repro.core.filetable import FileEntry, OpenFileTable
from repro.core.iopool import IOThreadPool, WorkItem
from repro.pipeline import PipelineStats
from repro.pipeline.planner import SealReason
from repro.core.workqueue import QueueClosed, WorkQueue
from repro.pipeline.tenancy import DEFAULT_TENANT
from repro.errors import (
    BackendIOError,
    ConfigError,
    FileStateError,
    ShutdownError,
)


class TestChunk:
    def test_append_tracks_valid(self):
        c = Chunk(0, 64)
        c.open_for("owner", 100)
        c.append(b"hello", 0, 5)
        assert c.valid == 5
        assert c.room == 59
        assert bytes(c.payload()) == b"hello"

    def test_append_at_wrong_point_rejected(self):
        c = Chunk(0, 64)
        c.open_for("o", 0)
        with pytest.raises(FileStateError):
            c.append(b"x", 5, 1)

    def test_append_overflow_rejected(self):
        c = Chunk(0, 4)
        c.open_for("o", 0)
        with pytest.raises(FileStateError):
            c.append(b"hello", 0, 5)

    def test_reset_clears_everything(self):
        c = Chunk(0, 64)
        c.open_for("o", 7)
        c.append(b"abc", 0, 3)
        c.seal(SealReason.FLUSH)
        c.reset()
        assert c.valid == 0
        assert c.owner is None
        assert c.seal_reason is None

    def test_open_dirty_chunk_rejected(self):
        c = Chunk(0, 64)
        c.open_for("o", 0)
        c.append(b"x", 0, 1)
        with pytest.raises(FileStateError):
            c.open_for("p", 0)

    def test_payload_is_zero_copy_view(self):
        c = Chunk(0, 64)
        c.open_for("o", 0)
        c.append(b"abcd", 0, 4)
        view = c.payload()
        assert isinstance(view, memoryview)
        assert len(view) == 4


class TestBufferPool:
    def test_pool_size_chunking(self):
        pool = BufferPool(chunk_size=1024, pool_size=4096)
        assert pool.nchunks == 4
        assert pool.free_chunks == 4

    def test_acquire_release_cycle(self):
        pool = BufferPool(1024, 2048)
        a = pool.acquire()
        b = pool.acquire()
        assert pool.free_chunks == 0
        assert pool.in_use == 2
        a.open_for("owner", 0)
        a.append(b"x" * 16, 0, 16)
        pool.release(a)
        assert pool.free_chunks == 1
        c = pool.acquire()
        assert c is a  # recycled
        assert c.valid == 0 and c.owner is None  # and scrubbed

    def test_acquire_blocks_until_release(self):
        stats = PipelineStats()
        pool = BufferPool(64, 64, emit=stats.on_event)
        held = pool.acquire()
        got = []

        def taker():
            got.append(pool.acquire())

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        assert not got  # blocked
        pool.release(held)
        t.join(timeout=5.0)
        assert len(got) == 1
        assert stats.snapshot()["pool"]["waits"] == 1

    def test_acquire_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.05)
        pool = BufferPool(64, 64)
        pool.acquire()
        with pytest.raises(ShutdownError, match="exhausted"):
            pool.acquire()

    def test_close_wakes_waiters(self):
        pool = BufferPool(64, 64)
        pool.acquire()
        errs = []

        def taker():
            try:
                pool.acquire()
            except ShutdownError as e:
                errs.append(e)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        pool.close()
        t.join(timeout=5.0)
        assert len(errs) == 1

    def test_double_release_rejected(self):
        pool = BufferPool(64, 128)
        c = pool.acquire()
        pool.release(c)
        with pytest.raises(ShutdownError):
            pool.release(c)

    def test_too_small_pool_rejected(self):
        with pytest.raises(ConfigError):
            BufferPool(1024, 512)

    def test_max_in_use_stat(self):
        stats = PipelineStats()
        pool = BufferPool(64, 256, emit=stats.on_event)
        chunks = [pool.acquire() for _ in range(3)]
        for c in chunks:
            pool.release(c)
        assert stats.snapshot()["pool"]["max_in_use"] == 3


class TestWorkQueue:
    def test_fifo(self):
        q = WorkQueue()
        q.put(1)
        q.put(2)
        assert q.get() == 1
        assert q.get() == 2

    def test_get_blocks_until_put(self):
        q = WorkQueue()
        got = []

        def getter():
            got.append(q.get())

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        q.put("item")
        t.join(timeout=5.0)
        assert got == ["item"]

    def test_bounded_put_blocks(self):
        q = WorkQueue(quotas={DEFAULT_TENANT: 1})
        q.put(1)
        done = []

        def putter():
            q.put(2)
            done.append(True)

        t = threading.Thread(target=putter)
        t.start()
        time.sleep(0.05)
        assert not done
        q.get()
        t.join(timeout=5.0)
        assert done

    def test_close_drains_then_raises(self):
        q = WorkQueue()
        q.put("x")
        q.close()
        assert q.get() == "x"
        with pytest.raises(QueueClosed):
            q.get()

    def test_put_after_close_rejected(self):
        q = WorkQueue()
        q.close()
        with pytest.raises(QueueClosed):
            q.put(1)

    def test_close_wakes_blocked_getter(self):
        q = WorkQueue()
        errs = []

        def getter():
            try:
                q.get()
            except QueueClosed as e:
                errs.append(e)

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=5.0)
        assert len(errs) == 1

    def test_stats(self):
        stats = PipelineStats()
        q = WorkQueue(emit=stats.on_event)
        for i in range(5):
            q.put(i)
        queue = stats.snapshot()["queue"]
        assert (queue["puts"], queue["max_depth"]) == (5, 5)
        assert len(q) == 5


class TestFileEntryDrain:
    def test_counts_match_after_completion(self):
        e = FileEntry("/f", 3, 1024)
        e.note_chunk_queued()
        e.note_chunk_queued()
        assert e.outstanding == 2
        e.note_chunk_complete()
        e.note_chunk_complete()
        assert e.outstanding == 0
        e.wait_drained()  # returns immediately

    def test_wait_drained_blocks_until_complete(self):
        e = FileEntry("/f", 3, 1024)
        e.note_chunk_queued()
        waited = []

        def completer():
            time.sleep(0.05)
            e.note_chunk_complete()

        t = threading.Thread(target=completer)
        t.start()
        e.wait_drained()
        t.join()
        assert e.outstanding == 0

    def test_error_latched_and_raised_once(self):
        e = FileEntry("/f", 3, 1024)
        e.note_chunk_queued()
        e.note_chunk_complete(error=OSError("disk on fire"))
        with pytest.raises(BackendIOError, match="disk on fire"):
            e.wait_drained()
        # error was consumed
        e.wait_drained()

    def test_wait_drained_timeout(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.05)
        e = FileEntry("/f", 3, 1024)
        e.note_chunk_queued()
        with pytest.raises(FileStateError, match="stuck"):
            e.wait_drained()


class TestOpenFileTable:
    def test_open_creates_then_refcounts(self):
        t = OpenFileTable()
        made = []

        def make():
            e = FileEntry("/a", 1, 64)
            made.append(e)
            return e

        e1 = t.open("/a", make)
        e2 = t.open("/a", make)
        assert e1 is e2
        assert len(made) == 1
        assert e1.refcount == 2

    def test_close_drops_reference(self):
        t = OpenFileTable()
        t.open("/a", lambda: FileEntry("/a", 1, 64))
        t.open("/a", lambda: FileEntry("/a", 1, 64))
        _, last = t.close("/a")
        assert not last
        _, last = t.close("/a")
        assert last
        assert len(t) == 0

    def test_close_unknown_rejected(self):
        with pytest.raises(FileStateError):
            OpenFileTable().close("/nope")

    def test_paths(self):
        t = OpenFileTable()
        t.open("/a", lambda: FileEntry("/a", 1, 64))
        t.open("/b", lambda: FileEntry("/b", 2, 64))
        assert sorted(t.paths()) == ["/a", "/b"]


class TestIOThreadPool:
    def _rig(self, nthreads=2):
        backend = MemBackend()
        self.stats = PipelineStats()
        emit = self.stats.on_event
        queue = WorkQueue(emit=emit)
        pool = BufferPool(64, 64 * 8, emit=emit)
        iop = IOThreadPool(backend, queue, pool, nthreads, emit=emit)
        iop.start()
        return backend, queue, pool, iop

    def test_chunks_written_to_backend(self):
        backend, queue, pool, iop = self._rig()
        fd = backend.open("/out")
        # Completion accounting flows over the event stream: wire the
        # standalone entry to the rig's stats registry.
        entry = FileEntry("/out", fd, 64, emit=self.stats.on_event)
        chunk = pool.acquire()
        chunk.open_for(entry, 0)
        chunk.append(b"payload!", 0, 8)
        entry.note_chunk_queued()
        queue.put(WorkItem(chunk=chunk, entry=entry))
        entry.wait_drained()
        assert backend.read_file("/out") == b"payload!"
        snap = self.stats.snapshot()
        assert (snap["chunks_written"], snap["bytes_out"]) == (1, 8)
        iop.shutdown()

    def test_chunk_recycled_after_write(self):
        backend, queue, pool, iop = self._rig()
        fd = backend.open("/out")
        entry = FileEntry("/out", fd, 64)
        chunk = pool.acquire()
        chunk.open_for(entry, 0)
        chunk.append(b"x", 0, 1)
        entry.note_chunk_queued()
        queue.put(WorkItem(chunk=chunk, entry=entry))
        entry.wait_drained()
        deadline = time.time() + 5.0
        while pool.free_chunks != pool.nchunks and time.time() < deadline:
            time.sleep(0.01)
        assert pool.free_chunks == pool.nchunks
        iop.shutdown()

    def test_write_error_latches_into_entry(self):
        backend, queue, pool, iop = self._rig()
        # bogus fd -> pwrite fails
        entry = FileEntry("/out", 999999, 64, emit=self.stats.on_event)
        chunk = pool.acquire()
        chunk.open_for(entry, 0)
        chunk.append(b"x", 0, 1)
        entry.note_chunk_queued()
        queue.put(WorkItem(chunk=chunk, entry=entry))
        with pytest.raises(BackendIOError):
            entry.wait_drained()
        assert self.stats.snapshot()["io_errors"] == 1
        iop.shutdown()

    def test_shutdown_joins_threads(self):
        _, queue, _, iop = self._rig(nthreads=3)
        iop.shutdown()
        assert not iop._threads

    def test_bad_thread_count(self):
        backend = MemBackend()
        with pytest.raises(ValueError):
            IOThreadPool(backend, WorkQueue(), BufferPool(64, 64), 0)

    def test_concurrent_chunks_across_files(self):
        backend, queue, pool, iop = self._rig(nthreads=4)
        entries = []
        for i in range(8):
            fd = backend.open(f"/f{i}")
            e = FileEntry(f"/f{i}", fd, 64)
            entries.append(e)
            chunk = pool.acquire()
            chunk.open_for(e, 0)
            payload = bytes([i]) * 16
            chunk.append(payload, 0, 16)
            e.note_chunk_queued()
            queue.put(WorkItem(chunk=chunk, entry=e))
        for e in entries:
            e.wait_drained()
        for i in range(8):
            assert backend.read_file(f"/f{i}") == bytes([i]) * 16
        iop.shutdown()
