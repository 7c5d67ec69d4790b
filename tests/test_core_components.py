"""Tests for Chunk, BufferPool, WorkQueue and IOThreadPool."""

import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro import CRFS, CRFSConfig, waits
from repro.backends import MemBackend
from repro.core.buffer_pool import BufferPool
from repro.core.chunk import Chunk
from repro.core.filetable import FileEntry, OpenFileTable
from repro.core.iopool import IOThreadPool, WorkItem
from repro.pipeline import PipelineKernel, PipelineStats
from repro.pipeline.resilience import BackendHealth, RetryPolicy
from repro.pipeline.writeback import contiguous
from repro.core.workqueue import QueueClosed, WorkQueue
from repro.pipeline.tenancy import DEFAULT_TENANT, TenantSpec
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
        c.reset()
        assert c.valid == 0
        assert c.owner is None
        assert c.file_offset == 0

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
        pool = BufferPool(PipelineKernel(1024), pool_size=4096)
        assert pool.nchunks == 4
        assert pool.free_chunks == 4

    def test_acquire_release_cycle(self):
        pool = BufferPool(PipelineKernel(1024), 2048)
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
        kernel = PipelineKernel(64)
        pool = BufferPool(kernel, 64)
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
        assert kernel.snapshot()["pool"]["waits"] == 1

    def test_acquire_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.05)
        pool = BufferPool(PipelineKernel(64), 64)
        pool.acquire()
        with pytest.raises(ShutdownError, match="exhausted"):
            pool.acquire()

    def test_close_wakes_waiters(self):
        pool = BufferPool(PipelineKernel(64), 64)
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
        pool = BufferPool(PipelineKernel(64), 128)
        c = pool.acquire()
        pool.release(c)
        with pytest.raises(ShutdownError):
            pool.release(c)

    def test_a_release_of_a_chunk_not_leased_is_refused(self):
        """Releasing ``a`` twice while ``b`` is still leased: the second
        release is refused and leaves the pool as it was, so two
        acquires get two buffers."""
        pool = BufferPool(PipelineKernel(64), 128)
        a, b = pool.acquire(), pool.acquire()
        pool.release(a)
        with pytest.raises(ShutdownError, match="double release of chunk"):
            pool.release(a)
        assert pool.free_chunks == 1
        pool.release(b)
        first, second = pool.acquire(), pool.acquire()
        assert first is not second

    def test_too_small_pool_rejected(self):
        with pytest.raises(ConfigError):
            BufferPool(PipelineKernel(1024), 512)

    def test_max_in_use_stat(self):
        kernel = PipelineKernel(64)
        pool = BufferPool(kernel, 256)
        chunks = [pool.acquire() for _ in range(3)]
        for c in chunks:
            pool.release(c)
        assert kernel.snapshot()["pool"]["max_in_use"] == 3


def _write_epoch(fs):
    for i in range(3):
        with fs.open(f"/w{i}") as f:
            for _ in range(10):
                f.write(b"x" * 40_000)


def _restore(fs):
    image = bytes(range(256)) * 1024  # 4 chunks of 64 KiB
    with fs.open("/img") as f:
        f.write(image)
    with fs.open("/img", create=False) as f:
        got = b"".join(f.pread(16_384, off) for off in range(0, len(image), 16_384))
    assert got == image


def _tenant_storm(fs):
    def writer(tenant):
        with fs.open(f"/{tenant}", tenant=tenant) as f:
            for _ in range(20):
                f.write(b"t" * 50_000)

    threads = [threading.Thread(target=writer, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)


class TestCommittedMemory:
    """A chunk's memory is committed when it is first leased and filled,
    and the free list is a stack, so the chunks a mount ever touches are
    exactly ``stats()["pool"]["max_in_use"]`` of them — the pool's share
    of the mount's resident set."""

    CASES = {
        "write_epoch": (_write_epoch, {}),
        "readahead_restore": (_restore, {"read_cache_chunks": 3, "readahead_chunks": 2}),
        "tenant_ledger": (
            _tenant_storm,
            {"tenants": (TenantSpec("a", pool_reserved=2), TenantSpec("b"))},
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_chunks_ever_leased_are_max_in_use(self, case, monkeypatch):
        workload, extra = self.CASES[case]
        leased = set()
        take = BufferPool._take

        def spy(pool, *args, **kw):
            chunk = take(pool, *args, **kw)
            leased.add(chunk.index)
            return chunk

        monkeypatch.setattr(BufferPool, "_take", spy)
        cfg = CRFSConfig(chunk_size=64 * 1024, pool_size=16 * 64 * 1024, io_threads=2, **extra)
        with CRFS(MemBackend(), cfg) as fs:
            workload(fs)
            stats = fs.stats()
        assert stats["pool"]["acquires"] > len(leased)  # chunks were reused
        assert len(leased) == stats["pool"]["max_in_use"]

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/status").exists(), reason="reads VmRSS (Linux)"
    )
    def test_a_mount_is_resident_only_in_the_chunks_it_fills(self):
        """A 256 MiB pool adds almost nothing to the resident set at
        construct + mount; one 4 MiB write + fsync adds its one chunk and
        the backend's copy of it.  Measured in a fresh interpreter."""
        script = textwrap.dedent(
            """
            from repro import CRFS, CRFSConfig, MemBackend

            def rss():
                with open("/proc/self/status") as f:
                    return next(int(l.split()[1]) * 1024 for l in f if l.startswith("VmRSS:"))

            with CRFS(MemBackend(), CRFSConfig.from_sizes("64K", "64K", io_threads=1)) as warm:
                with warm.open("/warm") as f:
                    f.write(b"w")  # imports and first-use allocations
            data = b"x" * (4 << 20)
            before = rss()
            fs = CRFS(MemBackend(), CRFSConfig.from_sizes("4M", "256M", io_threads=2)).mount()
            mounted = rss()
            with fs.open("/ckpt") as f:
                f.write(data)
                f.fsync()
                written = rss()
            fs.unmount()
            print(mounted - before, written - mounted)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])},
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        mount_bytes, write_bytes = map(int, out.split())
        chunk = 4 * 1024 * 1024
        assert mount_bytes < 8 * 1024 * 1024  # +256 MiB when the pool was zero-filled
        # the pool's one chunk + MemBackend's copy; 1 MiB for the allocator
        assert write_bytes <= 2 * chunk + 1024 * 1024


class TestWorkQueue:
    def test_fifo(self):
        q = WorkQueue()
        q.put(1)
        q.put(2)
        assert q.get_batch(1, contiguous) == [1]
        assert q.get_batch(1, contiguous) == [2]

    def test_get_blocks_until_put(self):
        q = WorkQueue()
        got = []

        def getter():
            got.extend(q.get_batch(1, contiguous))

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
        q.get_batch(1, contiguous)
        t.join(timeout=5.0)
        assert done

    def test_close_drains_then_raises(self):
        q = WorkQueue()
        q.put("x")
        q.close()
        assert q.get_batch(1, contiguous) == ["x"]
        with pytest.raises(QueueClosed):
            q.get_batch(1, contiguous)

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
                q.get_batch(1, contiguous)
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
        e = FileEntry("/f", 3, PipelineKernel(1024))
        e.note_chunk_queued()
        e.note_chunk_queued()
        assert e.pipeline.outstanding == 2
        e.note_chunk_complete()
        e.note_chunk_complete()
        assert e.pipeline.outstanding == 0
        e.wait_drained()  # returns immediately

    def test_wait_drained_blocks_until_complete(self):
        e = FileEntry("/f", 3, PipelineKernel(1024))
        e.note_chunk_queued()
        waited = []

        def completer():
            time.sleep(0.05)
            e.note_chunk_complete()

        t = threading.Thread(target=completer)
        t.start()
        e.wait_drained()
        t.join()
        assert e.pipeline.outstanding == 0

    def test_error_latched_and_raised_once(self):
        e = FileEntry("/f", 3, PipelineKernel(1024))
        e.note_chunk_queued()
        e.note_chunk_complete(error=OSError("disk on fire"))
        with pytest.raises(BackendIOError, match="disk on fire"):
            e.wait_drained()
        # error was consumed
        e.wait_drained()

    def test_wait_drained_timeout(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.05)
        e = FileEntry("/f", 3, PipelineKernel(1024))
        e.note_chunk_queued()
        with pytest.raises(FileStateError, match="stuck"):
            e.wait_drained()


class TestOpenFileTable:
    def test_open_creates_then_refcounts(self):
        t = OpenFileTable()
        made = []

        def make():
            e = FileEntry("/a", 1, PipelineKernel(64))
            made.append(e)
            return e

        e1 = t.open("/a", make)
        e2 = t.open("/a", make)
        assert e1 is e2
        assert len(made) == 1
        assert e1.refcount == 2

    def test_close_drops_reference(self):
        t = OpenFileTable()
        t.open("/a", lambda: FileEntry("/a", 1, PipelineKernel(64)))
        t.open("/a", lambda: FileEntry("/a", 1, PipelineKernel(64)))
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
        t.open("/a", lambda: FileEntry("/a", 1, PipelineKernel(64)))
        t.open("/b", lambda: FileEntry("/b", 2, PipelineKernel(64)))
        assert sorted(t.paths()) == ["/a", "/b"]


class TestIOThreadPool:
    def _rig(self, nthreads=2):
        backend = MemBackend()
        self.kernel = kernel = PipelineKernel(64)
        queue = WorkQueue(emit=kernel.emit)
        pool = BufferPool(kernel, 64 * 8)
        iop = IOThreadPool(
            backend, queue, pool, nthreads, kernel, RetryPolicy(), BackendHealth(kernel)
        )
        iop.start()
        return backend, queue, pool, iop

    def test_chunks_written_to_backend(self):
        backend, queue, pool, iop = self._rig()
        fd = backend.open("/out")
        # Completion accounting flows over the rig kernel's stream.
        entry = FileEntry("/out", fd, self.kernel)
        chunk = pool.acquire()
        chunk.open_for(entry, 0)
        chunk.append(b"payload!", 0, 8)
        entry.note_chunk_queued()
        queue.put(WorkItem(chunk=chunk, entry=entry))
        entry.wait_drained()
        assert backend.read_file("/out") == b"payload!"
        snap = self.kernel.snapshot()
        assert (snap["chunks_written"], snap["bytes_out"]) == (1, 8)
        iop.shutdown()

    def test_chunk_recycled_after_write(self):
        backend, queue, pool, iop = self._rig()
        fd = backend.open("/out")
        entry = FileEntry("/out", fd, self.kernel)
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
        entry = FileEntry("/out", 999999, self.kernel)
        chunk = pool.acquire()
        chunk.open_for(entry, 0)
        chunk.append(b"x", 0, 1)
        entry.note_chunk_queued()
        queue.put(WorkItem(chunk=chunk, entry=entry))
        with pytest.raises(BackendIOError):
            entry.wait_drained()
        assert self.kernel.snapshot()["io_errors"] == 1
        iop.shutdown()

    def test_shutdown_joins_threads(self):
        _, queue, _, iop = self._rig(nthreads=3)
        iop.shutdown()
        assert not iop._threads

    def test_bad_thread_count(self):
        backend, kernel = MemBackend(), PipelineKernel(64)
        pool, health = BufferPool(kernel, 64), BackendHealth(kernel)
        with pytest.raises(ValueError):
            IOThreadPool(backend, WorkQueue(), pool, 0, kernel, RetryPolicy(), health)

    def test_concurrent_chunks_across_files(self):
        backend, queue, pool, iop = self._rig(nthreads=4)
        entries = []
        for i in range(8):
            fd = backend.open(f"/f{i}")
            e = FileEntry(f"/f{i}", fd, self.kernel)
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
