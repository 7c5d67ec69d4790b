"""Integration tests for the CRFS mount — the paper's Section IV semantics
end-to-end on the functional plane."""

import itertools
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    FaultRule,
    FaultyBackend,
    InstrumentedBackend,
    MemBackend,
    NullBackend,
    TieredBackend,
)
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import BackendIOError, FileStateError, MountError
from repro.pipeline import AdmissionWait, EventLog, ReadHit, TierMigrated, WorkersDrained
from repro.pipeline.tenancy import TenantSpec
from repro.units import KiB


def small_config(**kw):
    defaults = dict(chunk_size=4 * KiB, pool_size=32 * KiB, io_threads=2)
    defaults.update(kw)
    return CRFSConfig(**defaults)


@pytest.fixture
def backend():
    return MemBackend()


@pytest.fixture
def fs(backend):
    f = CRFS(backend, small_config()).mount()
    yield f
    f.unmount()


class TestLifecycle:
    def test_mount_unmount(self, backend):
        fs = CRFS(backend, small_config())
        assert not fs.mounted
        fs.mount()
        assert fs.mounted
        fs.unmount()
        assert not fs.mounted

    def test_double_mount_rejected(self, fs):
        with pytest.raises(MountError):
            fs.mount()

    def test_ops_require_mount(self, backend):
        fs = CRFS(backend, small_config())
        with pytest.raises(MountError):
            fs.open("/f")
        with pytest.raises(MountError):
            fs.mkdir("/d")

    def test_context_manager(self, backend):
        with CRFS(backend, small_config()) as fs:
            with fs.open("/f") as f:
                f.write(b"data")
        assert backend.read_file("/f") == b"data"

    def test_unmount_idempotent(self, backend):
        fs = CRFS(backend, small_config()).mount()
        fs.unmount()
        fs.unmount()

    def test_unmount_flushes_open_files(self, backend):
        fs = CRFS(backend, small_config()).mount()
        f = fs.open("/f")
        f.write(b"buffered but never closed")
        fs.unmount()
        assert backend.read_file("/f") == b"buffered but never closed"


class TestWriteReadRoundtrip:
    def test_simple(self, fs, backend):
        with fs.open("/ckpt") as f:
            f.write(b"hello crfs")
        assert backend.read_file("/ckpt") == b"hello crfs"

    def test_write_smaller_than_chunk_held_until_close(self, fs, backend):
        f = fs.open("/f")
        f.write(b"tiny")
        # data may not be on the backend yet (aggregation is the point)
        f.close()
        assert backend.read_file("/f") == b"tiny"

    def test_write_spanning_many_chunks(self, fs, backend):
        data = bytes(range(256)) * 256  # 64 KiB, 16 chunks of 4 KiB
        with fs.open("/big") as f:
            f.write(data)
        assert backend.read_file("/big") == data

    def test_many_small_writes_coalesce(self):
        backend = InstrumentedBackend(MemBackend())
        with CRFS(backend, small_config()) as fs:
            with fs.open("/f") as f:
                for i in range(1000):
                    f.write(bytes([i % 256]) * 16)  # 16 KB total... 16*1000=16000
        expected = b"".join(bytes([i % 256]) * 16 for i in range(1000))
        assert backend.inner.read_file("/f") == expected
        # Aggregation: 1000 writes became few backend pwrites.
        assert len(backend.ops("pwrite")) <= 5

    def test_positional_writes_with_gap(self, fs, backend):
        with fs.open("/f") as f:
            f.pwrite(b"AAAA", 0)
            f.pwrite(b"BBBB", 100)
        data = backend.read_file("/f")
        assert data[0:4] == b"AAAA"
        assert data[100:104] == b"BBBB"
        assert data[4:100] == b"\x00" * 96

    def test_rewind_overwrite(self, fs, backend):
        with fs.open("/f") as f:
            f.pwrite(b"xxxxxxxx", 0)
            f.pwrite(b"YY", 2)
        assert backend.read_file("/f") == b"xxYYxxxx"

    def test_read_after_fsync_sees_data(self, fs):
        f = fs.open("/f")
        f.write(b"durable")
        f.fsync()
        assert f.pread(7, 0) == b"durable"
        f.close()

    def test_cursor_io(self, fs):
        f = fs.open("/f")
        f.write(b"0123456789")
        f.fsync()
        f.seek(0)
        assert f.read(4) == b"0123"
        assert f.tell() == 4
        f.seek(-2, 2)
        assert f.read() == b"89"
        f.close()

    def test_size_includes_buffered(self, fs):
        f = fs.open("/f")
        f.write(b"x" * 100)
        assert f.size() == 100  # still buffered, not yet on backend
        f.close()

    def test_empty_file(self, fs, backend):
        with fs.open("/empty") as f:
            pass
        assert backend.read_file("/empty") == b""

    def test_write_exactly_chunk_size(self, fs, backend):
        data = b"z" * (4 * KiB)
        with fs.open("/f") as f:
            f.write(data)
        assert backend.read_file("/f") == data


class TestCloseAndDrainSemantics:
    def test_close_blocks_until_chunks_written(self, backend):
        # Paper IV-C: close waits for complete_chunk_count == write_chunk_count.
        fs = CRFS(backend, small_config()).mount()
        f = fs.open("/f")
        f.write(b"q" * (20 * KiB))  # 5 chunks
        f.close()
        assert backend.read_file("/f") == b"q" * (20 * KiB)
        fs.unmount()

    def test_close_idempotent(self, fs):
        f = fs.open("/f")
        f.write(b"x")
        f.close()
        f.close()

    def test_use_after_close_rejected(self, fs):
        f = fs.open("/f")
        f.close()
        with pytest.raises(FileStateError):
            f.write(b"x")
        with pytest.raises(FileStateError):
            f.read(1)

    def test_refcounted_double_open(self, fs, backend):
        f1 = fs.open("/shared")
        f2 = fs.open("/shared")
        f1.write(b"one")
        f1.close()
        # entry still alive through f2
        f2.pwrite(b"two", 3)
        f2.close()
        assert backend.read_file("/shared") == b"onetwo"

    def test_flush_is_async(self, fs):
        f = fs.open("/f")
        f.write(b"x")
        f.flush()  # seals, does not wait
        f.close()


class TestFsync:
    def test_fsync_pushes_to_backend(self):
        backend = InstrumentedBackend(MemBackend())
        with CRFS(backend, small_config()) as fs:
            f = fs.open("/f")
            f.write(b"must be durable")
            f.fsync()
            assert backend.inner.read_file("/f") == b"must be durable"
            assert len(backend.ops("fsync")) == 1
            f.close()

    def test_fsync_then_more_writes(self, fs, backend):
        f = fs.open("/f")
        f.write(b"part1")
        f.fsync()
        f.write(b"part2")
        f.close()
        assert backend.read_file("/f") == b"part1part2"


class TestNamespacePassthrough:
    def test_mkdir_listdir_rmdir(self, fs):
        fs.mkdir("/d")
        assert fs.listdir("/") == ["d"]
        assert fs.stat("/d").is_dir
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_unlink(self, fs):
        with fs.open("/f") as f:
            f.write(b"x")
        fs.unlink("/f")
        assert not fs.exists("/f")

    def test_unlink_open_file_refused(self, fs):
        f = fs.open("/f")
        with pytest.raises(FileStateError):
            fs.unlink("/f")
        f.close()

    def test_rename_and_truncate(self, fs):
        with fs.open("/a") as f:
            f.write(b"123456")
        fs.rename("/a", "/b")
        fs.truncate("/b", 3)
        assert fs.stat("/b").size == 3

    def test_rename_open_file_refused(self, fs):
        f = fs.open("/f")
        with pytest.raises(FileStateError):
            fs.rename("/f", "/g")
        f.close()


class TestErrorPaths:
    def test_async_write_error_surfaces_at_close(self):
        backend = FaultyBackend(
            MemBackend(), [FaultRule(op="pwrite", nth=1, every=True, error=OSError("EIO"))]
        )
        fs = CRFS(backend, small_config()).mount()
        f = fs.open("/f")
        f.write(b"x" * (8 * KiB))  # 2 chunks, both will fail
        with pytest.raises(BackendIOError):
            f.close()
        fs.unmount()

    def test_async_write_error_surfaces_at_fsync(self):
        backend = FaultyBackend(
            MemBackend(), [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))]
        )
        fs = CRFS(backend, small_config()).mount()
        f = fs.open("/f")
        f.write(b"x" * (4 * KiB))  # exactly 1 chunk -> queued -> fails
        with pytest.raises(BackendIOError):
            f.fsync()
        fs.unmount()

    def test_open_missing_no_create(self, fs):
        from repro.errors import FileNotFound

        with pytest.raises(FileNotFound):
            fs.open("/missing", create=False)


class TestConcurrency:
    def test_parallel_writers_distinct_files(self, backend):
        # The paper's workload: N processes, each checkpointing to its own
        # file, concurrently.
        fs = CRFS(backend, small_config(pool_size=64 * KiB, io_threads=4)).mount()
        nwriters, nwrites, wsize = 8, 200, 512
        errors = []

        def writer(i):
            try:
                with fs.open(f"/ckpt/rank{i}.img") as f:
                    for j in range(nwrites):
                        f.write(bytes([i]) * wsize)
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        fs.mkdir("/ckpt")
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(nwriters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(nwriters):
            assert backend.read_file(f"/ckpt/rank{i}.img") == bytes([i]) * (
                nwrites * wsize
            )
        fs.unmount()

    def test_pool_backpressure_does_not_deadlock(self, backend):
        # Pool of exactly 1 chunk: every fill must wait for writeback.
        fs = CRFS(
            backend, small_config(chunk_size=4 * KiB, pool_size=4 * KiB, io_threads=1)
        ).mount()
        with fs.open("/f") as f:
            f.write(b"d" * (64 * KiB))
        assert backend.read_file("/f") == b"d" * (64 * KiB)
        fs.unmount()

    def test_stats_after_workload(self, backend):
        fs = CRFS(backend, small_config()).mount()
        with fs.open("/f") as f:
            f.write(b"x" * (10 * KiB))
        stats = fs.stats()
        assert stats["writes"] == 1
        assert stats["bytes_in"] == 10 * KiB
        assert stats["bytes_out"] == 10 * KiB
        assert stats["seals"]["full"] == 2
        assert stats["seals"]["flush"] == 1
        assert stats["open_files"] == 0
        fs.unmount()


class TestAggregationEffect:
    def test_backend_sees_chunk_sized_writes(self):
        inner = MemBackend()
        instrumented = InstrumentedBackend(inner)
        fs = CRFS(instrumented, small_config()).mount()
        with fs.open("/f") as f:
            for _ in range(64):
                f.write(b"a" * 256)  # 16 KiB total, 4 chunks of 4 KiB
        sizes = instrumented.write_sizes()
        assert sizes == [4 * KiB] * 4
        fs.unmount()

    def test_null_backend_fig5_rig(self):
        # Figure 5's method: chunks discarded by the null backend.
        null = InstrumentedBackend(NullBackend())
        fs = CRFS(null, small_config()).mount()
        with fs.open("/f") as f:
            f.write(b"x" * (40 * KiB))
        assert sum(null.write_sizes()) == 40 * KiB
        fs.unmount()


class TestPropertyRoundtrip:
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30000),
                st.binary(min_size=0, max_size=9000),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_write_pattern_matches_reference(self, writes):
        """CRFS-through-aggregation equals a plain positional-write model,
        for any pattern of offsets/sizes (gaps, overlaps, rewinds)."""
        backend = MemBackend()
        fs = CRFS(backend, small_config()).mount()
        reference = bytearray()
        with fs.open("/f") as f:
            for offset, data in writes:
                f.pwrite(data, offset)
                if not data:
                    continue  # POSIX: zero-length writes do not extend files
                end = offset + len(data)
                if end > len(reference):
                    reference.extend(b"\x00" * (end - len(reference)))
                reference[offset:end] = data
        assert backend.read_file("/f") == bytes(reference)
        fs.unmount()


class TestOneClock:
    def test_every_record_is_stamped_by_the_kernel_clock(self, monkeypatch):
        """Every time a record of a mount carries — ``t`` or ``start`` —
        is a reading of the one clock the mount's kernel was built with,
        whichever thread stamped it: the writer, an IO worker, a tier
        pump or the teardown.  The clock is a counter far from
        ``time.monotonic()``, so a record stamped by any other clock
        shows."""
        readings = []
        ticks = itertools.count(1e12)

        def counter():
            readings.append(next(ticks))
            return readings[-1]

        class SlowTier0(MemBackend):
            def pwrite(self, handle, data, offset):
                time.sleep(0.1)  # both workers busy: the next chunks queue
                return super().pwrite(handle, data, offset)

        monkeypatch.setattr(time, "perf_counter", counter)
        log = EventLog()
        cfg = small_config(
            read_cache_chunks=4,
            readahead_chunks=2,
            tenants=(TenantSpec("ckpt", queue_quota=1, patterns=("/ckpt",)),),
        )
        fs = CRFS(TieredBackend([SlowTier0(), MemBackend()]), cfg, observers=[log]).mount()
        f = fs.open("/ckpt")
        data = bytes(range(256)) * 64  # four chunks: the fourth put waits
        f.write(data)
        f.fsync()
        for _ in range(2):  # a miss, then a hit
            assert f.pread(4 * KiB, 4 * KiB) == data[4 * KiB : 8 * KiB]
        f.close()
        fs.unmount()
        stamps = [
            (type(event).__name__, name, getattr(event, name))
            for event in log.events
            for name in ("t", "start")
            if hasattr(event, name)
        ]
        assert {WorkersDrained, TierMigrated, ReadHit, AdmissionWait} <= {
            type(e) for e in log.events
        }
        clock = set(readings)
        assert [stamp for stamp in stamps if stamp[2] not in clock] == []
