"""Edge cases for mount lifecycle, error latching and stats."""

import threading

import pytest

from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.checkpoint.sizedist import WriteSizeDistribution
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import BackendIOError, MountError
from repro.units import KiB
from repro.util.rng import rng_for


def small_cfg(**kw):
    base = dict(chunk_size=4 * KiB, pool_size=32 * KiB, io_threads=2)
    base.update(kw)
    return CRFSConfig(**base)


class TestErrorLatching:
    def test_write_after_failed_async_write_raises(self):
        backend = FaultyBackend(
            MemBackend(), [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))]
        )
        fs = CRFS(backend, small_cfg()).mount()
        f = fs.open("/f")
        f.write(b"x" * (4 * KiB))  # chunk 1 -> fails asynchronously
        # wait for the failure to land, then further writes fail fast
        import time

        deadline = time.time() + 5
        while f._entry.peek_error() is None and time.time() < deadline:
            time.sleep(0.01)
        with pytest.raises(BackendIOError):
            f.write(b"more" * 1024)
        with pytest.raises(BackendIOError):
            f.close()
        fs.iopool.shutdown()

    def test_unmount_after_error_still_possible(self):
        backend = FaultyBackend(
            MemBackend(), [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))]
        )
        fs = CRFS(backend, small_cfg()).mount()
        f = fs.open("/f")
        f.write(b"x" * (4 * KiB))
        with pytest.raises(BackendIOError):
            f.close()
        fs.unmount()
        assert not fs.mounted


class TestForcedUnmount:
    def test_handles_unusable_after_forced_unmount(self):
        fs = CRFS(MemBackend(), small_cfg()).mount()
        f = fs.open("/f")
        f.write(b"data")
        fs.unmount()
        with pytest.raises(MountError):
            f.write(b"more")

    def test_unmount_closes_multiref_entries(self):
        backend = MemBackend()
        fs = CRFS(backend, small_cfg()).mount()
        f1 = fs.open("/f")
        f2 = fs.open("/f")
        f1.write(b"abc")
        fs.unmount()
        assert backend.read_file("/f") == b"abc"
        assert len(fs.table) == 0

    def test_one_files_latched_error_does_not_stop_the_teardown(self):
        mem = MemBackend()
        backend = FaultyBackend(mem, [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))])
        fs = CRFS(backend, small_cfg(io_threads=1))
        before = set(threading.enumerate())
        with pytest.raises(BackendIOError, match="/a"):
            with fs:
                fs.open("/a").write(b"x" * 100)  # its chunk fails at unmount
                fs.open("/b").write(b"y" * 1000)
        assert mem.read_file("/b") == b"y" * 1000
        assert fs.stats()["open_files"] == 0 and len(fs.table) == 0
        assert not fs.mounted
        assert set(threading.enumerate()) <= before  # the IO workers stopped

    def test_every_files_error_is_kept(self):
        rule = FaultRule(op="pwrite", nth=1, until=2, every=True, error=OSError("EIO"))
        fs = CRFS(FaultyBackend(MemBackend(), [rule]), small_cfg(io_threads=1)).mount()
        fs.open("/a").write(b"x")
        fs.open("/b").write(b"y")
        with pytest.raises(BackendIOError, match="/a") as raised:
            fs.unmount()
        assert "/b" in str(raised.value.__context__)
        assert not fs.mounted

    def test_mount_after_unmount_refused(self):
        fs = CRFS(MemBackend(), small_cfg())
        with fs:
            pass
        with pytest.raises(MountError, match="not reusable"):
            fs.mount()
        assert not fs.mounted

    def test_remount_new_instance_reads_old_data(self):
        backend = MemBackend()
        with CRFS(backend, small_cfg()) as fs:
            with fs.open("/persist") as f:
                f.write(b"still here")
        with CRFS(backend, small_cfg()) as fs2:
            f = fs2.open("/persist", create=False)
            f.fsync()
            assert f.pread(10, 0) == b"still here"
            f.close()


class TestStatsShape:
    def test_stats_keys_stable(self):
        with CRFS(MemBackend(), small_cfg()) as fs:
            with fs.open("/f") as f:
                f.write(b"x" * (10 * KiB))
            stats = fs.stats()
        assert set(stats) >= {
            "writes", "bytes_in", "write_through_bytes", "chunks_written",
            "bytes_out", "io_errors", "seals", "open_files", "pool", "queue",
        }
        assert set(stats["seals"]) == {"full", "gap", "flush"}
        assert stats["io_errors"] == 0


class TestSizeDistInternals:
    def test_bucket_counts_sum_to_write_count(self):
        d = WriteSizeDistribution()
        for mb in (2, 23, 100):
            size = mb * 1_000_000
            counts = d.bucket_counts(size)
            assert sum(counts) >= d.write_count(size)  # >= due to min-1 rule

    def test_data_buckets_never_empty(self):
        d = WriteSizeDistribution()
        counts = d.bucket_counts(1_000_000)
        # buckets carrying >1% of data always get at least one write
        for spec, count in zip(d.buckets, counts):
            if spec.data_frac > 0.01:
                assert count >= 1

    def test_describe_structure(self):
        d = WriteSizeDistribution()
        desc = d.describe(5_000_000, rng_for(1, "d"))
        assert set(desc) == {b.label for b in d.buckets}
        total = sum(row["count_frac"] for row in desc.values())
        assert total == pytest.approx(1.0)
