"""Staging-hierarchy stress: close and unmount with pumps mid-flight.

A slow (or dead) deep tier under a small buffer pool, files closed the
moment their last write returns: unmount must drain the pump without
deadlock, release every pool chunk, and leave the tier counters
settled.  These runs are wall-clock bounded and belong in the CI
concurrency-stress step.
"""

import time

import pytest

from repro.backends import FaultRule, FaultyBackend, MemBackend, TieredBackend
from repro.config import CRFSConfig, RetryPolicy
from repro.core import CRFS
from repro.units import KiB

pytestmark = pytest.mark.stress

CHUNK = 16 * KiB
POOL_CHUNKS = 8
NFILES = 4
NCHUNKS = 8  # per file: workload is 4x the pool, so buffers must cycle

FAST = RetryPolicy(attempts=2, backoff=1e-4, backoff_max=1e-3, jitter=0.0)

#: Generous bound; any deadlock hits the suite's own timeout long after.
WALL_LIMIT = 60.0


def _blob(i, nbytes):
    return bytes((j + i) % 256 for j in range(nbytes))


def _deep_bytes(deep_mem, path, n):
    return deep_mem.pread(deep_mem.open(path, create=False), n, 0)


def _slow_rules(delay=0.002):
    return [
        FaultRule(op="pwrite", nth=1, every=True, delay=delay),
        FaultRule(op="pwritev", nth=1, every=True, delay=delay),
    ]


def _dead_rules():
    return [
        FaultRule(op="pwrite", nth=1, every=True, error=OSError("EIO")),
        FaultRule(op="pwritev", nth=1, every=True, error=OSError("EIO")),
    ]


class TestUnmountMidMigration:
    def test_slow_deep_tier_drains_without_leaking(self):
        """Every file is closed with migrations still in flight; the
        unmount drains the pump, the deep tier ends byte-identical, and
        the pool hands back every chunk."""
        deep_mem = MemBackend()
        deep = FaultyBackend(deep_mem, _slow_rules(), sleep=time.sleep)
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=POOL_CHUNKS * CHUNK, io_threads=2,
            tier_pump_threads=2, tier_pump_batch_chunks=2,
        )
        fs = CRFS(TieredBackend([MemBackend(), deep]), cfg)
        blobs = {}
        start = time.monotonic()
        with fs:
            pool = fs.pool
            for i in range(NFILES):
                path = f"/rank{i}.img"
                blobs[path] = _blob(i, NCHUNKS * CHUNK)
                f = fs.open(path)
                f.write(blobs[path])
                if i == NFILES - 1:
                    f.fsync()  # one deep-durability wait mid-stress
                f.close()  # immediately: the pump still owes this file
        elapsed = time.monotonic() - start
        assert elapsed < WALL_LIMIT

        stats = fs.stats()
        tiers = stats["tiers"]["per_tier"]
        assert pool.in_use == 0  # no buffer leak
        assert stats["open_files"] == 0
        assert tiers["1"]["chunks_staged"] == NFILES * NCHUNKS
        assert tiers["1"]["chunks_stranded"] == 0
        assert tiers["1"]["pump_queue_max"] >= 1
        assert stats["tiers"]["sync_through"] == 1  # the one fsync landed
        for path, blob in blobs.items():
            assert _deep_bytes(deep_mem, path, len(blob)) == blob, path

    def test_dead_deep_tier_never_deadlocks_the_unmount(self):
        """Retry exhaustion on every migration: unmount still completes,
        strands account for the whole workload, tier 0 keeps the bytes,
        and no pool chunk is lost to a stranded extent."""
        tier0 = MemBackend()
        deep = FaultyBackend(MemBackend(), _dead_rules(), sleep=lambda s: None)
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=POOL_CHUNKS * CHUNK, io_threads=2,
            retry=FAST, breaker_threshold=2,
            tier_pump_threads=2, tier_pump_batch_chunks=2,
        )
        fs = CRFS(TieredBackend([tier0, deep]), cfg)
        blobs = {}
        start = time.monotonic()
        with fs:
            pool = fs.pool
            for i in range(NFILES):
                path = f"/rank{i}.img"
                blobs[path] = _blob(i, NCHUNKS * CHUNK)
                f = fs.open(path)
                f.write(blobs[path])
                f.close()
        elapsed = time.monotonic() - start
        assert elapsed < WALL_LIMIT

        stats = fs.stats()
        tiers = stats["tiers"]["per_tier"]
        assert pool.in_use == 0
        assert tiers["1"]["chunks_stranded"] == NFILES * NCHUNKS
        assert tiers["1"]["chunks_staged"] == 0
        assert tiers["1"]["breaker_trips"] == 1
        # the mount pipeline itself never degraded
        assert stats["resilience"]["breaker_trips"] == 0
        assert stats["io_errors"] == 0
        for path, blob in blobs.items():
            got = tier0.pread(tier0.open(path, create=False), len(blob), 0)
            assert got == blob, path

    def test_many_small_files_churn_through_a_tiny_pool(self):
        """32 files with partial tail chunks through a 4-chunk pool and
        a gathering pump: open/write/close churn, then one unmount
        drain.  Conservation must hold file by file."""
        deep_mem = MemBackend()
        deep = FaultyBackend(deep_mem, _slow_rules(delay=0.0005), sleep=time.sleep)
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            tier_pump_threads=1, tier_pump_batch_chunks=4,
        )
        fs = CRFS(TieredBackend([MemBackend(), deep]), cfg)
        nfiles, size = 32, CHUNK + CHUNK // 2  # 2 chunks each, one partial
        start = time.monotonic()
        with fs:
            pool = fs.pool
            for i in range(nfiles):
                with fs.open(f"/small{i}.img") as f:
                    f.write(_blob(i, size))
        elapsed = time.monotonic() - start
        assert elapsed < WALL_LIMIT

        stats = fs.stats()
        assert pool.in_use == 0
        assert stats["tiers"]["per_tier"]["1"]["chunks_staged"] == nfiles * 2
        assert stats["tiers"]["per_tier"]["1"]["chunks_stranded"] == 0
        for i in range(nfiles):
            assert _deep_bytes(deep_mem, f"/small{i}.img", size) == _blob(i, size)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
