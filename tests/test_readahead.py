"""Unit tests for the restart readahead cache (functional plane).

Covers the knobs, the accounting, and the two safety contracts the
design leans on:

* **shutdown safety** — the mount's ``stop_workers`` must never deadlock
  with prefetches queued behind a full pool (prefetch uses
  ``try_acquire`` and is dropped when starved; teardown marks in-flight
  entries evicted and the worker releases the buffer itself);
* **breaker bypass** — with the circuit breaker open the cache is
  bypassed entirely: reads degrade to the synchronous passthrough.
"""

import threading
import time

import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.units import KiB

CHUNK = 64 * KiB


def ra_config(**over):
    base = dict(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        read_cache_chunks=4, readahead_chunks=2,
    )
    base.update(over)
    return CRFSConfig(**base)


def image(nchunks):
    return bytes((i % 251) + 1 for i in range(nchunks * CHUNK))


class TestConfigKnobs:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="read_cache_chunks"):
            CRFSConfig(read_cache_chunks=-1)
        with pytest.raises(ValueError, match="readahead_chunks"):
            CRFSConfig(readahead_chunks=-1)

    def test_readahead_requires_cache(self):
        with pytest.raises(ValueError, match="requires a read cache"):
            CRFSConfig(readahead_chunks=2)

    def test_window_must_fit_inside_cache(self):
        with pytest.raises(ValueError, match="must exceed"):
            ra_config(read_cache_chunks=2, readahead_chunks=2)

    def test_cache_bounded_by_pool(self):
        with pytest.raises(ValueError, match="exceeds"):
            CRFSConfig(
                chunk_size=CHUNK, pool_size=2 * CHUNK,
                read_cache_chunks=3, readahead_chunks=1,
            )
        # equality is allowed: the cache may use the whole pool
        CRFSConfig(
            chunk_size=CHUNK, pool_size=2 * CHUNK,
            read_cache_chunks=2, readahead_chunks=1,
        )

    def test_default_is_off(self):
        cfg = CRFSConfig()
        assert cfg.read_cache_chunks == 0
        assert cfg.readahead_chunks == 0


class TestCacheServesReads:
    def test_sequential_readback_hits_cache(self):
        data = image(4)
        fs = CRFS(MemBackend(), ra_config())
        with fs, fs.open("/ckpt") as f:
            f.write(data)
            f.fsync()
            got = b"".join(f.pread(CHUNK, i * CHUNK) for i in range(4))
            stats = fs.stats()
        assert got == data
        read = stats["read"]
        assert read["bytes_read"] == len(data)
        assert read["misses"] >= 1
        assert read["hits"] >= 1
        assert read["hits"] + read["misses"] >= 4

    def test_cache_serves_repeat_reads_without_backend(self):
        data = image(2)
        mem = MemBackend()
        fs = CRFS(mem, ra_config())
        with fs, fs.open("/ckpt") as f:
            f.write(data)
            f.fsync()
            first = f.pread(CHUNK, 0)
            before = fs.stats()["read"]["misses"]
            again = f.pread(CHUNK, 0)  # same chunk: resident, pure hit
            after = fs.stats()["read"]
        assert first == again == data[:CHUNK]
        assert after["misses"] == before
        assert after["hits"] >= 1

    def test_unaligned_requests_span_chunks(self):
        data = image(3)
        fs = CRFS(MemBackend(), ra_config())
        with fs, fs.open("/ckpt") as f:
            f.write(data)
            f.fsync()
            # a read straddling two chunk boundaries
            lo = CHUNK // 2
            got = f.pread(2 * CHUNK, lo)
        assert got == data[lo : lo + 2 * CHUNK]

    def test_reads_past_eof_clamp(self):
        data = image(1)
        fs = CRFS(MemBackend(), ra_config())
        with fs, fs.open("/ckpt") as f:
            f.write(data)
            f.fsync()
            assert f.pread(4 * CHUNK, 0) == data
            assert f.pread(CHUNK, 10 * CHUNK) == b""


class TestPoolStarvation:
    def test_starved_prefetch_is_dropped_not_blocked(self):
        """A writer's open partial chunk pins a pool buffer; with a
        2-chunk pool the demand fetch takes the last one and the
        prefetch finds the pool empty — it must drop, not wait."""
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=2 * CHUNK, io_threads=1,
            read_cache_chunks=2, readahead_chunks=1,
        )
        data = image(2)
        fs = CRFS(MemBackend(), cfg)
        with fs:
            with fs.open("/ckpt") as f:
                f.write(data)
                f.fsync()
                with fs.open("/other") as g:
                    g.write(b"x" * (CHUNK // 2))  # pins one pool chunk
                    assert f.pread(CHUNK, 0) == data[:CHUNK]
                    # the issued prefetch of chunk 1 found no free
                    # buffer; the worker resolves it as a drop
                    deadline = time.monotonic() + 10
                    while True:
                        read = fs.stats()["read"]
                        if read["prefetched"] + read["prefetch_dropped"] >= 1:
                            break
                        assert time.monotonic() < deadline, read
                        time.sleep(0.001)
                    assert read["prefetch_dropped"] >= 1
                    # dropped silently: the data still arrives on demand
                    assert f.pread(CHUNK, CHUNK) == data[CHUNK:]

    @pytest.mark.timeout(60)
    def test_full_cache_sheds_for_a_starved_writer(self):
        """Cache capacity == pool capacity: once readback populates
        every entry, the cache leases the whole pool.  A write into
        uncached territory must shed those leases and proceed — the
        regression was a 30 s pool stall mid-write that poisoned the
        planner and broke the file's close path."""
        data = image(4)
        fs = CRFS(MemBackend(), ra_config())
        with fs:
            f = fs.open("/ckpt")
            f.write(data)
            f.fsync()
            for i in range(4):
                assert f.pread(CHUNK, i * CHUNK) == data[i * CHUNK : (i + 1) * CHUNK]
            # settle: the cache now pins all four pool chunks
            deadline = time.monotonic() + 10
            while fs.pool.in_use < fs.pool.nchunks:
                assert time.monotonic() < deadline, fs.stats()["read"]
                time.sleep(0.001)
            t0 = time.monotonic()
            f.write(b"Y" * CHUNK)  # appends past the cached range
            f.fsync()
            assert time.monotonic() - t0 < 10.0  # no pool-deadline stall
            assert f.pread(CHUNK, 4 * CHUNK) == b"Y" * CHUNK
            f.close()
            assert fs.pool.in_use == 0  # every lease returned

    @pytest.mark.timeout(60)
    def test_sim_plane_sheds_instead_of_deadlocking_the_clock(self):
        """Same shape on the virtual clock: with no real pool deadline
        to fire, a cache pinning the whole pool would deadlock the
        simulator outright unless the writer sheds the leases."""
        from repro.sim import SharedBandwidth, Simulator
        from repro.simcrfs import SimCRFS
        from repro.simio.nullfs import NullSimFilesystem
        from repro.simio.params import DEFAULT_HW
        from repro.util.rng import rng_for

        sim = Simulator()
        hw = DEFAULT_HW
        crfs = SimCRFS(
            sim, hw, ra_config(),
            NullSimFilesystem(sim, hw, rng_for(1, "shed/backend")),
            SharedBandwidth(sim, hw.membus_bandwidth),
        )

        def proc():
            f = crfs.open("/ckpt")
            yield from crfs.write(f, 4 * CHUNK)
            yield from crfs.fsync(f)
            crfs.seek(f, 0)
            for _ in range(4):
                yield from crfs.read(f, CHUNK)
            yield from crfs.write(f, CHUNK)  # must shed, not park forever
            yield from crfs.fsync(f)
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        crfs.shutdown()
        assert crfs.stats()["open_files"] == 0


class TestShutdownSafety:
    @pytest.mark.timeout(30)
    def test_shutdown_with_queued_prefetches_does_not_deadlock(self):
        """Unmount with prefetches still queued behind a 2-chunk pool:
        teardown must complete (the regression this suite pins)."""
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=2 * CHUNK, io_threads=1,
            read_cache_chunks=2, readahead_chunks=1,
        )
        data = image(6)
        fs = CRFS(MemBackend(), cfg)
        with fs:
            f = fs.open("/ckpt")
            f.write(data)
            f.fsync()
            for i in range(6):
                f.pread(CHUNK, i * CHUNK)
            f.close()  # clear() with prefetches possibly still queued
        # unmount returned: no deadlock, and no buffer leaked
        assert fs.pool.in_use == 0

    @pytest.mark.timeout(30)
    def test_shutdown_with_inflight_prefetch_does_not_deadlock(self):
        """Close while a prefetch pread is *in flight*: clear() marks the
        entry evicted and the worker must release the buffer itself."""
        release = threading.Event()
        started = threading.Event()

        class SlowReads(MemBackend):
            reads_from_memory = False  # the IO worker fetches the prefetch

            def pread_into(self, handle, buf, offset):
                if offset >= CHUNK:  # only prefetches (demand is chunk 0)
                    started.set()
                    assert release.wait(timeout=20)
                return super().pread_into(handle, buf, offset)

        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=2 * CHUNK, io_threads=1,
            read_cache_chunks=2, readahead_chunks=1,
        )
        data = image(2)
        fs = CRFS(SlowReads(), cfg)
        fs.mount()
        f = fs.open("/ckpt")
        f.write(data)
        f.fsync()
        assert f.pread(CHUNK, 0) == data[:CHUNK]
        assert started.wait(timeout=20)  # the chunk-1 prefetch is in flight
        closer = threading.Thread(target=f.close)
        closer.start()
        release.set()
        closer.join(timeout=20)
        assert not closer.is_alive()
        fs.unmount()
        assert fs.pool.in_use == 0


class TestEvictionAccounting:
    def test_long_scan_evicts_without_leaking(self):
        """An 8-chunk scan through a 4-entry cache churns the LRU; every
        evicted buffer must return to the pool by unmount."""
        data = image(8)
        fs = CRFS(MemBackend(), ra_config(pool_size=4 * CHUNK))
        with fs:
            with fs.open("/ckpt") as f:
                f.write(data)
                f.fsync()
                got = b"".join(f.pread(CHUNK, i * CHUNK) for i in range(8))
            stats = fs.stats()
        assert got == data
        assert fs.pool.in_use == 0
        read = stats["read"]
        assert read["prefetched"] + read["prefetch_dropped"] >= 1
        assert read["prefetch_wasted"] <= read["prefetched"]
