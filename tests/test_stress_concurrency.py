"""Concurrency stress: many writers, a tiny buffer pool, and a flaky,
slow backend — the drain and recycling invariants must hold anyway.

What is asserted (per ISSUE, the concurrency stress satellite):

* at every successful close, the file's drain invariant holds:
  ``complete_chunk_count == write_chunk_count``;
* no chunk leaks: after unmount every pool chunk is back on the free
  list, whatever errors were latched along the way;
* files that closed cleanly are byte-identical in the backing store;
* the stats registry stays internally consistent under races
  (chunks accounted = seals, bytes conserved).

Faults here are probabilistic (seeded), so rare retry exhaustion is
tolerated — the assertions are invariants, not exact outcomes.
"""

import threading

import pytest

from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.config import CRFSConfig, RetryPolicy
from repro.core import CRFS
from repro.errors import BackendIOError
from repro.units import KiB

pytestmark = pytest.mark.stress

CHUNK = 16 * KiB
NWRITERS = 8
PER_WRITER = 8 * CHUNK  # bytes each writer streams


def pattern(i: int) -> bytes:
    return bytes([(i * 37 + 11) % 256]) * PER_WRITER


def stress_config(attempts=1, **kw):
    return CRFSConfig(
        retry=RetryPolicy(attempts, backoff=1e-4, backoff_max=1e-3),
        chunk_size=CHUNK,
        pool_size=3 * CHUNK,  # tiny: constant pool backpressure
        io_threads=3,
        **kw,
    )


def run_writers(fs, results):
    """NWRITERS threads, each streaming its own file in odd-sized slices."""

    def writer(i):
        data = pattern(i)
        f = fs.open(f"/rank{i}.img")
        entry = f._entry
        try:
            pos = 0
            step = 3 * KiB + i * 511  # misaligned on purpose
            while pos < len(data):
                f.write(data[pos : pos + step])
                pos += step
        except BackendIOError:
            # fail-fast echo of a latched error: still close the file so
            # its buffers drain and the latch surfaces (and is consumed)
            results[i] = "latched"
            try:
                f.close()
            except BackendIOError:
                pass
            return
        try:
            f.close()
        except BackendIOError:
            results[i] = "latched"
            return
        # drain invariant at close: every queued chunk completed
        assert (
            entry.pipeline.complete_chunk_count == entry.pipeline.write_chunk_count
        )
        results[i] = "clean"

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(NWRITERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
    assert not any(t.is_alive() for t in threads), "stress writers hung"


@pytest.mark.timeout(120)
class TestStressFlakyBackend:
    def test_invariants_under_faults_and_delays(self):
        mem = MemBackend()
        backend = FaultyBackend(
            mem,
            [
                FaultRule(op="pwrite", p=0.2, seed=11, error=OSError("EIO")),
                FaultRule(op="pwrite", p=0.3, seed=13, delay=0.001),
            ],
        )
        fs = CRFS(backend, stress_config(6)).mount()
        results = {}
        run_writers(fs, results)
        stats = fs.stats()
        fs.unmount()

        # no chunk leaks: the whole pool is back on the free list
        assert (fs.pool.in_use, fs.pool.nchunks) == (0, 3)

        # accounting is consistent despite races:
        # every sealed chunk was either written or errored, exactly once
        assert sum(stats["seals"].values()) == (
            stats["chunks_written"] + stats["io_errors"]
        )
        assert stats["bytes_out"] <= stats["bytes_in"]
        assert stats["pool"]["acquires"] == sum(stats["seals"].values())

        # with a 6-attempt budget, p=0.2 faults virtually always recover;
        # the schedule certainly injected faults and retries happened
        assert backend.faults_fired > 0
        assert stats["resilience"]["chunks_retried"] > 0
        assert stats["resilience"]["errors_latched"] == sum(
            1 for r in results.values() if r == "latched"
        )

        # every cleanly-closed file is byte-identical in the backing store
        assert sum(1 for r in results.values() if r == "clean") > 0
        for i, outcome in results.items():
            if outcome == "clean":
                h = mem.open(f"/rank{i}.img", create=False)
                assert mem.pread(h, PER_WRITER, 0) == pattern(i), f"rank{i}"

    def test_invariants_with_breaker_enabled(self):
        """Same stress with the circuit breaker armed: writers may also
        see synchronous degraded-write failures, but pool integrity and
        the clean-unmount contract must survive breaker flapping."""
        mem = MemBackend()
        backend = FaultyBackend(
            mem,
            [FaultRule(op="pwrite", p=0.3, seed=7, error=OSError("EIO"))],
        )
        fs = CRFS(
            backend, stress_config(2, breaker_threshold=2)
        ).mount()

        outcomes = []

        def writer(i):
            data = pattern(i)
            f = fs.open(f"/rank{i}.img")
            try:
                pos = 0
                while pos < len(data):
                    f.write(data[pos : pos + 4 * KiB])
                    pos += 4 * KiB
                f.close()
                outcomes.append("clean")
            except OSError:  # latched at close OR raised by a degraded write
                outcomes.append("error")
                try:
                    f.close()
                except OSError:
                    pass

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(NWRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads), "stress writers hung"

        stats = fs.stats()
        fs.unmount()
        assert fs.pool.in_use == 0
        assert len(outcomes) == NWRITERS
        assert sum(stats["seals"].values()) == (
            stats["chunks_written"] + stats["io_errors"]
        )
        # breaker transitions are paired: every trip is either recovered
        # or still open at the end (at most one dangling)
        trips = stats["resilience"]["breaker_trips"]
        recoveries = stats["resilience"]["breaker_recoveries"]
        assert recoveries <= trips <= recoveries + 1


@pytest.mark.timeout(120)
class TestStressReadersAndWriters:
    def test_readback_under_pool_contention_leaks_nothing(self):
        """NWRITERS threads each write their image then read it back
        through the readahead cache, all sharing a 3-chunk pool: demand
        fetches, prefetch drops, and LRU evictions race with write-path
        acquires — after unmount every chunk must be back on the free
        list and every byte read must be correct."""
        mem = MemBackend()
        fs = CRFS(
            mem,
            stress_config(read_cache_chunks=3, readahead_chunks=1),
        ).mount()

        failures = []

        def worker(i):
            data = pattern(i)
            try:
                f = fs.open(f"/rank{i}.img")
                pos, step = 0, 3 * KiB + i * 511
                while pos < len(data):
                    f.write(data[pos : pos + step])
                    pos += step
                f.fsync()
                # sequential read-back in chunk-misaligned requests
                pos, req = 0, 5 * KiB + i * 257
                while pos < len(data):
                    part = f.pread(min(req, len(data) - pos), pos)
                    if part != data[pos : pos + len(part)] or not part:
                        failures.append(f"rank{i}: bad bytes @{pos}")
                        return
                    pos += len(part)
                f.close()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(f"rank{i}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(NWRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads), "stress workers hung"
        assert not failures, failures

        stats = fs.stats()
        fs.unmount()
        # the no-leak contract: cache entries, in-flight prefetches and
        # write buffers all returned their pool chunks
        assert (fs.pool.in_use, fs.pool.nchunks) == (0, 3)
        read = stats["read"]
        assert read["bytes_read"] == NWRITERS * PER_WRITER
        assert read["hits"] + read["misses"] > 0
        # every issued prefetch resolved exactly one way
        assert read["prefetch_wasted"] <= read["prefetched"]
        assert stats["resilience"]["errors_latched"] == 0


@pytest.mark.timeout(120)
class TestMultiHandleInterleaving:
    """Two handles on ONE path writing adjacent regions concurrently:
    both route through the shared FileEntry's single pipeline, so the
    drain invariant, pool integrity, and the final backing-store layout
    must all hold regardless of how the two write streams interleave —
    with the drain-stage gather either off or on."""

    @pytest.mark.parametrize("batch", [1, 8])
    def test_adjacent_regions_from_two_handles(self, batch):
        mem = MemBackend()
        fs = CRFS(mem, stress_config(writeback_batch_chunks=batch)).mount()

        fa = fs.open("/shared.img")
        fb = fs.open("/shared.img")
        # both handles share one refcounted entry (one pipeline)
        assert fa._entry is fb._entry
        entry = fa._entry

        region = {0: b"\xa5" * PER_WRITER, 1: b"\x5a" * PER_WRITER}
        barrier = threading.Barrier(2)
        failures = []

        def writer(idx, handle):
            data, base = region[idx], idx * PER_WRITER
            try:
                barrier.wait(timeout=30)
                pos, step = 0, 3 * KiB + 257  # chunk-misaligned on purpose
                while pos < len(data):
                    handle.pwrite(data[pos : pos + step], base + pos)
                    pos += step
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(f"handle{idx}: {exc!r}")

        threads = [
            threading.Thread(target=writer, args=(0, fa)),
            threading.Thread(target=writer, args=(1, fb)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads), "interleaving writers hung"
        assert not failures, failures

        fa.close()
        fb.close()  # last close drains the shared entry
        assert (
            entry.pipeline.complete_chunk_count == entry.pipeline.write_chunk_count
        )
        stats = fs.stats()
        fs.unmount()

        # no buffer-pool leak whatever the interleaving (or batching) did
        assert (fs.pool.in_use, fs.pool.nchunks) == (0, 3)
        assert stats["resilience"]["errors_latched"] == 0
        assert stats["bytes_in"] == stats["bytes_out"] == 2 * PER_WRITER

        # both regions byte-identical in the backing store
        h = mem.open("/shared.img", create=False)
        assert mem.pread(h, PER_WRITER, 0) == region[0]
        assert mem.pread(h, PER_WRITER, PER_WRITER) == region[1]
