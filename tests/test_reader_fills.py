"""Who moves a restored chunk's bytes.

A chunk's backend read is split in two: the window's prefetch *warms*
it and the first reader to touch it *fills* it.  The backend decides
which half reads: over one that reads from memory the reader that slid
the window leases the prefetch and the reader that consumes the chunk
fills it, on its own thread, right before copying the bytes out; over
one with latency of its own the IO workers fetch the window ahead.
Pinned here by structure, not by a stopwatch: which thread runs every
``pread_into`` and every prefetch's lease, which reads enter the read
flow and what goes on the work queue, that the read accounting is the
same either way, that a short fill makes a short read, that a failed
fill is counted alike wherever it runs, and that a warm that read
nothing never closes the breaker.
"""

import threading

import pytest

from repro.backends import (
    FaultRule,
    FaultyBackend,
    InstrumentedBackend,
    LocalDirBackend,
    MemBackend,
    TieredBackend,
)
from repro.config import CRFSConfig
from repro.core import CRFS, iopool
from repro.errors import BackendIOError
from repro.pipeline import readahead

CHUNK = 4096


def image(nbytes):
    return bytes((i * 7 + 3) % 251 for i in range(nbytes))


class Recording(MemBackend):
    """Records the thread of every ``pread_into``."""

    def __init__(self):
        super().__init__()
        self.fills = []

    def pread_into(self, handle, buf, offset):
        self.fills.append(threading.current_thread().name)
        return super().pread_into(handle, buf, offset)


class RecordingRemote(Recording):
    """The same store, declared to have latency of its own."""

    reads_from_memory = False


def restore(monkeypatch, backend, request_size, nchunks=16):
    """Cache 3, window 2 — the restore benchmark's geometry — over a
    ``nchunks``-chunk image read by one thread: the threads that warmed
    a prefetch, the read counters, the ``fetch`` copies, the (offset,
    size) of the reads that entered the read flow and the queue puts
    the restore made."""
    data = image(nchunks * CHUNK)
    warmed_on, flows = [], []
    service, flow = readahead.service_prefetch, readahead.read

    def spy(item):
        warmed_on.append(threading.current_thread().name)
        return service(item)

    def flow_spy(port, f, size, offset):
        flows.append((offset, size))
        return flow(port, f, size, offset)

    monkeypatch.setattr(readahead, "service_prefetch", spy)
    monkeypatch.setattr(iopool, "service_prefetch", spy)  # the IO workers' name for it
    monkeypatch.setattr(readahead, "read", flow_spy)
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=8 * CHUNK, io_threads=2,
        read_cache_chunks=3, readahead_chunks=2,
    )
    out = []
    with CRFS(backend, cfg) as fs:
        with fs.open("/img") as f:
            f.write(data)
            f.fsync()
        base = fs.stats()

        def reader():
            with fs.open("/img", create=False) as f:
                for offset in range(0, len(data), request_size):
                    out.append(f.pread(request_size, offset))

        thread = threading.Thread(target=reader, name="restore-reader")
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        stats = fs.stats()
    assert b"".join(out) == data
    read = {k: stats["read"][k] - base["read"][k] for k in
            ("hits", "misses", "prefetched", "prefetch_wasted", "prefetch_dropped")}
    fetch = stats["mem"]["by_site"]["fetch"]["copies"] - base["mem"]["by_site"]["fetch"]["copies"]
    puts = stats["queue"]["puts"] - base["queue"]["puts"]
    return warmed_on, read, fetch, flows, puts


def expected_reads(request_size, nchunks=16):
    """The read section a worker-fetched window produced: one miss,
    every other chunk prefetched once, nothing wasted or dropped."""
    size = nchunks * CHUNK
    accesses = sum(
        (min(o + request_size, size) - 1) // CHUNK - o // CHUNK + 1
        for o in range(0, size, request_size)
    )
    return {
        "hits": accesses - 1,
        "misses": 1,
        "prefetched": nchunks - 1,
        "prefetch_wasted": 0,
        "prefetch_dropped": 0,
    }


class TestTheReaderFills:
    @pytest.mark.parametrize("request_size", [CHUNK // 4, CHUNK, 3 * CHUNK // 2])
    def test_sequential_restore(self, monkeypatch, request_size):
        """Over a backend that reads from memory every fill and every
        prefetch's lease and warm run on the reading thread."""
        backend = Recording()
        warmed_on, read, fetch, _, puts = restore(monkeypatch, backend, request_size)
        assert backend.fills == ["restore-reader"] * 16
        assert warmed_on == ["restore-reader"] * 15  # no IO worker runs one
        assert read == expected_reads(request_size)
        assert fetch == 16
        assert puts == 0  # and no worker wakes

    @pytest.mark.parametrize("request_size", [CHUNK // 4, CHUNK])
    def test_a_restore_in_requests_inside_a_chunk_enters_the_flow_once(
        self, monkeypatch, request_size
    ):
        """Every chunk-boundary read fills its warmed chunk in the plain
        ``read_resident``: only the demand miss of chunk 0 is the
        flow's."""
        _, read, _, flows, _ = restore(monkeypatch, Recording(), request_size)
        assert flows == [(0, request_size)]
        assert read == expected_reads(request_size)

    def test_a_read_spanning_a_warmed_chunk_takes_the_flow(self, monkeypatch):
        """1.5-chunk requests: every other read spans a chunk boundary
        into a chunk only warmed, and the flow fills that one."""
        request_size = 3 * CHUNK // 2
        _, _, _, flows, _ = restore(monkeypatch, Recording(), request_size)
        spanning = [
            (o, request_size) for o in range(0, 16 * CHUNK, request_size)
            if o // CHUNK != (o + request_size - 1) // CHUNK
        ]
        assert spanning and set(spanning) <= set(flows)


class TestTheWorkersFetchAhead:
    @pytest.mark.parametrize("request_size", [CHUNK // 4, CHUNK, 3 * CHUNK // 2])
    def test_sequential_restore(self, monkeypatch, request_size):
        """Over a backend with latency the IO workers read every
        prefetched chunk and the reader only the demand miss — the same
        accounting, the window hiding the latency."""
        backend = RecordingRemote()
        warmed_on, read, fetch, _, puts = restore(monkeypatch, backend, request_size)
        assert backend.fills[0] == "restore-reader"
        assert set(backend.fills[1:]) <= {"crfs-io-0", "crfs-io-1"}
        assert len(backend.fills) == 16
        assert len(warmed_on) == 15
        assert set(warmed_on) <= {"crfs-io-0", "crfs-io-1"}  # the reader warms nothing
        assert read == expected_reads(request_size)
        assert fetch == 16
        assert puts == 15  # one per prefetch

    def test_the_backend_says_whether_it_reads_from_memory(self, tmp_path):
        delayed = [FaultRule(op="pread", every=True, delay=0.001)]
        assert MemBackend().reads_from_memory
        assert LocalDirBackend(str(tmp_path)).reads_from_memory
        assert FaultyBackend(MemBackend()).reads_from_memory
        assert not FaultyBackend(MemBackend(), delayed).reads_from_memory
        assert not InstrumentedBackend(FaultyBackend(MemBackend(), delayed)).reads_from_memory
        assert TieredBackend([MemBackend(), RecordingRemote()]).reads_from_memory
        assert not TieredBackend([RecordingRemote(), MemBackend()]).reads_from_memory


class TestAShortFillIsAShortRead:
    def test_truncated_behind_the_mount(self):
        """The file shrank on the backend, not through the mount, which
        still believes its old size: the read comes back short, as a
        passthrough ``pread`` would, instead of handing out the rest of
        the pooled buffer — which last held another file's bytes."""
        mem = MemBackend()
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            read_cache_chunks=2, readahead_chunks=0,
        )
        with CRFS(mem, cfg) as fs:
            a = fs.open("/a")
            a.write(b"A" * 2 * CHUNK)
            a.fsync()
            with fs.open("/b") as b:
                b.write(b"B" * 4 * CHUNK)
                b.fsync()
            mem.truncate("/a", 1000)
            assert a.pread(CHUNK, 0) == b"A" * 1000
            a.close()


class TestTheBreaker:
    def test_a_read_that_trips_it_leaves_it_open(self):
        """The read's own slide left the chunk-2 prefetch unwarmed; its
        fill of chunk 1 fails and trips the breaker, and so does the
        demand refetch, which raises.  Warming the chunk-2 prefetch once
        the read is over moves no bytes, so it is no probe: the breaker
        stays open."""
        backend = FaultyBackend(MemBackend())
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=8 * CHUNK, io_threads=1,
            read_cache_chunks=3, readahead_chunks=2, breaker_threshold=1,
        )
        data = image(4 * CHUNK)
        with CRFS(backend, cfg) as fs:
            with fs.open("/img") as f:
                f.write(data)
                f.fsync()
                backend.add_rule(FaultRule(op="pread", nth=2, every=True, error=OSError("EIO")))
                successes = fs.health.successes
                with pytest.raises(BackendIOError, match="demand read of chunk @4096"):
                    f.pread(2 * CHUNK, 0)
                assert fs.health.degraded
                assert fs.health.successes == successes + 1  # chunk 0's demand fill
                assert fs.stats()["read"]["prefetched"] == 2  # chunk 2's too


def read_back(backend, reads, nchunks, rules=(), **overrides):
    """Write an ``nchunks``-chunk image through cache 3, window 2, then
    pread ``reads`` — (offset, size) each — from one thread; returns
    the bytes each read got, the snapshot and the breaker's success and
    failure counts.  ``rules`` are added to ``backend`` (a
    ``FaultyBackend``) once the image is written."""
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=8 * CHUNK, io_threads=2,
        read_cache_chunks=3, readahead_chunks=2, **overrides,
    )
    with CRFS(backend, cfg) as fs:
        with fs.open("/img") as f:
            f.write(image(nchunks * CHUNK))
            f.fsync()
            for rule in rules:
                backend.add_rule(rule)
            got = [f.pread(size, offset) for offset, size in reads]
        stats = fs.stats()
        return got, stats, (fs.health.successes, fs.health.failures)


class TestEitherWayTheSameAccounting:
    """One access sequence, played by reader fills and by worker
    fetches: the read, copy and breaker counters and the pool's leases
    agree; only the queue differs — by one put per prefetch."""

    def test_reader_fills_against_worker_fetches(self):
        nchunks, data = 12, image(12 * CHUNK)
        reads, offset = [], 0
        for size in [CHUNK // 4, CHUNK, 3 * CHUNK // 2, 100, CHUNK // 2] * 8:
            if offset >= len(data):
                break
            reads.append((offset, size))
            offset += size
            if (offset - 64) // CHUNK == (offset - 1) // CHUNK:
                reads.append((offset - 64, 64))  # again, inside the last chunk read
        runs = [read_back(b, reads, nchunks) for b in (Recording(), RecordingRemote())]
        (fills, by_fills, breaker), (fetched, by_workers, breaker_too) = runs
        assert fills == fetched == [data[o : o + n] for o, n in reads]
        for key in ("read", "mem", "resilience"):
            assert by_fills[key] == by_workers[key], key
        assert breaker == breaker_too
        assert by_fills["pool"]["acquires"] == by_workers["pool"]["acquires"]
        prefetched = by_fills["read"]["prefetched"]
        assert prefetched == nchunks - 1 and by_fills["read"]["misses"] == 1
        assert by_workers["queue"]["puts"] - by_fills["queue"]["puts"] == prefetched


class TestAFailedFill:
    """6 chunks read in 1 KiB requests; one ``pread`` fails — a
    chunk-boundary read's fill of a warmed chunk, run in
    ``read_resident``.  Counted as the flow's ``_fill`` counts one: the
    failed chunk's access is a hit, then its refetch a miss."""

    @pytest.mark.parametrize("nth", [2, 3])
    def test_counted_as_the_flow_counted_it(self, monkeypatch, nth):
        flows, flow = [], readahead.read

        def flow_spy(port, f, size, offset):
            flows.append((offset, size))
            return flow(port, f, size, offset)

        monkeypatch.setattr(readahead, "read", flow_spy)
        rule = FaultRule(op="pread", nth=nth, error=OSError("EIO"))
        reads = [(o, 1024) for o in range(0, 6 * CHUNK, 1024)]
        got, stats, breaker = read_back(FaultyBackend(MemBackend()), reads, 6, [rule])
        assert b"".join(got) == image(6 * CHUNK)
        assert flows == [(0, 1024)]  # chunk 0's demand miss alone
        read = stats["read"]
        assert (read["hits"], read["misses"], read["prefetched"]) == (23, 2, 5)
        assert stats["mem"]["by_site"]["fetch"]["copies"] == 6
        assert breaker == (12, 1)  # 6 chunks written, 6 read; the failed fill

    def test_one_that_trips_the_breaker_still_fetches_on_demand(self):
        """With ``breaker_threshold=1`` the failed fill trips the
        breaker; the demand fetch runs all the same, as the flow's
        does, and its success closes the breaker again."""
        rule = FaultRule(op="pread", nth=2, error=OSError("EIO"))
        reads = [(o, 1024) for o in range(0, 6 * CHUNK, 1024)]
        got, stats, breaker = read_back(
            FaultyBackend(MemBackend()), reads, 6, [rule], breaker_threshold=1
        )
        assert b"".join(got) == image(6 * CHUNK)
        read = stats["read"]
        assert (read["hits"], read["misses"], read["prefetched"]) == (23, 2, 5)
        assert stats["mem"]["by_site"]["fetch"]["copies"] == 6
        assert breaker == (12, 1)
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1
