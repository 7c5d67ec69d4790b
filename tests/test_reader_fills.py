"""Who moves a restored chunk's bytes.

A chunk's backend read is split in two: the window's prefetch *warms*
it and the first reader to touch it *fills* it.  The backend decides
which half reads: over one that reads from memory the reader that slid
the window leases the prefetch and the reader that consumes the chunk
fills it, on its own thread, right before copying the bytes out; over
one with latency of its own the IO workers fetch the window ahead.
Pinned here by structure, not by a stopwatch: which thread runs every
``pread_into`` and every prefetch's lease, that the read accounting is
the same either way, that a short fill makes a short read, and that a
warm that read nothing never closes the breaker.
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
from repro.core import CRFS
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
    ``nchunks``-chunk image read by one thread: the bytes read, the
    threads that warmed a prefetch, and the read/copy counters."""
    data = image(nchunks * CHUNK)
    warmed_on = []
    service = readahead.service_prefetch

    def spy(item):
        warmed_on.append(threading.current_thread().name)
        return service(item)

    monkeypatch.setattr(readahead, "service_prefetch", spy)
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
    return warmed_on, read, fetch


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
        warmed_on, read, fetch = restore(monkeypatch, backend, request_size)
        assert backend.fills == ["restore-reader"] * 16
        assert warmed_on == ["restore-reader"] * 15  # nobody waits on a worker
        assert read == expected_reads(request_size)
        assert fetch == 16


class TestTheWorkersFetchAhead:
    @pytest.mark.parametrize("request_size", [CHUNK // 4, CHUNK, 3 * CHUNK // 2])
    def test_sequential_restore(self, monkeypatch, request_size):
        """Over a backend with latency the IO workers read every
        prefetched chunk and the reader only the demand miss — the same
        accounting, the window hiding the latency."""
        backend = RecordingRemote()
        warmed_on, read, fetch = restore(monkeypatch, backend, request_size)
        assert backend.fills[0] == "restore-reader"
        assert set(backend.fills[1:]) <= {"crfs-io-0", "crfs-io-1"}
        assert len(backend.fills) == 16
        assert warmed_on == []  # the reader warms nothing
        assert read == expected_reads(request_size)
        assert fetch == 16

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
