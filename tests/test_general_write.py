"""The general write (``pipeline.writeback.ingest`` / ``flush``) through
the mounts: a file's end counts bytes still in flight, a write at the
write-through threshold is retried and feeds the breaker, and a port
operation that raises mid-write leaves the file writable and closable."""

import threading

import pytest

from repro import CRFS, CRFSConfig, MemBackend
from repro.backends import FaultRule, FaultyBackend
from repro.errors import BackendIOError, QueueFullTimeout, ShutdownError
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.units import KiB
from repro.util.rng import rng_for

CHUNK = 4 * KiB


def small_config(**kw):
    return CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1, **kw)


class TestEndCountsBytesInFlight:
    """A rewind moves the append point back; the end of the file —
    ``O_APPEND``, ``size()``, ``SEEK_END`` — stays past every byte
    written, sealed and still short of the backend included."""

    def test_threaded_append_after_a_rewind_lands_at_the_end(self):
        gate = threading.Event()
        backend = FaultyBackend(
            MemBackend(),
            [FaultRule(op="pwrite", nth=1, delay=1.0)],
            sleep=lambda _s: gate.wait(),
        )
        with CRFS(backend, small_config()) as fs:
            with fs.open("/f") as f:
                try:
                    f.write(b"a" * 2 * CHUNK)  # two chunks sealed, one held in flight
                    f.pwrite(b"b" * 10, 0)
                    assert f.size() == f.seek(0, 2) == 2 * CHUNK
                    f.append(b"Z" * 5)
                    assert f.size() == 2 * CHUNK + 5
                finally:
                    gate.set()
        expected = b"b" * 10 + b"a" * (2 * CHUNK - 10) + b"Z" * 5
        assert backend.inner.read_file("/f") == expected

    def test_sim_file_size_after_a_rewind(self):
        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "end"))
        crfs = SimCRFS(sim, DEFAULT_HW, small_config(), backend, membus)
        sizes = []

        def proc():
            f = crfs.open("/f")
            yield from crfs.write(f, 2 * CHUNK)
            yield from crfs.fsync(f)
            f.pos = 0
            yield from crfs.write(f, 10)
            sizes.append(crfs.file_size(f))
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        assert sizes == [2 * CHUNK]


class TestWriteThroughThreshold:
    """A write at the threshold runs the same ``write_through`` flow as
    the breaker-open probe: retried, and counted by the breaker."""

    @staticmethod
    def config(**kw):
        return CRFSConfig(
            chunk_size=16 * KiB,
            pool_size=128 * KiB,
            io_threads=1,
            write_through_threshold=64 * KiB,
            retry_backoff=1e-4,
            retry_backoff_max=1e-3,
            retry_jitter=0.0,
            **kw,
        )

    def test_a_transient_fault_is_retried(self):
        backend = FaultyBackend(
            MemBackend(), [FaultRule(op="pwrite", nth=1, error=BackendIOError("EIO"))]
        )
        with CRFS(backend, self.config(retry_attempts=3)) as fs:
            with fs.open("/f") as f:
                f.write(b"W" * (64 * KiB))
            stats = fs.stats()
        assert backend.inner.read_file("/f") == b"W" * (64 * KiB)
        assert stats["resilience"]["chunks_retried"] == 1
        assert stats["write_through_bytes"] == 64 * KiB

    def test_exhausted_retries_raise_and_trip_the_breaker(self):
        backend = FaultyBackend(
            MemBackend(),
            [FaultRule(op="pwrite", nth=1, every=True, error=BackendIOError("dead"))],
        )
        with CRFS(backend, self.config(retry_attempts=2, breaker_threshold=2)) as fs:
            with fs.open("/f") as f:
                with pytest.raises(BackendIOError, match="dead"):
                    f.write(b"W" * (64 * KiB))
            assert fs.stats()["resilience"]["breaker_trips"] == 1


class TestPortFailureMidWrite:
    """An op that raises after the planner advanced must not wedge the
    file: the next write lands, ``close()`` drains and releases it."""

    @staticmethod
    def fail_next_acquire(fs):
        acquire = fs.pool.acquire
        failed = []

        def once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise ShutdownError("pool stalled")
            return acquire(*args, **kwargs)

        fs.pool.acquire = once

    def test_the_first_acquire_of_a_write(self):
        backend = MemBackend()
        with CRFS(backend, small_config()) as fs:
            f = fs.open("/f")
            self.fail_next_acquire(fs)
            with pytest.raises(ShutdownError, match="pool stalled"):
                f.write(b"x" * 10)
            f.write(b"y" * 10)
            f.close()
            assert fs.table.lookup("/f") is None
        assert backend.read_file("/f") == b"y" * 10

    def test_an_acquire_after_a_seal(self):
        backend = MemBackend()
        with CRFS(backend, small_config()) as fs:
            f = fs.open("/f")
            f.write(b"a" * 100)
            self.fail_next_acquire(fs)
            with pytest.raises(ShutdownError, match="pool stalled"):
                f.write(b"b" * CHUNK)  # fills and seals chunk 0, then fails
            assert f.size() == CHUNK
            f.pwrite(b"c" * 10, CHUNK)
            f.close()
            assert fs.table.lookup("/f") is None
            assert fs.stats()["seals"]["full"] == 1
        assert backend.read_file("/f") == b"a" * 100 + b"b" * (CHUNK - 100) + b"c" * 10

    def test_an_enqueue_that_fails_after_the_seal_latches_the_cause(self):
        """The threaded seal takes the chunk before ``queue.put`` (which
        can time out on a stalled queue): the chunk is completed as
        failed, the next write and ``close()`` name the cause, and the
        entry is released."""
        with CRFS(MemBackend(), small_config()) as fs:
            f = fs.open("/f")
            f.write(b"a" * 100)
            put = fs.queue.put

            def stalled(*args, **kwargs):
                fs.queue.put = put
                raise QueueFullTimeout("queue stalled")

            fs.queue.put = stalled
            with pytest.raises(QueueFullTimeout, match="queue stalled"):
                f.write(b"b" * CHUNK)  # fills and seals chunk 0, whose put fails
            with pytest.raises(BackendIOError, match="queue stalled"):
                f.write(b"c" * 10)
            with pytest.raises(BackendIOError, match="queue stalled"):
                f.close()
            assert fs.table.lookup("/f") is None
            assert fs.pool.free_chunks == 4
