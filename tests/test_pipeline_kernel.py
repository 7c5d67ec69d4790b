"""Property tests for the plane-agnostic pipeline kernel.

The invariants the planes rely on, checked over random op sequences:

* ``complete_chunk_count <= write_chunk_count`` at every step;
* ``drained`` holds exactly when the counts are equal;
* a latched writeback error is raised exactly once (the POSIX
  close()/fsync() contract) and fail-fasts new writes until consumed;
* completing a chunk that was never queued is a state error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import BackendIOError, FileStateError
from repro.pipeline import (
    ChunkSealed,
    ChunkWritten,
    ErrorLatched,
    EventLog,
    FilePipeline,
    PipelineKernel,
    PoolPressure,
    QueuePressure,
    Seal,
    SealReason,
)
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.units import KiB
from repro.util.rng import rng_for

CHUNK = 64


def _seal(offset=0, length=CHUNK):
    return Seal(file_offset=offset, length=length, reason=SealReason.FULL)


# One random op: queue a chunk, complete one (maybe failing), or drain-check.
OPS = st.lists(
    st.one_of(
        st.just(("queue",)),
        st.tuples(st.just("complete"), st.booleans()),
    ),
    max_size=60,
)


class TestCounterInvariants:
    @given(ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_complete_never_exceeds_write(self, ops):
        p = FilePipeline("/f", CHUNK)
        for op in ops:
            if op[0] == "queue":
                p.note_queued(_seal())
            else:
                if p.outstanding == 0:
                    with pytest.raises(FileStateError):
                        p.note_complete(length=CHUNK)
                else:
                    err = RuntimeError("disk on fire") if op[1] else None
                    p.note_complete(length=CHUNK, error=err)
            assert 0 <= p.complete_chunk_count <= p.write_chunk_count
            assert p.drained == (p.complete_chunk_count == p.write_chunk_count)
            assert p.outstanding == p.write_chunk_count - p.complete_chunk_count

    @given(n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_drain_iff_all_completed(self, n):
        p = FilePipeline("/f", CHUNK)
        for _ in range(n):
            p.note_queued(_seal())
        for i in range(n):
            assert not p.drained
            drained = p.note_complete(length=CHUNK)
            assert drained == (i == n - 1)
        assert p.drained

    def test_complete_without_queue_rejected(self):
        p = FilePipeline("/f", CHUNK)
        with pytest.raises(FileStateError):
            p.note_complete(length=CHUNK)


class TestErrorLatch:
    def _failed_pipeline(self, errors=1, total=3):
        p = FilePipeline("/f", CHUNK)
        for _ in range(total):
            p.note_queued(_seal())
        for i in range(total):
            err = OSError("EIO") if i < errors else None
            p.note_complete(length=CHUNK, error=err)
        return p

    @given(errors=st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_raised_exactly_once(self, errors):
        p = self._failed_pipeline(errors=errors)
        with pytest.raises(BackendIOError):
            p.raise_latched()
        # second close()/fsync() succeeds: the latch was consumed
        p.raise_latched()
        assert p.peek_error() is None

    def test_first_error_wins(self):
        p = FilePipeline("/f", CHUNK)
        p.note_queued(_seal())
        p.note_queued(_seal())
        p.note_complete(length=CHUNK, error=OSError("first"))
        p.note_complete(length=CHUNK, error=OSError("second"))
        assert "first" in str(p.peek_error())

    def test_plan_write_fails_fast_while_latched(self):
        p = self._failed_pipeline()
        before = (p.planner.total_writes, p.planner.total_bytes)
        with pytest.raises(BackendIOError):
            p.plan_write(0, 10)
        with pytest.raises(BackendIOError):
            p.plan_write_through(0, 10)
        # the failed attempts consumed nothing from the planner
        assert (p.planner.total_writes, p.planner.total_bytes) == before
        # and did not consume the latch itself
        assert p.peek_error() is not None

    def test_latch_emits_error_latched_event_once(self):
        events = []
        p = FilePipeline("/f", CHUNK, emit=events.append)
        p.note_queued(_seal())
        p.note_queued(_seal())
        p.note_complete(length=CHUNK, error=OSError("x"))
        p.note_complete(length=CHUNK, error=OSError("y"))
        assert sum(isinstance(e, ErrorLatched) for e in events) == 1


class TestEventStream:
    def test_events_mirror_state_transitions(self):
        kernel = PipelineKernel(CHUNK)
        events = []
        kernel.subscribe(type("Obs", (), {"on_event": lambda self, e: events.append(e)})())
        p = kernel.file("/f")
        p.note_queued(_seal(0))
        p.note_queued(_seal(CHUNK))
        p.note_complete(length=CHUNK, file_offset=0)
        p.note_complete(length=CHUNK, file_offset=CHUNK)
        assert sum(isinstance(e, ChunkSealed) for e in events) == 2
        assert sum(isinstance(e, ChunkWritten) for e in events) == 2
        # the kernel's stats observer counted the same stream
        snap = kernel.snapshot()
        assert snap["chunks_written"] == 2
        assert snap["bytes_out"] == 2 * CHUNK
        assert snap["seals"][SealReason.FULL.value] == 2

    def test_an_observer_is_routed_only_its_types(self):
        class Sealed(EventLog):
            types = (ChunkSealed,)

        kernel = PipelineKernel(CHUNK)
        sealed, every = Sealed(), EventLog()
        kernel.subscribe(sealed)
        p = kernel.file("/f")
        p.note_queued(_seal(0))
        kernel.subscribe(every)  # midstream: from the next record on
        p.note_queued(_seal(CHUNK))
        p.note_complete(length=CHUNK)
        assert [type(e) for e in sealed.events] == [ChunkSealed, ChunkSealed]
        assert [type(e) for e in every.events] == [ChunkSealed, ChunkWritten]
        assert kernel.snapshot()["chunks_written"] == 1

    @given(ops=OPS)
    @settings(max_examples=100, deadline=None)
    def test_stats_agree_with_pipeline_counts(self, ops):
        kernel = PipelineKernel(CHUNK)
        p = kernel.file("/f")
        for op in ops:
            if op[0] == "queue":
                p.note_queued(_seal())
            elif p.outstanding > 0:
                err = RuntimeError("boom") if op[1] else None
                p.note_complete(length=CHUNK, error=err)
        snap = kernel.snapshot()
        assert sum(snap["seals"].values()) == p.write_chunk_count
        assert snap["chunks_written"] + snap["io_errors"] == p.complete_chunk_count
        assert snap["bytes_out"] == snap["chunks_written"] * CHUNK


class TestPoolAndQueueRecords:
    """Both planes' pool and queue emit on the kernel's stream: an
    observer logs every acquire, release and put the registry counts.
    300 KiB written in 64 KiB chunks through a 256 KiB pool is five
    chunks, each acquired, queued and released once."""

    CONFIG = CRFSConfig(chunk_size=64 * KiB, pool_size=256 * KiB, io_threads=1)
    SIZE = 300 * KiB

    def threaded(self):
        log = EventLog()
        with CRFS(MemBackend(), self.CONFIG, observers=[log]) as fs:
            with fs.open("/rank0.img") as f:
                f.write(bytes(self.SIZE))
        return fs.stats(), log

    def timing(self):
        sim, log = Simulator(), EventLog()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "pool-queue-records"))
        crfs = SimCRFS(sim, DEFAULT_HW, self.CONFIG, backend, membus, observers=[log])

        def proc():
            f = crfs.open("/rank0.img")
            yield from crfs.write(f, self.SIZE)
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        crfs.shutdown()
        return crfs.stats(), log

    def test_both_planes_log_what_they_count(self):
        counts = {}
        for plane, (stats, log) in (("threaded", self.threaded()), ("timing", self.timing())):
            pool = log.of(PoolPressure)
            logged = (
                sum(not e.released for e in pool),
                sum(e.released for e in pool),
                len(log.of(QueuePressure)),
            )
            counted = (stats["pool"]["acquires"], stats["pool"]["releases"], stats["queue"]["puts"])
            assert logged == counted, plane
            counts[plane] = logged
        assert counts["threaded"] == counts["timing"] == (5, 5, 5)
