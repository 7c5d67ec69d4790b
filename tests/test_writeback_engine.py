"""The writeback engine (``pipeline/writeback.py``) driven through a
fake port — no threads, no simulator.

The control flows both planes run (the attempt loop, the IO-worker
step, the tier-pump step, the general write) are plain generators over
a port, so their policy is pinned here once: failure classification,
one health record per attempt, retry-before-sleep ordering, batch error
attribution, stage-once, break-on-open-breaker, forward/strand, and
acquire/fill/seal order with its shed-before-wait and rewind-on-raise.
"""

from contextlib import nullcontext

import pytest

from repro.errors import FileStateError
from repro.pipeline import (
    BackendHealth,
    BatchBroken,
    BatchWritten,
    ChunkRetried,
    EventLog,
    PipelineKernel,
    RetryPolicy,
    StagingCore,
    TierMigrated,
)
from repro.pipeline.writeback import (
    Extent,
    attempts,
    blocking,
    contiguous,
    flush,
    ingest,
    migrate,
    run,
    stage,
    write_through,
    writeback,
)

CHUNK = 4096


def policy(**kw):
    kw.setdefault("backoff", 1e-4)
    kw.setdefault("backoff_max", 1e-3)
    kw.setdefault("jitter", 0.0)
    return RetryPolicy(**kw)


class FakeFile:
    """What the engine reads off a file on either plane."""

    def __init__(self, path, kernel, staging=None):
        self.path = path
        self.pipeline = kernel.file(path)
        self.staged = staging.file(path) if staging is not None else None
        self.current_chunk = None


class FakePort:
    """A scripted port: ``outcomes`` is consumed one per backend op
    (an exception instance raises, None succeeds).  Every operation is
    appended to ``log`` so tests can assert ordering."""

    lock = nullcontext()

    def __init__(self, outcomes=(), attempts_allowed=1, threshold=0, ntiers=0):
        log = EventLog()
        self.kernel = PipelineKernel(CHUNK, observers=[log], tiers=ntiers)
        self.events = log.events
        self.log = []
        self.outcomes = list(outcomes)
        self.retry = policy(attempts=attempts_allowed)
        self.health = BackendHealth(self.kernel, threshold)
        self.pump_depth = 0
        self.pump_queue = []
        self.would_wait = False
        self.raises = {}  # write-port op -> the error it raises once
        self.staging = None
        if ntiers:
            self.staging = StagingCore(ntiers, self.kernel)
            self.tier_healths = self.staging.breakers(threshold)

    def file(self, path):
        return FakeFile(path, self.kernel, self.staging)

    def _op(self, *record):
        self.log.append(record)
        outcome = self.outcomes.pop(0) if self.outcomes else None
        if outcome is not None:
            raise outcome

    @blocking
    def sleep(self, delay):
        self.log.append(("sleep", delay))

    @blocking
    def backend_write(self, file, extents, offset):
        self._op("write", offset, [e.length for e in extents])

    @blocking
    def stage(self, file, offset, length):
        self.log.append(("stage", offset, length))

    def complete(self, extent, error, start):
        self.log.append(("complete", extent.offset, error))

    @blocking
    def tier_copy(self, file, tier, offset, lengths):
        self._op("copy", tier, offset, tuple(lengths))

    @blocking
    def pump_put(self, extent):
        self.pump_queue.append(extent)

    def staging_wake(self, sf):
        self.log.append(("wake",))

    @blocking
    def tier_close(self, file):
        self.log.append(("close", file.path))

    def pool_would_wait(self, file):
        return self.would_wait

    def shed_read_caches(self):
        self.log.append(("shed",))

    def _write_op(self, name, *record):
        if name in self.raises:
            raise self.raises.pop(name)
        self.log.append((name, *record))

    @blocking
    def acquire(self, file, offset):
        self._write_op("acquire", offset)
        file.current_chunk = offset

    @blocking
    def fill(self, file, op, data):
        self._write_op("fill", op.file_offset, op.length)

    @blocking
    def seal(self, file, op):
        self._write_op("seal", op.file_offset, op.length)
        file.current_chunk = None

    def of(self, cls):
        return [e for e in self.events if isinstance(e, cls)]

    def ops(self, kind):
        return [rec for rec in self.log if rec[0] == kind]


def chunks(file, n, start=0):
    return [Extent(file, 0, start + i * CHUNK, CHUNK) for i in range(n)]


# ---------------------------------------------------------------------------
# run / blocking / contiguous


class TestDriver:
    def test_run_returns_the_flow_result(self):
        @blocking
        def op():
            return 7

        assert run(op()) == 7

    def test_run_raises_if_the_flow_yields(self):
        def flow():
            yield "a simulator waitable"

        with pytest.raises(RuntimeError, match="yielded"):
            run(flow())

    def test_contiguous_is_same_file_same_tier_adjacent(self):
        f, g = object(), object()
        a = Extent(f, 0, 0, CHUNK)
        assert contiguous(a, Extent(f, 0, CHUNK, CHUNK))
        assert not contiguous(a, Extent(f, 0, 2 * CHUNK, CHUNK))  # gap
        assert not contiguous(a, Extent(g, 0, CHUNK, CHUNK))  # other file
        assert not contiguous(a, Extent(f, 1, CHUNK, CHUNK))  # other tier


# ---------------------------------------------------------------------------
# attempts (the one retry/breaker loop)


def drive(pol, fn, health=None, on_retry=None, log=None):
    log = log if log is not None else []
    return run(
        attempts(
            pol,
            health if health is not None else BackendHealth(PipelineKernel(CHUNK)),
            blocking(fn),
            path="/f",
            file_offset=0,
            sleep=blocking(lambda s: log.append(("sleep", s))),
            on_retry=on_retry,
        )
    )


def scripted(outcomes, calls):
    def fn():
        calls.append(1)
        if (exc := outcomes.pop(0)) is not None:
            raise exc

    return fn


class TestAttempts:
    def test_success_first_try(self):
        calls = []
        assert drive(policy(), scripted([None], calls)) is None
        assert len(calls) == 1

    def test_retry_then_success(self):
        calls, retries = [], []
        err = drive(
            policy(attempts=3),
            scripted([OSError("EIO"), OSError("EIO"), None], calls),
            on_retry=lambda a, d, e: retries.append((a, d, e)),
        )
        assert err is None and len(calls) == 3
        assert [a for a, _, _ in retries] == [1, 2]
        assert all(d >= 0 for _, d, _ in retries)

    def test_exhaustion_returns_last_error(self):
        last = OSError("third")
        err = drive(
            policy(attempts=3),
            scripted([OSError("first"), OSError("second"), last], []),
        )
        assert err is last

    def test_one_health_record_per_attempt(self):
        h = BackendHealth(PipelineKernel(CHUNK))
        drive(policy(attempts=3), scripted([OSError("x"), OSError("y"), None], []), h)
        assert (h.failures, h.successes) == (2, 1)

    def test_non_exception_failures_surface_but_never_retry(self):
        """The threaded rule, now on both planes: a BaseException is
        caught and returned (so it latches like any writeback error),
        counted as a failed attempt, and not retried."""
        calls = []
        h = BackendHealth(PipelineKernel(CHUNK))
        err = drive(policy(attempts=5), scripted([KeyboardInterrupt()], calls), h)
        assert isinstance(err, KeyboardInterrupt)
        assert len(calls) == 1 and h.failures == 1

    def test_on_retry_fires_before_the_backoff_sleep(self):
        log = []
        drive(
            policy(attempts=2),
            scripted([OSError("x"), None], []),
            on_retry=lambda a, d, e: log.append(("retry", a)),
            log=log,
        )
        assert [rec[0] for rec in log] == ["retry", "sleep"]

    def test_teardown_of_a_parked_flow_is_not_swallowed(self):
        """A simulator process closed mid-op gets GeneratorExit; the
        loop must let it through, not count it as a backend failure."""
        h = BackendHealth(PipelineKernel(CHUNK))

        def op():
            yield "parked"

        flow = attempts(
            policy(attempts=3), h, op, path="/f", file_offset=0,
            sleep=blocking(lambda s: None),
        )
        next(flow)
        flow.close()
        assert h.failures == 0


# ---------------------------------------------------------------------------
# writeback (the IO-worker step) and write_through


class TestWriteback:
    def test_single_chunk(self):
        port = FakePort()
        f = port.file("/f")
        run(writeback(port, chunks(f, 1)))
        assert port.log == [
            ("write", 0, [CHUNK]),
            ("stage", 0, CHUNK),
            ("complete", 0, None),
        ]
        assert port.of(BatchWritten) == []  # a lone chunk is not a batch

    def test_batch_is_one_op_one_stage_completions_in_offset_order(self):
        port = FakePort()
        f = port.file("/f")
        run(writeback(port, chunks(f, 3)))
        assert port.ops("write") == [("write", 0, [CHUNK] * 3)]
        assert port.ops("stage") == [("stage", 0, 3 * CHUNK)]
        assert [rec[1] for rec in port.ops("complete")] == [0, CHUNK, 2 * CHUNK]
        (batch,) = port.of(BatchWritten)
        assert (batch.chunks, batch.length, batch.error) == (3, 3 * CHUNK, None)

    def test_exhausted_batch_attributes_the_surviving_error_to_every_member(self):
        first, last = OSError("first"), OSError("last")
        port = FakePort([first, last], attempts_allowed=2)
        f = port.file("/f")
        run(writeback(port, chunks(f, 3)))
        assert len(port.ops("write")) == 2  # one retry schedule for the batch
        assert len(port.of(ChunkRetried)) == 1
        assert port.ops("stage") == []  # nothing was accepted
        assert port.ops("complete") == [
            ("complete", 0, last),
            ("complete", CHUNK, last),
            ("complete", 2 * CHUNK, last),
        ]
        assert port.of(BatchWritten)[0].error is last
        assert port.health.failures == 2

    def test_reissued_attempt_stages_once(self):
        port = FakePort([OSError("transient"), None], attempts_allowed=2)
        f = port.file("/f")
        run(writeback(port, chunks(f, 1)))
        assert len(port.ops("write")) == 2
        assert port.ops("stage") == [("stage", 0, CHUNK)]

    def test_exhausted_retries_never_stage(self):
        """Tier 0 is owed an arrival only for a run that landed: a chunk
        whose every attempt failed stages nothing."""
        last = OSError("still down")
        port = FakePort([OSError("down"), last], attempts_allowed=2)
        f = port.file("/f")
        run(writeback(port, chunks(f, 1)))
        assert len(port.ops("write")) == 2
        assert port.ops("stage") == []
        assert port.ops("complete") == [("complete", 0, last)]

    def test_open_breaker_breaks_the_batch_into_staged_per_chunk_writes(self):
        port = FakePort(threshold=1)
        port.health.record_failure()  # trip it
        f = port.file("/f")
        run(writeback(port, chunks(f, 4)))
        assert [b.chunks for b in port.of(BatchBroken)] == [4]
        assert port.of(BatchWritten) == []
        assert port.ops("write") == [
            ("write", i * CHUNK, [CHUNK]) for i in range(4)
        ]
        # every member of the broken batch still reaches the pump
        assert port.ops("stage") == [("stage", i * CHUNK, CHUNK) for i in range(4)]
        assert not port.health.degraded  # the first probe closed the breaker

    def test_write_through_raises_instead_of_latching(self):
        boom = OSError("dead")
        port = FakePort([boom])
        f = port.file("/f")
        with pytest.raises(OSError) as info:
            run(write_through(port, Extent(f, 0, 0, 100)))
        assert info.value is boom
        assert port.ops("complete") == [] and port.ops("stage") == []

    def test_write_through_success_stages(self):
        port = FakePort()
        f = port.file("/f")
        run(write_through(port, Extent(f, 0, 8, 100)))
        assert port.ops("stage") == [("stage", 8, 100)]


# ---------------------------------------------------------------------------
# stage / migrate (the tier-pump step)


class TestPump:
    def staged_port(self, outcomes=(), attempts_allowed=1, ntiers=3, n=2):
        port = FakePort(outcomes, attempts_allowed, ntiers=ntiers)
        f = port.file("/f")
        for i in range(n):
            run(stage(port, f, i * CHUNK, CHUNK))
        return port, f

    def test_stage_owes_every_deeper_tier_and_queues_for_tier_one(self):
        port, f = self.staged_port()
        assert f.staged.pending == [0, 2, 2]
        assert [(e.tier, e.offset) for e in port.pump_queue] == [(1, 0), (1, CHUNK)]
        assert port.pump_depth == 2

    def test_success_forwards_the_coalesced_run_with_its_iovec_lengths(self):
        port, f = self.staged_port()
        extents, port.pump_queue = port.pump_queue, []
        run(migrate(port, extents))
        assert port.ops("copy") == [("copy", 1, 0, (CHUNK, CHUNK))]
        assert f.staged.pending == [0, 0, 2]
        (nxt,) = port.pump_queue
        assert (nxt.tier, nxt.offset, nxt.length, nxt.chunks) == (2, 0, 2 * CHUNK, 2)
        assert nxt.lengths == (CHUNK, CHUNK)
        assert port.pump_depth == 1
        assert ("wake",) in port.log

    def test_exhaustion_strands_and_forgives_deeper_debt(self):
        err = OSError("deep EIO")
        port, f = self.staged_port([OSError("first"), err], attempts_allowed=2)
        extents, port.pump_queue = port.pump_queue, []
        run(migrate(port, extents))
        assert [e.tier for e in port.of(ChunkRetried)] == [1]
        assert f.staged.pending == [0, 0, 0]  # stranded: nothing owed deeper
        assert f.staged.stranded[1] is err
        assert port.pump_queue == []  # not forwarded
        assert port.of(TierMigrated)[0].error is err
        assert port.tier_healths[1].failures == 2
        assert port.health.failures == 0  # never the mount's breaker

    def test_last_debt_of_a_closing_file_finishes_the_deferred_close(self):
        port, f = self.staged_port(ntiers=2, n=1)
        f.staged.closing = True
        run(migrate(port, port.pump_queue))
        assert port.log[-2:] == [("wake",), ("close", "/f")]
        assert not f.staged.closing


# ---------------------------------------------------------------------------
# ingest / flush (the general write)


def write_port():
    port = FakePort()
    return port, port.file("/f")


def kinds(port):
    return [rec[0] for rec in port.log]


class TestIngest:
    def test_a_spanning_write_seals_and_enqueues_each_chunk_before_the_next_acquire(self):
        port, f = write_port()
        run(ingest(port, f, 0, 2 * CHUNK + 100))
        assert port.log == [
            ("acquire", 0), ("fill", 0, CHUNK), ("seal", 0, CHUNK),
            ("acquire", CHUNK), ("fill", CHUNK, CHUNK), ("seal", CHUNK, CHUNK),
            ("acquire", 2 * CHUNK), ("fill", 2 * CHUNK, 100),
        ]

    def test_no_acquire_while_a_chunk_is_open(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))
        run(ingest(port, f, 100, 100))
        assert kinds(port) == ["acquire", "fill", "fill"]

    def test_read_caches_are_shed_before_an_acquire_that_would_wait_and_only_then(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))  # the pool has room: no shed
        port.would_wait = True
        run(ingest(port, f, 100, 100))  # a chunk is open: no acquire, no shed
        assert ("shed",) not in port.log
        run(ingest(port, f, 4 * CHUNK, 100))  # a gap: seal, then a fresh chunk
        assert port.log[-4:] == [
            ("seal", 0, 200), ("shed",), ("acquire", 4 * CHUNK), ("fill", 4 * CHUNK, 100)
        ]

    def test_the_partial_chunk_is_sealed_before_any_write_through_byte(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))
        run(flush(port, f, (100, 3 * CHUNK)))
        run(write_through(port, Extent(f, 0, 100, 3 * CHUNK)))
        assert port.log[1:] == [
            ("fill", 0, 100), ("seal", 0, 100), ("write", 100, [3 * CHUNK]),
            ("stage", 100, 3 * CHUNK),
        ]
        assert f.pipeline.planner.size == 100 + 3 * CHUNK

    def test_flush_seals_the_partial_chunk_once(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))
        run(flush(port, f))
        run(flush(port, f))
        assert port.ops("seal") == [("seal", 0, 100)]

    def test_a_planner_runtime_divergence_raises(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))
        f.current_chunk = None  # the runtime lost the open chunk
        with pytest.raises(FileStateError, match="divergence"):
            run(ingest(port, f, 100, 100))
        with pytest.raises(FileStateError, match="seal with no open chunk"):
            run(flush(port, f))
        port, f = write_port()
        f.current_chunk = 0  # a chunk the planner never opened
        with pytest.raises(FileStateError, match="divergence"):
            run(ingest(port, f, 0, 100))

    def test_a_port_op_that_raises_rewinds_the_planner_to_what_ran(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))
        port.raises["acquire"] = OSError("pool stalled")
        with pytest.raises(OSError, match="pool stalled"):
            run(ingest(port, f, 100, CHUNK))  # fills and seals chunk 0, then fails
        planner = f.pipeline.planner
        assert (planner.append_point, planner.sealed_chunks, planner.size) == (CHUNK, 1, CHUNK)
        run(ingest(port, f, CHUNK, 10))
        run(flush(port, f))
        assert port.ops("seal") == [("seal", 0, CHUNK), ("seal", CHUNK, 10)]

    def test_a_seal_that_raises_leaves_the_chunk_open_and_the_count_unchanged(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))
        port.raises["seal"] = OSError("queue closed")
        with pytest.raises(OSError, match="queue closed"):
            run(ingest(port, f, 2 * CHUNK, 10))  # the gap seal fails first
        planner = f.pipeline.planner
        assert (planner.chunk_file_offset, planner.chunk_fill, planner.sealed_chunks) == (0, 100, 0)
        run(flush(port, f))
        assert port.ops("seal") == [("seal", 0, 100)]

    def test_a_seal_that_took_the_chunk_before_it_raised_has_run(self):
        port, f = write_port()
        run(ingest(port, f, 0, 100))

        @blocking
        def seal(file, op):
            file.current_chunk = None  # taken, then the hand-off fails
            raise OSError("queue closed")

        port.seal = seal
        with pytest.raises(OSError, match="queue closed"):
            run(ingest(port, f, 2 * CHUNK, 10))
        planner = f.pipeline.planner
        assert (planner.chunk_fill, planner.sealed_chunks, planner.size) == (0, 1, 100)
        run(flush(port, f))  # nothing left to seal: no "seal with no open chunk"
