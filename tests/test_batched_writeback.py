"""Coalesced vectored writeback: the batch gather, the pwritev backend
capability, and the batch accounting.

Batch formation depends on queue depth at gather time, so every
end-to-end test here gates the lone IO worker behind a fault-injected
delay on a one-chunk sacrificial file: by the time the worker reaches
the real file, its whole contiguous run is queued and the gather
outcome is a pure function of the workload (the same trick the
``crossplane`` experiment uses for its batch-parity arm).
"""

import threading

import pytest

from repro import waits
from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.backends.base import Backend
from repro.backends.instrumented import InstrumentedBackend
from repro.backends.localdir import LocalDirBackend
from repro.config import CRFSConfig, RetryPolicy
from repro.core import CRFS
from repro.core.workqueue import QueueClosed, QueueFullTimeout, WorkQueue
from repro.pipeline.tenancy import DEFAULT_TENANT
from repro.errors import BackendIOError
from repro.units import KiB, MiB

CHUNK = 64 * KiB
NCHUNKS = 16  # the gated run: two full gathers at batch limit 8

FAST = RetryPolicy(backoff=1e-4, backoff_max=1e-3, jitter=0.0)


def run_data() -> bytes:
    """NCHUNKS chunks, each filled with its own byte value."""
    return b"".join(bytes([i + 1]) * CHUNK for i in range(NCHUNKS))


def batched_config(**overrides) -> CRFSConfig:
    kw = dict(
        chunk_size=CHUNK,
        pool_size=2 * MiB,  # gate chunk + the whole run fit: no backpressure
        io_threads=1,
        writeback_batch_chunks=8,
        retry=FAST,
    )
    kw.update(overrides)
    return CRFSConfig(**kw)


def gated_mount(extra_rules=(), **overrides):
    """A mount whose lone worker blocks inside the gate file's pwrite
    until ``gate`` is set; returns (mem, backend, fs, gate), ``mem``
    recording the ops that reached the store."""
    gate = threading.Event()
    rules = [FaultRule(op="pwrite", nth=1, delay=1.0, path="/gate*")]
    rules.extend(extra_rules)
    mem = InstrumentedBackend(MemBackend())
    backend = FaultyBackend(mem, rules, sleep=lambda _s: gate.wait())
    fs = CRFS(backend, batched_config(**overrides))
    return mem, backend, fs, gate


def write_gated_run(fs, gate, data=None):
    """One gate chunk, then the full run; lifts the gate after queueing.
    Returns the run file handle (still open)."""
    fa = fs.open("/gate.img")
    fa.write(b"\x00" * CHUNK)
    fb = fs.open("/run.img")
    fb.write(data if data is not None else run_data())
    gate.set()
    fa.close()
    return fb


# -- WorkQueue.get_batch ------------------------------------------------------


def contiguous(prev, nxt):
    """Chain predicate over (writer, seq) tuples."""
    return prev[0] == nxt[0] and nxt[1] == prev[1] + 1


class TestGetBatch:
    def test_gathers_contiguous_run_up_to_limit(self):
        q = WorkQueue()
        for i in range(5):
            q.put(("a", i))
        assert q.get_batch(3, contiguous) == [("a", 0), ("a", 1), ("a", 2)]
        assert q.get_batch(8, contiguous) == [("a", 3), ("a", 4)]

    def test_skips_nonmatching_and_preserves_their_order(self):
        """Interleaved writers: the gather walks past the other writer's
        items without consuming them or reordering them."""
        q = WorkQueue()
        for item in [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2)]:
            q.put(item)
        assert q.get_batch(8, contiguous) == [("a", 0), ("a", 1), ("a", 2)]
        assert q.get_batch(8, contiguous) == [("b", 0), ("b", 1)]

    @pytest.mark.parametrize("limit", [1, 8])
    def test_concurrent_producers_drain_complete_and_in_order(self, limit):
        """Four producers put their runs at once: the gather consumes every
        item, keeps each writer's order, and (limit > 1) finds runs."""
        q, producers, per = WorkQueue(), 4, 500
        threads = [
            threading.Thread(target=lambda w=w: [q.put((w, i)) for i in range(per)])
            for w in range(producers)
        ]
        for t in threads:
            t.start()
        taken, gathers = [], 0
        while len(taken) < producers * per:
            taken += q.get_batch(limit, contiguous)
            gathers += 1
        for t in threads:
            t.join()
        assert sorted(taken) == [(w, i) for w in range(producers) for i in range(per)]
        for w in range(producers):
            assert [i for v, i in taken if v == w] == list(range(per))
        assert (gathers < len(taken)) == (limit > 1)

    def test_limit_one_is_plain_get(self):
        q = WorkQueue()
        q.put(("a", 0))
        q.put(("a", 1))
        assert q.get_batch(1, contiguous) == [("a", 0)]
        assert len(q) == 1

    def test_limit_below_one_rejected(self):
        with pytest.raises(ValueError):
            WorkQueue().get_batch(0, contiguous)

    def test_low_band_items_never_batched(self):
        q = WorkQueue()
        q.put(("a", 0), low=True)
        q.put(("a", 1), low=True)
        assert q.get_batch(8, contiguous) == [("a", 0)]
        assert q.get_batch(8, contiguous) == [("a", 1)]

    def test_high_band_drains_before_low(self):
        q = WorkQueue()
        q.put(("low", 0), low=True)
        q.put(("a", 0))
        assert q.get_batch(8, contiguous) == [("a", 0)]
        assert q.get_batch(8, contiguous) == [("low", 0)]

    def test_close_semantics_match_get(self):
        q = WorkQueue()
        q.put(("a", 0))
        q.close()
        assert q.get_batch(8, contiguous) == [("a", 0)]  # drain-then-stop
        with pytest.raises(QueueClosed):
            q.get_batch(8, contiguous)


def at_quota():
    """A queue whose default tenant is at its quota of one high-band
    item (a quota is the queue's only bound of its own)."""
    q = WorkQueue(quotas={DEFAULT_TENANT: 1})
    q.put("x")
    return q


class TestPutContract:
    """The two bands' blocking/timeout/close contracts."""

    def test_full_high_band_put_times_out(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.01)
        q = at_quota()
        with pytest.raises(QueueFullTimeout):
            q.put("y")

    def test_low_band_put_never_blocks_at_capacity(self):
        q = at_quota()
        q.put("y", low=True)  # returns immediately despite the quota
        assert len(q) == 2

    def test_both_bands_reject_put_after_close(self):
        q = WorkQueue()
        q.close()
        with pytest.raises(QueueClosed):
            q.put("x")
        with pytest.raises(QueueClosed):
            q.put("y", low=True)

    def test_close_drains_both_bands_in_priority_order(self):
        q = WorkQueue()
        q.put("lo", low=True)
        q.put("hi")
        q.close()
        assert q.get_batch(1, contiguous) == ["hi"]
        assert q.get_batch(1, contiguous) == ["lo"]
        with pytest.raises(QueueClosed):
            q.get_batch(1, contiguous)

    def test_close_wakes_blocked_high_put(self):
        q = at_quota()
        errors = []

        def blocked_put():
            try:
                q.put("y")
            except QueueClosed as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked_put)
        t.start()
        q.close()
        t.join(timeout=5)
        assert not t.is_alive() and len(errors) == 1

    def test_queue_full_timeout_is_a_shutdown_error(self):
        from repro.errors import ShutdownError

        assert issubclass(QueueFullTimeout, ShutdownError)


# -- SimQueue.take_adjacent ---------------------------------------------------


class TestSimTakeAdjacent:
    def test_gather_skips_and_preserves_order(self):
        from repro.sim import Simulator
        from repro.sim.primitives import SimQueue

        sim = Simulator()
        q = SimQueue(sim)
        out = {}

        def producer():
            for item in [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2)]:
                yield q.put(item)

        def consumer():
            first = yield q.get()
            out["first"] = first
            out["batch"] = q.take_adjacent(first, 7, contiguous)
            out["left"] = [q.scheduler.pop()[1] for _ in range(len(q))]

        sim.run_until_complete([sim.spawn(producer())])
        sim.run_until_complete([sim.spawn(consumer())])
        assert out["first"] == ("a", 0)
        assert out["batch"] == [("a", 1), ("a", 2)]
        assert out["left"] == [("b", 0), ("b", 1)]

    def test_limit_zero_and_empty_queue_return_nothing(self):
        from repro.sim import Simulator
        from repro.sim.primitives import SimQueue

        q = SimQueue(Simulator())
        assert q.take_adjacent(("a", 0), 0, contiguous) == []
        assert q.take_adjacent(("a", 0), 5, contiguous) == []


# -- the pwritev backend capability -------------------------------------------


class TestBackendPwritev:
    VIEWS = [b"aa", b"bbb", memoryview(b"cccc")]

    def test_base_fallback_loops_pwrite(self):
        mem = InstrumentedBackend(MemBackend())
        h = mem.open("/f")
        n = Backend.pwritev(mem, h, self.VIEWS, 5)
        assert n == 9
        assert mem.pread(h, 9, 5) == b"aabbbcccc"
        assert mem.write_sizes() == [2, 3, 4]  # the fallback is per-view pwrites

    def test_mem_backend_is_one_op(self, monkeypatch):
        mem = MemBackend()
        h = mem.open("/f")
        # Not the base class's per-view loop: no pwrite is issued.
        monkeypatch.setattr(mem, "pwrite", None)
        assert mem.pwritev(h, self.VIEWS, 5) == 9
        assert mem.pread(h, 9, 5) == b"aabbbcccc"

    def test_mem_backend_empty_batch(self):
        mem = MemBackend()
        h = mem.open("/f")
        assert mem.pwritev(h, [], 0) == 0
        assert mem.file_size(h) == 0

    def test_localdir_backend(self, tmp_path):
        backend = LocalDirBackend(str(tmp_path))
        h = backend.open("/f")
        try:
            assert backend.pwritev(h, self.VIEWS, 5) == 9
            assert backend.pread(h, 9, 5) == b"aabbbcccc"
            assert backend.pwritev(h, [b"", b""], 0) == 0  # empties filtered
        finally:
            backend.close(h)

    def test_faulty_backend_counts_one_op_per_batch(self):
        mem = InstrumentedBackend(MemBackend())
        backend = FaultyBackend(
            mem,
            [FaultRule(op="pwritev", nth=2, error=OSError("injected"))],
            sleep=lambda s: None,
        )
        h = backend.open("/f")
        assert backend.pwritev(h, self.VIEWS, 0) == 9  # op #1: clean
        with pytest.raises(OSError, match="injected"):
            backend.pwritev(h, self.VIEWS, 9)  # op #2 (not #4): the batch
        assert backend.faults_fired == 1
        assert len(mem.ops("pwritev")) == 1  # the failed batch never reached mem

    def test_instrumented_backend_records_one_op(self):
        backend = InstrumentedBackend(MemBackend())
        h = backend.open("/f")
        backend.pwritev(h, self.VIEWS, 0)
        recs = backend.ops("pwritev")
        assert len(recs) == 1
        assert recs[0].size == 9


# -- end-to-end functional batching -------------------------------------------


@pytest.mark.timeout(60)
class TestBatchedMount:
    def test_batch_stats_zero_by_default(self):
        fs = CRFS(MemBackend(), CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK))
        with fs, fs.open("/f") as f:
            f.write(b"x" * 4 * CHUNK)
        assert fs.stats()["batch"] == {
            "batches": 0,
            "chunks": 0,
            "bytes": 0,
            "errors": 0,
            "broken": 0,
            "per_batch": {},
        }

    def test_gated_run_batches_and_is_byte_identical(self):
        mem, _, fs, gate = gated_mount()
        data = run_data()
        with fs:
            fb = write_gated_run(fs, gate, data)
            entry = fb._entry
            fb.close()
            assert (
                entry.pipeline.complete_chunk_count
                == entry.pipeline.write_chunk_count
            )
            stats = fs.stats()
        h = mem.open("/run.img", create=False)
        assert mem.pread(h, len(data), 0) == data
        assert stats["batch"] == {
            "batches": 2,
            "chunks": NCHUNKS,
            "bytes": NCHUNKS * CHUNK,
            "errors": 0,
            "broken": 0,
            "per_batch": {"8": 2},
        }
        # vectored writes replaced per-chunk ones in the backend op count:
        # 1 gate pwrite + 2 pwritevs
        assert [r.op for r in mem.ops() if r.op.startswith("pwrite")] == [
            "pwrite",
            "pwritev",
            "pwritev",
        ]
        assert fs.pool.free_chunks == fs.pool.nchunks

    def test_batch_disabled_matches_enabled_byte_for_byte(self):
        data = run_data()
        outputs = {}
        for batch in (1, 8):
            mem, _, fs, gate = gated_mount(writeback_batch_chunks=batch)
            with fs:
                write_gated_run(fs, gate, data).close()
                stats = fs.stats()
            h = mem.open("/run.img", create=False)
            outputs[batch] = mem.pread(h, len(data), 0)
            if batch == 1:
                assert stats["batch"]["batches"] == 0
            else:
                assert stats["batch"]["batches"] > 0
            # workload-determined accounting is batching-invariant
            assert stats["chunks_written"] == NCHUNKS + 1
            assert stats["bytes_out"] == (NCHUNKS + 1) * CHUNK
        assert outputs[1] == outputs[8] == data


# -- degraded-path lock hold (regression) -------------------------------------


@pytest.mark.timeout(60)
class TestDegradedWriteLockHold:
    def test_slow_probe_does_not_stall_concurrent_writer(self):
        """While one writer sleeps inside the degraded probe, a second
        writer to the *same file* must still make progress — the probe
        runs outside ``entry.write_lock`` (regression: it used to sleep
        under it, stalling every writer for the full retry budget)."""
        entered = threading.Event()
        gate = threading.Event()

        def sleeper(_s):
            entered.set()
            gate.wait()

        mem = MemBackend()
        backend = FaultyBackend(
            mem,
            [
                # pwrite #1 (the first chunk writeback) trips the breaker;
                # pwrite #2 (writer 1's degraded probe) sleeps on the gate.
                FaultRule(op="pwrite", nth=1, error=OSError("EIO")),
                FaultRule(op="pwrite", nth=2, delay=1.0),
            ],
            sleep=sleeper,
        )
        fs = CRFS(
            backend,
            CRFSConfig(
                chunk_size=CHUNK,
                pool_size=4 * CHUNK,
                io_threads=1,
                retry=FAST,
                breaker_threshold=1,
            ),
        ).mount()
        try:
            fa = fs.open("/shared.img")
            fb = fs.open("/shared.img")
            with pytest.raises(BackendIOError):
                fa.write(b"\x01" * CHUNK)  # latched async -> breaker trips
                fa.fsync()  # surfaces the latch; by now the mount is degraded
            assert fs.health.degraded

            slow = threading.Thread(
                target=lambda: fa.pwrite(b"\x02" * 100, CHUNK)
            )
            slow.start()
            assert entered.wait(timeout=10), "probe write never started"
            # writer 2, same entry, while writer 1 sleeps in its probe
            fast = threading.Thread(
                target=lambda: fb.pwrite(b"\x03" * 100, 2 * CHUNK)
            )
            fast.start()
            fast.join(timeout=10)
            stalled = fast.is_alive()
            still_probing = slow.is_alive()
            gate.set()
            slow.join(timeout=10)
            assert not slow.is_alive()
            assert still_probing, "probe finished early — gate test is moot"
            assert not stalled, "concurrent writer stalled behind the probe"
        finally:
            gate.set()
            fs.unmount()
        assert mem.pread(mem.open("/shared.img", create=False), 100, 2 * CHUNK) == b"\x03" * 100


# -- the sim plane end-to-end -------------------------------------------------


def run_sim_batched(config, rules=(), nchunks=NCHUNKS, shutdown=True):
    """The gated-run workload on the virtual clock; returns
    (backend, stats, errors raised at close)."""
    from repro.sim import SharedBandwidth, Simulator
    from repro.simcrfs import SimCRFS
    from repro.simio.faulty import FaultySimFilesystem
    from repro.simio.nullfs import NullSimFilesystem
    from repro.simio.params import DEFAULT_HW
    from repro.util.rng import rng_for

    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    all_rules = [FaultRule(op="pwrite", nth=1, delay=1.0, path="/gate*")]
    all_rules.extend(rules)
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(1, "batched")), all_rules
    )
    crfs = SimCRFS(sim, hw, config, backend, membus)
    errors = []

    def proc():
        fa = crfs.open("/gate.img")
        yield from crfs.write(fa, config.chunk_size)
        fb = crfs.open("/run.img")
        for _ in range(nchunks):
            yield from crfs.write(fb, config.chunk_size)
        try:
            yield from crfs.close(fb)
        except BackendIOError as exc:
            errors.append(exc)
        yield from crfs.close(fa)

    sim.run_until_complete([sim.spawn(proc())])
    if shutdown:
        crfs.shutdown()
    return backend, crfs.stats(), errors


@pytest.mark.timeout(60)
class TestSimBatchedWriteback:
    def test_gated_run_batches(self):
        backend, stats, errors = run_sim_batched(batched_config())
        assert not errors
        assert stats["batch"] == {
            "batches": 2,
            "chunks": NCHUNKS,
            "bytes": NCHUNKS * CHUNK,
            "errors": 0,
            "broken": 0,
            "per_batch": {"8": 2},
        }
        # 1 gate write + 2 vectored writes reached the backend
        assert backend.total_writes == 3

    def test_batch_limit_one_never_batches(self):
        _, stats, errors = run_sim_batched(
            batched_config(writeback_batch_chunks=1)
        )
        assert not errors
        assert stats["batch"]["batches"] == 0
        assert stats["chunks_written"] == NCHUNKS + 1
