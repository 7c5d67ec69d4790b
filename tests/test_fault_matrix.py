"""The fault matrix: {pwrite, pread, fsync, close} x {first op, every
op, probabilistic} x {retry succeeds, retry exhausted}.

The invariants each cell is checked against:

* **pwrite** faults are asynchronous: the application ``write()`` that
  produced the chunk never raises; the error (if retries exhaust)
  latches and surfaces at the next ``close()``/``fsync()`` — and a cell
  whose retries succeed leaves the backing file byte-identical to a
  fault-free run.
* **pread** faults split by origin: a *prefetch* failure is silent (the
  entry is dropped and refetched on demand), a *demand* (foreground)
  failure raises :class:`BackendIOError` at the read call itself; both
  count toward the circuit breaker.  (One flow serves both planes:
  its policy is unit-tested through a fake port in
  ``test_restore_engine.py``, the planes' ports by the faulted case of
  ``TestCrossPlaneReadDifferential``.)
* **fsync/close** faults are synchronous backend calls: they raise at
  the call site itself, regardless of the retry budget (the retry
  policy covers chunk writeback only).

Probabilistic rules are seeded, so every cell is deterministic.
"""

import threading
import time

import pytest

from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.config import CRFSConfig, RetryPolicy
from repro.core import CRFS
from repro.errors import BackendIOError
from repro.units import KiB

CHUNK = 64 * KiB
NCHUNKS = 4
DATA = bytes(range(256)) * (CHUNK // 256) * NCHUNKS  # 4 whole chunks

def fast(attempts=1):
    """A retry schedule whose backoff sleeps microseconds."""
    return RetryPolicy(attempts=attempts, backoff=1e-4, backoff_max=1e-3)


def make_rules(op: str, schedule: str) -> list[FaultRule]:
    err = OSError(f"injected-{op}")
    if schedule == "first":
        return [FaultRule(op=op, nth=1, error=err)]
    if schedule == "every":
        return [FaultRule(op=op, nth=1, every=True, error=err)]
    if schedule == "prob":  # p=1.0: the probabilistic branch, made certain
        return [FaultRule(op=op, p=1.0, seed=5, error=err)]
    raise ValueError(schedule)


def mount(rules, attempts):
    mem = MemBackend()
    backend = FaultyBackend(mem, rules, sleep=lambda s: None)
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        retry=fast(attempts),
    )
    return mem, backend, CRFS(backend, cfg)


def backing(mem, path, n):
    return mem.pread(mem.open(path, create=False), n, 0)


class TestPwriteCells:
    """Asynchronous writeback faults: latch-at-close semantics."""

    @pytest.mark.parametrize("schedule", ["first", "every", "prob"])
    @pytest.mark.parametrize("attempts", [1, 4])
    def test_cell(self, schedule, attempts):
        recovers = schedule == "first" and attempts > 1
        mem, backend, fs = mount(make_rules("pwrite", schedule), attempts)
        with fs:
            f = fs.open("/ckpt")
            write_errors = 0
            for i in range(NCHUNKS):
                try:
                    # one whole chunk per call: the write that carries the
                    # faulty chunk itself never raises; only a *later*
                    # write may fail fast on the already-latched error
                    f.write(DATA[i * CHUNK : (i + 1) * CHUNK])
                except BackendIOError as exc:
                    assert "earlier async chunk write failed" in str(exc)
                    write_errors += 1
            if recovers:
                f.close()
            else:
                with pytest.raises(BackendIOError, match="injected-pwrite"):
                    f.close()
            stats = fs.stats()

        assert backend.faults_fired > 0
        if recovers:
            assert write_errors == 0
            assert stats["resilience"]["errors_latched"] == 0
            assert stats["resilience"]["chunks_retried"] == 1
            assert backing(mem, "/ckpt", len(DATA)) == DATA
        else:
            assert stats["resilience"]["errors_latched"] == 1
            if attempts > 1:  # exhausted after real retrying
                assert stats["resilience"]["chunks_retried"] > 0

    @pytest.mark.parametrize("attempts", [1, 6])
    def test_probabilistic_half(self, attempts):
        """p=0.5 with a fixed seed: whatever the (deterministic) draws
        decide, the outcome must be internally consistent — either a
        clean close with a byte-identical backing file, or a latched
        error surfaced at close and nowhere else."""
        mem, backend, fs = mount(
            [FaultRule(op="pwrite", p=0.5, seed=17, error=OSError("flaky"))],
            attempts,
        )
        close_error = None
        with fs:
            f = fs.open("/ckpt")
            for i in range(NCHUNKS):
                try:
                    f.write(DATA[i * CHUNK : (i + 1) * CHUNK])
                except BackendIOError as exc:
                    # only ever the fail-fast echo of an earlier latch
                    assert "earlier async chunk write failed" in str(exc)
            try:
                f.close()
            except BackendIOError as exc:
                close_error = exc
            stats = fs.stats()

        if close_error is None:
            # every faulted chunk recovered within its budget
            assert stats["resilience"]["errors_latched"] == 0
            assert backing(mem, "/ckpt", len(DATA)) == DATA
        else:
            assert stats["resilience"]["errors_latched"] >= 1
        if attempts == 1:
            assert stats["resilience"]["chunks_retried"] == 0

    def test_recovered_run_matches_fault_free_run(self):
        """Byte-identity across the whole matrix row: recovered output
        equals a run with no fault injection at all."""
        mem_clean, _, fs_clean = mount([], 1)
        with fs_clean, fs_clean.open("/ckpt") as f:
            f.write(DATA)
        mem_faulty, _, fs_faulty = mount(
            [FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))], 3
        )
        with fs_faulty, fs_faulty.open("/ckpt") as f:
            f.write(DATA)
        assert (
            backing(mem_clean, "/ckpt", len(DATA))
            == backing(mem_faulty, "/ckpt", len(DATA))
            == DATA
        )


def read_mount(rules, **overrides):
    """A mount with the readahead cache on (pool 4 chunks, cache 4,
    window 2) over a faulty MemBackend."""
    mem = MemBackend()
    backend = FaultyBackend(mem, rules, sleep=lambda s: None)
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        read_cache_chunks=4, readahead_chunks=2,
        retry=fast(), **overrides,
    )
    return mem, backend, CRFS(backend, cfg)


class TestPreadCells:
    """Read-plane faults: demand reads are loud, prefetches silent."""

    def test_demand_read_fault_raises(self):
        """A foreground (demand) pread failure surfaces at the read call
        as a BackendIOError — never silently short data — and the chunk
        is refetched cleanly on the next demand."""
        _, backend, fs = read_mount(make_rules("pread", "first"))
        with fs:
            f = fs.open("/ckpt")
            f.write(DATA)
            f.fsync()
            with pytest.raises(BackendIOError, match="demand read"):
                f.pread(CHUNK, 0)
            stats = fs.stats()
            assert stats["read"]["misses"] == 1
            assert stats["read"]["hits"] == 0
            assert stats["resilience"]["errors_latched"] == 0
            # one-shot rule: the demand refetch serves the bytes
            assert f.pread(CHUNK, 0) == DATA[:CHUNK]
        assert backend.faults_fired == 1

    def test_prefetch_fault_is_silent_and_refetched_on_demand(self):
        """pread #1 is the demand fetch of chunk 0.  The window warms
        chunks 1 and 2 without reading them; #2 is the fill of chunk 1
        by the read that first touches it.  Failing #2 must not surface
        anywhere — the entry drops, the breaker counts it, and the same
        read refetches the chunk on demand."""
        _, backend, fs = read_mount(
            [FaultRule(op="pread", nth=2, error=OSError("injected-prefetch"))]
        )
        with fs:
            f = fs.open("/ckpt")
            f.write(DATA)
            f.fsync()
            assert f.pread(CHUNK, 0) == DATA[:CHUNK]
            assert fs.stats()["read"]["prefetched"] == 2  # warmed: no bytes moved
            # the faulted fill is silent; the chunk comes back byte-identical
            assert f.pread(CHUNK, CHUNK) == DATA[CHUNK : 2 * CHUNK]
            stats = fs.stats()
            assert stats["read"]["misses"] == 2  # chunk 0 + the refetch
            assert stats["read"]["prefetch_dropped"] == 0
            assert fs.health.failures == 1
            assert stats["resilience"]["errors_latched"] == 0
        assert backend.faults_fired == 1

    def test_read_failures_count_toward_breaker(self):
        """Consecutive demand-read failures trip the circuit breaker;
        while it is open the cache is bypassed entirely (synchronous
        passthrough, no prefetch issue)."""
        rules = [
            FaultRule(op="pread", nth=1, every=True, until=2,
                      error=OSError("injected-pread"))
        ]
        _, _, fs = read_mount(rules, breaker_threshold=2)
        with fs:
            f = fs.open("/ckpt")
            f.write(DATA)
            f.fsync()
            for _ in range(2):
                with pytest.raises(BackendIOError, match="demand read"):
                    f.pread(CHUNK, 0)
            stats = fs.stats()
            assert stats["resilience"]["breaker_trips"] == 1
            assert fs.health.degraded
            # the outage is over (until=2) and the breaker is open:
            # reads pass through and never touch the cache
            assert f.pread(CHUNK, 0) == DATA[:CHUNK]
            after = fs.stats()["read"]
            assert after["misses"] == stats["read"]["misses"]
            assert after["prefetched"] == 0


class TestFsyncCells:
    """Synchronous fsync faults raise at the fsync() call itself."""

    @pytest.mark.parametrize("schedule", ["first", "every", "prob"])
    @pytest.mark.parametrize("attempts", [1, 4])
    def test_cell(self, schedule, attempts):
        mem, backend, fs = mount(make_rules("fsync", schedule), attempts)
        with fs:
            f = fs.open("/ckpt")
            f.write(DATA)
            with pytest.raises(OSError, match="injected-fsync"):
                f.fsync()
            stats = fs.stats()
            # the data itself still drained through the chunk pipeline
            assert stats["resilience"]["errors_latched"] == 0
            assert backing(mem, "/ckpt", len(DATA)) == DATA
            if schedule == "first":
                f.fsync()  # one-shot rule: the next fsync is clean
            f.close()  # close never touches backend fsync: always clean

    def test_budget_does_not_retry_fsync(self):
        """The retry policy covers chunk writeback only: a one-shot fsync
        fault raises even with a generous budget."""
        _, backend, fs = mount(make_rules("fsync", "first"), 8)
        with fs:
            f = fs.open("/ckpt")
            f.write(b"x" * CHUNK)
            with pytest.raises(OSError, match="injected-fsync"):
                f.fsync()
        assert backend.faults_fired == 1  # fired once, never re-driven


class TestCloseCells:
    """Synchronous close faults raise at the close() call itself."""

    @pytest.mark.parametrize("schedule", ["first", "every", "prob"])
    @pytest.mark.parametrize("attempts", [1, 4])
    def test_cell(self, schedule, attempts):
        mem, backend, fs = mount(make_rules("close", schedule), attempts)
        fs.mount()
        try:
            f = fs.open("/ckpt")
            f.write(DATA)
            with pytest.raises(OSError, match="injected-close"):
                f.close()
            stats = fs.stats()
            # all chunks drained before the backend close failed: no data lost
            assert stats["resilience"]["errors_latched"] == 0
            assert stats["bytes_out"] == len(DATA)
            assert backing(mem, "/ckpt", len(DATA)) == DATA
        finally:
            # the failed close already dropped the table entry, so the
            # unmount has nothing left to close and is clean
            fs.unmount()

    def test_both_latch_and_close_fault_are_visible(self):
        """With both a pwrite latch and a close fault pending, close()
        raises the backend-close error with the latched writeback error
        chained as its context — neither failure is swallowed."""
        _, _, fs = mount(
            [
                FaultRule(op="pwrite", nth=1, every=True, error=OSError("wb-dead")),
                FaultRule(op="close", nth=1, every=True, error=OSError("cl-dead")),
            ],
            1,
        )
        fs.mount()
        try:
            f = fs.open("/ckpt")
            f.write(b"x" * CHUNK)
            with pytest.raises(OSError, match="cl-dead") as excinfo:
                f.close()
            context = excinfo.value.__context__
            assert isinstance(context, BackendIOError)
            assert "wb-dead" in str(context)
        finally:
            fs.unmount()


#: Coalesced-writeback cells: a 16-chunk run drained by one gated worker
#: with ``writeback_batch_chunks=8`` — two full gathers, deterministic
#: because the run is fully queued before the worker reaches it.
RUN_CHUNKS = 16
RUN = b"".join(bytes([i + 1]) * CHUNK for i in range(RUN_CHUNKS))


def gated_batched_mount(extra_rules, **overrides):
    """A batching mount whose lone worker blocks inside the gate file's
    first pwrite until ``gate`` is set."""
    gate = threading.Event()
    rules = [FaultRule(op="pwrite", nth=1, delay=1.0, path="/gate*")]
    rules.extend(extra_rules)
    mem = MemBackend()
    backend = FaultyBackend(mem, rules, sleep=lambda _s: gate.wait())
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=20 * CHUNK, io_threads=1,
        writeback_batch_chunks=8, **{"retry": fast(), **overrides},
    )
    return mem, backend, CRFS(backend, cfg), gate


class TestPwritevCells:
    """The batch is one backend op: one fault decision, one retry
    schedule, and a failure attributed to every chunk it carried."""

    def test_midbatch_failure_latches_every_chunk(self):
        mem, backend, fs, gate = gated_batched_mount(
            [FaultRule(op="pwritev", nth=1, every=True,
                       error=OSError("injected-pwritev"))]
        )
        with fs:
            fa = fs.open("/gate.img")
            fa.write(b"\x00" * CHUNK)
            fb = fs.open("/run.img")
            fb.write(RUN)
            gate.set()
            fa.close()
            with pytest.raises(BackendIOError, match="injected-pwritev"):
                fb.close()
            stats = fs.stats()
        # every chunk the failed batches carried errored...
        assert stats["io_errors"] == RUN_CHUNKS
        # ...but the file latched (and surfaced) the error exactly once
        assert stats["resilience"]["errors_latched"] == 1
        assert stats["batch"]["errors"] == 2  # both gathers failed
        assert stats["batch"]["batches"] == 0
        assert stats["batch"]["broken"] == 0
        assert backend.faults_fired == 2
        # nothing from the failed batches reached the backing store
        assert mem.file_size(mem.open("/run.img", create=False)) == 0
        assert fs.pool.in_use == 0

    def test_batch_retries_as_one_op(self):
        """A one-shot pwritev fault with budget: the whole batch reissues
        as one op (one ChunkRetried at the batch base), then recovers
        byte-identically."""
        mem, backend, fs, gate = gated_batched_mount(
            [FaultRule(op="pwritev", nth=1, error=OSError("transient"))],
            retry=fast(4),
        )
        with fs:
            fa = fs.open("/gate.img")
            fa.write(b"\x00" * CHUNK)
            fb = fs.open("/run.img")
            fb.write(RUN)
            gate.set()
            fa.close()
            fb.close()  # clean: the retry recovered the batch
            stats = fs.stats()
        assert stats["resilience"]["chunks_retried"] == 1  # one op, one retry
        assert stats["resilience"]["errors_latched"] == 0
        assert stats["batch"]["batches"] == 2
        assert stats["batch"]["chunks"] == RUN_CHUNKS
        assert stats["batch"]["errors"] == 0
        assert backend.faults_fired == 1
        h = mem.open("/run.img", create=False)
        assert mem.pread(h, len(RUN), 0) == RUN

    def test_open_breaker_breaks_batch_into_degraded_singles(self):
        """With the breaker already open when the worker gathers, the
        batch is broken (BatchBroken) and its chunks written one by one;
        the first success recovers the breaker, so the next gather
        batches normally."""
        mem, backend, fs, gate = gated_batched_mount(
            [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))],
            breaker_threshold=1,
        )
        with fs:
            fa = fs.open("/gate.img")
            fa.write(b"\x00" * CHUNK)  # its pwrite trips the breaker
            fb = fs.open("/run.img")
            fb.write(RUN)
            gate.set()
            with pytest.raises(BackendIOError, match="EIO"):
                fa.close()
            fb.close()
            stats = fs.stats()
        assert stats["batch"]["broken"] == 1  # first gather hit the open breaker
        assert stats["batch"]["batches"] == 1  # second gather: breaker recovered
        assert stats["batch"]["per_batch"] == {"8": 1}
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1
        h = mem.open("/run.img", create=False)
        assert mem.pread(h, len(RUN), 0) == RUN


class TestSimPwritevCells:
    """The same pwritev cells on the timing plane — the shared
    FaultSchedule speaks "pwritev" there too (one count per vectored
    write), so the cells must land on identical numbers."""

    def _run(self, rules, **overrides):
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
            NullSimFilesystem(sim, hw, rng_for(1, "fault-pwritev")), all_rules
        )
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=20 * CHUNK, io_threads=1,
            writeback_batch_chunks=8,
            **{"retry": fast(), **overrides},
        )
        crfs = SimCRFS(sim, hw, cfg, backend, membus)
        errors = []

        def proc():
            fa = crfs.open("/gate.img")
            yield from crfs.write(fa, CHUNK)
            fb = crfs.open("/run.img")
            for _ in range(RUN_CHUNKS):
                yield from crfs.write(fb, CHUNK)
            try:
                yield from crfs.close(fb)
            except BackendIOError as exc:
                errors.append(("run", exc))
            try:
                yield from crfs.close(fa)
            except BackendIOError as exc:
                errors.append(("gate", exc))

        sim.run_until_complete([sim.spawn(proc())])
        crfs.shutdown()
        return backend, crfs.stats(), errors

    def test_sim_midbatch_failure_latches_every_chunk(self):
        backend, stats, errors = self._run(
            [FaultRule(op="pwritev", nth=1, every=True,
                       error=OSError("injected-pwritev"))]
        )
        assert [name for name, _ in errors] == ["run"]
        assert "injected-pwritev" in str(errors[0][1])
        assert stats["io_errors"] == RUN_CHUNKS
        assert stats["resilience"]["errors_latched"] == 1
        assert stats["batch"]["errors"] == 2
        assert stats["batch"]["batches"] == 0
        assert backend.faults_fired == 2

    def test_sim_batch_retries_as_one_op(self):
        backend, stats, errors = self._run(
            [FaultRule(op="pwritev", nth=1, error=OSError("transient"))],
            retry=fast(4),
        )
        assert not errors
        assert stats["resilience"]["chunks_retried"] == 1
        assert stats["batch"]["batches"] == 2
        assert stats["batch"]["chunks"] == RUN_CHUNKS
        assert backend.faults_fired == 1

    def test_sim_open_breaker_breaks_batch(self):
        backend, stats, errors = self._run(
            [FaultRule(op="pwrite", nth=1, error=OSError("EIO"))],
            breaker_threshold=1,
        )
        assert [name for name, _ in errors] == ["gate"]
        assert stats["batch"]["broken"] == 1
        assert stats["batch"]["batches"] == 1
        assert stats["batch"]["per_batch"] == {"8": 1}
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1


class TestProbabilisticSchedule:
    """Branch coverage for seeded p-rules, without pipeline races."""

    def rule(self, seed, p=0.5):
        return FaultRule(op="pwrite", p=p, seed=seed, error=OSError("x"))

    def test_p_half_fires_some_but_not_all(self):
        from repro.backends.faulty import FaultSchedule

        sched = FaultSchedule([self.rule(17)])
        fired = sum(
            1 for _ in range(200) if sched.decide("pwrite")[1] is not None
        )
        assert 0 < fired < 200
        assert sched.faults_fired == fired

    def test_same_seed_same_schedule(self):
        from repro.backends.faulty import FaultSchedule

        def seq(seed):
            sched = FaultSchedule([self.rule(seed)])
            return [sched.decide("pwrite")[1] is not None for _ in range(50)]

        assert seq(17) == seq(17)
        assert seq(17) != seq(18)

    def test_p_extremes(self):
        from repro.backends.faulty import FaultSchedule

        always = FaultSchedule([self.rule(1, p=1.0)])
        never = FaultSchedule([self.rule(1, p=0.0)])
        for _ in range(20):
            assert always.decide("pwrite")[1] is not None
            assert never.decide("pwrite")[1] is None

    def test_p_validation(self):
        with pytest.raises(ValueError):
            FaultRule(op="pwrite", p=1.5)
        with pytest.raises(ValueError):
            FaultRule(op="pwrite", until=2, nth=3)
        with pytest.raises(ValueError):
            FaultRule(op="pwrite", period=-1)


class TestPathScopedRules:
    """Per-path matching: a glob-scoped rule leaves other files alone."""

    def test_rule_scoped_to_one_path(self):
        mem, backend, fs = mount(
            [
                FaultRule(
                    op="pwrite", nth=1, every=True, path="/bad*",
                    error=OSError("EIO"),
                )
            ],
            1,
        )
        with fs:
            with fs.open("/good-a") as f:
                f.write(DATA)
            g = fs.open("/bad-b")
            g.write(b"x" * CHUNK)
            with pytest.raises(BackendIOError):
                g.close()
            stats = fs.stats()
        assert stats["resilience"]["errors_latched"] == 1
        assert backing(mem, "/good-a", len(DATA)) == DATA

    def test_metadata_ops_are_checkable(self):
        """file_size / exists / stat / listdir now route through the
        fault schedule."""
        mem = MemBackend()
        backend = FaultyBackend(
            mem,
            [
                FaultRule(op="exists", nth=1, error=OSError("e-exists")),
                FaultRule(op="stat", nth=1, error=OSError("e-stat")),
                FaultRule(op="listdir", nth=1, error=OSError("e-list")),
                FaultRule(op="file_size", nth=1, error=OSError("e-size")),
            ],
        )
        h = backend.open("/f")
        backend.pwrite(h, b"data", 0)
        with pytest.raises(OSError, match="e-exists"):
            backend.exists("/f")
        with pytest.raises(OSError, match="e-stat"):
            backend.stat("/f")
        with pytest.raises(OSError, match="e-list"):
            backend.listdir("/")
        with pytest.raises(OSError, match="e-size"):
            backend.file_size(h)
        # one-shot rules: everything works on the second call
        assert backend.exists("/f")
        assert backend.stat("/f").size == 4
        assert backend.listdir("/") == ["f"]
        assert backend.file_size(h) == 4
        assert backend.faults_fired == 4


# -- per-tier cells: faults on the deep tier of a staging chain ----------------
#
# A tiered mount accepts writes at tier 0 and pumps them deeper in the
# background, so a deep-tier fault is *never* an application-write
# fault: the invariant in every cell is degrade-to-shallower-tier —
# writes keep completing, tier 0 keeps the full byte image, the mount's
# own resilience counters never move, and the failure is attributed to
# the faulty tier's breaker alone.  Retry exhaustion strands extents at
# tier 0 and surfaces only from a deep-durability fsync.
#
# Determinism without gating: one IO thread seals in order, one pump
# thread with batch 1 migrates in order, so the deep tier sees its ops
# in extent order and every seeded schedule lands identically.

#: Tier counters a free-running run still fully determines (the
#: pump-queue depth gauge is timing-dependent and excluded).
TIER_DETERMINISTIC = (
    "chunks_staged",
    "bytes_staged",
    "chunks_migrated",
    "bytes_migrated",
    "chunks_stranded",
    "bytes_stranded",
    "migrate_errors",
    "migrate_retries",
    "breaker_trips",
    "breaker_recoveries",
)


def tier_cell_functional(rules, attempts, nchunks=NCHUNKS, gated=False, batch=1):
    """One cell on the threaded plane: write ``nchunks`` chunks through
    a mem -> faulty-mem staging chain, fsync to deep durability
    (catching the strand error), close, unmount.  ``gated`` holds the
    pump in the gate file's first deep pwrite until the whole run is
    queued (for deterministic batch formation)."""
    from repro.backends import TieredBackend

    gate = threading.Event()
    popped = threading.Event()

    def hold(_s):
        popped.set()
        gate.wait()

    all_rules = list(rules)
    if gated:
        all_rules.insert(0, FaultRule(op="pwrite", nth=1, delay=1.0, path="/gate*"))
    tier0 = MemBackend()
    deep_mem = MemBackend()
    deep = FaultyBackend(deep_mem, all_rules, sleep=hold if gated else lambda s: None)
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=(nchunks + 4) * CHUNK, io_threads=1,
        retry=fast(attempts), breaker_threshold=2,
        tier_pump_threads=1, tier_pump_batch_chunks=batch,
    )
    sync_errors = []
    with CRFS(TieredBackend([tier0, deep]), cfg) as fs:
        if gated:
            fg = fs.open("/gate.img")
            fg.write(b"\x00" * CHUNK)
            assert popped.wait(timeout=30), "tier pump never reached the gate"
        f = fs.open("/run.img")
        for i in range(nchunks):
            # staging is asynchronous: the write itself never raises
            f.write(bytes([i + 1]) * CHUNK)
        if gated:
            # The writes returned once their chunks were queued for the
            # IO worker; the pump's batches are fixed only once tier 0
            # has staged them all.  ``outstanding`` reads under the
            # lock that stages an extent and queues it for the pump.
            deadline = time.monotonic() + 30
            while fs.backend.outstanding < nchunks + 1:  # + the gate's
                assert time.monotonic() < deadline, "run never fully staged"
                time.sleep(0.001)
            gate.set()
        try:
            f.fsync()  # durability through the deep tier
        except OSError as exc:
            sync_errors.append(exc)
        f.close()
        if gated:
            fg.close()
        stats = fs.stats()
    return stats, sync_errors, tier0, deep_mem


def tier_cell_sim(rules, attempts, nchunks=NCHUNKS, gated=False, batch=1, seed=1):
    """The same cell on the timing plane (virtual-clock gate)."""
    from repro.sim import SharedBandwidth, Simulator
    from repro.simcrfs import SimCRFS
    from repro.simio.faulty import FaultySimFilesystem
    from repro.simio.nullfs import NullSimFilesystem
    from repro.simio.params import DEFAULT_HW
    from repro.simio.tiered import TieredSimFilesystem
    from repro.util.rng import rng_for

    sim = Simulator()
    hw = DEFAULT_HW
    from repro.sim import SharedBandwidth as _SB

    membus = _SB(sim, hw.membus_bandwidth)
    all_rules = list(rules)
    if gated:
        all_rules.insert(0, FaultRule(op="pwrite", nth=1, delay=1.0, path="/gate*"))
    deep = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(seed, "tiercell/deep")), all_rules
    )
    backend = TieredSimFilesystem(
        [NullSimFilesystem(sim, hw, rng_for(seed, "tiercell/t0")), deep]
    )
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=(nchunks + 4) * CHUNK, io_threads=1,
        retry=fast(attempts), breaker_threshold=2,
        tier_pump_threads=1, tier_pump_batch_chunks=batch,
    )
    crfs = SimCRFS(sim, hw, cfg, backend, membus)
    sync_errors = []

    def proc():
        if gated:
            fg = crfs.open("/gate.img")
            yield from crfs.write(fg, CHUNK)
        f = crfs.open("/run.img")
        for _ in range(nchunks):
            yield from crfs.write(f, CHUNK)
        try:
            yield from crfs.fsync(f)
        except OSError as exc:
            sync_errors.append(exc)
        yield from crfs.close(f)
        if gated:
            yield from crfs.close(fg)

    sim.run_until_complete([sim.spawn(proc())])
    sim.run_until_complete([sim.spawn(crfs.drain_staging(), name="drain")])
    crfs.shutdown()
    return crfs.stats(), sync_errors


def tier_comparable(stats):
    """The workload-determined slice of the ``tiers`` section."""
    return {
        level: {k: counters[k] for k in TIER_DETERMINISTIC}
        for level, counters in stats["tiers"]["per_tier"].items()
    }


class TestTierPwriteCells:
    """Deep-tier pwrite faults: strand-at-tier-0, never write-through."""

    @pytest.mark.parametrize("schedule", ["first", "every", "prob"])
    @pytest.mark.parametrize("attempts", [1, 4])
    def test_cell(self, schedule, attempts):
        recovers = schedule == "first" and attempts > 1
        stats, sync_errors, tier0, deep_mem = tier_cell_functional(
            make_rules("pwrite", schedule), attempts
        )
        tiers = stats["tiers"]["per_tier"]
        run = b"".join(bytes([i + 1]) * CHUNK for i in range(NCHUNKS))

        # degrade-to-shallower-tier: the mount pipeline never saw a fault
        assert stats["io_errors"] == 0
        assert stats["resilience"]["errors_latched"] == 0
        assert stats["resilience"]["chunks_retried"] == 0
        assert stats["resilience"]["breaker_trips"] == 0
        # and tier 0 holds the full image no matter what the deep tier did
        assert backing(tier0, "/run.img", len(run)) == run
        assert tiers["0"]["chunks_staged"] == NCHUNKS

        if recovers:
            assert sync_errors == []
            assert tiers["1"]["chunks_stranded"] == 0
            assert tiers["1"]["migrate_retries"] == 1
            assert tiers["1"]["breaker_trips"] == 0
            assert stats["tiers"]["sync_through"] == 1
            assert backing(deep_mem, "/run.img", len(run)) == run
        elif schedule == "first":  # one-shot fault, no retry budget
            assert len(sync_errors) == 1
            assert "injected-pwrite" in str(sync_errors[0])
            # only the first extent strands; the rest land deep
            assert tiers["1"]["chunks_stranded"] == 1
            assert tiers["1"]["chunks_staged"] == NCHUNKS - 1
            assert tiers["1"]["breaker_trips"] == 0
            assert backing(deep_mem, "/run.img", len(run))[CHUNK:] == run[CHUNK:]
        else:  # every / prob(p=1): the deep tier is gone for good
            assert len(sync_errors) == 1
            assert tiers["1"]["chunks_stranded"] == NCHUNKS
            assert tiers["1"]["chunks_staged"] == 0
            # consecutive failures trip the *tier's* breaker exactly once
            assert tiers["1"]["breaker_trips"] == 1
            assert deep_mem.stat("/run.img").size == 0
            if attempts > 1:
                assert tiers["1"]["migrate_retries"] == NCHUNKS * (attempts - 1)


class TestTierPwritevCells:
    """Batched migrations are one deep op: one fault decision, one retry
    schedule, and a strand attributed to every chunk the batch carried."""

    RUN = 16  # two full gathers at batch limit 8

    @pytest.mark.parametrize("schedule", ["first", "every", "prob"])
    @pytest.mark.parametrize("attempts", [1, 4])
    def test_cell(self, schedule, attempts):
        recovers = schedule == "first" and attempts > 1
        stats, sync_errors, tier0, deep_mem = tier_cell_functional(
            make_rules("pwritev", schedule), attempts,
            nchunks=self.RUN, gated=True, batch=8,
        )
        tiers = stats["tiers"]["per_tier"]
        run = b"".join(bytes([i + 1]) * CHUNK for i in range(self.RUN))

        assert stats["resilience"]["errors_latched"] == 0
        assert stats["resilience"]["breaker_trips"] == 0
        assert backing(tier0, "/run.img", len(run)) == run

        if recovers:
            assert sync_errors == []
            assert tiers["1"]["chunks_stranded"] == 0
            assert tiers["1"]["migrate_retries"] == 1  # the batch, as one op
            assert backing(deep_mem, "/run.img", len(run)) == run
        elif schedule == "first":  # first gather strands whole, second lands
            assert len(sync_errors) == 1
            assert tiers["1"]["chunks_stranded"] == 8
            assert tiers["1"]["migrate_errors"] == 1
            assert tiers["1"]["breaker_trips"] == 0
            half = 8 * CHUNK
            assert backing(deep_mem, "/run.img", len(run))[half:] == run[half:]
        else:  # both gathers strand; the tier breaker trips once
            assert len(sync_errors) == 1
            assert "injected-pwritev" in str(sync_errors[0])
            assert tiers["1"]["chunks_stranded"] == self.RUN
            assert tiers["1"]["migrate_errors"] == 2
            assert tiers["1"]["breaker_trips"] == 1


class TestTierFsyncCells:
    """A deep-tier fsync fault is synchronous: it raises at the
    deep-durability fsync itself, after the migrations all landed."""

    @pytest.mark.parametrize("schedule", ["first", "every", "prob"])
    def test_cell(self, schedule):
        stats, sync_errors, tier0, deep_mem = tier_cell_functional(
            make_rules("fsync", schedule), attempts=4
        )
        run = b"".join(bytes([i + 1]) * CHUNK for i in range(NCHUNKS))
        assert len(sync_errors) == 1
        assert "injected-fsync" in str(sync_errors[0])
        # the data was never the problem: everything migrated deep
        assert stats["tiers"]["per_tier"]["1"]["chunks_stranded"] == 0
        assert stats["tiers"]["per_tier"]["1"]["chunks_staged"] == NCHUNKS
        assert backing(deep_mem, "/run.img", len(run)) == run
        # and no breaker anywhere counts a synchronous fsync fault
        assert stats["tiers"]["per_tier"]["1"]["breaker_trips"] == 0
        assert stats["tiers"]["sync_through"] == -1

    def test_one_shot_fsync_fault_then_clean(self):
        """After the one-shot fault fires, the next deep-durability
        fsync is clean and records sync_through."""
        from repro.backends import TieredBackend

        deep_mem = MemBackend()
        deep = FaultyBackend(
            deep_mem, make_rules("fsync", "first"), sleep=lambda s: None
        )
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            tier_pump_threads=1, retry=fast(),
        )
        with CRFS(TieredBackend([MemBackend(), deep]), cfg) as fs:
            f = fs.open("/run.img")
            f.write(DATA)
            with pytest.raises(OSError, match="injected-fsync"):
                f.fsync()
            f.fsync()  # clean
            assert fs.stats()["tiers"]["sync_through"] == 1
            f.close()


class TestSimTierCellParity:
    """Every cell above, run on both planes: the workload-determined
    tier counters and the strand-error surface must land identically."""

    CELLS = [
        ("pwrite", "first", 1, NCHUNKS, False, 1),
        ("pwrite", "first", 4, NCHUNKS, False, 1),
        ("pwrite", "every", 1, NCHUNKS, False, 1),
        ("pwrite", "every", 4, NCHUNKS, False, 1),
        ("pwrite", "prob", 4, NCHUNKS, False, 1),
        ("pwritev", "first", 4, 16, True, 8),
        ("pwritev", "every", 1, 16, True, 8),
        ("fsync", "every", 4, NCHUNKS, False, 1),
    ]

    @pytest.mark.parametrize("op,schedule,attempts,nchunks,gated,batch", CELLS)
    def test_cell_parity(self, op, schedule, attempts, nchunks, gated, batch):
        func_stats, func_sync, _, _ = tier_cell_functional(
            make_rules(op, schedule), attempts,
            nchunks=nchunks, gated=gated, batch=batch,
        )
        sim_stats, sim_sync = tier_cell_sim(
            make_rules(op, schedule), attempts,
            nchunks=nchunks, gated=gated, batch=batch,
        )
        assert tier_comparable(func_stats) == tier_comparable(sim_stats)
        assert func_stats["tiers"]["sync_through"] == sim_stats["tiers"]["sync_through"]
        assert len(func_sync) == len(sim_sync)
        if func_sync:
            assert str(func_sync[0]) == str(sim_sync[0])
        # tier faults never leak into the mount resilience section
        for stats in (func_stats, sim_stats):
            assert stats["resilience"]["chunks_retried"] == 0
            assert stats["resilience"]["breaker_trips"] == 0


# -- delta-checkpoint cells: manifest and generation-file faults ---------------


def delta_mount(rules, attempts=1, **cfg_kw):
    mem = MemBackend()
    backend = FaultyBackend(mem, rules, sleep=lambda s: None)
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        retry=fast(attempts), **cfg_kw,
    )
    return mem, backend, CRFS(backend, cfg)


def manifest_rules(op, schedule):
    # Op counts are global per op name (the gen-file data writes consume
    # the early pwrite counts), so path-scoped cells use persistent
    # schedules; the "first fault, then recovery" column disarms the
    # rule between attempts instead of relying on ``nth``.
    err = OSError(f"injected-{op}")
    if schedule == "every":
        return [FaultRule(op=op, path="*.manifest", nth=1, every=True, error=err)]
    if schedule == "prob":
        return [FaultRule(op=op, path="*.manifest", p=1.0, seed=5, error=err)]
    raise ValueError(schedule)


class TestDeltaManifestCells:
    """Manifest writes are the chain's synchronous commit point: a
    faulted manifest pwrite/fsync raises at the checkpoint call, never
    advances the generation, and latches the torn flag — restore must
    refuse loudly rather than silently reassemble a stale generation,
    until a clean commit replaces the manifest."""

    @pytest.mark.parametrize("op", ["pwrite", "fsync"])
    @pytest.mark.parametrize("schedule", ["every", "prob"])
    def test_persistent_fault_cell(self, op, schedule):
        from repro.errors import ManifestError

        mem, backend, fs = delta_mount(manifest_rules(op, schedule))
        with fs:
            for _ in range(2):  # a retry fares no better
                with pytest.raises(OSError, match=f"injected-{op}"):
                    fs.delta_checkpoint("/ckpt", DATA)
                with pytest.raises(ManifestError, match="torn"):
                    fs.delta_restore("/ckpt")
            tracker = fs.kernel.delta("/ckpt")
            assert tracker.generation == -1  # the chain never advanced
            delta = fs.stats()["delta"]

        assert backend.faults_fired >= 2
        # only clean commits count
        assert delta["generations"] == 0
        assert delta["manifest_writes"] == 0

    @pytest.mark.parametrize("op", ["pwrite", "fsync"])
    def test_first_fault_then_recovery_cell(self, op):
        from repro.errors import ManifestError

        mem, backend, fs = delta_mount(manifest_rules(op, "every"))
        with fs:
            with pytest.raises(OSError, match=f"injected-{op}"):
                fs.delta_checkpoint("/ckpt", DATA)
            tracker = fs.kernel.delta("/ckpt")
            assert tracker.generation == -1 and tracker.torn
            with pytest.raises(ManifestError, match="torn"):
                fs.delta_restore("/ckpt")

            backend.rules.clear()  # the outage ends
            fs.delta_checkpoint("/ckpt", DATA)  # clean re-commit
            assert tracker.generation == 0 and not tracker.torn
            assert fs.delta_restore("/ckpt") == DATA
            delta = fs.stats()["delta"]

        assert backend.faults_fired == 1
        assert delta["generations"] == 1
        assert delta["manifest_writes"] == 1

    def test_torn_second_generation_never_loses_gen0_silently(self):
        """A tear while replacing the manifest mid-chain: the chain
        stays at generation 0, but restore refuses (the on-disk head is
        suspect) until the re-commit lands — then the full post-gen-1
        image reassembles."""
        from repro.errors import ManifestError

        mem, backend, fs = delta_mount([])
        with fs:
            image = bytearray(DATA)
            fs.delta_checkpoint("/ckpt", image)
            backend.add_rule(
                FaultRule(
                    op="pwrite", path="*.manifest", nth=1, every=True,
                    error=OSError("injected-tear"),
                )
            )
            image[CHUNK : 2 * CHUNK] = bytes(CHUNK)
            with pytest.raises(OSError, match="injected-tear"):
                fs.delta_checkpoint("/ckpt", image, dirty=[1])
            tracker = fs.kernel.delta("/ckpt")
            assert tracker.generation == 0
            with pytest.raises(ManifestError, match="torn"):
                fs.delta_restore("/ckpt")

            backend.rules.clear()
            fs.delta_checkpoint("/ckpt", image, dirty=[1])
            assert tracker.generation == 1
            assert fs.delta_restore("/ckpt") == bytes(image)


class TestDeltaDataCells:
    """Generation-file data writes ride the normal asynchronous
    pipeline: an exhausted writeback fault surfaces at the checkpoint's
    internal fsync/close, the manifest write is never attempted (no
    torn latch), and the previous chain head stays fully restorable."""

    def test_gen0_data_fault_leaves_no_chain(self):
        from repro.errors import ManifestError

        rules = [
            FaultRule(
                op="pwrite", path="*.g0", nth=1, every=True,
                error=OSError("injected-data"),
            )
        ]
        mem, backend, fs = delta_mount(rules)
        with fs:
            with pytest.raises(BackendIOError, match="injected-data"):
                fs.delta_checkpoint("/ckpt", DATA)
            tracker = fs.kernel.delta("/ckpt")
            assert tracker.generation == -1 and not tracker.torn
            with pytest.raises(ManifestError, match="no committed"):
                fs.delta_restore("/ckpt")

    def test_gen1_data_fault_keeps_gen0_restorable(self):
        mem, backend, fs = delta_mount([])
        with fs:
            fs.delta_checkpoint("/ckpt", DATA)
            backend.add_rule(
                FaultRule(
                    op="pwrite", path="*.g1", nth=1, every=True,
                    error=OSError("injected-data"),
                )
            )
            mutated = bytearray(DATA)
            mutated[:CHUNK] = bytes(CHUNK)
            with pytest.raises(BackendIOError, match="injected-data"):
                fs.delta_checkpoint("/ckpt", mutated, dirty=[0])
            tracker = fs.kernel.delta("/ckpt")
            assert tracker.generation == 0 and not tracker.torn
            # the old chain head is intact and reassembles gen 0's bytes
            assert fs.delta_restore("/ckpt") == DATA

    def test_data_fault_retry_recovers_byte_identically(self):
        rules = [
            FaultRule(
                op="pwrite", path="*.g0", nth=1, error=OSError("injected-data")
            )
        ]
        mem, backend, fs = delta_mount(rules, attempts=4)
        with fs:
            fs.delta_checkpoint("/ckpt", DATA)
            assert fs.delta_restore("/ckpt") == DATA
            stats = fs.stats()
        assert backend.faults_fired == 1
        assert stats["resilience"]["chunks_retried"] == 1
        assert stats["resilience"]["errors_latched"] == 0


class TestSimDeltaManifestCells:
    """The same manifest cells on the timing plane, via the shared
    FaultSchedule — plus cross-plane parity of the delta section for
    the full tear-refuse-recover sequence."""

    def _run(self, rules, proc_body):
        from repro.sim import SharedBandwidth, Simulator
        from repro.simcrfs import SimCRFS
        from repro.simio.faulty import FaultySimFilesystem
        from repro.simio.nullfs import NullSimFilesystem
        from repro.simio.params import DEFAULT_HW
        from repro.util.rng import rng_for

        sim = Simulator()
        hw = DEFAULT_HW
        membus = SharedBandwidth(sim, hw.membus_bandwidth)
        backend = FaultySimFilesystem(
            NullSimFilesystem(sim, hw, rng_for(1, "fault-delta")), rules
        )
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            retry=fast(),
        )
        crfs = SimCRFS(sim, hw, cfg, backend, membus)
        sim.run_until_complete([sim.spawn(proc_body(crfs))])
        crfs.shutdown()
        return backend, crfs.stats()

    @pytest.mark.parametrize("op", ["pwrite", "fsync"])
    def test_sim_manifest_fault_latches_torn_and_refuses_restore(self, op):
        from repro.errors import ManifestError

        outcomes = {}

        def proc(crfs):
            tracker = crfs.kernel.delta("/ckpt")
            try:
                yield from crfs.delta_checkpoint("/ckpt", len(DATA))
            except OSError as exc:
                outcomes["checkpoint"] = str(exc)
            outcomes["generation"] = tracker.generation
            outcomes["torn"] = tracker.torn
            try:
                yield from crfs.delta_restore("/ckpt")
            except ManifestError as exc:
                outcomes["restore"] = str(exc)

        backend, stats = self._run(manifest_rules(op, "every"), proc)
        assert outcomes["checkpoint"] == f"injected-{op}"
        assert outcomes["generation"] == -1 and outcomes["torn"]
        assert "torn" in outcomes["restore"]
        assert backend.faults_fired >= 1
        assert stats["delta"]["generations"] == 0

    def test_tear_refuse_recover_parity_with_functional_plane(self):
        """Drive the identical gen0-commit / gen1-tear / refused
        restore / clean re-commit / chain restore sequence on both
        planes: the delta sections and the workload-determined write
        counters must be bit-identical."""
        from repro.errors import ManifestError

        tear = OSError("injected-tear")

        # functional plane
        mem, fbackend, fs = delta_mount([])
        with fs:
            image = bytearray(DATA)
            fs.delta_checkpoint("/ckpt", image)
            fbackend.add_rule(
                FaultRule(op="pwrite", path="*.manifest", nth=1,
                          every=True, error=tear)
            )
            image[CHUNK : 2 * CHUNK] = bytes(CHUNK)
            with pytest.raises(OSError, match="injected-tear"):
                fs.delta_checkpoint("/ckpt", image, dirty=[1])
            with pytest.raises(ManifestError, match="torn"):
                fs.delta_restore("/ckpt")
            fbackend.rules.clear()
            fs.delta_checkpoint("/ckpt", image, dirty=[1])
            assert fs.delta_restore("/ckpt") == bytes(image)
            func = fs.stats()

        # timing plane, same sequence
        def proc(crfs):
            backend = crfs.backend
            yield from crfs.delta_checkpoint("/ckpt", len(DATA))
            backend.add_rule(
                FaultRule(op="pwrite", path="*.manifest", nth=1,
                          every=True, error=tear)
            )
            try:
                yield from crfs.delta_checkpoint("/ckpt", len(DATA), dirty=[1])
            except OSError:
                pass
            try:
                yield from crfs.delta_restore("/ckpt")
            except ManifestError:
                pass
            backend.rules.clear()
            yield from crfs.delta_checkpoint("/ckpt", len(DATA), dirty=[1])
            yield from crfs.delta_restore("/ckpt")

        _, timing = self._run([], proc)

        assert func["delta"] == timing["delta"]
        for key in ("writes", "bytes_in", "chunks_written", "bytes_out", "seals"):
            assert func[key] == timing[key], key
        assert func["delta"]["generations"] == 2
        assert func["delta"]["restores"] == 1
