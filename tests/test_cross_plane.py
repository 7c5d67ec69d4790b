"""Cross-plane validation: the functional (threaded) CRFS and the
timing-plane (DES) CRFS drive the same pipeline kernel
(:mod:`repro.pipeline`), so for identical write streams they must seal
identical chunk sequences AND report field-identical ``stats()``
snapshots.

This is the test that justifies claiming both planes implement *the same
filesystem*."""

import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    FaultRule,
    FaultyBackend,
    InstrumentedBackend,
    MemBackend,
    PipelineOpRecorder,
)
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.faulty import FaultySimFilesystem
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.units import KiB
from repro.util.rng import rng_for


def functional_seals(write_sizes, chunk_size):
    """Chunk (offset, length) sequence the threaded plane writes out."""
    backend = InstrumentedBackend(MemBackend())
    cfg = CRFSConfig(
        chunk_size=chunk_size, pool_size=chunk_size * 4, io_threads=1
    )
    with CRFS(backend, cfg) as fs:
        with fs.open("/f") as f:
            for size in write_sizes:
                f.write(b"x" * size)
    return [(op.offset, op.size) for op in backend.ops("pwrite")]


def timing_seals(write_sizes, chunk_size):
    """Chunk (offset, length) sequence the DES plane writes out."""
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)

    seals = []

    class RecordingNull(NullSimFilesystem):
        def _write(self, f, nbytes):
            seals.append((f.pos, nbytes))
            yield self.sim.timeout(self.op_cost)

    backend = RecordingNull(sim, hw, rng_for(1, "xp"))
    crfs = SimCRFS(
        sim,
        hw,
        CRFSConfig(chunk_size=chunk_size, pool_size=chunk_size * 4, io_threads=1),
        backend,
        membus,
    )

    def proc():
        f = crfs.open("/f")
        for size in write_sizes:
            yield from crfs.write(f, size)
        yield from crfs.close(f)

    sim.run_until_complete([sim.spawn(proc())])
    return seals


class TestCrossPlaneEquivalence:
    @pytest.mark.parametrize(
        "sizes",
        [
            [100, 200, 300],
            [4096] * 20,
            [10 * KiB, 64, 64, 5 * KiB, 40 * KiB],
            [64 * KiB],  # exactly one chunk
            [65 * KiB],  # one chunk + spill
            [1],
        ],
    )
    def test_same_chunk_sequence(self, sizes):
        chunk = 64 * KiB
        func = functional_seals(sizes, chunk)
        timing = timing_seals(sizes, chunk)
        # the functional plane records (offset, size) per pwrite; the DES
        # plane records per chunk write: sizes must match exactly and the
        # offsets must tile identically
        assert [s for _, s in func] == [s for _, s in timing]
        assert [o for o, _ in func] == [o for o, _ in timing]

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200 * KiB), min_size=1,
                       max_size=30),
        chunk_kib=st.sampled_from([16, 64, 128]),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_chunk_sequence_property(self, sizes, chunk_kib):
        chunk = chunk_kib * KiB
        func = functional_seals(sizes, chunk)
        timing = timing_seals(sizes, chunk)
        assert func == timing

    def test_total_bytes_conserved_both_planes(self):
        sizes = [7 * KiB] * 33
        chunk = 32 * KiB
        func = functional_seals(sizes, chunk)
        timing = timing_seals(sizes, chunk)
        assert sum(s for _, s in func) == sum(sizes)
        assert sum(s for _, s in timing) == sum(sizes)


# -- the unified event stream / stats() differential -------------------------


def functional_run(write_sizes, chunk_size):
    """(chunk-write ops, stats snapshot) from the threaded plane, both
    taken off the unified pipeline event stream."""
    rec = PipelineOpRecorder()
    cfg = CRFSConfig(chunk_size=chunk_size, pool_size=chunk_size * 4, io_threads=1)
    fs = CRFS(MemBackend(), cfg, observers=[rec])
    with fs:
        with fs.open("/rank0.img") as f:
            for size in write_sizes:
                f.write(b"x" * size)
    return rec, fs.stats()


def timing_run(write_sizes, chunk_size):
    """(chunk-write ops, stats snapshot) from the DES plane — same
    observer type, same snapshot code path."""
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    rec = PipelineOpRecorder()
    backend = NullSimFilesystem(sim, hw, rng_for(1, "xp-stats"))
    crfs = SimCRFS(
        sim,
        hw,
        CRFSConfig(chunk_size=chunk_size, pool_size=chunk_size * 4, io_threads=1),
        backend,
        membus,
        observers=[rec],
    )

    def proc():
        f = crfs.open("/rank0.img")
        for size in write_sizes:
            yield from crfs.write(f, size)
        yield from crfs.close(f)

    sim.run_until_complete([sim.spawn(proc())])
    return rec, crfs.stats()


# Snapshot fields that must be bit-identical across planes for the same
# workload.  (pool waits/max_in_use and queue max_depth are genuinely
# timing-dependent and excluded.)
DETERMINISTIC_FIELDS = (
    "writes",
    "bytes_in",
    "write_through_bytes",
    "chunks_written",
    "bytes_out",
    "io_errors",
    "seals",
    "open_files",
    "batch",  # all-zero with the default writeback_batch_chunks=1
)


class TestCrossPlaneStatsDifferential:
    @pytest.mark.parametrize(
        "sizes",
        [
            [100, 200, 300],
            [4096] * 20,
            [10 * KiB, 64, 64, 5 * KiB, 40 * KiB],
            [65 * KiB],
            [1],
        ],
    )
    def test_stats_field_identical(self, sizes):
        chunk = 64 * KiB
        _, func = functional_run(sizes, chunk)
        _, timing = timing_run(sizes, chunk)
        for key in DETERMINISTIC_FIELDS:
            assert func[key] == timing[key], key
        # structural + deterministic pressure counters
        assert func["pool"]["chunks"] == timing["pool"]["chunks"]
        assert func["pool"]["chunk_size"] == timing["pool"]["chunk_size"]
        assert func["pool"]["acquires"] == timing["pool"]["acquires"]
        assert func["queue"]["puts"] == timing["queue"]["puts"]

    def test_snapshot_schema_identical(self):
        _, func = functional_run([10 * KiB] * 5, 16 * KiB)
        _, timing = timing_run([10 * KiB] * 5, 16 * KiB)
        assert set(func) == set(timing)
        assert set(func["pool"]) == set(timing["pool"])
        assert set(func["queue"]) == set(timing["queue"])
        assert set(func["seals"]) == set(timing["seals"])

    def test_seal_reason_histograms_match(self):
        sizes = [10 * KiB, 64, 64, 5 * KiB, 40 * KiB, 130 * KiB]
        _, func = functional_run(sizes, 32 * KiB)
        _, timing = timing_run(sizes, 32 * KiB)
        assert func["seals"] == timing["seals"]
        assert sum(func["seals"].values()) == func["chunks_written"]

    def test_chunk_stream_identical_via_observers(self):
        sizes = [7 * KiB] * 33
        func_rec, _ = functional_run(sizes, 32 * KiB)
        timing_rec, _ = timing_run(sizes, 32 * KiB)
        func_chunks = [(r.offset, r.size) for r in func_rec.ops("chunk_write")]
        timing_chunks = [(r.offset, r.size) for r in timing_rec.ops("chunk_write")]
        assert func_chunks == timing_chunks
        # and both recorded the same application write stream
        assert func_rec.write_sizes() == timing_rec.write_sizes() == sizes

    def test_accounting_consistency_within_each_plane(self):
        sizes = [11 * KiB] * 13
        for _, snap in (functional_run(sizes, 16 * KiB), timing_run(sizes, 16 * KiB)):
            assert snap["writes"] == len(sizes)
            assert snap["bytes_in"] == sum(sizes)
            assert snap["bytes_out"] == snap["bytes_in"]
            assert snap["chunks_written"] == sum(snap["seals"].values())
            assert snap["pool"]["acquires"] == snap["queue"]["puts"]
            assert snap["open_files"] == 0

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200 * KiB), min_size=1,
                       max_size=20),
        chunk_kib=st.sampled_from([16, 64]),
    )
    @settings(max_examples=15, deadline=None)
    def test_stats_differential_property(self, sizes, chunk_kib):
        chunk = chunk_kib * KiB
        _, func = functional_run(sizes, chunk)
        _, timing = timing_run(sizes, chunk)
        for key in DETERMINISTIC_FIELDS:
            assert func[key] == timing[key], key


# -- the restart read plane differential --------------------------------------


def _read_config(chunk_size, **overrides):
    """Readahead config whose read accounting is workload-determined on
    both planes: reads start only after the write stream drains, so the
    whole pool (4 chunks) is free for the cache (4 chunks) and the
    prefetch try-acquire can never starve; cache capacity = readahead
    window + 2 keeps the chunk just consumed beside the live window
    (window + 1 would fetch every chunk once just the same)."""
    base = CRFSConfig(
        chunk_size=chunk_size,
        pool_size=chunk_size * 4,
        io_threads=1,
        read_cache_chunks=4,
        readahead_chunks=2,
    )
    return replace(base, **overrides)


def _read_plan(total, request):
    out = []
    while total > 0:
        out.append(min(request, total))
        total -= out[-1]
    return out


def functional_read_run(write_sizes, read_request, chunk_size, rules=(), **overrides):
    """stats snapshot from the threaded plane after write + sequential
    read-back through the readahead cache, plus each read's outcome
    (``"ok"`` or the exception type a faulted read surfaced as)."""
    backend = FaultyBackend(MemBackend(), list(rules))
    fs = CRFS(backend, _read_config(chunk_size, **overrides))
    outcomes, offset = [], 0
    with fs:
        with fs.open("/rank0.img") as f:
            for size in write_sizes:
                f.write(b"x" * size)
            for size in _read_plan(sum(write_sizes), read_request):
                try:
                    f.pread(size, offset)
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
                offset += size
    return dict(fs.stats(), outcomes=outcomes)


def timing_read_run(write_sizes, read_request, chunk_size, rules=(), **overrides):
    """The same from the DES plane — same workload, same faults, same
    snapshot code path."""
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(1, "xp-read")), list(rules)
    )
    crfs = SimCRFS(sim, hw, _read_config(chunk_size, **overrides), backend, membus)
    outcomes = []

    def proc():
        f = crfs.open("/rank0.img")
        for size in write_sizes:
            yield from crfs.write(f, size)
        offset = 0
        for size in _read_plan(sum(write_sizes), read_request):
            crfs.seek(f, offset)
            try:
                yield from crfs.read(f, size)
                outcomes.append("ok")
            except Exception as exc:
                outcomes.append(type(exc).__name__)
            offset += size
        yield from crfs.close(f)

    sim.run_until_complete([sim.spawn(proc())])
    return dict(crfs.stats(), outcomes=outcomes)


READ_PLANES = {"functional": functional_read_run, "timing": timing_read_run}

#: A read-only restart mount that keeps faults deterministic across
#: planes: no window, so every backend pread is a demand fetch (or a
#: degraded passthrough) in read order.
BREAKER = dict(readahead_chunks=0, breaker_threshold=3)

#: preads #3-#6 fail: three failed demand fetches trip the breaker, one
#: failed passthrough probe keeps it open, the first good probe closes it.
OUTAGE = [FaultRule(op="pread", nth=3, every=True, until=6, error=OSError("outage"))]


class TestCrossPlaneReadDifferential:
    """The ``read`` section — hits, misses, prefetched, dropped, wasted —
    is a pure function of the access sequence, so it must be
    bit-identical across planes for the same workload."""

    @pytest.mark.parametrize(
        "sizes,request_size,faults",
        [
            ([100 * KiB, 100 * KiB, 56 * KiB], 48 * KiB, {}),
            ([4096] * 40, 7 * KiB, {}),       # sub-chunk requests
            ([65 * KiB], 65 * KiB, {}),       # one chunk + spill, one read
            ([300 * KiB], 96 * KiB, {}),      # requests spanning chunks
            ([1], 1, {}),
            # a bounded read outage: trip, degraded probes, recovery
            ([64 * KiB] * 12, 64 * KiB, dict(BREAKER, rules=OUTAGE)),
        ],
    )
    def test_read_section_identical(self, sizes, request_size, faults):
        chunk = 64 * KiB
        func = functional_read_run(sizes, request_size, chunk, **faults)
        timing = timing_read_run(sizes, request_size, chunk, **faults)
        assert func["read"] == timing["read"]
        assert func["resilience"] == timing["resilience"]
        assert func["outcomes"] == timing["outcomes"]
        # reads ride the same pool/queue as writes: the acquire and put
        # counters stay workload-determined too
        assert func["pool"]["acquires"] == timing["pool"]["acquires"]
        assert func["queue"]["puts"] == timing["queue"]["puts"]

    def test_read_back_hits_cache_on_both_planes(self):
        sizes = [70 * KiB] * 6
        func = functional_read_run(sizes, 48 * KiB, 64 * KiB)
        timing = timing_read_run(sizes, 48 * KiB, 64 * KiB)
        for snap in (func, timing):
            assert snap["read"]["bytes_read"] == sum(sizes)
            assert snap["read"]["hits"] > 0
            assert snap["read"]["misses"] >= 1
            assert snap["read"]["prefetched"] > 0

    def test_entry_fetched_short_at_an_old_eof_is_refetched(self):
        """Chunk 1 is prefetched holding the file's last byte; a write
        two chunks on grows the file without touching it; the next read
        reaches a second byte into it.  Serving that from the cached
        buffer returned whatever the pooled chunk held before (0x07,
        from its turn as a write chunk) for a byte that is a hole."""
        chunk = 4096
        cfg = _read_config(chunk)
        fs = CRFS(MemBackend(), cfg)
        with fs:
            with fs.open("/rank0.img") as f:
                f.write(b"\x07" * (chunk + 1))
                assert f.pread(1, 0) == b"\x07"
                f.pwrite(b"\x09", 2 * chunk)
                assert f.pread(chunk + 2, 0) == b"\x07" * (chunk + 1) + b"\x00"
                # consume the window's last prefetch, so none is in
                # flight (plane-dependently) at close
                assert f.pread(1, 2 * chunk) == b"\x09"
        func = fs.stats()

        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "xp-short"))
        crfs = SimCRFS(sim, DEFAULT_HW, cfg, backend, membus)

        def proc():
            f = crfs.open("/rank0.img")
            yield from crfs.write(f, chunk + 1)
            yield from crfs.read(f, 1)
            f.pos = 2 * chunk
            yield from crfs.write(f, 1)
            crfs.seek(f, 0)
            yield from crfs.read(f, chunk + 2)
            crfs.seek(f, 2 * chunk)
            yield from crfs.read(f, 1)
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        timing = crfs.stats()
        assert func["read"] == timing["read"]
        # chunk 0: miss, then hit; chunk 1: the stale hit, then its
        # re-fetch; chunk 2: hit
        assert (func["read"]["hits"], func["read"]["misses"]) == (3, 2)
        assert func["mem"] == timing["mem"]

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=150 * KiB), min_size=1,
                       max_size=15),
        request_kib=st.sampled_from([4, 48, 100]),
    )
    @settings(max_examples=15, deadline=None)
    def test_read_differential_property(self, sizes, request_kib):
        chunk = 64 * KiB
        func = functional_read_run(sizes, request_kib * KiB, chunk)
        timing = timing_read_run(sizes, request_kib * KiB, chunk)
        assert func["read"] == timing["read"]
        for key in DETERMINISTIC_FIELDS:
            assert func[key] == timing[key], key


class TestReadBreaker:
    """Read outcomes feed the consecutive-failure breaker both ways: a
    fetch that lands (or a degraded passthrough probe that succeeds)
    resets the streak, so only a real outage trips it — and a healed
    backend gets its cache back."""

    @pytest.mark.parametrize("plane", sorted(READ_PLANES))
    def test_non_consecutive_read_faults_never_trip(self, plane):
        """Every 5th pread faults — six failures, each separated by four
        fetches that landed: never ``breaker_threshold`` in a row."""
        rules = [FaultRule(op="pread", nth=5, period=5, error=OSError("blip"))]
        stats = READ_PLANES[plane](
            [64 * KiB] * 32, 64 * KiB, 64 * KiB, rules=rules, **BREAKER
        )
        assert stats["resilience"]["breaker_trips"] == 0
        # the cache stayed in the path for the whole mount: every read
        # reached it, and every fault surfaced wrapped, never raw
        assert stats["read"]["misses"] == 32
        assert stats["outcomes"].count("BackendIOError") == 6
        assert stats["outcomes"].count("ok") == 26

    @pytest.mark.parametrize("plane", sorted(READ_PLANES))
    def test_bounded_outage_trips_recovers_and_serves_hits_again(self, plane):
        """12 chunks read in half-chunk requests: the outage fails the
        demand fetches for both halves of chunk 2 and the first of
        chunk 3 (trip); the passthrough probe for chunk 3's second half
        fails raw, the one for chunk 4's first half lands and closes the
        breaker — from there on the cache fetches and serves hits."""
        stats = READ_PLANES[plane](
            [64 * KiB] * 12, 32 * KiB, 64 * KiB, rules=OUTAGE, **BREAKER
        )
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1
        assert stats["outcomes"][:12] == (
            ["ok"] * 4 + ["BackendIOError"] * 3 + ["OSError"] + ["ok"] * 4
        )
        assert set(stats["outcomes"][12:]) == {"ok"}
        # chunks 0-1 and 5-11 each served their second half from cache
        assert stats["read"]["hits"] == 9


# -- the coalesced-writeback differential --------------------------------------
#
# Batch formation depends on queue occupancy at gather time, so a
# free-running workload would be racy on the functional plane.  Both
# planes run the same gated workload instead: a one-chunk gate file's
# backend pwrite is held open (threading.Event functionally, a long
# virtual delay in the DES) while a second file's whole run is queued.
# The lone worker reaches the run only after the gate lifts, making
# batch formation a pure function of (nchunks, batch limit) — and
# forcing ``stats()["batch"]`` to be bit-identical across planes.


def _batched_config(nchunks, batch):
    chunk = 64 * KiB
    return CRFSConfig(
        chunk_size=chunk,
        pool_size=(nchunks + 4) * chunk,  # gate + run fit: no backpressure
        io_threads=1,
        writeback_batch_chunks=batch,
    )


def functional_batched_run(nchunks, batch):
    config = _batched_config(nchunks, batch)
    gate = threading.Event()
    backend = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
        sleep=lambda _s: gate.wait(),
    )
    fs = CRFS(backend, config)
    with fs:
        with fs.open("/gate.img") as fa, fs.open("/rank0.img") as fb:
            fa.write(b"\x00" * config.chunk_size)
            for _ in range(nchunks):
                fb.write(b"\x00" * config.chunk_size)
            gate.set()
    return fs.stats()


def timing_batched_run(nchunks, batch):
    config = _batched_config(nchunks, batch)
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(1, "xp-batched")),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
    )
    crfs = SimCRFS(sim, hw, config, backend, membus)

    def proc():
        fa = crfs.open("/gate.img")
        yield from crfs.write(fa, config.chunk_size)
        fb = crfs.open("/rank0.img")
        for _ in range(nchunks):
            yield from crfs.write(fb, config.chunk_size)
        yield from crfs.close(fb)
        yield from crfs.close(fa)

    sim.run_until_complete([sim.spawn(proc())])
    return crfs.stats()


class TestCrossPlaneBatchDifferential:
    """``stats()["batch"]`` — batches, chunks, bytes, per-batch size
    histogram — is a pure function of the gated workload, so it must be
    bit-identical across planes."""

    @pytest.mark.parametrize(
        "nchunks,batch,per_batch",
        [
            (16, 8, {"8": 2}),           # two full gathers
            (5, 3, {"3": 1, "2": 1}),    # full gather + remainder
            (5, 8, {"5": 1}),            # one under-limit gather
            (1, 8, {}),                  # a single chunk never batches
        ],
    )
    def test_batch_section_identical(self, nchunks, batch, per_batch):
        func = functional_batched_run(nchunks, batch)
        timing = timing_batched_run(nchunks, batch)
        assert func["batch"] == timing["batch"]
        assert func["batch"]["per_batch"] == per_batch
        batched = sum(int(k) * v for k, v in per_batch.items())
        assert func["batch"]["chunks"] == batched
        assert func["batch"]["errors"] == func["batch"]["broken"] == 0
        # the full workload (gate + run) drains on both planes either way
        for snap in (func, timing):
            assert snap["chunks_written"] == nchunks + 1
            assert snap["bytes_out"] == (nchunks + 1) * 64 * KiB

    def test_batching_disabled_zeroes_section_on_both_planes(self):
        func = functional_batched_run(16, 1)
        timing = timing_batched_run(16, 1)
        assert func["batch"] == timing["batch"]
        assert func["batch"]["batches"] == func["batch"]["chunks"] == 0


# -- tiered staging differential ----------------------------------------------


class TestCrossPlaneTieredDifferential:
    """``stats()["tiers"]`` under the gated two-tier workload is a pure
    function of the workload (the gate pins the pop-vs-stage race), so
    the whole section — every per-tier counter *including* the
    pump-queue gauge — must be bit-identical across planes, and a
    faulted arm's strand error must surface identically too.  Reuses
    the crossplane experiment's arm builders so the test and the
    experiment can never drift apart.

    ``broken_batch`` gates (and fails) tier 0 instead, so the mount's
    breaker is open when the worker gathers the run: the broken batch's
    chunks must stage and migrate on both planes.  Its pump runs
    ungated, so only there the pump-queue gauge is left out."""

    @pytest.mark.parametrize("arm", ["clean", "deep_dead", "broken_batch"])
    def test_tiers_section_identical(self, arm):
        from repro.experiments.crossplane import (
            _error_key,
            _functional_tiered_stats,
            _tiered_config,
            _timing_tiered_stats,
        )

        config = _tiered_config(arm)
        func = _functional_tiered_stats(config, arm)
        timing = _timing_tiered_stats(config, seed=1, arm=arm)

        if arm == "broken_batch":
            for snap in (func, timing):
                for counters in snap["tiers"]["per_tier"].values():
                    del counters["pump_queue_max"]
        assert func["tiers"] == timing["tiers"]
        assert _error_key(func["_sync_error"]) == _error_key(
            timing["_sync_error"]
        )

        per_tier = func["tiers"]["per_tier"]
        if arm == "deep_dead":
            # the dead deep tier strands the run; only the gate chunk
            # (written before the outage rule arms) lands deep
            assert func["_sync_error"] is not None
            assert per_tier["1"]["chunks_stranded"] == 6
            assert per_tier["1"]["chunks_staged"] == 1
            assert per_tier["1"]["breaker_trips"] == 1
            assert per_tier["0"]["breaker_trips"] == 0
        elif arm == "clean":
            assert func["_sync_error"] is None
            assert per_tier["1"]["chunks_staged"] == 7
            assert per_tier["1"]["chunks_stranded"] == 0
            assert per_tier["1"]["pump_queue_max"] == 6
            assert func["tiers"]["sync_through"] == 1
        else:
            # the failed gate chunk never stages; the 4-chunk batch the
            # open breaker broke stages chunk by chunk (the first one
            # closes the breaker), the remaining 2 as one healthy batch
            assert func["_sync_error"] is None
            assert func["batch"] == timing["batch"]
            assert func["batch"]["broken"] == 1
            assert func["batch"]["per_batch"] == {"2": 1}
            for tier in ("0", "1"):
                assert per_tier[tier]["chunks_staged"] == 5
                assert per_tier[tier]["bytes_staged"] == 6 * config.chunk_size
            assert per_tier["1"]["chunks_stranded"] == 0


class TestCrossPlaneDeltaDifferential:
    """Delta-checkpoint chains on both planes: the whole workload-
    determined stats surface — including the ``delta`` section — must
    be bit-identical for the same cadence schedule, and the restore
    read traffic must agree on the deterministic read counters.
    Prefetch lifecycle counters are excluded: in-flight prefetches at
    generation-file close are drop-accounted racily on the threaded
    plane (same reason the write differential above excludes the read
    section).  Reuses the crossplane experiment's arm builders so the
    test and the experiment can never drift apart."""

    def test_delta_section_identical(self):
        from repro.experiments.crossplane import (
            _DELTA_ITERATIONS,
            DELTA_COMPARED_FIELDS,
            DELTA_READ_FIELDS,
            _delta_config,
            _functional_delta_stats,
            _timing_delta_stats,
        )

        config = _delta_config()
        func = _functional_delta_stats(config, seed=7)
        timing = _timing_delta_stats(config, seed=7)

        for key in DELTA_COMPARED_FIELDS:
            assert func[key] == timing[key], key
        assert {k: func["read"][k] for k in DELTA_READ_FIELDS} == {
            k: timing["read"][k] for k in DELTA_READ_FIELDS
        }

        delta = func["delta"]
        assert delta["generations"] == 2 * _DELTA_ITERATIONS
        assert delta["clean_chunks"] > 0  # the chain actually shared chunks
        assert delta["restores"] == 2
        assert 0 < delta["bytes_written"] < delta["logical_bytes"]
        assert delta["manifest_writes"] == delta["generations"]
