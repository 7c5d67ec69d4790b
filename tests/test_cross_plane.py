"""Cross-plane validation: the functional (threaded) CRFS and the
timing-plane (DES) CRFS run the same pipeline kernel and the same
control flows (:mod:`repro.pipeline`), so for identical workloads they
must seal identical chunk sequences AND report field-identical
``stats()`` snapshots.

Every case is an arm of the crossplane experiment's table, or one built
with its builders, played on both planes by the experiment's two players
(:mod:`repro.experiments.crossplane`): this file holds workloads and what
each must show, not a runner per plane.

This is the test that justifies claiming both planes implement *the same
filesystem*."""

from dataclasses import replace

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import waits
from repro.backends import FaultRule
from repro.config import CRFSConfig
from repro.experiments import faultsweep
from repro.experiments.crossplane import (
    GATE,
    Arm,
    arms,
    batched_arm,
    mismatches,
    play_sim,
    play_threaded,
    raised,
    schema,
    stream_steps,
    tiered_arm,
)
from repro.units import KiB

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

PLAYERS = {"functional": play_threaded, "timing": lambda arm: play_sim(arm, seed=1)}


def both(arm):
    """Play ``arm`` on both planes: its compared fields must agree."""
    func, timing = play_threaded(arm), play_sim(arm, seed=1)
    assert mismatches(arm, func, timing) == []
    return func, timing


def holds(arm, snap):
    """``arm``'s own expectations: how many steps raised (the threaded
    player turns a read of bytes never written into one), its checks."""
    assert len(snap["errors"]) == arm.expect_errors, snap["errors"]
    for what, ok in arm.checks:
        assert ok(snap), what


def write_arm(sizes, chunk, fields=DETERMINISTIC_FIELDS):
    """A write stream into one file through a 4-chunk pool, one IO
    thread (the chunk write order is then the seal order)."""
    config = CRFSConfig(chunk_size=chunk, pool_size=chunk * 4, io_threads=1)
    return Arm("stream", config, (stream_steps(sizes),), fields=fields + ("errors",))


class TestCrossPlaneEquivalence:
    """``backend_writes`` — (offset, length) of every write that reached
    each plane's store, as its IO path issued it."""

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
        func, _ = both(write_arm(sizes, 64 * KiB, ("backend_writes",)))
        assert sum(n for _, n in func["backend_writes"]) == sum(sizes)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200 * KiB), min_size=1,
                       max_size=30),
        chunk_kib=st.sampled_from([16, 64, 128]),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_chunk_sequence_property(self, sizes, chunk_kib):
        both(write_arm(sizes, chunk_kib * KiB, ("backend_writes",)))

    def test_total_bytes_conserved_both_planes(self):
        sizes = [7 * KiB] * 33
        for snap in both(write_arm(sizes, 32 * KiB, ("backend_writes",))):
            assert sum(n for _, n in snap["backend_writes"]) == sum(sizes)


# -- the unified event stream / stats() differential -------------------------


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
        # plus the structural and deterministic pressure counters
        pool_queue = ("pool.chunks", "pool.chunk_size", "pool.acquires", "queue.puts")
        both(write_arm(sizes, 64 * KiB, DETERMINISTIC_FIELDS + pool_queue))

    def test_snapshot_schema_identical(self):
        func, timing = both(write_arm([10 * KiB] * 5, 16 * KiB))
        assert schema(func) == schema(timing)

    def test_seal_reason_histograms_match(self):
        sizes = [10 * KiB, 64, 64, 5 * KiB, 40 * KiB, 130 * KiB]
        func, _ = both(write_arm(sizes, 32 * KiB, ("seals", "chunks_written")))
        assert sum(func["seals"].values()) == func["chunks_written"]

    def test_chunk_stream_identical_via_observers(self):
        sizes = [7 * KiB] * 33
        func, _ = both(write_arm(sizes, 32 * KiB, ("chunks", "write_sizes")))
        # both recorded the application write stream
        assert func["write_sizes"] == sizes

    def test_write_through_threshold_identical(self):
        """Threshold writes mixed into aggregated ones: each seals the
        partial chunk, then is written through (on the threaded plane
        possibly before that chunk lands: the store's order is a race).
        Reads flush and drain first, so the read-back checks every byte."""
        sizes = [10 * KiB, 64 * KiB, 5 * KiB, 100 * KiB, 64]
        config = CRFSConfig(
            64 * KiB, 256 * KiB, io_threads=1, write_through_threshold=64 * KiB,
            read_passthrough=False,
        )
        arm = Arm("direct", config, (stream_steps(sizes, 48 * KiB),),
                  fields=DETERMINISTIC_FIELDS + ("errors",))
        for snap in both(arm):
            assert snap["errors"] == []
            assert snap["write_through_bytes"] == 164 * KiB
            assert snap["bytes_out"] == sum(sizes) - 164 * KiB

    def test_accounting_consistency_within_each_plane(self):
        sizes = [11 * KiB] * 13
        for snap in both(write_arm(sizes, 16 * KiB)):
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
        both(write_arm(sizes, chunk_kib * KiB))


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


#: Reads ride the same pool and queue as writes: their acquire and put
#: counters stay workload-determined too.
READ_FIELDS = ("read", "resilience", "errors", "pool.acquires", "queue.puts")


def read_arm(sizes, request, chunk, rules=(), fields=READ_FIELDS, **overrides):
    """Write ``sizes``, then read the file back in ``request``-byte
    reads through the readahead cache, under ``rules``."""
    config = _read_config(chunk, **overrides)
    return Arm("read", config, (stream_steps(sizes, request),), fields=fields, rules=tuple(rules))


def outcomes(arm, snap):
    """Each read's outcome: ``"ok"`` or the type of what it raised."""
    failed = {step: kind for _, step, _, kind, _ in snap["errors"]}
    return [failed.get(i, "ok") for i, step in enumerate(arm.writers[0]) if step[0] == "read"]


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
    bit-identical across planes for the same workload, and so must each
    read's outcome."""

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
        both(read_arm(sizes, request_size, 64 * KiB, **faults))

    def test_read_back_hits_cache_on_both_planes(self):
        sizes = [70 * KiB] * 6
        for snap in both(read_arm(sizes, 48 * KiB, 64 * KiB)):
            assert snap["read"]["bytes_read"] == sum(sizes)
            assert snap["read"]["hits"] > 0
            assert snap["read"]["misses"] >= 1
            assert snap["read"]["prefetched"] > 0

    def test_entry_fetched_short_at_an_old_eof_is_refetched(self):
        """The table's ``short_entry`` arm: chunk 1 is prefetched holding
        the file's last byte; a write two chunks on grows the file
        without touching it; the next read reaches a second byte into
        it.  Serving that from the cached buffer returned whatever the
        pooled chunk held before (the bytes of its turn as a write
        chunk) for a byte that is a hole — a read the threaded player
        records as an error."""
        arm = arms()["short_entry"]
        func, _ = both(arm)
        holds(arm, func)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=150 * KiB), min_size=1,
                       max_size=15),
        request_kib=st.sampled_from([4, 48, 100]),
    )
    @settings(max_examples=15, deadline=None)
    def test_read_differential_property(self, sizes, request_kib):
        fields = ("read", "errors") + DETERMINISTIC_FIELDS
        both(read_arm(sizes, request_kib * KiB, 64 * KiB, fields=fields))


class TestReadBreaker:
    """Read outcomes feed the consecutive-failure breaker both ways: a
    fetch that lands (or a degraded passthrough probe that succeeds)
    resets the streak, so only a real outage trips it — and a healed
    backend gets its cache back."""

    @pytest.mark.parametrize("plane", sorted(PLAYERS))
    def test_non_consecutive_read_faults_never_trip(self, plane):
        """Every 5th pread faults — six failures, each separated by four
        fetches that landed: never ``breaker_threshold`` in a row."""
        rules = [FaultRule(op="pread", nth=5, period=5, error=OSError("blip"))]
        arm = read_arm([64 * KiB] * 32, 64 * KiB, 64 * KiB, rules=rules, **BREAKER)
        stats = PLAYERS[plane](arm)
        assert stats["resilience"]["breaker_trips"] == 0
        # the cache stayed in the path for the whole mount: every read
        # reached it, and every fault surfaced wrapped, never raw
        assert stats["read"]["misses"] == 32
        assert outcomes(arm, stats).count("BackendIOError") == 6
        assert outcomes(arm, stats).count("ok") == 26

    @pytest.mark.parametrize("plane", sorted(PLAYERS))
    def test_bounded_outage_trips_recovers_and_serves_hits_again(self, plane):
        """12 chunks read in half-chunk requests: the outage fails the
        demand fetches for both halves of chunk 2 and the first of
        chunk 3 (trip); the passthrough probe for chunk 3's second half
        fails raw, the one for chunk 4's first half lands and closes the
        breaker — from there on the cache fetches and serves hits."""
        arm = read_arm([64 * KiB] * 12, 32 * KiB, 64 * KiB, rules=OUTAGE, **BREAKER)
        stats = PLAYERS[plane](arm)
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1
        assert outcomes(arm, stats)[:12] == (
            ["ok"] * 4 + ["BackendIOError"] * 3 + ["OSError"] + ["ok"] * 4
        )
        assert set(outcomes(arm, stats)[12:]) == {"ok"}
        # chunks 0-1 and 5-11 each served their second half from cache
        assert stats["read"]["hits"] == 9


# -- the gated differentials ---------------------------------------------------
#
# Batch formation, DRR order and the pump-queue gauge depend on what is
# queued when a worker looks, so a free-running workload would be racy
# on the functional plane.  The table's gated arms hold a one-chunk gate
# file's backend write (an Event on the threaded plane, a long virtual
# delay on the timing plane) while the runs queue behind it.


class TestCrossPlaneBatchDifferential:
    """``stats()["batch"]`` — batches, chunks, bytes, per-batch size
    histogram — is a pure function of the gated workload."""

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
        arm = batched_arm(nchunks, batch)
        func, timing = both(arm)
        holds(arm, func)
        assert func["batch"]["per_batch"] == per_batch
        assert func["batch"]["chunks"] == sum(int(k) * v for k, v in per_batch.items())
        assert func["batch"]["errors"] == func["batch"]["broken"] == 0
        # the full workload (gate + run) drains on both planes either way
        for snap in (func, timing):
            assert snap["bytes_out"] == (nchunks + 1) * 64 * KiB

    def test_batching_disabled_zeroes_section_on_both_planes(self):
        func, _ = both(batched_arm(16, 1))
        assert func["batch"]["batches"] == func["batch"]["chunks"] == 0


class TestCrossPlaneTieredDifferential:
    """``stats()["tiers"]`` under the gated two-tier arms — every
    per-tier counter, the pump-queue gauge included except where the
    pump runs ungated — and every step that raised (the strand error
    fsync surfaces, the failed gate chunk close reports) must match."""

    @pytest.mark.parametrize("arm", ["clean", "deep_dead", "broken_batch"])
    def test_tiers_section_identical(self, arm):
        table_arm = tiered_arm(arm)
        func, _ = both(table_arm)
        holds(table_arm, func)
        assert raised(func) == {"clean": [], "deep_dead": ["fsync"], "broken_batch": ["close"]}[arm]


class TestCrossPlaneDeltaDifferential:
    """Delta-checkpoint chains on both planes: the workload-determined
    stats — the ``delta`` section included — must be bit-identical for
    the same cadence schedule, and every shard must restore to the
    bytes the threaded player wrote."""

    def test_delta_section_identical(self):
        arm = arms(seed=7)["delta"]
        func, _ = both(arm)
        holds(arm, func)


class TestArmTable:
    """The crossplane table's remaining arms and every cell of the fault
    sweep's, each with its own expectations."""

    @pytest.mark.parametrize(
        "name",
        ["main", "adaptive", "tenants", "concurrent_writers", "tenant_storm",
         *faultsweep.arms()],
    )
    def test_arm_agrees_and_holds(self, name):
        arm = {**arms(), **faultsweep.arms()}[name]
        func, timing = both(arm)
        assert schema(func) == schema(timing)
        holds(arm, func)

    def test_explicit_tenants_on_a_mount_with_no_specs(self):
        """Every mount accounts the pool per tenant: with no tenant specs,
        files opened with explicit ids each report their own gauge, not
        the whole pool's, on both planes."""
        cs = 64 * KiB
        steps = (
            ("open", "/gate.img"), ("open", "/x.img", "x"), ("open", "/y.img", "y"),
            ("write", "/gate.img", cs), ("held",),
            *[("write", "/x.img", cs)] * 3, *[("write", "/y.img", cs)] * 3,
            ("release",),
            *(("close", p) for p in ("/y.img", "/x.img", "/gate.img")),
        )
        arm = Arm(
            "no_specs",
            CRFSConfig(cs, 8 * cs, io_threads=1),
            (steps,),
            fields=("tenants", "errors"),
            # Drain times are clock reads; the gate's put is a race.
            drop=("tenants.*.drain_time_*", "tenants.*.drain_p*",
                  "tenants.default.queue_max_depth"),
            rules=(GATE,),
        )
        for snap in both(arm):
            gauge = {t: c["pool_max_in_use"] for t, c in snap["tenants"].items()}
            assert gauge == {"default": 1, "x": 3, "y": 3}

    def test_multi_writer_arms_run_a_writer_per_rank(self):
        table = arms()
        assert len(table["concurrent_writers"].writers) == 4
        assert len(table["tenant_storm"].writers) == 3
        assert table["tenant_storm"].config.tenants

    def test_an_arm_played_twice_plays_the_same(self):
        """A fault rule holds no state (the schedule counts), so the same
        arm object played twice faults the same way."""
        arm = arms()["degraded_retry"]
        assert play_sim(arm, seed=1) == play_sim(arm, seed=1)
        first, second = play_threaded(arm), play_threaded(arm)
        assert first["resilience"] == second["resilience"]
        assert first["resilience"]["breaker_trips"] == 1


class TestThreadedPlayerWaits:
    """The threaded player's waits obey the one bound (``waits.STUCK_S``)."""

    def test_a_gate_never_reached_gives_up_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.2)
        p = "/rank0.img"
        arm = Arm("ungated", CRFSConfig(4 * KiB, 16 * KiB, io_threads=1),
                  ((("open", p), ("held",), ("close", p)),), fields=("errors",), rules=(GATE,))
        t0 = time.monotonic()
        snap = play_threaded(arm)
        assert time.monotonic() - t0 < 1.0
        assert (0, 1, "held", "RuntimeError", "the gated op was never reached") in snap["errors"]

    def test_a_writer_still_running_after_the_join_is_an_error(self, monkeypatch):
        """The writer's two fsyncs each wait out a drain bound behind the
        held gate, so the join's one bound ends first."""
        monkeypatch.setattr(waits, "STUCK_S", 0.2)
        p = "/rank0.img"
        script = (("open", p), ("write", p, 4 * KiB), ("held",), ("fsync", p), ("fsync", p),
                  ("close", p))
        arm = Arm("stuck", CRFSConfig(4 * KiB, 16 * KiB, io_threads=1), (script,),
                  fields=("errors",), rules=(GATE,))
        t0 = time.monotonic()
        snap = play_threaded(arm)
        assert time.monotonic() - t0 < 1.0
        [stuck] = [e for e in snap["errors"] if e[3] == "TimeoutError"]
        assert (stuck[0], stuck[2], stuck[4]) == (0, "fsync", "stuck-w0 still running")
