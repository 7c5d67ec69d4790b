"""Property-based laws of the staging hierarchy (Hypothesis).

Random append workloads and random per-tier fault schedules on a
three-tier chain, checked against three laws:

1. **Replication law** — after the pump settles, tier 0 holds exactly
   the byte image a direct single-backend mount produces for the same
   workload, and so does every tier shallower than the shallowest
   strand (stranding at tier k forgives the deeper debts, so tiers
   above the first strand are the fully-replicated set).
2. **Durability law** — a clean return from ``fsync`` under
   ``fsync_tier=k`` implies tiers 0..k hold every byte written before
   the fsync, no matter what faults are injected deeper than k.
3. **Plane parity law** — with one IO thread, one pump thread and
   batch 1, the workload-determined tier counters and the strand-error
   surface are identical on the threaded and virtual-clock planes for
   any workload/fault combination.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FaultRule, FaultyBackend, MemBackend, TieredBackend
from repro.config import CRFSConfig, RetryPolicy
from repro.core import CRFS
from repro.units import KiB

pytestmark = pytest.mark.property

CHUNK = 16 * KiB

FAST = RetryPolicy(backoff=1e-4, backoff_max=1e-3, jitter=0.0)

#: Tier counters a free-running single-lane run still fully determines
#: (mirrors the fault-matrix set; the queue-depth gauge is excluded).
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

#: One tier's fault schedule: None, or (op, when).  Fresh FaultRule
#: objects are built per example — schedules count per instance.
FAULT_MODES = [
    None,
    ("pwrite", "first"),
    ("pwrite", "second"),
    ("pwrite", "every"),
    ("pwritev", "every"),
    ("fsync", "first"),
    ("fsync", "every"),
]

fault_mode = st.sampled_from(FAULT_MODES)
write_sizes = st.lists(
    st.integers(min_value=1, max_value=3 * CHUNK + 100), min_size=1, max_size=6
)


def rules_for(mode):
    if mode is None:
        return []
    op, when = mode
    err = OSError(f"injected-{op}-{when}")
    if when == "first":
        return [FaultRule(op=op, nth=1, error=err)]
    if when == "second":
        return [FaultRule(op=op, nth=2, error=err)]
    return [FaultRule(op=op, nth=1, every=True, error=err)]


def stream(sizes, salt=0):
    """A deterministic byte stream cut into the given write sizes."""
    total = sum(sizes)
    blob = bytes((i * 131 + 17 + salt) % 256 for i in range(total))
    out, off = [], 0
    for s in sizes:
        out.append(blob[off : off + s])
        off += s
    return blob, out


def backing(mem, path, n):
    return mem.pread(mem.open(path, create=False), n, 0)


def chain(modes, attempts, pump_threads=1, batch=1, fsync_tier=-1):
    """A (tier 0 .. tier N) staging chain: plain mem at tier 0, faulty
    mem at every deeper tier, plus its mount."""
    mems = [MemBackend() for _ in range(len(modes) + 1)]
    tiers = [mems[0]] + [
        FaultyBackend(mem, rules_for(mode), sleep=lambda s: None)
        for mem, mode in zip(mems[1:], modes)
    ]
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=32 * CHUNK, io_threads=1,
        retry=replace(FAST, attempts=attempts), breaker_threshold=2,
        tier_pump_threads=pump_threads, tier_pump_batch_chunks=batch,
        fsync_tier=fsync_tier, read_cache_chunks=2,
    )
    return mems, CRFS(TieredBackend(tiers), cfg)


def direct_image(sizes):
    """The same workload through a plain single-backend mount."""
    mem = MemBackend()
    cfg = CRFSConfig(chunk_size=CHUNK, pool_size=32 * CHUNK, io_threads=1)
    with CRFS(mem, cfg) as fs:
        with fs.open("/img") as f:
            for piece in stream(sizes)[1]:
                f.write(piece)
    return backing(mem, "/img", sum(sizes))


class TestReplicationLaw:
    @given(
        sizes=write_sizes,
        read_mask=st.lists(st.booleans(), min_size=6, max_size=6),
        mode1=fault_mode,
        mode2=fault_mode,
        attempts=st.sampled_from([1, 2]),
        pump_threads=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_shallow_tiers_match_a_direct_run(
        self, sizes, read_mask, mode1, mode2, attempts, pump_threads, batch
    ):
        blob, pieces = stream(sizes)
        mems, fs = chain((mode1, mode2), attempts, pump_threads, batch)
        reads_fired = False
        with fs:
            f = fs.open("/img")
            written = 0
            for i, piece in enumerate(pieces):
                f.write(piece)  # staging is async: never raises
                written += len(piece)
                if read_mask[i]:
                    # read-your-writes mid-staging (a cached read
                    # flushes and drains first):
                    # a tail slice of everything written so far
                    n = min(written, 2 * CHUNK + 7)
                    assert f.pread(n, written - n) == blob[written - n : written]
                    reads_fired = True
            try:
                f.fsync()  # settle the pump (may surface strand/fsync faults)
            except OSError:
                pass
            f.close()
            stats = fs.stats()

        assert direct_image(sizes) == blob
        per_tier = stats["tiers"]["per_tier"]
        stranded = [
            k for k in range(3) if per_tier[str(k)]["chunks_stranded"] > 0
        ]
        # tier 0 is fed by the mount pipeline, never by the pump
        assert not stranded or stranded[0] >= 1
        deepest_replicated = (stranded[0] - 1) if stranded else 2
        for k in range(deepest_replicated + 1):
            assert backing(mems[k], "/img", len(blob)) == blob, f"tier {k}"
        # conservation at every tier: staged + stranded accounts for
        # every chunk the tier above forwarded (a mid-stream read seals
        # the partial tail early, so tier 0 may re-stage that chunk)
        nchunks = -(-len(blob) // CHUNK)
        t0 = per_tier["0"]
        assert t0["chunks_stranded"] == 0
        if reads_fired:
            assert t0["chunks_staged"] >= nchunks
        else:
            assert t0["chunks_staged"] == nchunks
        for k in (1, 2):
            t = per_tier[str(k)]
            accepted = per_tier[str(k - 1)]["chunks_staged"]
            assert t["chunks_staged"] + t["chunks_stranded"] == accepted


class TestDurabilityLaw:
    @given(
        before=write_sizes,
        after=write_sizes,
        k=st.sampled_from([0, 1]),
        deep_mode=fault_mode.filter(lambda m: m is not None),
        attempts=st.sampled_from([1, 2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_clean_fsync_means_tiers_through_k_hold_the_prefix(
        self, before, after, k, deep_mode, attempts
    ):
        """Faults strictly deeper than ``fsync_tier`` never surface from
        fsync, and a clean return proves tiers 0..k hold the prefix."""
        modes = [None, None]
        for deeper in range(k, 2):  # tiers k+1..2 carry the faults
            modes[deeper] = deep_mode
        blob, pieces = stream(before)
        mems, fs = chain(tuple(modes), attempts, fsync_tier=k)
        with fs:
            f = fs.open("/img")
            for piece in pieces:
                f.write(piece)
            f.fsync()  # must NOT raise: durability only through tier k
            assert fs.stats()["tiers"]["sync_through"] == k
            for tier in range(k + 1):
                assert backing(mems[tier], "/img", len(blob)) == blob, (
                    f"tier {tier} missing synced bytes"
                )
            for piece in stream(after, salt=97)[1]:
                f.write(piece)  # the suffix still staged without raising
            f.close()


class TestPlaneParityLaw:
    @given(
        sizes=write_sizes,
        deep_mode=fault_mode,
        attempts=st.sampled_from([1, 2]),
    )
    @settings(max_examples=15, deadline=None)
    def test_tier_counters_and_sync_errors_match(
        self, sizes, deep_mode, attempts
    ):
        func_stats, func_sync = self._functional(sizes, deep_mode, attempts)
        sim_stats, sim_sync = self._sim(sizes, deep_mode, attempts)
        for stats in (func_stats, sim_stats):
            assert stats["resilience"]["chunks_retried"] == 0
            assert stats["resilience"]["breaker_trips"] == 0
        assert self._comparable(func_stats) == self._comparable(sim_stats)
        assert (
            func_stats["tiers"]["sync_through"]
            == sim_stats["tiers"]["sync_through"]
        )
        assert [str(e) for e in func_sync] == [str(e) for e in sim_sync]

    @staticmethod
    def _comparable(stats):
        return {
            level: {key: counters[key] for key in TIER_DETERMINISTIC}
            for level, counters in stats["tiers"]["per_tier"].items()
        }

    @staticmethod
    def _config(attempts):
        return CRFSConfig(
            chunk_size=CHUNK, pool_size=32 * CHUNK, io_threads=1,
            retry=replace(FAST, attempts=attempts), breaker_threshold=2,
            tier_pump_threads=1, tier_pump_batch_chunks=1,
        )

    def _functional(self, sizes, deep_mode, attempts):
        deep = FaultyBackend(
            MemBackend(), rules_for(deep_mode), sleep=lambda s: None
        )
        sync_errors = []
        with CRFS(
            TieredBackend([MemBackend(), deep]), self._config(attempts)
        ) as fs:
            f = fs.open("/img")
            for piece in stream(sizes)[1]:
                f.write(piece)
            try:
                f.fsync()
            except OSError as exc:
                sync_errors.append(exc)
            f.close()
            return fs.stats(), sync_errors

    def _sim(self, sizes, deep_mode, attempts):
        from repro.sim import SharedBandwidth, Simulator
        from repro.simcrfs import SimCRFS
        from repro.simio.faulty import FaultySimFilesystem
        from repro.simio.nullfs import NullSimFilesystem
        from repro.simio.params import DEFAULT_HW
        from repro.simio.tiered import TieredSimFilesystem
        from repro.util.rng import rng_for

        sim = Simulator()
        hw = DEFAULT_HW
        membus = SharedBandwidth(sim, hw.membus_bandwidth)
        deep = FaultySimFilesystem(
            NullSimFilesystem(sim, hw, rng_for(1, "tierprop/deep")),
            rules_for(deep_mode),
        )
        backend = TieredSimFilesystem(
            [NullSimFilesystem(sim, hw, rng_for(1, "tierprop/t0")), deep]
        )
        crfs = SimCRFS(sim, hw, self._config(attempts), backend, membus)
        sync_errors = []

        def proc():
            f = crfs.open("/img")
            for size in sizes:
                yield from crfs.write(f, size)
            try:
                yield from crfs.fsync(f)
            except OSError as exc:
                sync_errors.append(exc)
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        sim.run_until_complete(
            [sim.spawn(crfs.drain_staging(), name="drain")]
        )
        crfs.shutdown()
        return crfs.stats(), sync_errors


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
