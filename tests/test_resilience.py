"""Writeback resilience: retry policy, circuit breaker, and both planes'
wiring of them (``pipeline/resilience.py`` under ``core``/``simcrfs``;
the attempt loop itself is unit-tested in ``test_writeback_engine.py``).

The contract under test: transient backend faults are retried under the
mount's :class:`RetryPolicy` before anything latches; consecutive
failures trip the :class:`BackendHealth` breaker into synchronous
write-through until a probe write succeeds; every transition is visible
on the unified event stream and in ``stats()["resilience"]`` — with the
same schema on both planes.
"""

import threading
import time

import pytest

from repro import waits
from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import BackendIOError, ConfigError
from repro.pipeline import (
    BackendDegraded,
    BackendHealth,
    BackendRecovered,
    ChunkRetried,
    EventLog,
    PipelineKernel,
    RetryPolicy,
)
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.faulty import FaultySimFilesystem
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.units import KiB
from repro.util.rng import rng_for

CHUNK = 64 * KiB

#: Fast real-time backoff for threaded tests.
FAST = dict(backoff=1e-4, backoff_max=1e-3)


def fast(attempts=1, **kw):
    """A retry schedule with ``FAST`` backoff."""
    return RetryPolicy(attempts=attempts, **{**FAST, **kw})


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_defaults_fail_fast(self):
        p = RetryPolicy()
        assert p.attempts == 1
        assert not p.should_retry(1)

    def test_should_retry_counts_the_first_attempt(self):
        p = RetryPolicy(attempts=3)
        assert p.should_retry(1) and p.should_retry(2)
        assert not p.should_retry(3)

    def test_delay_is_deterministic_per_chunk(self):
        p = RetryPolicy(attempts=4)
        d1 = p.delay(1, "/f", 0)
        assert d1 == p.delay(1, "/f", 0)  # same key, same delay
        assert d1 == RetryPolicy(attempts=4).delay(1, "/f", 0)  # no state
        assert d1 != p.delay(1, "/f", CHUNK)  # different chunk
        assert d1 != p.delay(1, "/g", 0)  # different file

    def test_delay_grows_and_caps(self):
        p = RetryPolicy(attempts=10, backoff=0.01, backoff_max=0.05, jitter=0.0)
        delays = [p.delay(k, "/f", 0) for k in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_bounds(self):
        p = RetryPolicy(attempts=2, backoff=0.01, jitter=0.5)
        for k in range(1, 20):
            d = p.delay(1, f"/f{k}", 0)
            assert 0.005 <= d <= 0.015

    @pytest.mark.parametrize(
        "kw",
        [
            dict(attempts=0),
            dict(attempts=-1),
            dict(backoff=-1.0),
            dict(backoff_max=-0.1),
            dict(jitter=1.5),
            dict(jitter=-0.1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            RetryPolicy(**kw)

    def test_config_knobs_round_trip(self):
        p = RetryPolicy(attempts=5, backoff=0.01)
        assert CRFSConfig(retry=p).retry is p
        assert CRFSConfig().with_(retry=p).retry == p
        with pytest.raises(ConfigError):
            CRFSConfig(retry=RetryPolicy(attempts=0))
        with pytest.raises(ConfigError):
            CRFSConfig(breaker_threshold=-1)


# ---------------------------------------------------------------------------
# BackendHealth


def health(threshold, tier=0, clock=None):
    """A breaker on a kernel whose every record lands in the returned
    list (tiers 0-2 are counted by its registry)."""
    log = EventLog()
    kernel = PipelineKernel(64, clock=clock, observers=[log], tiers=3)
    return BackendHealth(kernel, threshold, tier=tier), log.events


class TestBackendHealth:
    def test_disabled_breaker_never_degrades(self):
        h, events = health(0)
        for _ in range(10):
            assert not h.record_failure()
        assert not h.degraded
        assert h.failures == 10 and events == []

    def test_trips_on_consecutive_failures_only(self):
        h, events = health(3)
        h.record_failure()
        h.record_failure()
        h.record_success()  # resets the streak
        h.record_failure()
        h.record_failure()
        assert not h.degraded
        assert h.record_failure()  # third consecutive -> trip
        assert h.degraded
        assert [(type(e), e.consecutive_failures) for e in events] == [(BackendDegraded, 3)]

    def test_probe_success_recovers(self):
        clock = iter([float(i) for i in range(100)])
        h, events = health(1, clock=lambda: next(clock))
        h.record_failure()
        assert h.degraded
        assert h.record_success()
        assert not h.degraded
        assert [type(e) for e in events] == [BackendDegraded, BackendRecovered]
        assert events[1].downtime == pytest.approx(1.0)
        assert events[0].tier == events[1].tier == 0  # the mount's backend

    def test_a_tier_breaker_stamps_its_tier(self):
        h, events = health(1, tier=2)
        h.record_failure()
        h.record_success()
        assert [e.tier for e in events] == [2, 2]

    def test_no_double_trip_while_open(self):
        h, events = health(1)
        assert h.record_failure()
        assert not h.record_failure()  # already open
        assert len(events) == 1

    def test_thread_safety(self):
        h, events = health(1)
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(1000):
                h.record_failure()
                h.record_success()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.failures == h.successes == 8000
        trips = sum(isinstance(e, BackendDegraded) for e in events)
        assert trips == sum(isinstance(e, BackendRecovered) for e in events)


# ---------------------------------------------------------------------------
# Functional plane end-to-end


class TestFunctionalPlaneRetry:
    def cfg(self, attempts=1, **kw):
        return CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            retry=fast(attempts), **kw,
        )

    def test_transient_fault_recovers_byte_identical(self):
        """ISSUE acceptance: every pwrite fails once -> the checkpoint
        completes with zero latched errors, retries counted, and the
        backing file is byte-identical to a no-fault run."""
        data = bytes(range(256)) * 2048  # 512 KiB = 8 chunks
        mem = MemBackend()
        backend = FaultyBackend(
            mem,
            [FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))],
            sleep=lambda s: None,
        )
        rec = EventLog()
        with CRFS(backend, self.cfg(attempts=3), observers=(rec,)) as fs:
            with fs.open("/ckpt") as f:
                f.write(data)
            stats = fs.stats()
        assert stats["resilience"]["chunks_retried"] > 0
        assert stats["resilience"]["errors_latched"] == 0
        assert stats["io_errors"] == 0
        assert len(rec.of(ChunkRetried)) == stats["resilience"]["chunks_retried"]
        assert mem.pread(mem.open("/ckpt", create=False), len(data), 0) == data

    def test_exhausted_retries_latch_at_close(self):
        backend = FaultyBackend(
            MemBackend(),
            [FaultRule(op="pwrite", nth=1, every=True, error=OSError("dead"))],
            sleep=lambda s: None,
        )
        with CRFS(backend, self.cfg(attempts=3)) as fs:
            f = fs.open("/ckpt")
            f.write(b"x" * CHUNK)  # async path: write() itself succeeds
            with pytest.raises(BackendIOError, match="dead"):
                f.close()
            stats = fs.stats()
        assert stats["resilience"]["chunks_retried"] == 2  # 3 attempts
        assert stats["resilience"]["errors_latched"] == 1

    def test_breaker_trips_and_probe_recovers(self):
        """Outage on pwrite ops 1-2: file A's chunk exhausts its single
        attempt twice across two files, tripping the breaker; file C's
        write takes the degraded synchronous path, probes op 3 (healed),
        and restores async mode."""
        mem = MemBackend()
        backend = FaultyBackend(
            mem,
            [FaultRule(op="pwrite", nth=1, until=2, every=True, error=OSError("EIO"))],
            sleep=lambda s: None,
        )
        rec = EventLog()
        cfg = self.cfg(attempts=1, breaker_threshold=2)
        with CRFS(backend, cfg, observers=(rec,)) as fs:
            for name in ("/a", "/b"):
                f = fs.open(name)
                f.write(b"x" * CHUNK)
                with pytest.raises(BackendIOError):
                    f.close()  # latched by the failed async write
            assert fs.health.degraded
            with fs.open("/c") as f:
                f.write(b"y" * CHUNK)  # degraded write-through probe
            assert not fs.health.degraded
            stats = fs.stats()
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1
        assert stats["resilience"]["degraded_writes"] == 1
        assert stats["resilience"]["degraded_bytes"] == CHUNK
        assert len(rec.of(BackendDegraded)) == 1
        assert len(rec.of(BackendRecovered)) == 1
        assert mem.pread(mem.open("/c", create=False), CHUNK, 0) == b"y" * CHUNK

    def test_degraded_write_failure_raises_at_write(self):
        backend = FaultyBackend(
            MemBackend(),
            [FaultRule(op="pwrite", nth=1, every=True, error=OSError("dead"))],
            sleep=lambda s: None,
        )
        cfg = self.cfg(attempts=1, breaker_threshold=1)
        with CRFS(backend, cfg) as fs:
            f = fs.open("/a")
            f.write(b"x" * CHUNK)
            with pytest.raises(BackendIOError):
                f.close()
            assert fs.health.degraded
            g = fs.open("/b")
            # synchronous path: the exhausted error surfaces here, not
            # at close — nothing was accepted asynchronously
            with pytest.raises(OSError, match="dead"):
                g.write(b"y" * KiB)
            g.close()  # clean: no latched error for /b
            stats = fs.stats()
        assert stats["resilience"]["errors_latched"] == 1  # only /a


# ---------------------------------------------------------------------------
# Timing plane + cross-plane parity


def drive_sim(rules, config, streams, seed=2011):
    """Run named append streams through SimCRFS over a faulty backend."""
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    inner = NullSimFilesystem(sim, hw, rng_for(seed, "resilience"))
    backend = FaultySimFilesystem(inner, rules)
    rec = EventLog()
    crfs = SimCRFS(sim, hw, config, backend, membus, observers=(rec,))
    errors = []

    def run_all():
        # sequential, so each file's close (and its drain) lands before
        # the next file writes — deterministic fault/op interleaving
        for name, sizes in streams:
            f = crfs.open(name)
            try:
                for size in sizes:
                    yield from crfs.write(f, size)
                yield from crfs.close(f)
            except BackendIOError as exc:
                errors.append((name, exc))

    sim.run_until_complete([sim.spawn(run_all())])
    return crfs, rec, errors


class TestTimingPlaneRetry:
    def cfg(self, attempts=1, jitter=0.1, **kw):
        return CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            retry=fast(attempts, jitter=jitter), **kw,
        )

    def test_transient_fault_recovers(self):
        crfs, rec, errors = drive_sim(
            [FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))],
            self.cfg(attempts=3),
            [("/ckpt", [CHUNK] * 4)],
        )
        stats = crfs.stats()
        assert errors == []
        assert stats["resilience"]["chunks_retried"] == 4
        assert stats["resilience"]["errors_latched"] == 0
        assert stats["bytes_out"] == 4 * CHUNK

    def test_backoff_advances_virtual_clock(self):
        crfs, rec, _ = drive_sim(
            [FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))],
            self.cfg(attempts=2, jitter=0.0),
            [("/ckpt", [CHUNK])],
        )
        (retry,) = rec.of(ChunkRetried)
        assert retry.delay == pytest.approx(1e-4)
        assert crfs.sim.now > 0

    def test_outage_trips_breaker_then_degraded_probe_recovers(self):
        crfs, rec, errors = drive_sim(
            [FaultRule(op="pwrite", nth=1, until=2, every=True, error=OSError("EIO"))],
            self.cfg(attempts=1, breaker_threshold=2),
            [("/a", [CHUNK]), ("/b", [CHUNK]), ("/c", [CHUNK])],
        )
        stats = crfs.stats()
        assert len(errors) == 2  # /a and /b latched
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["resilience"]["breaker_recoveries"] == 1
        assert stats["resilience"]["degraded_writes"] >= 1
        assert not crfs.health.degraded


class TestCrossPlaneResilienceParity:
    def test_stats_match_under_deterministic_faults(self):
        """Same write stream + same fault rules -> field-identical
        resilience counters on both planes."""
        sizes = [CHUNK] * 3 + [CHUNK // 2, CHUNK]
        rules = lambda: [  # noqa: E731 - fresh schedule per plane
            FaultRule(op="pwrite", nth=1, period=2, error=OSError("EIO"))
        ]
        config = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            retry=fast(3),
        )

        with CRFS(
            FaultyBackend(MemBackend(), rules(), sleep=lambda s: None), config
        ) as fs:
            with fs.open("/f") as f:
                for size in sizes:
                    f.write(b"z" * size)
            func = fs.stats()

        crfs, _, errors = drive_sim(rules(), config, [("/f", sizes)])
        timing = crfs.stats()
        assert errors == []
        for key in (
            "writes", "bytes_in", "chunks_written", "bytes_out",
            "io_errors", "resilience",
        ):
            assert func[key] == timing[key], key


# ---------------------------------------------------------------------------
# IOThreadPool.shutdown: shared deadline (satellite fix)


class TestShutdownSharedDeadline:
    def test_timeout_is_shared_not_per_thread(self, monkeypatch):
        """Four workers all stuck in a slow pwrite: shutdown must give
        up after ~timeout total, not ~4x timeout."""
        gate = threading.Event()

        class Stuck(MemBackend):
            def pwrite(self, handle, data, offset):
                gate.wait(timeout=30.0)
                return super().pwrite(handle, data, offset)

        cfg = CRFSConfig(chunk_size=4 * KiB, pool_size=32 * KiB, io_threads=4)
        fs = CRFS(Stuck(), cfg).mount()
        f = fs.open("/f")
        for i in range(4):
            f.write(b"x" * 4 * KiB)
        time.sleep(0.05)  # let all four workers block in pwrite
        monkeypatch.setattr(waits, "STUCK_S", 0.4)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="IO threads did not exit"):
            fs.iopool.shutdown()
        elapsed = time.monotonic() - t0
        assert elapsed < 1.2  # shared deadline; per-thread would be ~1.6+
        gate.set()  # release the workers so the process exits cleanly
        time.sleep(0.05)

    def test_clean_shutdown_still_works(self):
        cfg = CRFSConfig(chunk_size=4 * KiB, pool_size=16 * KiB, io_threads=2)
        fs = CRFS(MemBackend(), cfg).mount()
        with fs.open("/f") as f:
            f.write(b"x" * 10 * KiB)
        fs.unmount()
        assert not fs.mounted
