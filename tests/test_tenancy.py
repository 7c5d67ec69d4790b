"""Multi-tenant mount: registry, pool ledger, DRR scheduler, and the
tenant-aware threaded pipeline (plus the buffer-pool timeout/release
regressions that rode along with the tenancy refactor)."""

import threading
import time
from unittest import mock

import pytest

from repro import waits
from repro.backends import MemBackend
from repro.config import CRFSConfig, TenantSpec
from repro.core import CRFS
from repro.core.buffer_pool import BufferPool
from repro.core.workqueue import QueueFullTimeout, WorkQueue
from repro.errors import ConfigError, ShutdownError
from repro.pipeline import PipelineKernel, PipelineStats
from repro.pipeline.writeback import contiguous
from repro.pipeline.tenancy import (
    DEFAULT_TENANT,
    DRRScheduler,
    PoolLedger,
    TenantRegistry,
)
from repro.sim import SimTenantPool, Simulator
from repro.units import KiB


# -- registry ------------------------------------------------------------------


class TestTenantRegistry:
    def test_resolution_precedence(self):
        reg = TenantRegistry(
            [
                TenantSpec("a", patterns=("/a/*",)),
                TenantSpec("b", patterns=("/b/*", "/a/*")),
            ]
        )
        # Explicit id wins over any pattern; first matching spec wins
        # the tie; unmatched paths fall back to the default tenant.
        assert reg.resolve("/a/x.img", tenant="b") == "b"
        assert reg.resolve("/a/x.img") == "a"
        assert reg.resolve("/b/x.img") == "b"
        assert reg.resolve("/elsewhere.img") == DEFAULT_TENANT

    def test_explicit_unknown_tenant_served_on_default_terms(self):
        reg = TenantRegistry([TenantSpec("a", weight=4)])
        assert reg.resolve("/x", tenant="guest") == "guest"
        # No weight, reservation or quota: the scheduler, ledger and
        # queue fall back to weight 1, the shared region, no quota.
        assert "guest" not in reg.weights()
        assert "guest" not in reg.reservations()
        assert "guest" not in reg.quotas()
        assert DRRScheduler(reg.weights()).weight("guest") == 1

    def test_names_sorted_and_include_default(self):
        reg = TenantRegistry([TenantSpec("zeta"), TenantSpec("alpha")])
        assert reg.names == ("alpha", "default", "zeta")

    def test_empty_registry_is_single_tenant(self):
        reg = TenantRegistry()
        assert reg.names == (DEFAULT_TENANT,)
        assert reg.resolve("/anything") == DEFAULT_TENANT

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            TenantRegistry([TenantSpec("a"), TenantSpec("a")])

    def test_overcommitted_reservations_rejected(self):
        with pytest.raises(ConfigError):
            TenantRegistry(
                [TenantSpec("a", pool_reserved=3), TenantSpec("b", pool_reserved=2)],
                pool_chunks=4,
            )

    @pytest.mark.parametrize(
        "kw",
        [
            {"weight": 0},
            {"weight": 1.5},
            {"pool_reserved": -1},
            {"queue_quota": -1},
        ],
    )
    def test_bad_spec_fields_rejected(self, kw):
        with pytest.raises(ConfigError):
            TenantSpec("a", **kw)

    def test_config_validates_tenants(self):
        with pytest.raises(ConfigError):
            CRFSConfig(
                chunk_size=64 * KiB,
                pool_size=2 * 64 * KiB,
                tenants=(TenantSpec("a", pool_reserved=3),),
            )


# -- pool ledger ---------------------------------------------------------------


class TestPoolLedger:
    def test_reserved_consumed_before_shared(self):
        ledger = PoolLedger(4, {"a": 2})
        ledger.acquire("a")
        ledger.acquire("a")
        assert ledger.shared_used == 0  # both came from the reservation
        ledger.acquire("a")
        assert ledger.shared_used == 1
        assert ledger.held("a") == 3

    def test_shared_released_before_reserved(self):
        ledger = PoolLedger(4, {"a": 2})
        for _ in range(3):
            ledger.acquire("a")
        ledger.release("a")
        assert ledger.shared_used == 0  # overflow slot went back first
        assert ledger.held("a") == 2

    def test_storm_cannot_take_another_tenants_reservation(self):
        ledger = PoolLedger(4, {"victim": 2})
        ledger.acquire("storm")
        ledger.acquire("storm")
        assert not ledger.can_acquire("storm")  # shared region exhausted
        assert ledger.can_acquire("victim")  # reservation untouched
        ledger.acquire("victim")
        ledger.acquire("victim")
        assert ledger.in_use == 4

    def test_idle_node_gives_one_tenant_the_whole_shared_region(self):
        ledger = PoolLedger(4)
        for _ in range(4):
            ledger.acquire("a")
        assert not ledger.can_acquire("a")
        assert ledger.in_use == 4

    def test_release_without_hold_rejected(self):
        with pytest.raises(ConfigError):
            PoolLedger(2).release("a")

    def test_blind_acquire_rejected(self):
        ledger = PoolLedger(1)
        ledger.acquire("a")
        with pytest.raises(ConfigError):
            ledger.acquire("b")


# -- DRR scheduler -------------------------------------------------------------


class TestDRRScheduler:
    def test_single_tenant_degrades_to_fifo(self):
        sched = DRRScheduler()
        for i in range(5):
            sched.push(DEFAULT_TENANT, i)
        assert [sched.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]
        assert sched.pop() is None

    def test_weighted_service_under_contention(self):
        sched = DRRScheduler(weights={"a": 3, "b": 1})
        for i in range(6):
            sched.push("a", f"a{i}")
            sched.push("b", f"b{i}")
        # Per round: three of a's items, then one of b's.
        served = [sched.pop()[0] for _ in range(8)]
        assert served == ["a", "a", "a", "b", "a", "a", "a", "b"]

    def test_high_band_strictly_before_low(self):
        sched = DRRScheduler(weights={"a": 1, "b": 8})
        sched.push("b", "prefetch", low=True)
        sched.push("a", "writeback")
        assert sched.pop() == ("a", "writeback")  # weight never trumps band
        assert sched.pop() == ("b", "prefetch")

    def test_empty_queue_forfeits_residual_deficit(self):
        sched = DRRScheduler(weights={"a": 4, "b": 1})
        sched.push("a", "a0")
        sched.push("b", "b0")
        assert sched.pop() == ("a", "a0")
        # a left the ring with 3 quantum unspent; refilling must not
        # let it burst past its share (no banking across idle periods).
        assert sched._deficit["a"] == 0
        assert sched.pop() == ("b", "b0")

    def test_gather_stays_within_tenant_and_charges_deficit(self):
        sched = DRRScheduler(weights={"a": 2, "b": 2})
        for i in range(4):
            sched.push("a", ("a", i))
            sched.push("b", ("b", i))
        tenant, head = sched.pop()
        assert (tenant, head) == ("a", ("a", 0))
        batch = sched.gather("a", 3, lambda prev, nxt: nxt[0] == prev[0], head)
        assert batch == [("a", 1), ("a", 2), ("a", 3)]  # never spans tenants
        # The 4-item run overdrew a's quantum of 2: b is served twice
        # (its own quantum) before a's debt amortizes.
        assert sched.depth("a") == 0 and sched.depth("b") == 4
        assert [sched.pop()[0] for _ in range(4)] == ["b", "b", "b", "b"]

    def test_gather_skip_preserves_relative_order(self):
        sched = DRRScheduler()
        for item in ("x1", "y1", "x2", "y2"):
            sched.push(DEFAULT_TENANT, item)
        _, head = sched.pop()
        batch = sched.gather(
            DEFAULT_TENANT, 4, lambda prev, nxt: nxt.startswith("x"), head
        )
        assert batch == ["x2"]
        assert [sched.pop()[1] for _ in range(2)] == ["y1", "y2"]


# -- work queue admission ------------------------------------------------------


class TestWorkQueueAdmission:
    def test_quota_blocks_only_the_offending_tenant(self, monkeypatch):
        monkeypatch.setattr(waits, "STUCK_S", 0.05)
        stats = PipelineStats(tenants=("default", "storm"))
        q = WorkQueue(emit=stats.on_event, quotas={"storm": 2})
        q.put("s0", tenant="storm")
        q.put("s1", tenant="storm")
        with pytest.raises(QueueFullTimeout):
            q.put("s2", tenant="storm")
        q.put("v0")  # another tenant's put is untouched
        snap = stats.snapshot()
        assert snap["queue"]["admission_waits"] == 1
        assert snap["tenants"]["storm"]["admission_waits"] == 1

    def test_service_readmits_quota_blocked_putter(self):
        q = WorkQueue(quotas={"storm": 1})
        q.put("s0", tenant="storm")
        done = threading.Event()

        def blocked_put():
            q.put("s1", tenant="storm")
            done.set()

        t = threading.Thread(target=blocked_put)
        t.start()
        try:
            assert not done.wait(0.1)  # parked at admission
            assert q.get_batch(1, contiguous) == ["s0"]
            assert done.wait(2.0)  # the freed quota admits the put
        finally:
            t.join()
        assert q.get_batch(1, contiguous) == ["s1"]

    def test_put_timeout_is_a_deadline_not_rearmed(self, monkeypatch):
        """Regression: wakeups that do not admit the put must wait only
        on the remainder, not restart the full bound."""
        monkeypatch.setattr(waits, "STUCK_S", 0.3)
        q = WorkQueue(quotas={DEFAULT_TENANT: 1})
        q.put("full")
        stop = threading.Event()

        def tease():
            while not stop.is_set():
                with q._lock:
                    q._not_full.notify_all()
                time.sleep(0.02)

        t = threading.Thread(target=tease)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(QueueFullTimeout):
                q.put("late")
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            t.join()
        assert 0.25 <= elapsed < 2.0


# -- buffer pool: ledger, release fast path, deadline regression ---------------


class TestBufferPoolTenancy:
    def test_reservation_survives_a_storm(self):
        pool = BufferPool(PipelineKernel(64 * KiB), 3 * 64 * KiB, reservations={"victim": 1})
        held = [pool.acquire(tenant="storm"), pool.acquire(tenant="storm")]
        assert pool.try_acquire(tenant="storm") is None  # shared exhausted
        # A free chunk is left, but only the victim may take it.
        assert pool.would_wait("storm") and not pool.would_wait("victim")
        chunk = pool.try_acquire(tenant="victim")  # reservation intact
        assert chunk is not None
        pool.release(chunk)
        for c in held:
            pool.release(c)

    def test_release_emits_pool_pressure_event(self):
        kernel = PipelineKernel(64 * KiB)
        pool = BufferPool(kernel, 2 * 64 * KiB)
        chunk = pool.acquire()
        snap = kernel.snapshot()
        assert snap["pool"]["releases"] == 0
        pool.release(chunk)
        snap = kernel.snapshot()
        assert snap["pool"]["acquires"] == 1
        assert snap["pool"]["releases"] == 1

    def test_acquire_timeout_is_a_deadline_not_rearmed(self, monkeypatch):
        """Regression for the re-armed acquire timeout: a waiter racing
        with other acquirers must not block past the advertised bound."""
        monkeypatch.setattr(waits, "STUCK_S", 0.3)
        pool = BufferPool(PipelineKernel(64 * KiB), 64 * KiB)
        pool.acquire()  # drain the single chunk and never release it
        stop = threading.Event()

        def tease():
            # Wake the waiter every 20 ms without ever freeing a chunk;
            # pre-fix, each wakeup restarted the full timeout and the
            # acquire below never returned.
            while not stop.is_set():
                with pool._lock:
                    pool._available.notify_all()
                time.sleep(0.02)

        t = threading.Thread(target=tease)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(ShutdownError):
                pool.acquire()
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            t.join()
        assert 0.25 <= elapsed < 2.0


# -- sim-plane tenant pool -----------------------------------------------------


class TestSimTenantPool:
    def test_parked_storm_cannot_delay_a_reserved_acquire(self):
        """Admission is per-tenant, not strict global FIFO: a storm
        parked on the full shared region must not queue ahead of a
        victim drawing on its own reservation."""
        sim = Simulator()
        pool = SimTenantPool(sim, PoolLedger(3, {"victim": 1}))
        order = []

        def storm():
            for i in range(3):  # third acquire parks (shared holds 2)
                yield pool.acquire("storm")
                order.append(("storm", i, sim.now))

        def victim():
            yield sim.timeout(1.0)  # arrive after the storm has parked
            yield pool.acquire("victim")
            order.append(("victim", 0, sim.now))
            yield sim.timeout(1.0)
            pool.release("victim")

        s = sim.spawn(storm())
        v = sim.spawn(victim())
        # The storm's parked acquire never resolves (the victim's
        # reserved-slot release does not grow the shared region), so run
        # to the victim's completion and abandon the storm.
        sim.run_until_complete([v])
        # The victim got its reserved chunk instantly at t=1.0 ...
        assert ("victim", 0, 1.0) in order
        # ... while the storm's third acquire stayed parked forever
        # (the victim's reserved-slot release does not admit it).
        assert ("storm", 2, mock.ANY) not in order
        assert s.alive and not v.alive
        assert order[:2] == [("storm", 0, 0.0), ("storm", 1, 0.0)]
        assert pool.waiting == 1

    def test_release_resumes_first_admissible_waiter(self):
        sim = Simulator()
        pool = SimTenantPool(sim, PoolLedger(2, {"victim": 1}))
        got = []

        def holder():
            yield pool.acquire("storm")  # takes the single shared chunk
            yield sim.timeout(5.0)
            pool.release("storm")

        def storm_waiter():
            yield pool.acquire("storm")  # parks: shared full
            got.append(("storm", sim.now))

        def victim_waiter():
            yield sim.timeout(1.0)
            yield pool.acquire("victim")  # reserved: no wait
            got.append(("victim", sim.now))

        sim.spawn(holder())
        sim.spawn(storm_waiter())
        sim.spawn(victim_waiter())
        sim.run()
        assert got == [("victim", 1.0), ("storm", 5.0)]


# -- the tenant-aware mount (threaded, end to end) -----------------------------


def _tenant_config() -> CRFSConfig:
    return CRFSConfig(
        chunk_size=64 * KiB,
        pool_size=8 * 64 * KiB,
        io_threads=2,
        tenants=(
            TenantSpec("a", weight=2, pool_reserved=2, patterns=("/a*",)),
            TenantSpec("b", weight=1, patterns=("/b*",)),
        ),
    )


class TestMultiTenantMount:
    def test_per_tenant_accounting_end_to_end(self):
        fs = CRFS(MemBackend(), _tenant_config())
        with fs:
            with fs.open("/a0.img") as f:
                f.write(b"\x00" * (2 * 64 * KiB))
            with fs.open("/b0.img") as f:
                f.write(b"\x00" * (64 * KiB))
            with fs.open("/other.img") as f:
                f.write(b"\x00" * (64 * KiB))
        tenants = fs.stats()["tenants"]
        assert set(tenants) == {"a", "b", "default"}
        assert tenants["a"]["chunks_written"] == 2
        assert tenants["a"]["bytes_out"] == 2 * 64 * KiB
        assert tenants["b"]["chunks_written"] == 1
        assert tenants["default"]["chunks_written"] == 1
        assert tenants["a"]["drain_waits"] == 1

    def test_explicit_tenant_overrides_patterns(self):
        fs = CRFS(MemBackend(), _tenant_config())
        with fs:
            with fs.open("/b0.img", tenant="a") as f:
                f.write(b"\x00" * (64 * KiB))
        tenants = fs.stats()["tenants"]
        assert tenants["a"]["chunks_written"] == 1
        assert tenants["b"]["chunks_written"] == 0

    def test_file_table_holds_every_tenants_files(self):
        fs = CRFS(MemBackend(), _tenant_config())
        with fs:
            with fs.open("/a0.img"), fs.open("/b0.img"), fs.open("/a1.img"):
                assert fs.table.paths() == ["/a0.img", "/b0.img", "/a1.img"]
                assert [fs.table.lookup(p).tenant for p in fs.table.paths()] == ["a", "b", "a"]
            assert fs.table.paths() == []

    def test_single_tenant_mount_unchanged(self):
        fs = CRFS(MemBackend(), CRFSConfig(chunk_size=64 * KiB, pool_size=512 * KiB))
        with fs:
            with fs.open("/x.img") as f:
                f.write(b"\x00" * (3 * 64 * KiB))
        stats = fs.stats()
        assert set(stats["tenants"]) == {DEFAULT_TENANT}
        assert stats["tenants"]["default"]["chunks_written"] == 3
        assert stats["tenants"]["default"]["bytes_in"] == stats["bytes_in"]
