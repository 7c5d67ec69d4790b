"""Tests for simulation events, locks, semaphores and queues."""

import pytest

from repro.errors import DeadlockError, ShutdownError, SimulationError
from repro.pipeline.tenancy import DEFAULT_TENANT
from repro.sim import SimEvent, SimLock, SimQueue, SimSemaphore, Simulator


class TestSimEvent:
    def test_wait_then_succeed(self):
        sim = Simulator()
        ev = SimEvent(sim)

        def waiter():
            got = yield ev
            return (got, sim.now)

        def trigger():
            yield sim.timeout(3.0)
            ev.succeed("payload")

        p = sim.spawn(waiter())
        sim.spawn(trigger())
        sim.run()
        assert p.result == ("payload", 3.0)

    def test_wait_after_triggered_returns_immediately(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.succeed(7)

        def waiter():
            got = yield ev
            return got

        p = sim.spawn(waiter())
        sim.run()
        assert p.result == 7

    def test_multiple_waiters_all_released(self):
        sim = Simulator()
        ev = SimEvent(sim)
        results = []

        def waiter(i):
            yield ev
            results.append(i)

        for i in range(3):
            sim.spawn(waiter(i))

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed()

        sim.spawn(trigger())
        sim.run()
        assert results == [0, 1, 2]

    def test_fail_throws_into_waiters(self):
        sim = Simulator()
        ev = SimEvent(sim)

        def waiter():
            try:
                yield ev
            except ValueError:
                return "failed"

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(ValueError("x"))

        p = sim.spawn(waiter())
        sim.spawn(trigger())
        sim.run()
        assert p.result == "failed"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_waiting_forever_is_deadlock(self):
        sim = Simulator()
        ev = SimEvent(sim)

        def waiter():
            yield ev

        sim.spawn(waiter())
        with pytest.raises(DeadlockError):
            sim.run()


class TestSimLock:
    def test_mutual_exclusion_serializes(self):
        sim = Simulator()
        lock = SimLock(sim)
        spans = []

        def proc(name):
            yield lock.acquire()
            start = sim.now
            yield sim.timeout(2.0)
            lock.release()
            spans.append((name, start, sim.now))

        for i in range(3):
            sim.spawn(proc(i))
        sim.run()
        # strictly serialized, FIFO order
        assert spans == [(0, 0.0, 2.0), (1, 2.0, 4.0), (2, 4.0, 6.0)]

    def test_release_without_acquire_rejected(self):
        sim = Simulator()
        lock = SimLock(sim)
        with pytest.raises(SimulationError):
            lock.release()

    def test_contention_stats(self):
        sim = Simulator()
        lock = SimLock(sim)
        done = []

        def proc(i):
            yield lock.acquire()
            yield sim.timeout(1.0)
            lock.release()
            done.append((i, sim.now))

        for i in range(4):
            sim.spawn(proc(i))
        sim.run()
        # one holder at a time, in arrival order: three of them waited
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]


class TestSimSemaphore:
    def test_capacity_limits_concurrency(self):
        sim = Simulator()
        sem = SimSemaphore(sim, capacity=2)
        active = []
        peak = []

        def proc():
            yield sem.acquire()
            active.append(1)
            peak.append(len(active))
            yield sim.timeout(1.0)
            active.pop()
            sem.release()

        for _ in range(6):
            sim.spawn(proc())
        sim.run()
        assert max(peak) == 2
        assert sim.now == 3.0  # 6 jobs, 2 at a time, 1s each

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            SimSemaphore(Simulator(), 0)

    def test_in_use_and_waiting_counters(self):
        sim = Simulator()
        sem = SimSemaphore(sim, capacity=1)
        observed = {}

        def holder():
            yield sem.acquire()
            yield sim.timeout(5.0)
            observed["waiting"] = sem.waiting
            sem.release()

        def contender():
            yield sim.timeout(1.0)
            yield sem.acquire()
            sem.release()

        sim.spawn(holder())
        sim.spawn(contender())
        sim.run()
        assert observed["waiting"] == 1


class TestSimQueue:
    def test_put_then_get(self):
        sim = Simulator()
        q = SimQueue(sim)

        def producer():
            yield q.put("a")
            yield q.put("b")

        def consumer():
            x = yield q.get()
            y = yield q.get()
            return [x, y]

        sim.spawn(producer())
        p = sim.spawn(consumer())
        sim.run()
        assert p.result == ["a", "b"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        q = SimQueue(sim)

        def consumer():
            item = yield q.get()
            return (item, sim.now)

        def producer():
            yield sim.timeout(4.0)
            yield q.put("late")

        p = sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert p.result == ("late", 4.0)

    def test_bounded_put_blocks_until_get(self):
        sim = Simulator()
        q = SimQueue(sim, quotas={DEFAULT_TENANT: 1})
        times = {}

        def producer():
            yield q.put(1)
            yield q.put(2)  # must wait for consumer
            times["second_put"] = sim.now

        def consumer():
            yield sim.timeout(3.0)
            yield q.get()
            yield q.get()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert times["second_put"] == 3.0

    def test_parked_putters_readmit_in_arrival_order(self):
        """Putters parked at a tenant's quota re-enter in arrival order,
        one per freed slot; another tenant's put never parks behind
        them, and each parked put is reported once."""
        sim = Simulator()
        waits = []
        q = SimQueue(
            sim,
            quotas={"a": 1},
            on_admission_wait=lambda tenant, depth: waits.append((tenant, depth)),
        )
        admitted = []

        def putter(name, tenant, delay):
            yield sim.timeout(delay)
            yield q.put(name, tenant=tenant)
            admitted.append((name, sim.now))

        def consumer():
            got = []
            for t in (5.0, 1.0, 1.0):
                yield sim.timeout(t)
                got.append((yield q.get()))
            return got

        for name, tenant, delay in [
            ("a0", "a", 0.0), ("a1", "a", 1.0), ("a2", "a", 2.0), ("b0", "b", 3.0)
        ]:
            sim.spawn(putter(name, tenant, delay))
        p = sim.spawn(consumer())
        sim.run()
        assert admitted == [("a0", 0.0), ("b0", 3.0), ("a1", 5.0), ("a2", 7.0)]
        assert waits == [("a", 1), ("a", 1)]
        assert p.result == ["a0", "b0", "a1"]  # weighted round robin
        assert q.depth("a") == 1 and q.depth("b") == 0

    def test_fifo_ordering(self):
        sim = Simulator()
        q = SimQueue(sim)
        got = []

        def producer():
            for i in range(5):
                yield q.put(i)

        def consumer():
            for _ in range(5):
                got.append((yield q.get()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_close_wakes_blocked_getters(self):
        sim = Simulator()
        q = SimQueue(sim)

        def consumer():
            try:
                yield q.get()
            except ShutdownError:
                return "shutdown"

        def closer():
            yield sim.timeout(1.0)
            q.close()

        p = sim.spawn(consumer())
        sim.spawn(closer())
        sim.run()
        assert p.result == "shutdown"

    def test_close_drains_items_first(self):
        sim = Simulator()
        q = SimQueue(sim)
        log = []

        def producer():
            yield q.put("x")
            q.close()

        def consumer():
            yield sim.timeout(1.0)
            log.append((yield q.get()))
            try:
                yield q.get()
            except ShutdownError:
                log.append("shutdown")

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert log == ["x", "shutdown"]

    def test_put_after_close_fails(self):
        sim = Simulator()
        q = SimQueue(sim)
        q.close()

        def producer():
            try:
                yield q.put(1)
            except ShutdownError:
                return "refused"

        p = sim.spawn(producer())
        sim.run()
        assert p.result == "refused"

    def test_depth_stats(self):
        sim = Simulator()
        q = SimQueue(sim)

        def producer():
            for i in range(3):
                yield q.put(i)

        depths, got = [], []

        def consumer():
            yield sim.timeout(1.0)
            depths.append(len(q))
            for _ in range(3):
                got.append((yield q.get()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert depths == [3] and got == [0, 1, 2]
        assert len(q) == 0
