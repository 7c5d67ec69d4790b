"""Tests for the Link model and engine run_until_complete semantics."""

import pytest

from repro import waits
from repro.errors import DeadlockError
from repro.sim import SimEvent, Simulator
from repro.simio.network import Link


class TestLink:
    def test_send_costs_half_rtt_plus_transfer(self):
        sim = Simulator()
        link = Link(sim, bandwidth=100.0, rtt=0.2)

        def proc():
            yield from link.send(50.0)
            return sim.now

        p = sim.spawn(proc())
        sim.run_all([p])
        assert p.result == pytest.approx(0.1 + 0.5)

    def test_roundtrip_costs_full_rtt(self):
        sim = Simulator()
        link = Link(sim, bandwidth=100.0, rtt=0.2)

        def proc():
            yield from link.roundtrip(50.0)
            return sim.now

        p = sim.spawn(proc())
        sim.run_all([p])
        assert p.result == pytest.approx(0.2 + 0.5)

    def test_bandwidth_shared(self):
        sim = Simulator()
        link = Link(sim, bandwidth=100.0, rtt=0.0)
        ends = []

        def proc():
            yield from link.send(100.0)
            ends.append(sim.now)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        assert ends[0] == pytest.approx(2.0)

    def test_message_and_byte_counters(self):
        sim = Simulator()
        link = Link(sim, bandwidth=100.0, rtt=0.01)

        def proc():
            yield from link.send(30.0)
            yield from link.roundtrip(20.0)

        sim.run_all([sim.spawn(proc())])
        assert link.total_messages == 2
        assert link.total_bytes == pytest.approx(50.0)

    def test_zero_rtt_no_latency_event(self):
        sim = Simulator()
        link = Link(sim, bandwidth=100.0, rtt=0.0)

        def proc():
            yield from link.send(10.0)
            return sim.now

        p = sim.spawn(proc())
        sim.run_all([p])
        assert p.result == pytest.approx(0.1)


class TestRunUntilComplete:
    def test_stops_despite_background_timers(self):
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(1.0)

        def workload():
            yield sim.timeout(3.5)
            return "done"

        sim.spawn(forever(), "bg")
        w = sim.spawn(workload(), "w")
        results = sim.run_until_complete([w])
        assert results == ["done"]
        assert sim.now == pytest.approx(3.5)

    def test_abandons_blocked_daemons(self):
        sim = Simulator()
        ev = SimEvent(sim)

        def daemon():
            yield ev  # never fires

        def workload():
            yield sim.timeout(1.0)

        sim.spawn(daemon(), "d")
        w = sim.spawn(workload(), "w")
        sim.run_until_complete([w])  # no DeadlockError: daemon abandoned

    def test_deadlocked_workload_detected(self):
        sim = Simulator()
        ev = SimEvent(sim)

        def workload():
            yield ev

        w = sim.spawn(workload(), "w")
        with pytest.raises(DeadlockError):
            sim.run_until_complete([w])

    def test_workload_error_reraised(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        w = sim.spawn(bad(), "w")
        with pytest.raises(ValueError, match="boom"):
            sim.run_until_complete([w])

    def test_multiple_workloads_all_complete(self):
        sim = Simulator()

        def proc(d):
            yield sim.timeout(d)
            return d

        procs = [sim.spawn(proc(d)) for d in (3.0, 1.0, 2.0)]
        assert sim.run_until_complete(procs) == [3.0, 1.0, 2.0]


class TestIOPoolShutdown:
    def test_shutdown_timeout_raises_on_stuck_thread(self, monkeypatch):
        import time

        from repro.backends import MemBackend
        from repro.core.buffer_pool import BufferPool
        from repro.core.filetable import FileEntry
        from repro.core.iopool import IOThreadPool, WorkItem
        from repro.core.workqueue import WorkQueue
        from repro.pipeline import PipelineKernel
        from repro.pipeline.resilience import BackendHealth, RetryPolicy

        class HangingBackend(MemBackend):
            def pwrite(self, handle, data, offset):
                time.sleep(0.8)
                return super().pwrite(handle, data, offset)

        backend = HangingBackend()
        kernel = PipelineKernel(64)
        queue = WorkQueue()
        pool = BufferPool(kernel, 256)
        iop = IOThreadPool(backend, queue, pool, 1, kernel, RetryPolicy(), BackendHealth(kernel))
        iop.start()
        fd = backend.open("/f")
        entry = FileEntry("/f", fd, kernel)
        chunk = pool.acquire()
        chunk.open_for(entry, 0)
        chunk.append(b"x", 0, 1)
        entry.note_chunk_queued()
        queue.put(WorkItem(chunk=chunk, entry=entry))
        monkeypatch.setattr(waits, "STUCK_S", 0.05)
        with pytest.raises(TimeoutError):
            iop.shutdown()
        # let the hung write finish so the thread exits cleanly
        monkeypatch.setattr(waits, "STUCK_S", 5.0)
        entry.wait_drained()
        iop._threads.clear()
