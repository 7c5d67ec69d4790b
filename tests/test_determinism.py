"""Determinism and conservation properties across the whole stack.

Reproducibility is a deliverable: identical seeds must give identical
simulations, byte accounting must balance everywhere, and the functional
plane must survive concurrency stress without losing a byte.
"""

import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.mpi import CheckpointCoordinator, MPICH2, MPIJob
from repro.sim import SharedBandwidth, Simulator
from repro.simio import Ext3Filesystem
from repro.simio.params import DEFAULT_HW
from repro.units import KiB
from repro.util.rng import rng_for
from repro.workloads import lu_class


class TestSimulationDeterminism:
    def _run_once(self, seed):
        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        fs = Ext3Filesystem(sim, DEFAULT_HW, rng_for(seed, "det"), membus)
        results = []

        def writer(i):
            f = fs.open(f"/f{i}")
            for _ in range(50):
                yield from fs.write(f, 8192)
            yield from fs.close(f)
            results.append((i, sim.now))

        procs = [sim.spawn(writer(i)) for i in range(4)]
        sim.run_until_complete(procs)
        return results

    def test_identical_seeds_identical_timelines(self):
        assert self._run_once(11) == self._run_once(11)

    def test_different_seeds_differ(self):
        assert self._run_once(11) != self._run_once(12)

    def test_coordinator_deterministic_across_runs(self):
        job = MPIJob(stack=MPICH2, nas=lu_class("B"), nprocs=8, nnodes=2)
        times = [
            CheckpointCoordinator(job, "lustre", use_crfs=True, seed=9).run().avg_local_time
            for _ in range(2)
        ]
        assert times[0] == times[1]


class TestByteConservation:
    def test_sim_fs_accounting(self):
        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        fs = Ext3Filesystem(sim, DEFAULT_HW, rng_for(1, "c"), membus)

        def writer():
            f = fs.open("/f")
            for _ in range(100):
                yield from fs.write(f, 5000)
            yield from fs.fsync(f)

        sim.run_until_complete([sim.spawn(writer())])
        assert fs.total_bytes == 500_000
        # dirty + written-back == dirtied
        assert (
            fs.cache.dirty_bytes + fs.cache.total_written_back
            == fs.cache.total_dirtied
        )
        assert fs.cache.dirty_bytes_of("/f") == 0

    @given(
        nwriters=st.integers(min_value=1, max_value=6),
        writes=st.integers(min_value=1, max_value=40),
        size=st.sampled_from([17, 1000, 4096, 10_000]),
    )
    @settings(max_examples=20, deadline=None)
    def test_functional_plane_conservation(self, nwriters, writes, size):
        backend = MemBackend()
        cfg = CRFSConfig(chunk_size=8 * KiB, pool_size=64 * KiB, io_threads=2)
        with CRFS(backend, cfg) as fs:
            threads = []

            def writer(i):
                with fs.open(f"/f{i}") as f:
                    for _ in range(writes):
                        f.write(bytes([i]) * size)

            for i in range(nwriters):
                t = threading.Thread(target=writer, args=(i,))
                t.start()
                threads.append(t)
            for t in threads:
                t.join()
            stats = fs.stats()
            assert stats["bytes_in"] == nwriters * writes * size
            assert stats["bytes_out"] == stats["bytes_in"]
        for i in range(nwriters):
            assert backend.read_file(f"/f{i}") == bytes([i]) * (writes * size)


class TestConcurrencyStress:
    def test_shared_file_concurrent_appenders(self):
        """Many threads appending disjoint regions of one file through
        separate handles — the entry-level write lock must keep chunk
        state consistent."""
        backend = MemBackend()
        cfg = CRFSConfig(chunk_size=4 * KiB, pool_size=64 * KiB, io_threads=4)
        region = 10_000
        nthreads = 6
        with CRFS(backend, cfg) as fs:
            def writer(i):
                f = fs.open("/shared")
                for j in range(10):
                    f.pwrite(bytes([i]) * 1000, i * region + j * 1000)
                f.close()

            threads = [threading.Thread(target=writer, args=(i,)) for i in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        data = backend.read_file("/shared")
        for i in range(nthreads):
            assert data[i * region : i * region + 10_000] == bytes([i]) * 10_000

    def test_rapid_mount_unmount_cycles(self):
        backend = MemBackend()
        for cycle in range(10):
            cfg = CRFSConfig(chunk_size=4 * KiB, pool_size=16 * KiB, io_threads=2)
            with CRFS(backend, cfg) as fs:
                with fs.open(f"/cycle{cycle}") as f:
                    f.write(b"data" * 100)
        assert len(backend.listdir("/")) == 10

    def test_queue_stress_many_producers(self):
        from repro.core.workqueue import QueueClosed, WorkQueue
        from repro.pipeline.tenancy import DEFAULT_TENANT
        from repro.pipeline.writeback import contiguous

        q = WorkQueue(quotas={DEFAULT_TENANT: 8})  # producers block
        produced, consumed = [], []
        lock = threading.Lock()

        def producer(i):
            for j in range(50):
                q.put((i, j))
                with lock:
                    produced.append((i, j))

        def consumer():
            while True:
                try:
                    (item,) = q.get_batch(1, contiguous)
                except QueueClosed:
                    return
                with lock:
                    consumed.append(item)

        consumers = [threading.Thread(target=consumer) for _ in range(3)]
        producers = [threading.Thread(target=producer, args=(i,)) for i in range(4)]
        for t in consumers + producers:
            t.start()
        for t in producers:
            t.join()
        q.close()
        for t in consumers:
            t.join()
        assert sorted(consumed) == sorted(produced)
        assert len(consumed) == 200
