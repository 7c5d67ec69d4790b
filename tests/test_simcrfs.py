"""Tests for the timing-plane CRFS model: FUSE splitting, pipeline
semantics, backpressure, drain-on-close."""

import pytest

from repro.config import CRFSConfig
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS, fuse_requests
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.units import KiB, MiB
from repro.util.rng import rng_for


class TestFuseRequests:
    def test_small_write_one_request(self):
        assert list(fuse_requests(1000, 128 * KiB)) == [1000]

    def test_exact_multiple(self):
        assert list(fuse_requests(256 * KiB, 128 * KiB)) == [128 * KiB, 128 * KiB]

    def test_remainder(self):
        assert list(fuse_requests(300 * KiB, 128 * KiB)) == [
            128 * KiB,
            128 * KiB,
            44 * KiB,
        ]

    def test_zero_write_still_round_trips(self):
        assert list(fuse_requests(0, 128 * KiB)) == [0]

    def test_bad_max_rejected(self):
        with pytest.raises(ValueError):
            list(fuse_requests(100, 0))

    def test_conservation(self):
        for n in (1, 127, 128 * KiB, 999_999, 5 * MiB):
            assert sum(fuse_requests(n, 128 * KiB)) == n


def make_crfs(config=None, backend_cls=NullSimFilesystem):
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = backend_cls(sim, hw, rng_for(1, "b"))
    crfs = SimCRFS(sim, hw, config or CRFSConfig(), backend, membus)
    return sim, crfs, backend


class TestSimCRFSPipeline:
    def test_write_close_accounts_all_bytes(self):
        sim, crfs, backend = make_crfs()

        def proc():
            f = crfs.open("/f")
            for _ in range(10):
                yield from crfs.write(f, 1 * MiB)
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        assert crfs.stats()["bytes_out"] == 10 * MiB
        assert backend.total_bytes == 10 * MiB

    def test_chunks_sealed_at_chunk_size(self):
        cfg = CRFSConfig(chunk_size=1 * MiB, pool_size=4 * MiB)
        sim, crfs, backend = make_crfs(cfg)

        def proc():
            f = crfs.open("/f")
            yield from crfs.write(f, 3 * MiB + 512 * KiB)
            yield from crfs.close(f)
            return f

        p = sim.spawn(proc())
        sim.run_until_complete([p])
        f = p.result
        assert f.pipeline.write_chunk_count == 4  # 3 full + 1 flush
        assert f.pipeline.complete_chunk_count == 4

    def test_close_waits_for_drain(self):
        sim, crfs, backend = make_crfs()

        def proc():
            f = crfs.open("/f")
            yield from crfs.write(f, 8 * MiB)
            yield from crfs.close(f)
            # Section IV-C: after close, counts must match
            assert f.pipeline.drained
            return f.pipeline.complete_chunk_count

        p = sim.spawn(proc())
        sim.run_until_complete([p])
        assert p.result == 2  # two 4 MiB chunks

    def test_pool_backpressure_with_slow_backend(self):
        # backend so slow that the pool (4 chunks) must stall the writer
        class SlowNull(NullSimFilesystem):
            def _write(self, f, nbytes):
                yield self.sim.timeout(0.1)

        sim, crfs, backend = make_crfs(backend_cls=SlowNull)

        def proc():
            f = crfs.open("/f")
            t0 = sim.now
            yield from crfs.write(f, 40 * MiB)  # 10 chunks through a 4-chunk pool
            return sim.now - t0

        p = sim.spawn(proc())
        sim.run_until_complete([p])
        # with 4 io threads at 0.1s/chunk, 10 chunks -> >= 2 waves of stall
        assert p.result >= 0.1

    def test_fsync_drains(self):
        sim, crfs, backend = make_crfs()

        def proc():
            f = crfs.open("/f")
            yield from crfs.write(f, 1 * MiB)  # partial chunk
            yield from crfs.fsync(f)
            return f

        p = sim.spawn(proc())
        sim.run_until_complete([p])
        assert p.result.pipeline.drained
        assert backend.total_bytes == 1 * MiB

    def test_multiple_files_interleaved(self):
        sim, crfs, backend = make_crfs()

        def proc(i):
            f = crfs.open(f"/f{i}")
            for _ in range(5):
                yield from crfs.write(f, 1 * MiB)
            yield from crfs.close(f)
            return f.pipeline.complete_chunk_count

        procs = [sim.spawn(proc(i)) for i in range(4)]
        results = sim.run_until_complete(procs)
        assert backend.total_bytes == 20 * MiB
        assert all(r >= 2 for r in results)

    def test_backend_file_marked_bulk(self):
        sim, crfs, backend = make_crfs()
        f = crfs.open("/f")
        assert f.backend_file.bulk_writer

    def test_shutdown_stops_io_threads(self):
        sim, crfs, backend = make_crfs()

        def proc():
            f = crfs.open("/f")
            yield from crfs.write(f, 4 * MiB)
            yield from crfs.close(f)

        sim.run_until_complete([sim.spawn(proc())])
        crfs.shutdown()
        sim.run()  # io threads exit cleanly; no deadlock error

    def test_empty_file_close(self):
        sim, crfs, backend = make_crfs()

        def proc():
            f = crfs.open("/empty")
            yield from crfs.close(f)
            return f.pipeline.write_chunk_count

        p = sim.spawn(proc())
        sim.run_until_complete([p])
        assert p.result == 0


class TestAggregationTiming:
    def test_aggregation_faster_than_native_medium_writes(self):
        """The headline mechanism: the same medium-write stream through
        CRFS (into a fast backend) beats writing natively."""
        from repro.simio import Ext3Filesystem

        def run(use_crfs):
            sim = Simulator()
            hw = DEFAULT_HW
            membus = SharedBandwidth(sim, hw.membus_bandwidth)
            fs = Ext3Filesystem(sim, hw, rng_for(1, "agg"), membus)
            crfs = SimCRFS(sim, hw, CRFSConfig(), fs, membus) if use_crfs else None
            procs = []
            for i in range(8):
                def proc(i=i):
                    tgt = crfs or fs
                    f = tgt.open(f"/f{i}")
                    t0 = sim.now
                    for _ in range(400):
                        yield from tgt.write(f, 8192)
                    yield from tgt.close(f)
                    return sim.now - t0
                procs.append(sim.spawn(proc()))
            return max(sim.run_until_complete(procs))

        t_native = run(False)
        t_crfs = run(True)
        assert t_crfs < t_native / 2
