"""Tests for the timing-plane read path (restart) and file-affine
scheduling — the Section V-F and Section VII extensions."""


from repro.config import CRFSConfig
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio import (
    Ext3Filesystem,
    LustreFilesystem,
    LustreServers,
    NFSFilesystem,
    NFSServer,
)
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.units import MiB
from repro.util.rng import rng_for


def make_sim():
    sim = Simulator()
    membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
    return sim, membus


def run_reader(sim, fs, total, chunk=1 * MiB, path="/ckpt"):
    def proc():
        f = fs.open(path)
        t0 = sim.now
        remaining = total
        while remaining > 0:
            take = min(chunk, remaining)
            yield from fs.read(f, take)
            remaining -= take
        return sim.now - t0

    p = sim.spawn(proc())
    sim.run_until_complete([p])
    return p.result


class TestExt3Read:
    def test_read_takes_disk_time(self):
        sim, membus = make_sim()
        fs = Ext3Filesystem(sim, DEFAULT_HW, rng_for(1, "r"), membus)
        t = run_reader(sim, fs, 16 * MiB)
        # at least the streaming transfer time
        assert t >= 16 * MiB / DEFAULT_HW.disk_bandwidth * 0.9

    def test_readahead_issues_large_disk_reads(self):
        sim, membus = make_sim()
        fs = Ext3Filesystem(sim, DEFAULT_HW, rng_for(1, "r"), membus)
        run_reader(sim, fs, 4 * MiB, chunk=4096)  # many small reads
        reads = [t for t in fs.disk.trace if t.kind == "R"]
        assert len(reads) == 4 * MiB // DEFAULT_HW.readahead_window
        assert fs.total_reads == 4 * MiB // 4096

    def test_sequential_reads_mostly_seek_free(self):
        sim, membus = make_sim()
        fs = Ext3Filesystem(sim, DEFAULT_HW, rng_for(1, "r"), membus)
        run_reader(sim, fs, 8 * MiB)
        # one initial seek, then streaming
        assert fs.disk.seeks <= 1


class TestNFSLustreRead:
    def test_nfs_read_crosses_the_wire(self):
        sim, membus = make_sim()
        server = NFSServer(sim, DEFAULT_HW)
        fs = NFSFilesystem(sim, DEFAULT_HW, rng_for(1, "r"), membus, server)
        run_reader(sim, fs, 4 * MiB)
        assert server.link.total_bytes >= 4 * MiB
        assert server.disk.total_bytes >= 4 * MiB

    def test_lustre_read_stripes_over_osts(self):
        sim, membus = make_sim()
        servers = LustreServers(sim, DEFAULT_HW)
        fs = LustreFilesystem(sim, DEFAULT_HW, rng_for(1, "r"), membus, servers)
        run_reader(sim, fs, 12 * MiB)
        assert all(d.total_bytes > 0 for d in servers.osts)


class TestCRFSReadPassthrough:
    def test_crfs_read_equals_backend_read_plus_fuse(self):
        sim, membus = make_sim()
        fs = Ext3Filesystem(sim, DEFAULT_HW, rng_for(1, "r"), membus)
        crfs = SimCRFS(sim, DEFAULT_HW, CRFSConfig(), fs, membus)

        def proc():
            f = crfs.open("/ckpt")
            t0 = sim.now
            yield from crfs.read(f, 8 * MiB)
            return sim.now - t0

        p = sim.spawn(proc())
        sim.run_until_complete([p])
        t_crfs = p.result

        sim2, membus2 = make_sim()
        fs2 = Ext3Filesystem(sim2, DEFAULT_HW, rng_for(1, "r"), membus2)
        t_native = run_reader(sim2, fs2, 8 * MiB, chunk=8 * MiB)
        # passthrough: only the FUSE request overhead on top
        assert t_crfs >= t_native
        assert t_crfs <= t_native * 1.10


class TestFileAffinity:
    def _run(self, affine):
        sim, membus = make_sim()
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "a"),
                                    op_cost=0.05)
        # big pool + slow backend: a deep backlog builds up, so the IO
        # threads' scheduling policy actually has choices to make
        cfg = CRFSConfig(pool_size=256 * MiB)
        crfs = SimCRFS(sim, DEFAULT_HW, cfg, backend, membus,
                       file_affine=affine)
        finish = {}
        procs = []
        # more files than IO threads, so scheduling policy matters
        for i in range(8):
            def proc(i=i):
                f = crfs.open(f"/f{i}")
                for _ in range(8):
                    yield from crfs.write(f, 4 * MiB)
                yield from crfs.close(f)
                finish[i] = sim.now
            procs.append(sim.spawn(proc(), f"w{i}"))
        sim.run_until_complete(procs)
        return finish, crfs

    def test_affine_writes_all_data(self):
        finish, crfs = self._run(affine=True)
        assert crfs.stats()["bytes_out"] == 8 * 8 * 4 * MiB
        assert len(finish) == 8

    def test_affine_and_fifo_same_totals(self):
        _, crfs_a = self._run(affine=True)
        _, crfs_f = self._run(affine=False)
        a, f = crfs_a.stats(), crfs_f.stats()
        assert (a["bytes_out"], a["chunks_written"]) == (f["bytes_out"], f["chunks_written"])

    def test_affinity_staggers_completions(self):
        finish_a, _ = self._run(affine=True)
        finish_f, _ = self._run(affine=False)
        spread_a = max(finish_a.values()) - min(finish_a.values())
        spread_f = max(finish_f.values()) - min(finish_f.values())
        # affine scheduling finishes files one after another (wide spread);
        # FIFO finishes them together (narrow spread)
        assert spread_a > spread_f
