"""Restart performance (paper Section V-F).

"CRFS forwards every read request to the back-end filesystem, and does
not impose any additional overhead on file reads...  In our experiments,
we did not observe any noticeable improvement in the application restart
time when CRFS is mounted atop an underlying filesystem."

The reproduction restarts LU.C.64 (8 nodes x 8 ranks reading their
checkpoint images from ext3) with and without a CRFS mount in the read
path, and checks the two are within a few percent — the claim is the
*absence* of a difference.

A third arm mounts CRFS with the restart readahead cache on (this
repo's read-plane extension, off by default).  On the ext3 rig the disk
is the single bottleneck and 8 ranks already keep it saturated, so
readahead must be close to harmless here — its win lives on staged
backends like NFS (see the ``restart_readahead`` arm of the workload table); this
arm checks the no-harm bound.
"""

from __future__ import annotations

from ..checkpoint.sizedist import WriteSizeDistribution
from ..config import DEFAULT_CONFIG, CRFSConfig
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio import Ext3Filesystem
from ..simio.params import DEFAULT_HW
from ..util.rng import rng_for
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {"narrative": "no noticeable difference in restart time with CRFS mounted"}

#: BLCR restarts read images in large sequential chunks.
_READ_SIZE = 1 << 20


#: The readahead arm's config: the default pipeline with the restart
#: cache switched on (4 cached chunks, 2 prefetched ahead).
_READAHEAD_CONFIG = CRFSConfig(read_cache_chunks=4, readahead_chunks=2)


def _run_restart(mode: str, seed: int) -> float:
    """Average per-rank restart (read) time for LU.C.64 on ext3.

    ``mode``: "native" (no CRFS), "crfs" (passthrough reads, the paper's
    configuration), or "crfs_readahead" (the restart cache on).
    """
    sim = Simulator()
    hw = DEFAULT_HW
    image = int(23e6)
    dist = WriteSizeDistribution()
    times: list[float] = []
    procs = []
    for node in range(8):
        membus = SharedBandwidth(sim, hw.membus_bandwidth)
        fs = Ext3Filesystem(
            sim, hw, rng_for(seed, f"restart/node{node}"), membus,
            app_memory=0, node=f"node{node}",
        )
        if mode == "native":
            crfs = None
        else:
            config = _READAHEAD_CONFIG if mode == "crfs_readahead" else DEFAULT_CONFIG
            crfs = SimCRFS(sim, hw, config, fs, membus)
        for rank in range(8):
            def proc(fs=fs, crfs=crfs, node=node, rank=rank):
                t0 = sim.now
                remaining = image
                if crfs is not None:
                    # size=image: the cache clamps its window at EOF for
                    # a file CRFS never wrote (restart-only mount)
                    f = crfs.open(f"/ckpt/rank{node}_{rank}.img", size=image)
                    while remaining > 0:
                        take = min(_READ_SIZE, remaining)
                        yield from crfs.read(f, take)
                        remaining -= take
                else:
                    f = fs.open(f"/ckpt/rank{node}_{rank}.img")
                    while remaining > 0:
                        take = min(_READ_SIZE, remaining)
                        yield from fs.read(f, take)
                        remaining -= take
                times.append(sim.now - t0)
            procs.append(sim.spawn(proc(), f"r{node}.{rank}"))
    sim.run_until_complete(procs)
    return sum(times) / len(times)


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    native = _run_restart("native", seed=seed)
    crfs = _run_restart("crfs", seed=seed)
    readahead = _run_restart("crfs_readahead", seed=seed)
    delta_pct = 100.0 * (crfs - native) / native
    ra_delta_pct = 100.0 * (readahead - native) / native

    table = TextTable(
        ["mode", "avg restart read time (s)"],
        title="Restart reproduction: LU.C.64 images read back from ext3",
    )
    table.add_row(["native ext3", f"{native:.2f}"])
    table.add_row(["ext3 + CRFS mounted", f"{crfs:.2f}"])
    table.add_row(["difference", f"{delta_pct:+.1f}%"])
    table.add_row(["ext3 + CRFS, readahead on", f"{readahead:.2f}"])
    table.add_row(["difference vs native", f"{ra_delta_pct:+.1f}%"])

    checks = [
        Check(
            "no noticeable restart difference with CRFS mounted",
            abs(delta_pct) < 10.0,
            f"{delta_pct:+.1f}% (paper: none observed)",
        ),
        Check(
            "CRFS does not *improve* restart (pure passthrough)",
            crfs >= native * 0.98,
            f"CRFS {crfs:.2f}s vs native {native:.2f}s",
        ),
        Check(
            "readahead is harmless on the disk-bound ext3 rig",
            readahead <= crfs * 1.10,
            f"readahead {readahead:.2f}s vs passthrough {crfs:.2f}s "
            "(the win lives on staged backends; see restart_readahead)",
        ),
    ]
    return ExperimentResult(
        name="restart",
        title="Restart: CRFS read passthrough (Section V-F)",
        table=table.render(),
        measured={
            "native_s": native,
            "crfs_s": crfs,
            "readahead_s": readahead,
            "delta_pct": delta_pct,
            "readahead_delta_pct": ra_delta_pct,
        },
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
