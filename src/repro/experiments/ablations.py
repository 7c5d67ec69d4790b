"""Design ablations (paper Section V-B and the design's alternatives).

Four studies the paper argues from without tabulating them, each with
its expected shape as checks:

* **IO threads** — "4 IO threads generally yield the best throughput
  for most of the situations... too many IO threads tend to generate
  high level of contentions..., while too few IO threads cannot unleash
  the full potentials of the filesystem" (Section V-B): LU.C.128
  through CRFS over ext3 and Lustre at 1..16 IO threads (1, 2, 4 with
  ``--fast``).  The sweep is flat past 4: the 16 MiB pool holds four
  4 MiB chunks, so at most four chunk writes are ever in flight and
  the 8- and 16-thread cells read the 4-thread time exactly — the
  contention the paper saw with too many threads cannot show at this
  pool size.
* **Chunk size** — the paper picks 4 MiB chunks off the raw-bandwidth
  sweep (Fig 5); here the choice is checked end to end: LU.C.128 at
  256 KiB..4 MiB chunks (16 MiB pool, 4 IO threads).  Bigger chunks
  amortise per-op costs, with diminishing returns.
* **Elevator** — would the disk's elevator have saved native ext3 from
  its seek-heavy writeback (Fig 10a)?  One node of LU.C.64 under FIFO
  and C-LOOK: the elevator recovers some sequentiality, but the
  fragmentation is allocation-level (interleaved reservation windows),
  so native stays far behind CRFS's contiguous chunks under either.
* **Write-through** — route writes of >= 1 MiB straight to the backend
  instead of aggregating everything, on the threaded plane over a
  backend with per-write latency: it saves the big region writes'
  chunk copies but gives up their asynchrony.
"""

from __future__ import annotations

import time

from ..backends import FaultRule, FaultyBackend, MemBackend
from ..checkpoint.sizedist import WriteSizeDistribution
from ..config import DEFAULT_CONFIG, CRFSConfig
from ..core import CRFS
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio import Ext3Filesystem
from ..simio.params import DEFAULT_HW
from ..units import KiB, MiB
from ..util.rng import rng_for
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED, run_cell

PAPER = {
    "narrative": "4 IO threads generally yield the best throughput (Section V-B); "
    "4 MiB chunks; aggregate every write"
}

THREADS = (1, 2, 4, 8, 16)
#: ``--fast``: the cells past 4 repeat the 4-thread time (see above).
FAST_THREADS = (1, 2, 4)
CHUNKS = (256 * KiB, 1 * MiB, 4 * MiB)
FILESYSTEMS = ("ext3", "lustre")
SCHEDULERS = ("fifo", "elevator")


def checkpoint_time(fs: str, seed: int, io_threads: int = 4, chunk_size: int = 4 * MiB) -> float:
    """Average local checkpoint time of LU.C.128 through CRFS."""
    return run_cell(
        "MVAPICH2", "C", fs, use_crfs=True, seed=seed, io_threads=io_threads,
        chunk_size=chunk_size,
    ).avg_local_time


def elevator_node(scheduler: str, use_crfs: bool) -> tuple[float, float]:
    """(average checkpoint time, disk busy seconds) of one LU.C.64 node:
    8 ranks' BLCR streams, each synced to the disk after its close."""
    sim, hw = Simulator(), DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    # The same RNG streams under both schedulers: only the request
    # order at the disk differs.
    fs = Ext3Filesystem(
        sim, hw, rng_for(3, f"elev/{use_crfs}"), membus, app_memory=8 * 23_000_000
    )
    fs.disk.scheduler = scheduler
    crfs = SimCRFS(sim, hw, DEFAULT_CONFIG, fs, membus) if use_crfs else None
    times: list[float] = []

    def rank(sizes: list[int], r: int):
        target = crfs or fs
        f = target.open(f"/ckpt{r}")
        t0 = sim.now
        for size in sizes:
            yield from target.write(f, size)
        yield from target.close(f)
        times.append(sim.now - t0)
        # Writeback onto the disk, so busy time compares.
        yield from fs.cache.sync_stream(f.stream if crfs is None else f.backend_file.stream)

    dist = WriteSizeDistribution()
    sim.run_until_complete(
        [sim.spawn(rank(dist.plan(23_000_000, rng_for(3, f"elev/{r}")), r)) for r in range(8)]
    )
    return sum(times) / len(times), fs.disk.busy_time


def write_through_stream(threshold: int) -> dict[str, float]:
    """A BLCR-like stream through the threaded mount over a backend with
    0.5 ms per write: writer-visible time, bytes written through, chunks."""
    sizes = WriteSizeDistribution().plan(6_000_000, rng_for(5, "wt-bench"))
    blobs = {s: b"w" * s for s in set(sizes)}
    backend = FaultyBackend(
        MemBackend(), [FaultRule(op="pwrite", nth=1, every=True, delay=0.0005)]
    )
    config = CRFSConfig(MiB, 8 * MiB, io_threads=4, write_through_threshold=threshold)
    with CRFS(backend, config) as fs:
        t0 = time.perf_counter()
        with fs.open("/ckpt") as f:
            for size in sizes:
                f.write(blobs[size])
        elapsed = time.perf_counter() - t0
        stats = fs.stats()
    return {
        "time": elapsed,
        "write_through_bytes": stats["write_through_bytes"],
        "chunks": stats["chunks_written"],
    }


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    swept = FAST_THREADS if fast else THREADS
    threads = {
        fs: {n: checkpoint_time(fs, seed, io_threads=n) for n in swept} for fs in FILESYSTEMS
    }
    chunks = {
        fs: {c: checkpoint_time(fs, seed, chunk_size=c) for c in CHUNKS} for fs in FILESYSTEMS
    }
    # The elevator and write-through studies replay the fixed streams
    # their thresholds were set on.
    elevator = {(s, crfs): elevator_node(s, crfs) for s in SCHEDULERS for crfs in (False, True)}
    streams = {
        "aggregate-all": write_through_stream(0),
        "write-through>=1M": write_through_stream(MiB),
    }

    t_threads = TextTable(
        ["fs", *map(str, swept)],
        title="CRFS checkpoint time (s) vs IO-thread count, LU.C.128",
    )
    t_chunks = TextTable(
        ["fs", *(f"{c // KiB}K" if c < MiB else f"{c // MiB}M" for c in CHUNKS)],
        title="CRFS checkpoint time (s) vs chunk size, LU.C.128",
    )
    for fs in FILESYSTEMS:
        t_threads.add_row([fs, *(f"{threads[fs][n]:.2f}" for n in swept)])
        t_chunks.add_row([fs, *(f"{chunks[fs][c]:.2f}" for c in CHUNKS)])
    t_elevator = TextTable(
        ["scheduler", "native ckpt (s)", "native disk busy (s)", "CRFS ckpt (s)",
         "CRFS disk busy (s)"],
        title="Disk scheduler vs allocation contiguity (LU.C.64, one node)",
    )
    for s in SCHEDULERS:
        cells = [f"{v:.2f}" for crfs in (False, True) for v in elevator[(s, crfs)]]
        t_elevator.add_row([s, *cells])
    t_streams = TextTable(
        ["mode", "writer time (ms)", "chunks", "direct bytes"],
        title="Aggregate every write vs write-through >= 1 MiB (threaded plane)",
    )
    for mode, r in streams.items():
        t_streams.add_row([mode, f"{r['time'] * 1e3:.1f}", str(r["chunks"]),
                           str(r["write_through_bytes"])])

    def best(row: dict) -> float:
        return min(row.values())

    agg, wt = streams["aggregate-all"], streams["write-through>=1M"]
    native = {s: elevator[(s, False)] for s in SCHEDULERS}
    checks = [
        Check(
            "IO threads: one thread is never the best choice (ext3, Lustre)",
            all(threads[fs][1] >= best(threads[fs]) for fs in FILESYSTEMS),
            ", ".join(f"{fs} 1 thread {threads[fs][1]:.2f}s" for fs in FILESYSTEMS),
        ),
        Check(
            "IO threads: the paper's 4 is within 25% of the sweep's best",
            all(threads[fs][4] <= best(threads[fs]) * 1.25 for fs in FILESYSTEMS),
            ", ".join(f"{fs} {threads[fs][4]:.2f}s vs best {best(threads[fs]):.2f}s"
                      for fs in FILESYSTEMS),
        ),
        Check(
            "chunk size: the paper's 4 MiB is within 30% of the sweep's best",
            all(chunks[fs][4 * MiB] <= best(chunks[fs]) * 1.3 for fs in FILESYSTEMS),
            ", ".join(f"{fs} {chunks[fs][4 * MiB]:.2f}s vs best {best(chunks[fs]):.2f}s"
                      for fs in FILESYSTEMS),
        ),
        Check(
            "elevator: C-LOOK cuts native ext3's disk busy time",
            native["elevator"][1] <= native["fifo"][1],
            f"{native['fifo'][1]:.2f}s FIFO -> {native['elevator'][1]:.2f}s C-LOOK",
        ),
        Check(
            "elevator: CRFS still wins the checkpoint time under either scheduler",
            all(elevator[(s, True)][0] < elevator[(s, False)][0] for s in SCHEDULERS),
            ", ".join(f"{s} {elevator[(s, True)][0]:.2f}s vs {elevator[(s, False)][0]:.2f}s"
                      for s in SCHEDULERS),
        ),
        Check(
            "write-through engaged for the big region writes (> 2 MB direct)",
            wt["write_through_bytes"] > 2_000_000,
            f"{wt['write_through_bytes']} bytes written through",
        ),
        Check(
            "aggregate-all writes nothing through",
            agg["write_through_bytes"] == 0,
            f"{agg['write_through_bytes']} bytes",
        ),
        Check(
            "write-through cuts the chunk traffic",
            wt["chunks"] < agg["chunks"],
            f"{wt['chunks']} vs {agg['chunks']} chunks",
        ),
    ]
    return ExperimentResult(
        name="ablations",
        title="Design ablations: IO threads, chunk size, elevator, write-through",
        table="\n\n".join(t.render() for t in (t_threads, t_chunks, t_elevator, t_streams)),
        measured={
            "io_threads": threads,
            "chunk_size": chunks,
            "elevator": {f"{s}/{'crfs' if c else 'native'}": v for (s, c), v in elevator.items()},
            "write_through": streams,
        },
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
