"""Scenario execution on the sim plane.

One scenario run produces one metric block (see
:data:`~repro.perf.schema.REQUIRED_METRICS`): goodput, write/chunk
latency percentiles off the pipeline's event log, chunk counts, drain time
from the stats registry's ``drain`` section, copy counts from its
``mem`` section, and the full ``stats()`` snapshot.

Each run drives :class:`~repro.simcrfs.SimCRFS` over a
:class:`~repro.simio.nullfs.NullSimFilesystem` (paper Fig 5's rig: raw
aggregation, no backend noise) — or, per scenario, the shared-server
:class:`~repro.simio.nfs.NFSFilesystem` model whose staged read path
the restart readahead pipelines — on the virtual clock; every number is
a pure function of (code, seed).  The threaded plane's wall clock is
timed by ``bench/``, not here.
"""

from __future__ import annotations

from typing import Any

from ..pipeline import ChunkWritten, EventLog, WriteObserved
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio.faulty import FaultySimFilesystem
from ..simio.lustre import LustreFilesystem, LustreServers
from ..simio.nfs import NFSFilesystem, NFSServer
from ..simio.nullfs import NullSimFilesystem
from ..simio.params import DEFAULT_HW
from ..simio.tiered import TieredSimFilesystem
from ..units import MiB
from ..util.rng import rng_for
from ..util.stats import nearest_rank as percentile
from ..workloads import LLMCadenceWorkload
from .scenarios import Scenario, default_scenarios

__all__ = ["percentile", "run_scenario_sim", "run_suite"]


def _metrics(
    total_bytes: int,
    nwrites: int,
    elapsed: float,
    log: EventLog,
    stats: dict[str, Any],
    restore_marks: list[tuple[float, float]],
) -> dict[str, Any]:
    writes = [e.duration for e in log.of(WriteObserved)]
    chunks = [e.duration for e in log.of(ChunkWritten) if e.error is None]
    mem = stats["mem"]
    out = {
        "bytes_in": total_bytes,
        "writes": nwrites,
        "elapsed_s": elapsed,
        "goodput_mib_s": (total_bytes / MiB) / elapsed if elapsed > 0 else 0.0,
        "write_latency_p50_s": percentile(writes, 50),
        "write_latency_p95_s": percentile(writes, 95),
        "chunk_write_p50_s": percentile(chunks, 50),
        "chunk_write_p95_s": percentile(chunks, 95),
        "chunks_queued": stats["queue"]["puts"],
        "chunks_written": stats["chunks_written"],
        "drain_waits": stats["drain"]["waits"],
        "drain_time_s": stats["drain"]["time_total"],
        # Copy accounting (DESIGN.md §3k), promoted from the snapshot.
        "bytes_copied": mem["bytes_copied"],
        "copies": mem["copies"],
        "copy_ratio": mem["bytes_copied"] / total_bytes if total_bytes > 0 else 0.0,
        "stats": stats,
    }
    if restore_marks:
        # Read-back scenarios: time-to-last-restore (first restart to
        # last byte delivered) and the slowest single rank's restore.
        # Extra keys beside REQUIRED_METRICS — recorded in the artifact,
        # gated by the perfbench ablation checks rather than compare.
        starts = [t0 for t0, _ in restore_marks]
        ends = [t1 for _, t1 in restore_marks]
        out["restore_span_s"] = max(ends) - min(starts)
        out["restore_latency_max_s"] = max(t1 - t0 for t0, t1 in restore_marks)
    return out


def _delta_workload(scenario: Scenario, fast: bool) -> LLMCadenceWorkload | None:
    """The LLM cadence schedule for a delta scenario (None otherwise).

    One source of truth for the dirty-chunk draws: the runner and the
    experiments replay the same ``rng_for``-derived schedule, so the
    delta stats section is a pure function of (scenario, seed)."""
    if scenario.delta_generations <= 0:
        return None
    return LLMCadenceWorkload(
        shards=scenario.nwriters,
        shard_bytes=scenario.image_for(0, fast),
        iterations=scenario.delta_generations,
        dirty_fraction=scenario.delta_dirty_fraction,
    )


def run_scenario_sim(scenario: Scenario, seed: int, fast: bool = False) -> dict[str, Any]:
    """One scenario on the virtual clock; noise-free metrics."""
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    rng = rng_for(seed, f"perf/{scenario.name}/backend")
    if scenario.sim_backend == "nfs":
        backend = NFSFilesystem(sim, hw, rng, membus, NFSServer(sim, hw))
    elif scenario.sim_backend == "lustre":
        backend = LustreFilesystem(
            sim, hw, rng, membus, LustreServers(sim, hw), app_memory=0
        )
    elif scenario.sim_backend == "tiered_nfs":
        deep_rng = rng_for(seed, f"perf/{scenario.name}/backend-deep")
        backend = TieredSimFilesystem(
            [
                NullSimFilesystem(sim, hw, rng),
                NFSFilesystem(sim, hw, deep_rng, membus, NFSServer(sim, hw)),
            ]
        )
    else:
        backend = NullSimFilesystem(sim, hw, rng)
    rules = scenario.fault_rules()
    if rules:
        backend = FaultySimFilesystem(backend, rules)
    log = EventLog()
    crfs = SimCRFS(sim, hw, scenario.config, backend, membus, observers=(log,))

    cadence = _delta_workload(scenario, fast)
    workloads = [
        [] if cadence else scenario.sizes(seed, i, fast)
        for i in range(scenario.nwriters)
    ]
    restore_marks: list[tuple[float, float]] = []

    def delta_writer(index: int):
        path = scenario.path(index)
        nbytes = scenario.image_for(index, fast)
        cs = scenario.config.chunk_size
        for gen in range(scenario.delta_generations):
            dirty = cadence.dirty_chunks(seed, index, gen, cs)
            yield from crfs.delta_checkpoint(path, nbytes, dirty)
        t0 = sim.now
        yield from crfs.delta_restore(path)
        restore_marks.append((t0, sim.now))

    def writer(index: int):
        f = crfs.open(scenario.path(index))
        for n, size in enumerate(workloads[index], start=1):
            yield from crfs.write(f, size)
            if scenario.fsync_every and n % scenario.fsync_every == 0:
                yield from crfs.fsync(f)
        if scenario.read_request:
            # Restart phase: settle the checkpoint (restart never
            # overlaps writeback), then re-read the image sequentially
            # through the same handle (the planner's append point sizes
            # the file).
            yield from crfs.fsync(f)
            crfs.seek(f, 0)
            t0 = sim.now
            image, done = sum(workloads[index]), 0
            while done < image:
                n = min(scenario.read_request, image - done)
                yield from crfs.read(f, n)
                done += n
                if scenario.read_think_s > 0.0:
                    # Restore work per request (CRIU-style page
                    # injection) — the latency prefetch overlaps.
                    yield sim.timeout(scenario.read_think_s)
            restore_marks.append((t0, sim.now))
        yield from crfs.close(f)

    make_writer = delta_writer if cadence is not None else writer
    procs = [
        sim.spawn(make_writer(i), name=f"perf-{scenario.name}-w{i}")
        for i in range(scenario.nwriters)
    ]
    sim.run_until_complete(procs)
    # Writers finish at tier-0 completion time — that is the number the
    # staging hierarchy exists to shrink, so `elapsed` is captured here;
    # the pump then drains (in virtual time past `elapsed`) so the
    # stats snapshot reports the settled tier counters.
    elapsed = sim.now
    if crfs.staging is not None:
        sim.run_until_complete(
            [sim.spawn(crfs.drain_staging(), name="pump-drain")]
        )
    crfs.shutdown()
    stats = crfs.stats()
    if cadence is not None:
        # Delta mode has no precomputed write stream: the bytes the
        # pipeline accepted (dirty extents only) are the workload.
        total_bytes, nwrites = stats["bytes_in"], stats["writes"]
    else:
        total_bytes = sum(sum(w) for w in workloads)
        nwrites = sum(len(w) for w in workloads)
    return _metrics(
        total_bytes=total_bytes,
        nwrites=nwrites,
        elapsed=elapsed,
        log=log,
        stats=stats,
        restore_marks=restore_marks,
    )


def run_suite(
    seed: int,
    fast: bool = False,
    scenario_names: list[str] | None = None,
) -> dict[str, dict[str, Any]]:
    """Run the scenario set: ``{scenario: metrics}``."""
    return {s.name: run_scenario_sim(s, seed, fast) for s in default_scenarios(scenario_names)}
