"""The curated benchmark scenario set.

Each :class:`Scenario` pins one corner of the write path the harness
must keep honest:

* ``single_writer_seq`` — one rank streaming a BLCR-like (Table I)
  write mix; the baseline aggregation pipeline.
* ``concurrent_writers`` — N ranks into N files over an undersized
  pool and few IO threads: pool backpressure and queue contention.
* ``chunk_sweep_256k`` — the small-chunk sweep point (more seals per
  byte, planner- and handoff-bound; the left edge of paper Fig 5).
* ``fsync_heavy`` — periodic fsync forces flush+drain mid-stream, the
  latency-sensitive path (drain time dominates).
* ``degraded_retry`` — a bounded backend outage: retries back off,
  the circuit breaker trips, writes degrade to synchronous
  write-through, then the backend heals and the breaker recovers.
* ``batched_writeback`` — 4 ranks at 16 KiB chunks through one IO
  thread with ``writeback_batch_chunks=8``: contiguous queued runs
  coalesce into single vectored backend writes (the drain-stage gather).
* ``restart_readahead`` — write an image then read it back
  sequentially over the NFS model: the restart read plane, with the
  chunked readahead cache prefetching through the IO pool.
* ``restart_storm`` — 4 ranks restart concurrently over the striped
  Lustre model behind an adaptive readahead window configured as wide
  as the tight shared cache allows (current chunk + window = cache):
  every chunk is fetched once and the restore beats readahead-off on
  time-to-last-restore (``restore_span_s``) — as the static window at
  the same knob does (``perfbench`` gates both).
* ``tenant_storm`` — a storm tenant's oversized burst beside two
  reserved-pool victims through one IO thread: weighted DRR service,
  queue-quota admission control, per-tenant pool partitioning.
* ``tiered_staging`` — hierarchical staging over a mem → NFS chain:
  chunk writebacks complete at tier-0 (staging) speed while batch-aware
  background pumps migrate extents to the deep tier; writers finish at
  tier-0 completion time, the pump drains after.
* ``llm_cadence`` — the LLM trainer personality: two tensor-shard
  files checkpoint a deterministic dirty quarter of their chunks every
  iteration through the delta pipeline (generation 0 is a full dump),
  then each restore reassembles the current image across the
  generation chain through the readahead cache.
* ``zero_copy`` — one rank streaming the Table-I mix down the
  aggregation path with copy accounting as the headline metric: the
  sequential write path must pay exactly one copy per ingested byte
  (the ``Chunk.append`` snapshot), so ``bytes_copied == bytes_in``
  and the gate trips if any redundant materialization sneaks back in.

Workloads are derived from ``rng_for(seed, "perf/<scenario>/<writer>")``
so every writer's byte stream is a pure function of the seed — two runs
of the same scenario at the same seed execute identical write
sequences on either plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..backends.faulty import FaultRule
from ..checkpoint.sizedist import WriteSizeDistribution
from ..config import CRFSConfig, TenantSpec
from ..units import KiB, MiB
from ..util.rng import rng_for

__all__ = ["SCENARIOS", "Scenario", "default_scenarios"]

#: Fast, bounded backoff so the functional plane's retries sleep
#: microseconds, matching the resilience test suite's knobs.
_RETRY_KNOBS = dict(retry_backoff=1e-4, retry_backoff_max=1e-3, retry_jitter=0.0)


def _no_rules() -> list[FaultRule]:
    return []


def _outage_rules() -> list[FaultRule]:
    """A bounded outage: the first 6 backend pwrites fail, then the
    backend heals.  Fresh rule objects per run — the schedule counts
    per instance."""
    return [
        FaultRule(op="pwrite", nth=1, every=True, until=6, error=OSError("EIO"))
    ]


@dataclass(frozen=True)
class Scenario:
    """One benchmark scenario, identical on both planes."""

    name: str
    description: str
    config: CRFSConfig
    nwriters: int = 1
    #: Bytes per writer (full / --fast runs).
    image_size: int = 8 * MiB
    fast_image_size: int = 1 * MiB
    #: fsync after every k writes (0 = only the implicit close drain).
    fsync_every: int = 0
    #: Restart read-back: after its write phase each writer seeks to 0
    #: and re-reads its image sequentially in requests of this size
    #: (0 = write-only scenario).
    read_request: int = 0
    #: Per-read restore work on the sim plane, in virtual seconds (the
    #: CRIU-style page-injection time readahead overlaps with the next
    #: fetch); the real plane never sleeps for it.
    read_think_s: float = 0.0
    #: Sim-plane backing filesystem: "null" (Fig-5 rig, raw aggregation),
    #: "nfs" (the shared-server NFSv3 model, whose staged read path —
    #: link, server CPU, disk — readahead can pipeline), "lustre" (the
    #: striped multi-OST model with per-request seek latency, the rig
    #: where prefetch pipelining is physical), or "tiered_nfs" (a null
    #: staging tier over the NFS model, pumped in the background; the
    #: real plane mirrors it as mem → local dir).
    sim_backend: str = "null"
    #: Factory for the backend fault schedule (fresh rules per run).
    fault_rules: Callable[[], list[FaultRule]] = field(default=_no_rules)
    #: Per-writer target paths (multi-tenant scenarios route writers to
    #: tenants through the mount's fnmatch rules); empty = every writer
    #: gets the anonymous ``/rank<i>.img``.
    writer_paths: tuple[str, ...] = ()
    #: Per-writer image-size multipliers (a storm writer pushes a far
    #: bigger burst than its victims); empty = everyone writes
    #: ``image_size`` bytes.
    writer_scale: tuple[float, ...] = ()
    #: Incremental-checkpoint mode: > 0 turns each writer into an LLM
    #: cadence checkpointer committing this many generations of its
    #: shard through the delta pipeline, then restoring the image
    #: across the chain (replaces the write-stream workload).
    delta_generations: int = 0
    #: Fraction of the shard's chunks dirtied per post-zero generation
    #: (1.0 = every generation is a full rewrite — the ablation arm).
    delta_dirty_fraction: float = 1.0

    def path(self, writer: int) -> str:
        """The file this writer targets (tenant routing happens here)."""
        if self.writer_paths:
            return self.writer_paths[writer % len(self.writer_paths)]
        return f"/rank{writer}.img"

    def image_for(self, writer: int, fast: bool) -> int:
        """This writer's image size in bytes."""
        base = self.fast_image_size if fast else self.image_size
        if self.writer_scale:
            return int(base * self.writer_scale[writer % len(self.writer_scale)])
        return base

    def sizes(self, seed: int, writer: int, fast: bool) -> list[int]:
        """The writer's deterministic write-size stream."""
        rng = rng_for(seed, f"perf/{self.name}/writer{writer}")
        return WriteSizeDistribution().plan(self.image_for(writer, fast), rng)

    def total_bytes(self, fast: bool) -> int:
        return sum(self.image_for(i, fast) for i in range(self.nwriters))


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="single_writer_seq",
            description="one rank, Table-I write mix, default pipeline",
            config=CRFSConfig(chunk_size=1 * MiB, pool_size=8 * MiB, io_threads=4),
        ),
        Scenario(
            name="concurrent_writers",
            description="4 ranks, undersized pool: backpressure + contention",
            config=CRFSConfig(chunk_size=1 * MiB, pool_size=4 * MiB, io_threads=2),
            nwriters=4,
            image_size=4 * MiB,
            fast_image_size=512 * KiB,
        ),
        Scenario(
            name="chunk_sweep_256k",
            description="small-chunk sweep point: seal/handoff bound",
            config=CRFSConfig(
                chunk_size=256 * KiB, pool_size=4 * MiB, io_threads=4
            ),
        ),
        Scenario(
            name="fsync_heavy",
            description="fsync every 8 writes: flush+drain latency path",
            config=CRFSConfig(chunk_size=1 * MiB, pool_size=8 * MiB, io_threads=4),
            fsync_every=8,
            image_size=4 * MiB,
            # 512 KiB collapses to a single Table-I draw, so fsync_every
            # would never fire; 1 MiB keeps the drain path hot in --fast.
            fast_image_size=1 * MiB,
        ),
        Scenario(
            name="degraded_retry",
            description="bounded outage: retry, breaker trip, recovery",
            config=CRFSConfig(
                chunk_size=1 * MiB,
                pool_size=8 * MiB,
                io_threads=1,  # seal-order faults, like the faultsweep rows
                retry_attempts=8,
                breaker_threshold=3,
                **_RETRY_KNOBS,
            ),
            image_size=4 * MiB,
            fast_image_size=1 * MiB,
            fault_rules=_outage_rules,
        ),
        Scenario(
            name="batched_writeback",
            description="4 ranks, small chunks, coalesced writeback: "
            "contiguous runs issued as single vectored backend writes",
            config=CRFSConfig(
                chunk_size=16 * KiB,
                pool_size=4 * MiB,
                io_threads=1,
                writeback_batch_chunks=8,
            ),
            nwriters=4,
            image_size=4 * MiB,
            fast_image_size=1 * MiB,
        ),
        Scenario(
            name="restart_readahead",
            description="restart read-back over NFS: chunked readahead "
            "prefetched through the IO pool",
            config=CRFSConfig(
                chunk_size=512 * KiB,
                pool_size=8 * MiB,
                io_threads=4,
                read_cache_chunks=8,
                readahead_chunks=4,
            ),
            image_size=8 * MiB,
            fast_image_size=2 * MiB,
            read_request=256 * KiB,
            sim_backend="nfs",
        ),
        Scenario(
            name="restart_storm",
            description="4 ranks restart concurrently over the striped "
            "Lustre model through an adaptive window configured as wide "
            "as the tight shared cache allows: every chunk is fetched "
            "once",
            config=CRFSConfig(
                chunk_size=256 * KiB,
                pool_size=16 * 256 * KiB,  # 4 chunks per resident rank
                io_threads=2,
                read_cache_chunks=4,
                readahead_chunks=3,  # current chunk + window = cache 4
                readahead_adaptive=True,
            ),
            nwriters=4,
            image_size=4 * MiB,
            fast_image_size=2 * MiB,
            read_request=256 * KiB,
            read_think_s=0.02,
            sim_backend="lustre",
        ),
        Scenario(
            name="tenant_storm",
            description="storm tenant's 4x burst beside two reserved-pool "
            "victims: DRR shares, queue-quota admission, pool partitions",
            config=CRFSConfig(
                chunk_size=64 * KiB,
                pool_size=2 * MiB,  # 32 chunks: 6+6 reserved, 20 shared
                io_threads=1,
                tenants=(
                    TenantSpec(
                        "storm", weight=1, queue_quota=16,
                        patterns=("/storm*",),
                    ),
                    TenantSpec(
                        "alice", weight=8, pool_reserved=6, patterns=("/a*",)
                    ),
                    TenantSpec(
                        "bob", weight=8, pool_reserved=6, patterns=("/b*",)
                    ),
                ),
            ),
            nwriters=3,
            writer_paths=("/storm0.img", "/a0.img", "/b0.img"),
            writer_scale=(4.0, 1.0, 1.0),
            image_size=2 * MiB,
            fast_image_size=512 * KiB,
        ),
        Scenario(
            name="tiered_staging",
            description="mem -> NFS staging chain: writebacks complete "
            "at tier 0 while batch-aware pumps migrate to the deep tier",
            config=CRFSConfig(
                chunk_size=1 * MiB,
                pool_size=8 * MiB,
                io_threads=4,
                tier_pump_threads=2,
                tier_pump_batch_chunks=4,
            ),
            nwriters=2,
            image_size=4 * MiB,
            fast_image_size=1 * MiB,
            sim_backend="tiered_nfs",
        ),
        Scenario(
            name="llm_cadence",
            description="LLM trainer cadence: per-iteration delta "
            "checkpoints of two tensor shards, restore reassembles the "
            "image across the generation chain",
            config=CRFSConfig(
                chunk_size=256 * KiB,
                pool_size=8 * MiB,  # 32 chunks: chain restore stays fed
                io_threads=2,
                read_cache_chunks=8,
                readahead_chunks=4,
            ),
            nwriters=2,
            writer_paths=("/shard0.ckpt", "/shard1.ckpt"),
            # 16 chunks at 256 KiB: round(0.25 * 16) = 4 dirty chunks
            # per generation, so 8 generations write 16 + 7*4 = 44 of
            # the 128 full-rewrite chunks (ratio 0.34375) — the
            # perfbench gate's 0.35 ceiling with deterministic margin.
            # --fast keeps the exact ratio: 4 chunks, 1 dirty.
            image_size=4 * MiB,
            fast_image_size=1 * MiB,
            sim_backend="nfs",
            delta_generations=8,
            delta_dirty_fraction=0.25,
        ),
        Scenario(
            name="zero_copy",
            description="one rank, sequential write path: the "
            "copy-accounting gate (one ingest copy per byte, "
            "bytes_copied == bytes_in)",
            config=CRFSConfig(chunk_size=1 * MiB, pool_size=8 * MiB, io_threads=2),
        ),
    )
}


def default_scenarios(names: list[str] | None = None) -> list[Scenario]:
    """Resolve scenario names (all of them when ``names`` is falsy)."""
    if not names:
        return list(SCENARIOS.values())
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s) {unknown}; know {sorted(SCENARIOS)}")
    return [SCENARIOS[n] for n in names]
