"""Cross-plane pipeline parity (repository artifact, not a paper figure).

The repo's claim that both planes implement *the same filesystem* rests
on the shared pipeline kernel (:mod:`repro.pipeline`): the threaded
functional plane and the discrete-event timing plane drive identical
aggregation, drain, and accounting logic.  This experiment runs one
checkpoint-like write stream — followed by a restart-like sequential
read-back through the readahead cache — through both planes and diffs
their ``stats()`` snapshots — every workload-determined counter,
including the ``read`` section's hit/miss/prefetch accounting, must be
bit-identical (timing-dependent gauges like queue depth are excluded).
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..backends import FaultyBackend, MemBackend, TieredBackend
from ..backends.faulty import FaultRule
from ..config import CRFSConfig, TenantSpec
from ..core import CRFS
from ..checkpoint.sizedist import WriteSizeDistribution
from ..errors import BackendIOError
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio.faulty import FaultySimFilesystem
from ..simio.nullfs import NullSimFilesystem
from ..simio.params import DEFAULT_HW
from ..simio.tiered import TieredSimFilesystem
from ..units import KiB, MiB
from ..util.rng import rng_for
from ..util.tables import TextTable
from ..workloads import LLMCadenceWorkload
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {
    "narrative": "one pipeline state machine, two execution planes "
    "(repo artifact; underpins every cross-plane comparison)"
}

#: Workload-determined snapshot fields that must match exactly.
COMPARED_FIELDS = (
    "writes",
    "bytes_in",
    "write_through_bytes",
    "chunks_written",
    "bytes_out",
    "io_errors",
    "seals",
    "open_files",
    "read",
    "resilience",
    "batch",
    "tiers",
    "delta",
    "mem",
)

#: Delta-arm snapshot fields compared whole (the read section is
#: compared through :data:`DELTA_READ_FIELDS` instead: prefetches still
#: in flight when restore closes a generation file are a thread race on
#: the functional plane, so the prefetch lifecycle counters are timing,
#: not workload).
DELTA_COMPARED_FIELDS = (
    "delta",
    "writes",
    "bytes_in",
    "write_through_bytes",
    "chunks_written",
    "bytes_out",
    "io_errors",
    "seals",
    "open_files",
)

#: The workload-determined subset of the delta arm's read section.
DELTA_READ_FIELDS = ("reads", "bytes_read", "hits", "misses")

#: Restart read-back request size (both planes replay the same stream).
READ_REQUEST = 48 * KiB


def _workload(seed: int, fast: bool) -> list[int]:
    """A BLCR-like write stream drawn from the Table I distribution."""
    total = 2 * MiB if fast else 16 * MiB
    return WriteSizeDistribution().plan(total, rng_for(seed, "crossplane"))


def _read_plan(sizes: list[int]) -> list[int]:
    """The sequential read-back request stream for this write stream."""
    total, out = sum(sizes), []
    while total > 0:
        out.append(min(READ_REQUEST, total))
        total -= out[-1]
    return out


def _functional_stats(sizes: list[int], config: CRFSConfig) -> dict[str, Any]:
    fs = CRFS(MemBackend(), config)
    with fs:
        with fs.open("/rank0.img") as f:
            for size in sizes:
                f.write(b"\x00" * size)
            f.seek(0)
            for size in _read_plan(sizes):
                f.read(size)
    return fs.stats()


def _timing_stats(sizes: list[int], config: CRFSConfig, seed: int) -> dict[str, Any]:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/null"))
    crfs = SimCRFS(sim, hw, config, backend, membus)

    def proc():
        f = crfs.open("/rank0.img")
        for size in sizes:
            yield from crfs.write(f, size)
        crfs.seek(f, 0)
        for size in _read_plan(sizes):
            yield from crfs.read(f, size)
        yield from crfs.close(f)

    sim.run_until_complete([sim.spawn(proc())])
    return crfs.stats()


# -- batched-writeback parity arm ---------------------------------------------
#
# Batch formation depends on how many contiguous chunks sit in the work
# queue when a worker gathers, so a free-running differential would be
# racy on the functional plane.  Both planes therefore run the same
# gated workload: a one-chunk file is written first and its backend
# pwrite is held open (a threading.Event on the functional plane, a
# long virtual-clock delay on the timing plane) while the writer queues
# every chunk of a second file.  The lone worker can only reach the
# second file after the gate lifts, by which point the whole run is
# queued — the gather outcome is then a pure function of the workload
# and ``stats()["batch"]`` must be bit-identical across planes.

#: Second file's chunk count: two full gathers at batch limit 8.
_BATCH_RUN_CHUNKS = 16


def _batched_config() -> CRFSConfig:
    return CRFSConfig(
        chunk_size=64 * KiB,
        pool_size=2 * MiB,  # all 17 chunks fit: no pool backpressure
        io_threads=1,
        writeback_batch_chunks=8,
    )


def _functional_batched_stats(config: CRFSConfig) -> dict[str, Any]:
    gate = threading.Event()
    backend = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
        sleep=lambda _s: gate.wait(),
    )
    fs = CRFS(backend, config)
    with fs:
        with fs.open("/gate.img") as fa, fs.open("/rank0.img") as fb:
            fa.write(b"\x00" * config.chunk_size)
            for _ in range(_BATCH_RUN_CHUNKS):
                fb.write(b"\x00" * config.chunk_size)
            gate.set()
    return fs.stats()


def _timing_batched_stats(config: CRFSConfig, seed: int) -> dict[str, Any]:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/batched")),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
    )
    crfs = SimCRFS(sim, hw, config, backend, membus)

    def proc():
        fa = crfs.open("/gate.img")
        yield from crfs.write(fa, config.chunk_size)
        fb = crfs.open("/rank0.img")
        for _ in range(_BATCH_RUN_CHUNKS):
            yield from crfs.write(fb, config.chunk_size)
        yield from crfs.close(fb)
        yield from crfs.close(fa)

    sim.run_until_complete([sim.spawn(proc())])
    return crfs.stats()


# -- adaptive readahead parity arm ---------------------------------------------
#
# The adaptive window is a pure decision kernel: it moves only on the
# access sequence (grow streaks) and on removal accounting (pressure),
# so a scripted chunk-granular read plan exercises every transition
# deterministically.  The write phase reuses the pwrite gate so the
# whole checkpoint queues before the lone worker runs; the read plan
# then walks sequentially (the window grows to its ceiling), skips two
# prefetched chunks (they age out unused — two wasted-prefetch pressure
# signals shrink the window), recovers, and skips once more before
# draining to EOF.  Skipped chunks are always issued *before* a chunk
# the reader then waits on, and the lone worker services prefetches in
# FIFO order, so every skipped chunk is delivered (ready) by the time
# LRU eviction reaches it — the wasted-vs-dropped classification, and
# with it the whole extended ``read`` section, is workload-determined
# on both planes.

_ADAPTIVE_FILE_CHUNKS = 40


def _adaptive_config() -> CRFSConfig:
    return CRFSConfig(
        chunk_size=64 * KiB,
        pool_size=3 * MiB,  # all 41 gated write chunks fit, and the
        io_threads=1,  # 7-entry cache never starves during the reads
        read_cache_chunks=7,  # adaptive ceiling (capacity - 2) stays 5
        readahead_chunks=2,
        readahead_adaptive=True,
    )


def _adaptive_read_plan() -> list[int]:
    """Chunk indices read (via seek) by both planes, in order."""
    plan = list(range(10))  # sequential warm-up: grow to the ceiling
    plan.append(12)  # skip 10, 11 -> wasted prefetches shrink the window
    plan.extend(range(13, 26))  # recovery: streaks grow it back
    plan.append(28)  # skip 26, 27 -> shrink again
    plan.extend(range(29, _ADAPTIVE_FILE_CHUNKS))  # drain to EOF
    return plan


def _functional_adaptive_stats(config: CRFSConfig) -> dict[str, Any]:
    gate = threading.Event()
    backend = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
        sleep=lambda _s: gate.wait(),
    )
    fs = CRFS(backend, config)
    cs = config.chunk_size
    with fs:
        with fs.open("/gate.img") as fg, fs.open("/rank0.img") as fb:
            fg.write(b"\x00" * cs)
            for _ in range(_ADAPTIVE_FILE_CHUNKS):
                fb.write(b"\x00" * cs)
            gate.set()
            for index in _adaptive_read_plan():
                fb.seek(index * cs)
                fb.read(cs)
    return fs.stats()


def _timing_adaptive_stats(config: CRFSConfig, seed: int) -> dict[str, Any]:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/adaptive")),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
    )
    crfs = SimCRFS(sim, hw, config, backend, membus)
    cs = config.chunk_size

    def proc():
        fg = crfs.open("/gate.img")
        fb = crfs.open("/rank0.img")
        yield from crfs.write(fg, cs)
        for _ in range(_ADAPTIVE_FILE_CHUNKS):
            yield from crfs.write(fb, cs)
        for index in _adaptive_read_plan():
            crfs.seek(fb, index * cs)
            yield from crfs.read(fb, cs)
        yield from crfs.close(fb)
        yield from crfs.close(fg)

    sim.run_until_complete([sim.spawn(proc())])
    return crfs.stats()


# -- multi-tenant parity arm ---------------------------------------------------
#
# Same gating trick as the batched arm: the default tenant's one-chunk
# gate file holds the lone IO worker in its backend pwrite while two
# tenants (a at weight 2, b at weight 1) queue their whole runs, so the
# DRR service order — and every per-tenant counter — is a pure function
# of the workload on both planes.  No queue quotas here: the single app
# thread would park at admission while the gate is held and deadlock.
# Clock-read fields (drain times) and the gate put's depth gauge (the
# sim hands it straight to the parked worker, depth 0; the threaded
# queue stores-then-wakes, depth 1) are plane-divergent by construction
# and stripped before the diff.

_TENANT_RUN_CHUNKS = {"a": 6, "b": 3}

#: Per-tenant fields read off a clock or raced at close, not determined
#: by the workload — excluded from the bit-identical comparison.
_TENANT_TIMING_FIELDS = (
    "drain_time_total",
    "drain_time_max",
    "drain_p50",
    "drain_p99",
    "drain_waits_blocked",
)


def _tenant_config() -> CRFSConfig:
    return CRFSConfig(
        chunk_size=64 * KiB,
        pool_size=1 * MiB,  # all 10 chunks fit: no pool backpressure
        io_threads=1,
        tenants=(
            TenantSpec("a", weight=2, pool_reserved=2, patterns=("/a/*",)),
            TenantSpec("b", weight=1, pool_reserved=1, patterns=("/b/*",)),
        ),
    )


def _comparable_tenants(stats: dict[str, Any]) -> dict[str, Any]:
    """The tenants section minus the plane-divergent fields."""
    out: dict[str, Any] = {}
    for name, counters in stats["tenants"].items():
        kept = {
            k: v for k, v in counters.items() if k not in _TENANT_TIMING_FIELDS
        }
        if name == "default":
            kept.pop("queue_max_depth", None)
        out[name] = kept
    return out


def _functional_tenant_stats(config: CRFSConfig) -> dict[str, Any]:
    gate = threading.Event()
    mem = MemBackend()
    mem.mkdir("/a")
    mem.mkdir("/b")
    backend = FaultyBackend(
        mem,
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
        sleep=lambda _s: gate.wait(),
    )
    fs = CRFS(backend, config)
    with fs:
        with fs.open("/gate.img") as fg, \
                fs.open("/a/rank0.img") as fa, fs.open("/b/rank0.img") as fb:
            fg.write(b"\x00" * config.chunk_size)
            for _ in range(_TENANT_RUN_CHUNKS["a"]):
                fa.write(b"\x00" * config.chunk_size)
            for _ in range(_TENANT_RUN_CHUNKS["b"]):
                fb.write(b"\x00" * config.chunk_size)
            gate.set()
    return fs.stats()


def _timing_tenant_stats(config: CRFSConfig, seed: int) -> dict[str, Any]:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/tenants")),
        [FaultRule(op="pwrite", nth=1, delay=1.0)],
    )
    crfs = SimCRFS(sim, hw, config, backend, membus)

    def proc():
        fg = crfs.open("/gate.img")
        yield from crfs.write(fg, config.chunk_size)
        fa = crfs.open("/a/rank0.img")
        fb = crfs.open("/b/rank0.img")
        for _ in range(_TENANT_RUN_CHUNKS["a"]):
            yield from crfs.write(fa, config.chunk_size)
        for _ in range(_TENANT_RUN_CHUNKS["b"]):
            yield from crfs.write(fb, config.chunk_size)
        yield from crfs.close(fb)
        yield from crfs.close(fa)
        yield from crfs.close(fg)

    sim.run_until_complete([sim.spawn(proc())])
    return crfs.stats()


# -- tiered-staging parity arm -------------------------------------------------
#
# Same gating trick again, one level down: a two-tier mount (staging →
# deep) whose *pump* is held in its first deep-tier write while the
# writer stages every chunk of a second file, so the pump-queue depth
# gauge — and every tier counter — is a pure function of the workload.
# A `popped` handshake on the functional plane pins the one racy edge
# (the pump taking the gate extent before the second file stages).  The
# ``deep_dead`` variant makes every deep-tier write after the gate fail
# until retries exhaust: extents strand at tier 0, the per-tier breaker
# trips, and fsync surfaces the strand error — identically on both
# planes.  The ``broken_batch`` variant (driven by the cross-plane
# tests) moves the gate to tier 0 and makes it *fail*: the mount's
# breaker is open when the lone IO worker gathers the run, so the batch
# is broken into degraded per-chunk writes — which must still stage and
# migrate.  Its pump is not gated, so there the pump-queue gauge alone
# is timing-dependent on the functional plane.

_TIER_RUN_CHUNKS = 6
_TIER_ARMS = ("clean", "deep_dead", "broken_batch")


def _error_key(error: BaseException | None) -> tuple[str, str] | None:
    """An exception reduced to its plane-comparable identity."""
    if error is None:
        return None
    return (type(error).__name__, str(error))


def _tiered_config(arm: str) -> CRFSConfig:
    assert arm in _TIER_ARMS, arm
    deep_dead = arm == "deep_dead"
    return CRFSConfig(
        chunk_size=64 * KiB,
        pool_size=1 * MiB,  # all chunks fit: no pool backpressure
        io_threads=1,
        tier_pump_threads=1,
        tier_pump_batch_chunks=4 if arm == "clean" else 1,
        writeback_batch_chunks=4 if arm == "broken_batch" else 1,
        retry_attempts=2 if deep_dead else 1,
        breaker_threshold={"deep_dead": 2, "broken_batch": 1}.get(arm, 0),
        retry_backoff=1e-4,
        retry_backoff_max=1e-3,
        retry_jitter=0.0,
    )


def _tier_fault_rules(arm: str) -> list[FaultRule]:
    """The rules of the faulty tier: the deep tier, or — for
    ``broken_batch`` — tier 0.  The first pwrite is the gate."""
    if arm == "broken_batch":
        return [
            FaultRule(op="pwrite", nth=1, delay=1.0, error=BackendIOError("gate EIO"))
        ]
    rules = [FaultRule(op="pwrite", nth=1, delay=1.0)]
    if arm == "deep_dead":
        rules.append(
            FaultRule(
                op="pwrite", nth=2, every=True, error=BackendIOError("deep EIO")
            )
        )
    return rules


def _functional_tiered_stats(config: CRFSConfig, arm: str) -> dict[str, Any]:
    gate = threading.Event()
    popped = threading.Event()

    def hold(_s: float) -> None:
        popped.set()
        gate.wait()

    faulty = FaultyBackend(MemBackend(), _tier_fault_rules(arm), sleep=hold)
    tiers = [faulty, MemBackend()] if arm == "broken_batch" else [MemBackend(), faulty]
    fs = CRFS(TieredBackend(tiers), config)
    sync_error: BaseException | None = None
    with fs:
        fg = fs.open("/gate.img")
        with fs.open("/rank0.img") as fb:
            fg.write(b"\x00" * config.chunk_size)
            if not popped.wait(timeout=30):  # pragma: no cover - stuck gate
                raise RuntimeError("the gate write was never reached")
            for _ in range(_TIER_RUN_CHUNKS):
                fb.write(b"\x00" * config.chunk_size)
            if arm != "broken_batch":
                # The gate holds the pump, whose queue is complete only
                # once tier 0 has staged the whole run: the writes
                # returned when their chunks were queued for the IO
                # worker.  ``outstanding`` is read under the lock that
                # stages an extent and queues it for the pump.
                deadline = time.monotonic() + 30
                while fs.backend.outstanding <= _TIER_RUN_CHUNKS:  # + the gate's
                    if time.monotonic() > deadline:  # pragma: no cover
                        raise RuntimeError("the run was never fully staged")
                    time.sleep(0.001)
            gate.set()
            try:
                fb.fsync()
            except BackendIOError as exc:
                sync_error = exc
        try:
            fg.close()
        except BackendIOError:
            if arm != "broken_batch":  # only that arm's gate chunk fails
                raise
    stats = fs.stats()
    stats["_sync_error"] = sync_error
    return stats


def _timing_tiered_stats(config: CRFSConfig, seed: int, arm: str) -> dict[str, Any]:
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    faulty = FaultySimFilesystem(
        NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/tiered-deep")),
        _tier_fault_rules(arm),
    )
    plain = NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/tiered-0"))
    backend = TieredSimFilesystem(
        [faulty, plain] if arm == "broken_batch" else [plain, faulty]
    )
    crfs = SimCRFS(sim, hw, config, backend, membus)
    captured: list[BaseException | None] = [None]

    def proc():
        fg = crfs.open("/gate.img")
        fb = crfs.open("/rank0.img")
        yield from crfs.write(fg, config.chunk_size)
        for _ in range(_TIER_RUN_CHUNKS):
            yield from crfs.write(fb, config.chunk_size)
        try:
            yield from crfs.fsync(fb)
        except BackendIOError as exc:
            captured[0] = exc
        yield from crfs.close(fb)
        try:
            yield from crfs.close(fg)
        except BackendIOError:
            if arm != "broken_batch":
                raise

    sim.run_until_complete([sim.spawn(proc())])
    sim.run_until_complete([sim.spawn(crfs.drain_staging(), name="drain")])
    crfs.shutdown()
    stats = crfs.stats()
    stats["_sync_error"] = captured[0]
    return stats


#: Shard sized to an uneven tail chunk (16 whole chunks + 100 bytes) so
#: the chain exercises tail-clipping on every generation.
_DELTA_SHARD_BYTES = 1 * MiB + 100
_DELTA_ITERATIONS = 4


def _delta_config() -> CRFSConfig:
    # Pool of 64 chunks: restore holds several generation files' caches
    # at once, and a starved pool makes prefetch drops a thread race on
    # the functional plane — a generous pool keeps every compared
    # counter workload-determined.
    return CRFSConfig(
        chunk_size=64 * KiB,
        pool_size=64 * 64 * KiB,
        io_threads=2,
        read_cache_chunks=4,
        readahead_chunks=2,
    )


def _delta_workload() -> LLMCadenceWorkload:
    return LLMCadenceWorkload(
        shards=2,
        shard_bytes=_DELTA_SHARD_BYTES,
        iterations=_DELTA_ITERATIONS,
        dirty_fraction=0.25,
    )


def _functional_delta_stats(config: CRFSConfig, seed: int) -> dict[str, Any]:
    wl = _delta_workload()
    cs = config.chunk_size
    nchunks = wl.nchunks(cs)
    fs = CRFS(MemBackend(), config)
    with fs:
        images = {s: bytearray(wl.shard_bytes) for s in range(wl.shards)}
        for iteration, shard, dirty in wl.schedule(seed, cs):
            img = images[shard]
            # Each generation fills its dirty chunks with its own byte
            # value: a restore that resolves any chunk to the wrong
            # generation cannot match the reference image.
            for c in range(nchunks) if dirty is None else dirty:
                lo, hi = c * cs, min((c + 1) * cs, len(img))
                img[lo:hi] = bytes([iteration + 1]) * (hi - lo)
            fs.delta_checkpoint(wl.shard_path(shard), img, dirty)
        for shard in range(wl.shards):
            restored = fs.delta_restore(wl.shard_path(shard))
            if restored != bytes(images[shard]):
                raise AssertionError(
                    f"shard {shard}: delta restore diverged from the "
                    "reference image"
                )
    return fs.stats()


def _timing_delta_stats(config: CRFSConfig, seed: int) -> dict[str, Any]:
    wl = _delta_workload()
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = NullSimFilesystem(sim, hw, rng_for(seed, "crossplane/delta"))
    crfs = SimCRFS(sim, hw, config, backend, membus)

    def proc():
        for _iteration, shard, dirty in wl.schedule(seed, config.chunk_size):
            yield from crfs.delta_checkpoint(
                wl.shard_path(shard), wl.shard_bytes, dirty
            )
        for shard in range(wl.shards):
            yield from crfs.delta_restore(wl.shard_path(shard))

    sim.run_until_complete([sim.spawn(proc())])
    crfs.shutdown()
    return crfs.stats()


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    sizes = _workload(seed, fast)
    # Pool of 4 chunks, cache of 4, window of 2: reads start after the
    # write stream drains, so the whole pool is free for the cache and
    # the prefetch try-acquire can never starve on either plane — every
    # hit/miss/prefetch decision is workload-determined.  Capacity >=
    # window + 2 keeps sequential reads from churning the window
    # (current + previous + the two in-flight prefetches all fit).
    config = CRFSConfig(
        chunk_size=256 * KiB,
        pool_size=1 * MiB,
        io_threads=2,
        read_cache_chunks=4,
        readahead_chunks=2,
    )
    func = _functional_stats(sizes, config)
    timing = _timing_stats(sizes, config, seed)

    table = TextTable(
        ["counter", "functional plane", "timing plane", "match"],
        title="Cross-plane stats() differential (one shared pipeline kernel)",
    )
    mismatches = []
    for key in COMPARED_FIELDS:
        match = func[key] == timing[key]
        if not match:
            mismatches.append(key)
        table.add_row([key, str(func[key]), str(timing[key]), "yes" if match else "NO"])
    for section, field in (("pool", "acquires"), ("queue", "puts")):
        a, b = func[section][field], timing[section][field]
        match = a == b
        if not match:
            mismatches.append(f"{section}.{field}")
        table.add_row(
            [f"{section}.{field}", str(a), str(b), "yes" if match else "NO"]
        )

    bconfig = _batched_config()
    bfunc = _functional_batched_stats(bconfig)
    btiming = _timing_batched_stats(bconfig, seed)
    for key in ("batch", "chunks_written", "bytes_out", "io_errors"):
        match = bfunc[key] == btiming[key]
        if not match:
            mismatches.append(f"batched.{key}")
        table.add_row(
            [
                f"batched.{key}",
                str(bfunc[key]),
                str(btiming[key]),
                "yes" if match else "NO",
            ]
        )

    aconfig = _adaptive_config()
    afunc_ra = _functional_adaptive_stats(aconfig)
    atiming_ra = _timing_adaptive_stats(aconfig, seed)
    for key in ("read", "chunks_written", "bytes_out"):
        match = afunc_ra[key] == atiming_ra[key]
        if not match:
            mismatches.append(f"adaptive.{key}")
        table.add_row(
            [
                f"adaptive.{key}",
                str(afunc_ra[key]),
                str(atiming_ra[key]),
                "yes" if match else "NO",
            ]
        )

    tconfig = _tenant_config()
    tfunc = _functional_tenant_stats(tconfig)
    ttiming = _timing_tenant_stats(tconfig, seed)
    tfunc_tenants = _comparable_tenants(tfunc)
    ttiming_tenants = _comparable_tenants(ttiming)
    for name in sorted(set(tfunc_tenants) | set(ttiming_tenants)):
        match = tfunc_tenants.get(name) == ttiming_tenants.get(name)
        if not match:
            mismatches.append(f"tenants.{name}")
        table.add_row(
            [
                f"tenants.{name}",
                str(tfunc_tenants.get(name)),
                str(ttiming_tenants.get(name)),
                "yes" if match else "NO",
            ]
        )

    dconfig = _delta_config()
    dfunc = _functional_delta_stats(dconfig, seed)
    dtiming = _timing_delta_stats(dconfig, seed)
    for key in DELTA_COMPARED_FIELDS:
        match = dfunc[key] == dtiming[key]
        if not match:
            mismatches.append(f"delta.{key}")
        table.add_row(
            [
                f"delta.{key}",
                str(dfunc[key]),
                str(dtiming[key]),
                "yes" if match else "NO",
            ]
        )
    dfunc_read = {k: dfunc["read"][k] for k in DELTA_READ_FIELDS}
    dtiming_read = {k: dtiming["read"][k] for k in DELTA_READ_FIELDS}
    match = dfunc_read == dtiming_read
    if not match:
        mismatches.append("delta.read")
    table.add_row(
        [
            "delta.read",
            str(dfunc_read),
            str(dtiming_read),
            "yes" if match else "NO",
        ]
    )

    tiered: dict[str, tuple[dict[str, Any], dict[str, Any]]] = {}
    for arm, kind in (("tiered", "clean"), ("tiered_faulted", "deep_dead")):
        aconfig = _tiered_config(kind)
        afunc = _functional_tiered_stats(aconfig, kind)
        atiming = _timing_tiered_stats(aconfig, seed, kind)
        tiered[arm] = (afunc, atiming)
        match = afunc["tiers"] == atiming["tiers"]
        if not match:
            mismatches.append(f"{arm}.tiers")
        table.add_row(
            [
                f"{arm}.tiers",
                str(afunc["tiers"]),
                str(atiming["tiers"]),
                "yes" if match else "NO",
            ]
        )
        fsync_err = _error_key(afunc["_sync_error"])
        tsync_err = _error_key(atiming["_sync_error"])
        match = fsync_err == tsync_err
        if not match:
            mismatches.append(f"{arm}.sync_error")
        table.add_row(
            [
                f"{arm}.sync_error",
                str(fsync_err),
                str(tsync_err),
                "yes" if match else "NO",
            ]
        )

    clean_tiers = tiered["tiered"][0]["tiers"]["per_tier"]
    fault_tiers = tiered["tiered_faulted"][0]["tiers"]["per_tier"]

    schema_ok = (
        set(func) == set(timing)
        and set(func["pool"]) == set(timing["pool"])
        and set(func["queue"]) == set(timing["queue"])
        and set(func["tenants"]) == set(timing["tenants"])
        and set(tfunc["tenants"]) == set(ttiming["tenants"])
        and set(tiered["tiered"][0]["tiers"]["per_tier"]["1"])
        == set(tiered["tiered"][1]["tiers"]["per_tier"]["1"])
    )
    checks = [
        Check(
            "both planes expose the identical stats() schema",
            schema_ok,
            f"keys: {sorted(func)}",
        ),
        Check(
            "workload-determined counters bit-identical across planes",
            not mismatches,
            "all match" if not mismatches else f"mismatched: {mismatches}",
        ),
        Check(
            "pipeline conserved the byte stream on both planes",
            func["bytes_out"] == func["bytes_in"] == sum(sizes)
            and timing["bytes_out"] == timing["bytes_in"] == sum(sizes),
            f"{sum(sizes)} bytes through {func['chunks_written']} chunks",
        ),
        Check(
            "copy ledger bit-identical across planes: one ingest copy "
            "per byte written, one read_boundary copy per byte served",
            func["mem"] == timing["mem"]
            and func["mem"]["by_site"]["ingest"]["bytes"] == sum(sizes)
            and func["mem"]["by_site"]["read_boundary"]["bytes"] == sum(sizes)
            and func["mem"]["by_site"]["fetch"]["bytes"] > 0,
            f"mem section: {func['mem']}",
        ),
        Check(
            "restart read-back exercised the readahead cache",
            func["read"]["hits"] > 0
            and func["read"]["prefetched"] > 0
            and func["read"]["bytes_read"] == sum(sizes),
            f"read section: {func['read']}",
        ),
        Check(
            "gated adaptive-readahead arm: the extended read section "
            "(window_grown/window_shrunk/current_window) is bit-identical",
            afunc_ra["read"] == atiming_ra["read"]
            and afunc_ra["read"]["window_grown"] > 0
            and afunc_ra["read"]["window_shrunk"] > 0
            and afunc_ra["read"]["prefetch_wasted"] > 0
            and afunc_ra["read"]["current_window"] >= 1,
            f"adaptive read section: {afunc_ra['read']}",
        ),
        Check(
            "static arms leave the adaptive window untouched "
            "(zero window counters with readahead_adaptive off)",
            func["read"]["window_grown"] == 0
            and func["read"]["window_shrunk"] == 0
            and func["read"]["current_window"] == 0,
            f"static read section: {func['read']}",
        ),
        Check(
            "gated batched workload coalesced identically on both planes",
            bfunc["batch"] == btiming["batch"]
            and bfunc["batch"]["batches"] > 0
            and bfunc["batch"]["chunks"] == _BATCH_RUN_CHUNKS,
            f"batch section: {bfunc['batch']}",
        ),
        Check(
            "gated delta arm: stats()['delta'] bit-identical and the "
            "chain actually shared chunks across generations",
            dfunc["delta"] == dtiming["delta"]
            and dfunc["delta"]["generations"]
            == _DELTA_ITERATIONS * _delta_workload().shards
            and dfunc["delta"]["clean_chunks"] > 0
            and dfunc["delta"]["restores"] == _delta_workload().shards
            and 0
            < dfunc["delta"]["bytes_written"]
            < dfunc["delta"]["logical_bytes"],
            f"delta section: {dfunc['delta']}",
        ),
        Check(
            "delta-free arms leave the delta section at zero "
            "(the section is pinned in the schema either way)",
            all(v == 0 for v in func["delta"].values())
            and func["delta"] == timing["delta"],
            f"main-arm delta section: {func['delta']}",
        ),
        Check(
            "per-tenant accounting bit-identical across planes",
            tfunc_tenants == ttiming_tenants
            and all(
                tfunc_tenants[t]["chunks_written"] == n
                for t, n in _TENANT_RUN_CHUNKS.items()
            ),
            f"tenant sections: {sorted(tfunc_tenants)}",
        ),
        Check(
            "gated tiered workload staged identically on both planes",
            tiered["tiered"][0]["tiers"] == tiered["tiered"][1]["tiers"]
            and clean_tiers["1"]["chunks_staged"] == _TIER_RUN_CHUNKS + 1
            and clean_tiers["1"]["chunks_stranded"] == 0
            and clean_tiers["1"]["pump_queue_max"] == _TIER_RUN_CHUNKS
            and tiered["tiered"][0]["tiers"]["sync_through"] == 1,
            f"tier-1 counters: {clean_tiers['1']}",
        ),
        Check(
            "faulted arm strands at the staging tier identically: "
            "breaker attributed to the deep tier, fsync surfaces the error",
            tiered["tiered_faulted"][0]["tiers"]
            == tiered["tiered_faulted"][1]["tiers"]
            and fault_tiers["1"]["chunks_stranded"] == _TIER_RUN_CHUNKS
            and fault_tiers["1"]["chunks_staged"] == 1  # only the gate chunk
            and fault_tiers["1"]["breaker_trips"] == 1
            and fault_tiers["0"]["breaker_trips"] == 0
            and _error_key(tiered["tiered_faulted"][0]["_sync_error"])
            == _error_key(tiered["tiered_faulted"][1]["_sync_error"])
            is not None,
            f"tier-1 counters: {fault_tiers['1']}",
        ),
    ]
    return ExperimentResult(
        name="crossplane",
        title="Cross-plane pipeline parity (shared kernel differential)",
        table=table.render(),
        measured={"functional": func, "timing": timing, "nwrites": len(sizes)},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
