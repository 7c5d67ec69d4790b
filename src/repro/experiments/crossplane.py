"""The workload table: one table of arms, two players (repository artifact).

Both planes drive one pipeline kernel and one set of control flows
(:mod:`repro.pipeline`), so for the same workload their ``stats()``
snapshots must agree on every workload-determined counter.  Every
workload the repository plays on both planes is an *arm* of one table
(:func:`arms`, plus the fault sweep's cells): a config, one step script
per writer, the store it runs over, its fault rules and the snapshot
fields it compares.  One player per plane runs any arm —
:func:`play_threaded` (one thread per writer, over a
:class:`~repro.backends.FaultyBackend` on a :class:`DeviceStore`) and
:func:`play_sim` (one process per writer, spawned in order, over a
:class:`~repro.simio.faulty.FaultySimFilesystem` on the arm's store
model).  ``tests/test_cross_plane.py`` plays the same table and arm
builders, and the sim gate (``python -m repro.perf check``) pins
:func:`metrics` of every arm's timing-plane snapshot.

Steps: ``("open", path)`` or ``("open", path, tenant)`` — an explicit
tenant id; ``("write", path, n)`` and ``("read", path,
n)`` at the file's cursor, which ``("seek", path, offset)`` moves (a
write after a read seeks first: the timing plane keeps two cursors);
``("fsync", path)``; ``("close", path)``; ``("delta", path, size, dirty,
generation)`` and ``("restore", path)`` — one delta-checkpoint
generation, one chain restore; ``("think", s)`` — ``s`` virtual seconds
of restore work between reads.  A rule with a delay is a *gate*: on the
threaded plane the op waits until ``("release",)``; ``("held",)`` waits
until the gated op is reached and ``("staged", n)`` until tier 0 of a
tiered mount has staged more than ``n`` extents.  The timing plane
models the gate as a long virtual delay and skips those three steps;
the threaded plane skips ``think``.  Every threaded wait is bounded by
:func:`repro.waits.bound`.  A step that raises is recorded as
``(writer, step, op, type, message)`` in the snapshot's ``errors``, and
so is a writer still running when the player gives up joining it; the
threaded player also checks every read and restore against a model of
the bytes written, so a wrong byte is an error too.  Both players add
``chunks`` — the (offset, length) of every chunk the pipeline reports
written — and ``backend_writes``, the (offset, length) of every
single-extent write that reached a null faulty store: what each plane's
IO path actually issued.  ``downtime`` lists, per breaker recovery, how
long the mount ran degraded, and ``clock`` holds the run's own times:
``elapsed`` (until the last writer finished), each reading writer's
``restores`` span (first read or restore to the end of its last), and
every write's and landed chunk's latency — virtual seconds on the
timing plane, wall seconds on the threaded one.
"""

from __future__ import annotations

import posixpath
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any, Callable

from .. import waits
from ..backends import (
    FaultyBackend,
    InstrumentedBackend,
    MemBackend,
    TieredBackend,
)
from ..backends.faulty import FaultRule
from ..checkpoint.sizedist import WriteSizeDistribution
from ..config import CRFSConfig, RetryPolicy, TenantSpec
from ..core import CRFS
from ..errors import BackendIOError
from ..pipeline import BackendRecovered, ChunkWritten, EventLog, WriteObserved
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio.faulty import FaultySimFilesystem
from ..simio.lustre import LustreFilesystem, LustreServers
from ..simio.nfs import NFSFilesystem, NFSServer
from ..simio.nullfs import NullSimFilesystem
from ..simio.params import DEFAULT_HW
from ..simio.tiered import TieredSimFilesystem
from ..units import KiB, MiB
from ..util.rng import rng_for
from ..util.stats import nearest_rank
from ..util.tables import TextTable
from ..workloads import LLMCadenceWorkload
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {
    "narrative": "one pipeline state machine, two execution planes "
    "(repo artifact; underpins every cross-plane comparison)"
}

#: Workload-determined snapshot fields of a write stream and its read-back.
COMPARED_FIELDS = (
    "writes", "bytes_in", "write_through_bytes", "chunks_written", "bytes_out", "io_errors",
    "seals", "open_files", "read", "resilience", "batch", "tiers", "delta", "mem",
)

#: Restart read-back request size of the main arm.
READ_REQUEST = 48 * KiB

#: The first backend pwrite is held: the gate.
GATE = FaultRule(op="pwrite", nth=1, delay=1.0)

TIER_ARMS = ("clean", "deep_dead", "broken_batch")

#: What the players add to a ``stats()`` snapshot.
PLAYED = ("errors", "chunks", "backend_writes", "write_sizes", "downtime", "clock")

Snapshot = dict[str, Any]


@dataclass(frozen=True)
class Arm:
    """One workload, played on either plane."""

    name: str
    config: CRFSConfig
    #: One step script per writer.
    writers: tuple[tuple[tuple[Any, ...], ...], ...]
    #: Dotted snapshot paths compared (``errors``, ``chunks``,
    #: ``backend_writes`` and ``write_sizes`` are the players' own).
    fields: tuple[str, ...]
    #: fnmatch patterns of dotted paths read off a clock or raced, not
    #: determined by the workload: left out of the comparison.
    drop: tuple[str, ...] = ()
    rules: tuple[FaultRule, ...] = ()
    #: The timing plane's store model, one per tier: ``"null"`` (paper
    #: Fig 5's rig: discard at a fixed cost), ``"nfs"`` (the shared
    #: NFSv3 server) or ``"lustre"`` (striped OSTs); two make a two-tier
    #: staging stack.  The threaded plane keeps every tier in RAM.
    store: tuple[str, ...] = ("null",)
    #: The tier the rules apply to.
    faulty_tier: int = 0
    expect_errors: int = 0
    #: (what, predicate) over either plane's snapshot.
    checks: tuple[tuple[str, Callable[[Snapshot], bool]], ...] = ()


def flat(snap: Snapshot, prefix: str = "") -> Snapshot:
    """A nested snapshot as ``{"dotted.path": leaf}``."""
    out: Snapshot = {}
    for key, value in snap.items():
        if isinstance(value, dict) and value:
            out.update(flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def compared(arm: Arm, snap: Snapshot, fields: tuple[str, ...] = ()) -> Snapshot:
    """The leaves of ``snap`` under ``fields`` (default: the arm's) that
    the arm compares."""
    return {
        path: value
        for path, value in flat(snap).items()
        if any(path == f or path.startswith(f + ".") for f in fields or arm.fields)
        and not any(fnmatch(path, d) for d in arm.drop)
    }


def mismatches(arm: Arm, func: Snapshot, timing: Snapshot) -> list[str]:
    """The compared paths whose values differ across planes (or exist on
    one plane only)."""
    a, b = compared(arm, func), compared(arm, timing)
    return sorted(p for p in a.keys() | b.keys() if p not in a or p not in b or a[p] != b[p])


def schema(snap: Snapshot) -> dict[str, Any]:
    """The top-level keys and each section's keys."""
    return {k: set(v) if isinstance(v, dict) else None for k, v in snap.items()}


def raised(snap: Snapshot) -> list[str]:
    """The op of each step that raised, in (writer, step) order."""
    return [op for _w, _i, op, *_ in snap["errors"]]


def metrics(snap: Snapshot) -> Snapshot:
    """One played arm as the sim gate pins it: goodput over the writers'
    elapsed time, write and chunk latency percentiles, the restore span
    of an arm that reads back, the headline counters, the steps that
    raised and the ``stats()`` snapshot itself."""
    clock, mem = snap["clock"], snap["mem"]
    nbytes, elapsed = snap["bytes_in"], clock["elapsed"]
    out = {
        "bytes_in": nbytes,
        "writes": snap["writes"],
        "elapsed_s": elapsed,
        "goodput_mib_s": (nbytes / MiB) / elapsed if elapsed > 0 else 0.0,
        "write_latency_p50_s": nearest_rank(clock["write_s"], 50),
        "write_latency_p95_s": nearest_rank(clock["write_s"], 95),
        "chunk_write_p50_s": nearest_rank(clock["chunk_s"], 50),
        "chunk_write_p95_s": nearest_rank(clock["chunk_s"], 95),
        "chunks_queued": snap["queue"]["puts"],
        "chunks_written": snap["chunks_written"],
        "drain_waits": snap["drain"]["waits"],
        "drain_time_s": snap["drain"]["time_total"],
        "bytes_copied": mem["bytes_copied"],
        "copies": mem["copies"],
        "copy_ratio": mem["bytes_copied"] / nbytes if nbytes > 0 else 0.0,
        "errors": snap["errors"],
        "stats": {k: v for k, v in snap.items() if k not in PLAYED},
    }
    if clock["restores"]:
        # Time to last restore (first restart to last byte delivered) and
        # the slowest single writer's restore.
        out["restore_span_s"] = max(t1 for _, t1 in clock["restores"]) - min(
            t0 for t0, _ in clock["restores"]
        )
        out["restore_latency_max_s"] = max(t1 - t0 for t0, t1 in clock["restores"])
    return out


def _mark(span: list[float], op: str, start: float, end: float) -> None:
    """Stretch a writer's restore span over a read-back step (restore
    work after a read counts too)."""
    if op in ("read", "restore") and not span:
        span.append(start)
    if op in ("read", "restore", "think") and span:
        span[1:] = [end]


def _result(
    stats: Snapshot, log: EventLog, errors: list, writes: list, elapsed: float, spans: list
) -> Snapshot:
    landed = [e for e in log.of(ChunkWritten) if e.error is None]
    observed = log.of(WriteObserved)
    clock = {
        "elapsed": elapsed,
        "restores": [tuple(span) for span in spans if span],
        "write_s": [e.duration for e in observed],
        "chunk_s": [e.duration for e in landed],
    }
    return dict(
        stats,
        errors=sorted(errors),
        chunks=[(e.file_offset, e.length) for e in landed],
        backend_writes=writes,
        write_sizes=[e.length for e in observed if not e.write_through],
        downtime=[e.downtime for e in log.of(BackendRecovered)],
        clock=clock,
    )


class DeviceStore(MemBackend):
    """A RAM store that declares latency of its own, like the device
    the timing plane models: the IO workers fetch the readahead window
    and every prefetch is a queue put, on both planes.  (Over a store
    that reads from memory the reader fills each chunk itself and queues
    nothing.)"""

    reads_from_memory = False


class RecordingNull(NullSimFilesystem):
    """A null filesystem that keeps the (offset, length) of every
    single-extent write it discards."""

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.writes: list[tuple[int, int]] = []

    def _write(self, f: Any, nbytes: int):
        self.writes.append((f.pos, nbytes))
        yield from super()._write(f, nbytes)


#: The timing plane's store models, by name: ``(sim, hw, rng, membus)``
#: to a filesystem.
SIM_STORES: dict[str, Callable[..., Any]] = {
    "null": lambda sim, hw, rng, membus: RecordingNull(sim, hw, rng),
    "nfs": lambda sim, hw, rng, membus: NFSFilesystem(sim, hw, rng, membus, NFSServer(sim, hw)),
    "lustre": lambda sim, hw, rng, membus: LustreFilesystem(
        sim, hw, rng, membus, LustreServers(sim, hw), app_memory=0
    ),
}


def _poll(ready: Callable[[], bool]) -> bool:
    """Whether ``ready`` came true within one wait bound."""
    with waits.one_deadline():
        while not ready():
            if not waits.bound():
                return False
            time.sleep(0.001)
    return True


def play_threaded(arm: Arm) -> Snapshot:
    """Run ``arm`` on the threaded mount, one thread per writer."""
    gate, held = threading.Event(), threading.Event()

    def hold(_delay: float) -> None:
        held.set()
        gate.wait()

    store = InstrumentedBackend(DeviceStore())
    tiers: list[Any] = [MemBackend() for _ in arm.store]
    tiers[arm.faulty_tier] = FaultyBackend(store, list(arm.rules), sleep=hold)
    backend = tiers[0] if len(tiers) == 1 else TieredBackend(tiers)
    log = EventLog()
    fs = CRFS(backend, arm.config, observers=[log])
    cs = arm.config.chunk_size
    errors: list = []
    spans: list[list[float]] = [[] for _ in arm.writers]
    at = [0] * len(arm.writers)
    mkdir = threading.Lock()  # writers may share a parent directory

    def play(w: int, script: tuple) -> None:
        files: dict[str, Any] = {}
        images: dict[str, bytearray] = {}
        for i, (op, *args) in enumerate(script):
            at[w], start = i, time.perf_counter()
            path, f = (args[0], files.get(args[0])) if args else (None, None)
            try:
                if op == "open":
                    parent = posixpath.dirname(path)
                    with mkdir:
                        if parent != "/" and not fs.exists(parent):
                            fs.mkdir(parent)
                    files[path] = fs.open(path, tenant=args[1] if args[1:] else None)
                elif op == "write":
                    pos, data = f.tell(), bytes([i % 251 + 1]) * args[1]
                    f.write(data)
                    image = images.setdefault(path, bytearray())
                    image.extend(bytes(max(0, pos - len(image))))
                    image[pos : pos + len(data)] = data
                elif op == "seek":
                    f.seek(args[1])
                elif op == "read":
                    pos = f.tell()
                    if f.read(args[1]) != images.get(path, b"")[pos : pos + args[1]]:
                        raise AssertionError(f"{path}@{pos}: read bytes not written")
                elif op == "fsync":
                    f.fsync()
                elif op == "close":
                    files.pop(path).close()
                elif op == "delta":
                    size, dirty, generation = args[1:]
                    image = images.setdefault(path, bytearray(size))
                    # Each generation writes its own byte value: a
                    # chunk restored from the wrong one cannot match.
                    for c in range(-(-size // cs)) if dirty is None else dirty:
                        lo, hi = c * cs, min((c + 1) * cs, size)
                        image[lo:hi] = bytes([generation + 1]) * (hi - lo)
                    fs.delta_checkpoint(path, image, dirty)
                elif op == "restore" and fs.delta_restore(path) != images[path]:
                    raise AssertionError(f"{path}: restore diverged from the image")
                elif op == "held" and not held.wait(waits.bound()):
                    raise RuntimeError("the gated op was never reached")
                # Extents are staged and queued for the pump under the
                # lock ``outstanding`` is read under.
                elif op == "staged" and not _poll(lambda: fs.backend.outstanding > args[0]):
                    raise RuntimeError("the run was never staged")
                elif op == "release":
                    gate.set()
            except Exception as exc:  # noqa: BLE001 - compared across planes
                errors.append((w, i, op, type(exc).__name__, str(exc)))
            _mark(spans[w], op, start, time.perf_counter())

    threads = [
        threading.Thread(target=play, args=(w, script), name=f"{arm.name}-w{w}", daemon=True)
        for w, script in enumerate(arm.writers)
    ]
    with fs:
        t0 = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            stuck = set(waits.join_all(threads))
            elapsed = time.perf_counter() - t0
        finally:
            gate.set()
        for w, thread in enumerate(threads):
            if thread.name in stuck:
                op = arm.writers[w][at[w]][0]
                errors.append((w, at[w], op, "TimeoutError", f"{thread.name} still running"))
        # A released writer finishes before the mount goes.
        waits.join_all(threads)
    writes = [(r.offset, r.size) for r in store.ops("pwrite")]
    return _result(fs.stats(), log, errors, writes, elapsed, spans)


def play_sim(arm: Arm, seed: int = DEFAULT_SEED) -> Snapshot:
    """Run ``arm`` on the timing plane: the same steps, the same rules,
    one process per writer.  Tier ``k``'s store model draws from
    ``rng_for(seed, "perf/<arm>/backend")`` (``backend-deep`` below
    tier 0)."""
    sim, hw = Simulator(), DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    tiers = [
        SIM_STORES[kind](sim, hw, rng_for(seed, f"perf/{arm.name}/{tag}"), membus)
        for kind, tag in zip(arm.store, ("backend", "backend-deep"))
    ]
    recorded = getattr(tiers[arm.faulty_tier], "writes", [])
    tiers[arm.faulty_tier] = FaultySimFilesystem(tiers[arm.faulty_tier], list(arm.rules))
    backend = tiers[0] if len(tiers) == 1 else TieredSimFilesystem(tiers)
    log = EventLog()
    crfs = SimCRFS(sim, hw, arm.config, backend, membus, observers=[log])
    errors: list = []
    spans: list[list[float]] = [[] for _ in arm.writers]

    def proc(w: int, script: tuple):
        files: dict[str, Any] = {}
        for i, (op, *args) in enumerate(script):
            f, start = files.get(args[0]) if args else None, sim.now
            try:
                if op == "open":
                    files[args[0]] = crfs.open(args[0], tenant=args[1] if args[1:] else None)
                elif op == "write":
                    yield from crfs.write(f, args[1])
                elif op == "seek":
                    f.pos = args[1]
                    crfs.seek(f, args[1])
                elif op == "read":
                    yield from crfs.read(f, args[1])
                elif op == "fsync":
                    yield from crfs.fsync(f)
                elif op == "close":
                    yield from crfs.close(files.pop(args[0]))
                elif op == "delta":
                    yield from crfs.delta_checkpoint(*args[:3])
                elif op == "restore":
                    yield from crfs.delta_restore(args[0])
                elif op == "think":
                    yield sim.timeout(args[0])
            except Exception as exc:  # noqa: BLE001 - compared across planes
                errors.append((w, i, op, type(exc).__name__, str(exc)))
            _mark(spans[w], op, start, sim.now)

    sim.run_until_complete([sim.spawn(proc(w, script)) for w, script in enumerate(arm.writers)])
    # The writers finish at tier-0 speed; the pump then drains past
    # `elapsed`, so the snapshot holds the settled tier counters.
    elapsed = sim.now
    if crfs.staging is not None:
        sim.run_until_complete([sim.spawn(crfs.drain_staging())])
    crfs.shutdown()
    return _result(crfs.stats(), log, errors, recorded, elapsed, spans)


# -- the table -----------------------------------------------------------------


def stream_steps(sizes: list[int], read: int = 0, path: str = "/rank0.img", fsync_every: int = 0,
                 restart: bool = False, think: float = 0.0) -> tuple:
    """Write ``sizes`` in order, with an fsync after every ``fsync_every``
    writes; then (``read`` > 0) read the file back from the start in
    ``read``-byte requests, each after its own seek and followed by
    ``think`` seconds of restore work.  ``restart``: fsync before the
    read-back, as a restart never overlaps writeback."""
    steps = [("open", path)]
    for n, size in enumerate(sizes, 1):
        steps.append(("write", path, size))
        if fsync_every and n % fsync_every == 0:
            steps.append(("fsync", path))
    total = sum(sizes)
    steps += [("fsync", path)] if restart else []
    for pos in range(0, total if read else 0, read or 1):
        steps += [("seek", path, pos), ("read", path, min(read, total - pos))]
        steps += [("think", think)] if think else []
    return (*steps, ("close", path))


def rank_arm(seed: int, name: str, config: CRFSConfig, images: list[int], paths: tuple = (),
             fsync_every: int = 0, read: int = 0, think: float = 0.0, **arm: Any) -> Arm:
    """One writer per rank: rank ``i`` streams a Table I write mix of
    ``images[i]`` bytes, drawn from ``rng_for(seed, "perf/<name>/writer<i>")``,
    into ``paths[i]`` (default ``/rank<i>.img``), then (``read`` > 0)
    restarts: fsyncs and reads its image back (:func:`stream_steps`)."""
    writers = tuple(
        stream_steps(WriteSizeDistribution().plan(n, rng_for(seed, f"perf/{name}/writer{i}")),
                     read, paths[i] if paths else f"/rank{i}.img", fsync_every,
                     restart=read > 0, think=think)
        for i, n in enumerate(images)
    )
    return Arm(name, config, writers, **arm)


def gated_steps(runs: dict[str, int], chunk: int, before=(), after=()) -> tuple:
    """A one-chunk gate file whose writeback is held while each run
    (path -> chunks) queues behind it, so what the workers then find
    queued is a function of the workload on both planes; ``before`` runs
    just before the gate is released, ``after`` just after."""
    paths = ["/gate.img", *runs]
    steps = [*(("open", p) for p in paths), ("write", "/gate.img", chunk), ("held",)]
    for path, n in runs.items():
        steps += [("write", path, chunk)] * n
    steps += [*before, ("release",), *after]
    return (*steps, *(("close", p) for p in reversed(paths)))


def batched_arm(nchunks: int, batch: int) -> Arm:
    """Coalesced writeback: the gathers the lone worker makes (the gate
    and the run fit the pool: no backpressure)."""
    cs, batched = 64 * KiB, nchunks if batch > 1 and nchunks > 1 else 0

    def drained(s: Snapshot) -> bool:
        return (s["batch"]["chunks"], s["chunks_written"]) == (batched, nchunks + 1)

    return Arm(
        f"batched_{nchunks}x{batch}",
        CRFSConfig(cs, (nchunks + 4) * cs, io_threads=1, writeback_batch_chunks=batch),
        (gated_steps({"/rank0.img": nchunks}, cs),),
        fields=("batch", "chunks_written", "bytes_out", "io_errors", "errors"),
        rules=(GATE,),
        checks=((f"{batched} chunks coalesced, all {nchunks + 1} drained", drained),),
    )


def tiered_arm(kind: str) -> Arm:
    """Two-tier staging.  ``clean``: the pump is held in its first
    deep-tier write while the run stages behind it.  ``deep_dead``: every
    deep-tier write after the gate fails until retries exhaust — the run
    strands at tier 0, the deep tier's breaker trips, fsync surfaces it.
    ``broken_batch``: the gate fails at tier 0, so the mount's breaker is
    open when the worker gathers the run, and the batch it breaks must
    still stage and migrate; its pump is ungated, so the pump-queue gauge
    is timing there (and the gate file's close raises the latched error)."""
    assert kind in TIER_ARMS, kind
    cs, run, broken = 64 * KiB, 6, kind == "broken_batch"
    gate_error = BackendIOError("gate EIO") if broken else None
    rules = [FaultRule("pwrite", 1, delay=1.0, error=gate_error)]
    if kind == "deep_dead":
        rules.append(FaultRule("pwrite", 2, every=True, error=BackendIOError("deep EIO")))
    config = CRFSConfig(
        chunk_size=cs,
        pool_size=1 * MiB,
        io_threads=1,
        tier_pump_threads=1,
        tier_pump_batch_chunks=4 if kind == "clean" else 1,
        writeback_batch_chunks=4 if broken else 1,
        retry=RetryPolicy(
            attempts=2 if kind == "deep_dead" else 1,
            backoff=1e-4,
            backoff_max=1e-3,
            jitter=0.0,
        ),
        breaker_threshold={"deep_dead": 2, "broken_batch": 1}.get(kind, 0),
    )

    def tier(s: Snapshot, k: str, *keys: str) -> tuple:
        return tuple(s["tiers"]["per_tier"][k][key] for key in keys)

    def staged_deep(s: Snapshot) -> bool:
        deep = tier(s, "1", "chunks_staged", "chunks_stranded", "pump_queue_max")
        return deep == (run + 1, 0, run) and s["tiers"]["sync_through"] == 1

    def stranded(s: Snapshot) -> bool:
        deep = tier(s, "1", "chunks_stranded", "chunks_staged", "breaker_trips")
        return deep == (run, 1, 1) and tier(s, "0", "breaker_trips") == (0,)

    def broke_once(s: Snapshot) -> bool:
        return (
            (s["batch"]["broken"], s["batch"]["per_batch"]) == (1, {"2": 1})
            and tier(s, "0", "chunks_staged", "bytes_staged") == (5, run * cs)
            and tier(s, "1", "chunks_staged", "bytes_staged", "chunks_stranded")
            == (5, run * cs, 0)
        )

    checks = {
        "clean": ("the run staged deep behind the held pump", staged_deep),
        "deep_dead": ("the run stranded at tier 0, the deep tier's breaker tripped", stranded),
        "broken_batch": (
            "the broken batch staged chunk by chunk, the rest as one batch",
            broke_once,
        ),
    }
    before = () if broken else (("staged", run),)
    return Arm(
        f"tiered_{kind}",
        config,
        (gated_steps({"/rank0.img": run}, cs, before=before, after=(("fsync", "/rank0.img"),)),),
        fields=("tiers", "errors") + (("batch",) if broken else ()),
        drop=("tiers.per_tier.*.pump_queue_max",) if broken else (),
        rules=tuple(rules),
        store=("null", "null"),
        faulty_tier=0 if broken else 1,
        expect_errors=0 if kind == "clean" else 1,
        checks=(checks[kind],),
    )


def by_site(s: Snapshot, site: str) -> int:
    """Bytes the mount copied at one copy site."""
    return s["mem"]["by_site"][site]["bytes"]


#: Fields of a free-running multi-writer stream that no interleaving
#: moves: each file's chunking is its own writes'.
STREAM_FIELDS = (
    "writes", "bytes_in", "write_through_bytes", "chunks_written", "bytes_out", "io_errors",
    "seals", "open_files", "mem", "pool.acquires", "queue.puts", "errors",
)


def cadence(fast: bool, dirty_fraction: float = 0.25) -> LLMCadenceWorkload:
    """The ``llm_cadence`` arm's trainer: two tensor shards checkpointed
    every iteration for eight.  16 chunks at 256 KiB: round(0.25 * 16) =
    4 dirty chunks per generation, so 8 generations write 16 + 7 * 4 =
    44 of the 128 full-rewrite chunks (ratio 0.34375, under perfbench's
    0.35 ceiling); ``fast`` keeps the ratio: 4 chunks, 1 dirty."""
    return LLMCadenceWorkload(
        shards=2, shard_bytes=(1 if fast else 4) * MiB, iterations=8,
        dirty_fraction=dirty_fraction,
    )


def cadence_arm(seed: int, fast: bool, dirty_fraction: float = 0.25) -> Arm:
    """The LLM trainer personality: each shard is a writer committing its
    dirty chunks every iteration through the delta pipeline (generation
    0 is a full dump), then restoring its image across the chain through
    the readahead cache, over the NFS model."""
    wl, cs = cadence(fast, dirty_fraction), 256 * KiB

    def restored(s: Snapshot) -> bool:
        return s["delta"]["restores"] > 0 and s["delta"]["reassembly_reads"] > 0

    return Arm(
        "llm_cadence",
        # 32 chunks: the chain restore stays fed.
        CRFSConfig(cs, 8 * MiB, io_threads=2, read_cache_chunks=8, readahead_chunks=4),
        tuple(
            (
                *(
                    ("delta", wl.shard_path(s), wl.shard_bytes,
                     wl.dirty_chunks(seed, s, it, cs), it)
                    for it in range(wl.iterations)
                ),
                ("restore", wl.shard_path(s)),
            )
            for s in range(wl.shards)
        ),
        fields=("delta", "errors"),
        store=("nfs",),
        checks=(("the chain restored through reassembly runs", restored),),
    )


def rank_arms(seed: int, fast: bool) -> list[Arm]:
    """The sim gate's rank workloads, each pinning one corner of the
    pipeline: ``single_writer_seq`` (one rank, the Table I mix),
    ``concurrent_writers`` (four ranks over an undersized pool),
    ``chunk_sweep_256k`` (the left edge of paper Fig 5), ``fsync_heavy``
    (flush and drain every 8 writes), ``degraded_retry`` (a bounded
    outage: retries, a breaker trip, degraded write-through, recovery),
    ``batched_writeback`` (contiguous runs gathered into vectored
    writes), ``restart_readahead`` (a read-back over NFS through the
    prefetch window), ``restart_storm`` (four ranks restoring at once
    over Lustre through an adaptive window as wide as the tight shared
    cache allows), ``tenant_storm`` (a storm tenant's 4x burst beside two
    reserved-pool victims), ``tiered_staging`` (null staging over NFS:
    writers finish at tier-0 speed, the pump drains after),
    ``llm_cadence`` (:func:`cadence_arm`) and ``zero_copy`` (one ingest
    copy per byte written).  Sizes are full / ``fast``."""

    def size(full: int, small: int) -> int:
        return small if fast else full

    def tenants_ran(s: Snapshot) -> bool:
        t = s["tenants"]
        return {"storm", "alice", "bob"} <= set(t) and t["storm"]["chunks_written"] > 0

    def staged_deep(s: Snapshot) -> bool:
        deep = s["tiers"]["per_tier"].get("1", {})
        return (
            s["tiers"]["levels"] == 2
            and deep.get("chunks_staged", 0) > 0
            and deep.get("chunks_stranded") == 0
        )

    def prefetched(s: Snapshot) -> bool:
        return s["read"]["prefetched"] > 0

    return [
        rank_arm(seed, "single_writer_seq", CRFSConfig(MiB, 8 * MiB, io_threads=4),
                 [size(8 * MiB, MiB)], fields=STREAM_FIELDS),
        rank_arm(seed, "concurrent_writers", CRFSConfig(MiB, 4 * MiB, io_threads=2),
                 [size(4 * MiB, 512 * KiB)] * 4, fields=STREAM_FIELDS),
        rank_arm(seed, "chunk_sweep_256k", CRFSConfig(256 * KiB, 4 * MiB, io_threads=4),
                 [size(8 * MiB, MiB)], fields=STREAM_FIELDS),
        # 512 KiB is a single Table I draw, so fsync_every would never
        # fire: --fast keeps 1 MiB.
        rank_arm(seed, "fsync_heavy", CRFSConfig(MiB, 8 * MiB, io_threads=4),
                 [size(4 * MiB, MiB)], fsync_every=8, fields=STREAM_FIELDS),
        # One IO thread: the faults land in seal order, as in the sweep.
        rank_arm(
            seed, "degraded_retry",
            CRFSConfig(MiB, 8 * MiB, io_threads=1, breaker_threshold=3,
                       retry=RetryPolicy(attempts=8, backoff=1e-4, backoff_max=1e-3, jitter=0.0)),
            [size(4 * MiB, MiB)], fields=STREAM_FIELDS + ("resilience",),
            # Which write meets the open breaker is a race: its bytes go
            # through, the rest through the pool.
            drop=("bytes_out", "write_through_bytes", "mem.*", "resilience.degraded_bytes"),
            rules=(FaultRule(op="pwrite", nth=1, every=True, until=6, error=OSError("EIO")),),
        ),
        rank_arm(seed, "batched_writeback",
                 CRFSConfig(16 * KiB, 4 * MiB, io_threads=1, writeback_batch_chunks=8),
                 [size(4 * MiB, MiB)] * 4, fields=STREAM_FIELDS),
        rank_arm(
            seed, "restart_readahead",
            CRFSConfig(512 * KiB, 8 * MiB, io_threads=4, read_cache_chunks=8, readahead_chunks=4),
            [size(8 * MiB, 2 * MiB)], read=256 * KiB, fields=STREAM_FIELDS + ("read",),
            store=("nfs",),
        ),
        rank_arm(
            seed, "restart_storm",
            # 4 chunks per resident rank; current chunk + window = cache.
            CRFSConfig(256 * KiB, 16 * 256 * KiB, io_threads=2, read_cache_chunks=4,
                       readahead_chunks=3, readahead_adaptive=True),
            [size(4 * MiB, 2 * MiB)] * 4, read=256 * KiB, think=0.02,
            fields=STREAM_FIELDS + ("read",), store=("lustre",),
            checks=(("the restore prefetched", prefetched),),
        ),
        rank_arm(
            seed, "tenant_storm",
            CRFSConfig(
                64 * KiB,
                2 * MiB,  # 32 chunks: 6 + 6 reserved, 20 shared
                io_threads=1,
                tenants=(
                    TenantSpec("storm", weight=1, queue_quota=16, patterns=("/storm*",)),
                    TenantSpec("alice", weight=8, pool_reserved=6, patterns=("/a*",)),
                    TenantSpec("bob", weight=8, pool_reserved=6, patterns=("/b*",)),
                ),
            ),
            [4 * size(2 * MiB, 512 * KiB), size(2 * MiB, 512 * KiB), size(2 * MiB, 512 * KiB)],
            paths=("/storm0.img", "/a0.img", "/b0.img"),
            fields=STREAM_FIELDS + ("tenants",),
            # How far the three writers get before each parks is a race.
            drop=tuple(f"tenants.*.{k}" for k in (
                "admission_waits", "drain_time_*", "drain_p*", "drain_waits_blocked",
                "pool_max_in_use", "queue_max_depth",
            )),
            checks=(("all three tenants ran and the storm tenant drained", tenants_ran),),
        ),
        rank_arm(
            seed, "tiered_staging",
            CRFSConfig(MiB, 8 * MiB, io_threads=4, tier_pump_threads=2, tier_pump_batch_chunks=4),
            [size(4 * MiB, MiB)] * 2, fields=STREAM_FIELDS + ("tiers",),
            drop=("tiers.per_tier.*.pump_queue_max",),  # the free-running pump's gauge
            store=("null", "nfs"),
            checks=(("2 tiers, the deep tier staged chunks, none stranded", staged_deep),),
        ),
        cadence_arm(seed, fast),
        rank_arm(seed, "zero_copy", CRFSConfig(MiB, 8 * MiB, io_threads=2),
                 [size(8 * MiB, MiB)], fields=STREAM_FIELDS),
    ]


def arms(seed: int = DEFAULT_SEED, fast: bool = True) -> dict[str, Arm]:
    """Every arm, by name."""
    cs, small, p = 64 * KiB, 4 * KiB, "/rank0.img"
    sizes = WriteSizeDistribution().plan(2 * MiB if fast else 16 * MiB, rng_for(seed, "crossplane"))
    total = sum(sizes)
    # Adaptive window: a sequential warm-up grows it to its ceiling, two
    # skipped (prefetched, never read) chunks shrink it, a recovery
    # grows it back, one more skip, then on to EOF.
    adaptive = [*range(10), 12, *range(13, 26), 28, *range(29, 40)]
    window_reads = tuple(step for i in adaptive for step in (("seek", p, i * cs), ("read", p, cs)))
    wl = LLMCadenceWorkload(shards=2, shard_bytes=1 * MiB + 100, iterations=4, dirty_fraction=0.25)
    def conserved(s: Snapshot) -> bool:
        return (
            s["bytes_out"] == s["bytes_in"] == total
            == by_site(s, "ingest") == by_site(s, "read_boundary")
            and by_site(s, "fetch") > 0
        )

    def cached(s: Snapshot) -> bool:
        read = s["read"]
        return read["hits"] > 0 and read["prefetched"] > 0 and read["bytes_read"] == total

    def idle(s: Snapshot) -> bool:
        window = ("window_grown", "window_shrunk", "current_window")
        return not any(s["read"][k] for k in window) and not any(s["delta"].values())

    def adapted(s: Snapshot) -> bool:
        moved = ("window_grown", "window_shrunk", "prefetch_wasted", "current_window")
        return all(s["read"][k] > 0 for k in moved)

    def fair(s: Snapshot) -> bool:
        return (s["tenants"]["a"]["chunks_written"], s["tenants"]["b"]["chunks_written"]) == (6, 3)

    def chained(s: Snapshot) -> bool:
        d = s["delta"]
        return (
            d["generations"] == d["manifest_writes"] == wl.iterations * wl.shards
            and d["clean_chunks"] > 0
            and d["restores"] == wl.shards
            and 0 < d["bytes_written"] < d["logical_bytes"]
        )

    def refetched(s: Snapshot) -> bool:
        return (s["read"]["hits"], s["read"]["misses"]) == (3, 2)

    table = [
        # Reads start once the writes drained, so the whole pool is free
        # for the 4-chunk cache and a prefetch never starves; capacity =
        # window + 2 keeps reads from churning the window.
        Arm(
            "main",
            CRFSConfig(256 * KiB, 1 * MiB, io_threads=2, read_cache_chunks=4, readahead_chunks=2),
            (stream_steps(sizes, READ_REQUEST),),
            fields=COMPARED_FIELDS + ("pool.acquires", "queue.puts", "errors"),
            checks=(
                (
                    "byte stream conserved; one ingest copy per byte written, one "
                    "read_boundary copy per byte served",
                    conserved,
                ),
                ("the read-back ran through the readahead cache", cached),
                ("a static window and no delta chain leave their counters at zero", idle),
            ),
        ),
        batched_arm(16, 8),
        # The 41 gated chunks fit the pool and the cache never starves;
        # the adaptive ceiling (capacity - 2) is 5.
        Arm(
            "adaptive",
            CRFSConfig(
                cs,
                3 * MiB,
                io_threads=1,
                read_cache_chunks=7,
                readahead_chunks=2,
                readahead_adaptive=True,
            ),
            (gated_steps({p: 40}, cs, after=window_reads),),
            fields=("read", "chunks_written", "bytes_out", "errors"),
            rules=(GATE,),
            checks=(("the window grew, shrank on wasted prefetches, and is live", adapted),),
        ),
        # DRR service order of the queued runs (no queue quotas: the
        # single writer would park at admission behind the gate).  Drain
        # times are clock reads and a drain that blocked is a race; the
        # gate's own put finds the sim's worker parked (depth 0), the
        # threaded one not yet (depth 1).
        Arm(
            "tenants",
            CRFSConfig(
                cs,
                1 * MiB,
                io_threads=1,
                tenants=(
                    TenantSpec("a", weight=2, pool_reserved=2, patterns=("/a/*",)),
                    TenantSpec("b", weight=1, pool_reserved=1, patterns=("/b/*",)),
                ),
            ),
            (gated_steps({"/a/rank0.img": 6, "/b/rank0.img": 3}, cs),),
            fields=("tenants", "errors"),
            drop=(
                "tenants.*.drain_time_*",
                "tenants.*.drain_p*",
                "tenants.*.drain_waits_blocked",
                "tenants.default.queue_max_depth",
            ),
            rules=(GATE,),
            checks=(("each tenant drained its own run", fair),),
        ),
        *(tiered_arm(kind) for kind in TIER_ARMS),
        # A 64-chunk pool: restore holds several generation files' caches
        # at once, and a starved pool would make prefetch drops a race.
        # So would prefetches still in flight when restore closes a
        # generation file: only the read counters they cannot touch count.
        Arm(
            "delta",
            CRFSConfig(cs, 64 * cs, io_threads=2, read_cache_chunks=4, readahead_chunks=2),
            (
                (
                    *(
                        ("delta", wl.shard_path(shard), wl.shard_bytes, dirty, it)
                        for it, shard, dirty in wl.schedule(seed, cs)
                    ),
                    *(("restore", wl.shard_path(shard)) for shard in range(wl.shards)),
                ),
            ),
            fields=COMPARED_FIELDS[:8]
            + ("delta", "errors", "read.reads", "read.bytes_read", "read.hits", "read.misses"),
            checks=(
                ("the chain shared chunks across generations and restored every shard", chained),
            ),
        ),
        # Chunk 1 is prefetched holding the file's last byte; a write two
        # chunks on grows the file without touching it; the next read
        # reaches a second byte into chunk 1, which must be re-fetched,
        # not served from the stale pooled buffer.  The last read
        # consumes the window's last prefetch.
        Arm(
            "short_entry",
            CRFSConfig(small, 4 * small, io_threads=1, read_cache_chunks=4, readahead_chunks=2),
            (
                (
                    ("open", p),
                    ("write", p, small + 1),
                    ("seek", p, 0),
                    ("read", p, 1),
                    ("seek", p, 2 * small),
                    ("write", p, 1),
                    ("seek", p, 0),
                    ("read", p, small + 2),
                    ("seek", p, 2 * small),
                    ("read", p, 1),
                    ("close", p),
                ),
            ),
            fields=("read", "mem", "errors"),
            checks=(
                (
                    "chunk 0 missed then hit, chunk 1 hit stale then re-fetched, chunk 2 hit",
                    refetched,
                ),
            ),
        ),
        *rank_arms(seed, fast),
    ]
    return {arm.name: arm for arm in table}


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    table = TextTable(
        ["arm", "field", "functional plane", "timing plane", "match"],
        title="Cross-plane stats() differential (one kernel, one set of flows)",
    )
    own: list[Check] = []
    diverged: dict[str, list[str]] = {}
    unexpected: dict[str, list] = {}
    played: dict[str, tuple[Snapshot, Snapshot]] = {}
    for arm in arms(seed, fast).values():
        func, timing = played[arm.name] = play_threaded(arm), play_sim(arm, seed)
        bad = mismatches(arm, func, timing)
        for field in arm.fields:
            shown = [compared(arm, snap, (field,)) for snap in (func, timing)]
            same = not any(p == field or p.startswith(field + ".") for p in bad)
            table.add_row([arm.name, field, *(str(s.get(field, s)) for s in shown),
                           "yes" if same else "NO"])
        if bad or schema(func) != schema(timing):
            diverged[arm.name] = bad or ["schema"]
        if len(func["errors"]) != arm.expect_errors:
            unexpected[arm.name] = func["errors"]
        own += [
            Check(f"{arm.name}: {what} (both planes)", bool(ok(func) and ok(timing)))
            for what, ok in arm.checks
        ]
    checks = [
        Check("every arm: compared stats() fields and the stats() schema identical "
              "across planes", not diverged, f"diverged: {diverged}" if diverged else "all match"),
        Check("every arm: only the expected steps raised, every byte read back was written",
              not unexpected, f"unexpected: {unexpected}" if unexpected else "as expected"),
        *own,
    ]
    func, timing = played["main"]
    return ExperimentResult(
        name="crossplane",
        title="Cross-plane pipeline parity (one table of arms, one player per plane)",
        table=table.render(),
        measured={"functional": func, "timing": timing, "nwrites": func["writes"]},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
