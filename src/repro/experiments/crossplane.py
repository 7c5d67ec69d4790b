"""Cross-plane pipeline parity (repository artifact, not a paper figure).

Both planes drive one pipeline kernel and one set of control flows
(:mod:`repro.pipeline`), so for the same workload their ``stats()``
snapshots must agree on every workload-determined counter.  The proof
is one table of *arms* (:func:`arms`): each is a config, a script of
steps, the fault rules of its backing store and the snapshot fields it
compares.  One player per plane runs any arm — :func:`play_threaded`
over a :class:`~repro.backends.FaultyBackend` on a :class:`DeviceStore`,
:func:`play_sim` over a :class:`~repro.simio.faulty.FaultySimFilesystem`
on a null filesystem — and ``tests/test_cross_plane.py`` plays the same
table and arm builders.

Steps: ``("open", path)``; ``("write", path, n)`` and ``("read", path,
n)`` at the file's cursor, which ``("seek", path, offset)`` moves (a
write after a read seeks first: the timing plane keeps two cursors);
``("fsync", path)``; ``("close", path)``; ``("delta", path, size, dirty,
generation)`` and ``("restore", path)`` — one delta-checkpoint
generation, one chain restore.  A rule with a delay is a *gate*: on the
threaded plane the op waits until ``("release",)``; ``("held",)`` waits
until the gated op is reached and ``("staged", n)`` until tier 0 of a
tiered mount has staged more than ``n`` extents.  The timing plane
models the gate as a long virtual delay and skips those three steps.  A
step that raises is recorded as ``(step, type, message)`` in the
snapshot's ``errors``; the threaded player also checks every read and
restore against a model of the bytes written, so a wrong byte is an
error too.  Both players add ``chunks`` — the (offset, length) of every
chunk the pipeline reports written — and ``backend_writes``, the
(offset, length) of every single-extent write that reached the faulty
store: what each plane's IO path actually issued.  ``downtime`` lists,
per breaker recovery, how long the mount ran degraded (virtual seconds
on the timing plane).
"""

from __future__ import annotations

import posixpath
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any, Callable

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

Snapshot = dict[str, Any]


@dataclass(frozen=True)
class Arm:
    """One cross-plane comparison."""

    name: str
    config: CRFSConfig
    steps: tuple[tuple[Any, ...], ...]
    #: Dotted snapshot paths compared (``errors``, ``chunks``,
    #: ``backend_writes`` and ``write_sizes`` are the players' own).
    fields: tuple[str, ...]
    #: fnmatch patterns of dotted paths read off a clock or raced, not
    #: determined by the workload: left out of the comparison.
    drop: tuple[str, ...] = ()
    rules: tuple[FaultRule, ...] = ()
    #: None: the faulty store is the backend; k: it is tier k of a
    #: two-tier stack whose other tier is clean.
    faulty_tier: int | None = None
    expect_errors: int = 0
    #: (what, predicate) over the threaded snapshot.
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


def _result(stats: Snapshot, log: EventLog, errors: list, writes: list) -> Snapshot:
    chunks = [(e.file_offset, e.length) for e in log.of(ChunkWritten) if e.error is None]
    sizes = [e.length for e in log.of(WriteObserved) if not e.write_through]
    downtime = [e.downtime for e in log.of(BackendRecovered)]
    return dict(stats, errors=errors, chunks=chunks, backend_writes=writes, write_sizes=sizes,
                downtime=downtime)


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


def play_threaded(arm: Arm) -> Snapshot:
    """Run ``arm`` on the threaded mount."""
    gate, held = threading.Event(), threading.Event()

    def hold(_delay: float) -> None:
        held.set()
        gate.wait()

    store = InstrumentedBackend(DeviceStore())
    backend: Any = FaultyBackend(store, list(arm.rules), sleep=hold)
    if arm.faulty_tier is not None:
        tiers = [backend, MemBackend()]
        backend = TieredBackend(tiers if arm.faulty_tier == 0 else tiers[::-1])
    log = EventLog()
    fs = CRFS(backend, arm.config, observers=[log])
    cs = arm.config.chunk_size
    files: dict[str, Any] = {}
    images: dict[str, bytearray] = {}
    errors: list = []
    with fs:
        try:
            for i, (op, *args) in enumerate(arm.steps):
                path, f = (args[0], files.get(args[0])) if args else (None, None)
                try:
                    if op == "open":
                        parent = posixpath.dirname(path)
                        if parent != "/" and not fs.exists(parent):
                            fs.mkdir(parent)
                        files[path] = fs.open(path)
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
                    elif op == "held" and not held.wait(timeout=30):
                        raise RuntimeError("the gated op was never reached")
                    elif op == "staged":
                        # Extents are staged and queued for the pump under
                        # the lock ``outstanding`` is read under.
                        deadline = time.monotonic() + 30
                        while fs.backend.outstanding <= args[0]:
                            if time.monotonic() > deadline:
                                raise RuntimeError("the run was never staged")
                            time.sleep(0.001)
                    elif op == "release":
                        gate.set()
                except Exception as exc:  # noqa: BLE001 - compared across planes
                    errors.append((i, type(exc).__name__, str(exc)))
        finally:
            gate.set()
    writes = [(r.offset, r.size) for r in store.ops("pwrite")]
    return _result(fs.stats(), log, errors, writes)


def play_sim(arm: Arm, seed: int = DEFAULT_SEED) -> Snapshot:
    """Run ``arm`` on the timing plane: the same steps, the same rules."""
    sim, hw = Simulator(), DEFAULT_HW

    def rng(tag: str) -> Any:
        return rng_for(seed, f"crossplane/{arm.name}/{tag}")

    store = RecordingNull(sim, hw, rng("faulty"))
    backend: Any = FaultySimFilesystem(store, list(arm.rules))
    if arm.faulty_tier is not None:
        tiers = [backend, NullSimFilesystem(sim, hw, rng("clean"))]
        backend = TieredSimFilesystem(tiers if arm.faulty_tier == 0 else tiers[::-1])
    log = EventLog()
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    crfs = SimCRFS(sim, hw, arm.config, backend, membus, observers=[log])
    files: dict[str, Any] = {}
    errors: list = []

    def proc():
        for i, (op, *args) in enumerate(arm.steps):
            f = files.get(args[0]) if args else None
            try:
                if op == "open":
                    files[args[0]] = crfs.open(args[0])
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
            except Exception as exc:  # noqa: BLE001 - compared across planes
                errors.append((i, type(exc).__name__, str(exc)))
        yield from crfs.drain_staging()

    sim.run_until_complete([sim.spawn(proc())])
    crfs.shutdown()
    return _result(crfs.stats(), log, errors, store.writes)


# -- the table -----------------------------------------------------------------


def stream_steps(sizes: list[int], read: int = 0, path: str = "/rank0.img") -> tuple:
    """Write ``sizes`` in order, then (``read`` > 0) read the file back
    from the start in ``read``-byte requests, each after its own seek."""
    total = sum(sizes)
    steps = [("open", path), *(("write", path, n) for n in sizes)]
    for pos in range(0, total if read else 0, read or 1):
        steps += [("seek", path, pos), ("read", path, min(read, total - pos))]
    return (*steps, ("close", path))


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
        gated_steps({"/rank0.img": nchunks}, cs),
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
        gated_steps({"/rank0.img": run}, cs, before=before, after=(("fsync", "/rank0.img"),)),
        fields=("tiers", "errors") + (("batch",) if broken else ()),
        drop=("tiers.per_tier.*.pump_queue_max",) if broken else (),
        rules=tuple(rules),
        faulty_tier=0 if broken else 1,
        expect_errors=0 if kind == "clean" else 1,
        checks=(checks[kind],),
    )


def by_site(s: Snapshot, site: str) -> int:
    """Bytes the mount copied at one copy site."""
    return s["mem"]["by_site"][site]["bytes"]


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
            stream_steps(sizes, READ_REQUEST),
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
            gated_steps({p: 40}, cs, after=window_reads),
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
            gated_steps({"/a/rank0.img": 6, "/b/rank0.img": 3}, cs),
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
                *(
                    ("delta", wl.shard_path(shard), wl.shard_bytes, dirty, it)
                    for it, shard, dirty in wl.schedule(seed, cs)
                ),
                *(("restore", wl.shard_path(shard)) for shard in range(wl.shards)),
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
            fields=("read", "mem", "errors"),
            checks=(
                (
                    "chunk 0 missed then hit, chunk 1 hit stale then re-fetched, chunk 2 hit",
                    refetched,
                ),
            ),
        ),
    ]
    return {arm.name: arm for arm in table}


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    table = TextTable(
        ["arm", "field", "functional plane", "timing plane", "match"],
        title="Cross-plane stats() differential (one kernel, one set of flows)",
    )
    own: list[Check] = []
    diverged: dict[str, list[str]] = {}
    raised: dict[str, list] = {}
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
            raised[arm.name] = func["errors"]
        own += [Check(f"{arm.name}: {what}", bool(ok(func))) for what, ok in arm.checks]
    checks = [
        Check("every arm: compared stats() fields and the stats() schema identical "
              "across planes", not diverged, f"diverged: {diverged}" if diverged else "all match"),
        Check("every arm: only the expected steps raised, every byte read back was written",
              not raised, f"unexpected: {raised}" if raised else "as expected"),
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
