"""One round of one workload: set-up, warm-up, timed epochs, output check.

``bench.run`` launches this module in a fresh interpreter per round, so
every round pays (and reports) its own set-up and no round inherits
another's heap.  :func:`run_round` is also importable, which is how the
harness's own tests drive it in-process.

An *epoch* is one coordinated checkpoint (or restore): the client
threads start together and the epoch ends when the last ``fsync()`` +
``close()`` (or the last length-checked byte) has returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro import CRFS, CRFSConfig, InstrumentedBackend, LocalDirBackend, NullBackend
from repro.units import MiB
from repro.util.stats import percentile

from .tracer import Tracer
from .workloads import WORKLOADS, ClientPlan, Workload, build_plans, call_stream_digest

__all__ = ["RoundSpec", "run_round"]

_WARMUP_EPOCHS = 2
_MIN_EPOCHS = 4
#: One ceiling sample is taken after every this-many timed epochs.
_CEILING_EVERY = 4
_CEILING_BLOCK = 4 * MiB


class PageCacheBackend(LocalDirBackend):
    """A real directory whose ``fsync`` returns at once.

    The benchmark may write only inside its checkout, wherever that
    lives, and it measures the program, not a device: on the sandbox's
    shared virtual disk a real ``fsync`` was up to 45 % of an epoch and
    most of its run-to-run spread.  Without it the data files stay in
    the page cache for the few seconds a round lives (they are unlinked
    before the kernel's writeback would reach them) — what a tmpfs
    gives.  CRFS still flushes, drains and issues every ``fsync``."""

    name = "pagecache"

    def fsync(self, handle: Any) -> None:
        return None


@dataclass
class RoundSpec:
    """What the parent asks of one child (JSON on the command line)."""

    workload: str
    seed: int
    data_root: str
    profile: str = "full"
    #: Timed epochs run until this many seconds have passed (and at
    #: least ``_MIN_EPOCHS`` have run) ...
    budget_s: float = 5.0
    #: ... unless this is set: then exactly this many run.
    fixed_epochs: int = 0
    setup_only: bool = False
    #: Where to write the spans; setting it turns tracing on.
    trace_path: str = ""
    ceilings: bool = False
    inject_corruption: bool = False
    #: ``time.time()`` just before the parent launched the child.
    spawn_t: float = 0.0


class _Tally:
    """What one client thread got done in one epoch."""

    __slots__ = ("ok", "error")

    def __init__(self) -> None:
        self.ok = 0
        self.error = ""


def _checkpoint(fs: CRFS, plan: ClientPlan, tally: _Tally, hasher: Any) -> None:
    """One client's checkpoint: open, write the plan, fsync, close.
    (``hasher`` is the restore client's; both share one signature.)"""
    ok = 0
    try:
        f = fs.open(plan.path)
        try:
            write = f.write
            for view, n in zip(plan.views, plan.sizes):
                if write(view) == n:
                    ok += 1
            f.fsync()
            ok += 1
        finally:
            f.close()
        ok += 1
    finally:
        tally.ok = ok


def _restore(fs: CRFS, plan: ClientPlan, tally: _Tally, hasher: Any) -> None:
    """One client's restore: open, read the image front to back, close.
    Timed epochs check lengths only; ``hasher`` is set on the untimed
    epochs that digest what the mount returned."""
    ok = 0
    try:
        f = fs.open(plan.path, create=False)
        try:
            pread = f.pread
            offset = 0
            for n in plan.sizes:
                data = pread(n, offset)
                if len(data) == n:
                    ok += 1
                if hasher is not None:
                    hasher.update(data)
                offset += n
        finally:
            f.close()
        ok += 1
    finally:
        tally.ok = ok


def _guarded(fn: Any, fs: CRFS, plan: ClientPlan, tally: _Tally, hasher: Any) -> None:
    try:
        fn(fs, plan, tally, hasher)
    except Exception:
        # Reported as failed ops by the caller, which knows how many ops
        # the epoch planned; the traceback goes into the result.
        tally.error = traceback.format_exc()


class _Round:
    """The mounted filesystem plus the bookkeeping of one round."""

    def __init__(self, workload: Workload, plans: list[ClientPlan], fs: CRFS):
        self.workload = workload
        self.plans = plans
        self.fs = fs
        self.client = _checkpoint if workload.kind == "write" else _restore
        extra = 2 if workload.kind == "write" else 1  # fsync + close / close
        self.ops_per_epoch = sum(len(p.sizes) + extra for p in plans)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def epoch(self, digest: bool = False) -> tuple[float, float, list[str]]:
        """Run one epoch; returns (wall s, CPU s, per-client digests)."""
        tallies = [_Tally() for _ in self.plans]
        hashers = [hashlib.blake2b() if digest else None for _ in self.plans]
        threads = [
            threading.Thread(
                target=_guarded,
                args=(self.client, self.fs, plan, tally, hasher),
                name=f"bench-client-{i}",
            )
            for i, (plan, tally, hasher) in enumerate(zip(self.plans, tallies, hashers))
        ]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self.attempted += self.ops_per_epoch
        self.failed += self.ops_per_epoch - sum(t.ok for t in tallies)
        self.errors += [t.error for t in tallies if t.error]
        return wall, cpu, [h.hexdigest() if h is not None else "" for h in hashers]

    def lay_down_images(self) -> None:
        """Restore workloads: write each image once, through the mount."""
        for plan in self.plans:
            with self.fs.open(plan.path) as f:
                for view in plan.views:
                    f.write(view)
                f.fsync()

    def check(self, ok: bool, what: str) -> None:
        """One output check = one op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


class _Ceilings:
    """Rates the machine allows, sampled between the epochs of the same
    child so they see the same host: memcpy into a chunk-sized buffer,
    raw backend pwrite + fsync, and the empty ``write()`` call floor."""

    def __init__(self, data_root: str):
        self.src = memoryview(os.urandom(_CEILING_BLOCK))
        self.dst = bytearray(_CEILING_BLOCK)
        self.backend = PageCacheBackend(os.path.join(data_root, "ceiling"))
        self.handle = self.backend.open("/ceiling.bin")
        self.null = CRFS(NullBackend(), CRFSConfig.from_sizes("4M", "16M")).mount()
        self.file = self.null.open("/empty")
        self.samples: dict[str, list[float]] = {
            "memcpy_mib_s": [],
            "backend_pwrite_mib_s": [],
            "empty_write_calls_per_s": [],
        }
        # The first pass faults the buffers in and allocates the file's
        # blocks; like the warm-up epochs it is discarded.
        self.sample()
        for rates in self.samples.values():
            rates.clear()

    def sample(self) -> None:
        clock = time.perf_counter
        reps = 8
        t0 = clock()
        for _ in range(reps):
            self.dst[:] = self.src
        self.samples["memcpy_mib_s"].append(reps * _CEILING_BLOCK / MiB / (clock() - t0))
        t0 = clock()
        for i in range(reps):
            self.backend.pwrite(self.handle, self.src, i * _CEILING_BLOCK)
        self.backend.fsync(self.handle)
        self.samples["backend_pwrite_mib_s"].append(
            reps * _CEILING_BLOCK / MiB / (clock() - t0)
        )
        calls = 2000
        write = self.file.write
        t0 = clock()
        for _ in range(calls):
            write(b"")
        self.samples["empty_write_calls_per_s"].append(calls / (clock() - t0))

    def close(self) -> None:
        self.file.close()
        self.null.unmount()
        self.backend.close(self.handle)


def _medium(path: str) -> tuple[str, str]:
    """("tmpfs" | "disk" | "unknown", filesystem type) under ``path``'s
    page cache."""
    try:
        with open("/proc/mounts") as f:
            mounts = [line.split()[1:3] for line in f]
    except OSError:
        return "unknown", "unknown"
    real = os.path.realpath(path)
    best = ("", "unknown")
    for mount_point, fstype in mounts:
        prefix = mount_point.rstrip("/") + "/"
        if (real + "/").startswith(prefix) and len(mount_point) > len(best[0]):
            best = (mount_point, fstype)
    return ("tmpfs" if best[1] in ("tmpfs", "ramfs") else "disk"), best[1]


def _file_digest(path: str) -> tuple[str, int]:
    """blake2b and length of a backend file, read with plain ``open()``."""
    h = hashlib.blake2b()
    size = 0
    buf = bytearray(4 * MiB)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            h.update(memoryview(buf)[:n])
            size += n
    return h.hexdigest(), size


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


def _stats_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """``after - before`` for the counter sections the layers report
    (gauges such as ``max_depth`` are taken from ``after``)."""

    def sub(section: str, *keys: str) -> dict[str, Any]:
        return {k: after[section][k] - before[section][k] for k in keys}

    return {
        "writes": after["writes"] - before["writes"],
        "bytes_in": after["bytes_in"] - before["bytes_in"],
        "pool": sub("pool", "acquires", "waits"),
        "queue": {**sub("queue", "puts"), "max_depth": after["queue"]["max_depth"]},
        "drain": sub("drain", "waits", "waits_blocked", "time_total"),
        "read": sub(
            "read", "reads", "bytes_read", "hits", "misses", "prefetched",
            "prefetch_dropped", "prefetch_wasted",
        ),
        "mem": sub("mem", "bytes_copied", "copies"),
    }


def run_round(spec: RoundSpec) -> dict[str, Any]:
    """Run one round and return its measurements (JSON-serialisable)."""
    workload = WORKLOADS[spec.workload]
    os.makedirs(spec.data_root, exist_ok=True)
    inner = PageCacheBackend(spec.data_root) if workload.backend == "localdir" else NullBackend()
    tracer = Tracer() if spec.trace_path else None
    if tracer is not None:
        tracer.install(type(inner))
    try:
        result = _run(spec, workload, inner, tracer)
        if tracer is not None and "layers" in result:
            header = {k: result[k] for k in ("workload", "seed", "profile", "layers")}
            with open(spec.trace_path, "w") as f:
                json.dump({**header, **tracer.spans()}, f)
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(spec.data_root, ignore_errors=True)


def _run(
    spec: RoundSpec, workload: Workload, inner: Any, tracer: Tracer | None
) -> dict[str, Any]:
    plans = build_plans(workload, spec.seed, spec.profile)
    backend = InstrumentedBackend(inner)
    fs = CRFS(backend, workload.crfs_config())
    if tracer is not None:
        fs.kernel.subscribe(tracer.observer)
    fs.mount()
    ceilings = _Ceilings(spec.data_root) if spec.ceilings else None
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": spec.seed,
        "profile": spec.profile,
        "call_stream_digest": call_stream_digest(plans),
        "logical_bytes_per_epoch": sum(p.image_bytes for p in plans),
        "medium": (
            (*_medium(spec.data_root), "fsync-noop")
            if workload.backend == "localdir"
            else ("null",)
        ),
    }
    try:
        rnd = _Round(workload, plans, fs)
        restore = workload.kind == "read"
        if restore:
            rnd.lay_down_images()
        # Warm-up (discarded): creates the data files, faults the pool and
        # the payload in.  Later epochs overwrite the files in place, so
        # page allocation is not what is timed.  A restore's first warm-up
        # epoch digests what the mount returned.
        mount_digests = [rnd.epoch(digest=restore)[2]] if restore else []
        for _ in range(_WARMUP_EPOCHS - len(mount_digests)):
            rnd.epoch()
        if tracer is not None:
            plan = tracer.layers().get("checkpoint.sizedist.plan", {})
            result["plan_s"] = plan.get("total_s", 0.0)
            tracer.reset()
        backend.clear()
        result["setup_s"] = time.time() - spec.spawn_t
        if spec.setup_only:
            return result
        result.update(_timed_epochs(spec, rnd, backend, tracer, ceilings))
        _check_outputs(spec, rnd, mount_digests)
        result["ops"] = {"attempted": rnd.attempted, "failed": rnd.failed}
        result["errors"] = rnd.errors
        return result
    finally:
        if ceilings is not None:
            ceilings.close()
        fs.unmount()


def _timed_epochs(
    spec: RoundSpec,
    rnd: _Round,
    backend: InstrumentedBackend,
    tracer: Tracer | None,
    ceilings: _Ceilings | None,
) -> dict[str, Any]:
    """The measurement: epochs of fixed work until the budget is spent."""
    stats0 = rnd.fs.stats()
    walls: list[float] = []
    cpus: list[float] = []
    deadline = time.perf_counter() + spec.budget_s
    while (
        len(walls) < spec.fixed_epochs
        if spec.fixed_epochs
        else len(walls) < _MIN_EPOCHS or time.perf_counter() < deadline
    ):
        if tracer is not None:
            tracer.recording = not walls  # raw spans of the first epoch only
        wall, cpu, _ = rnd.epoch()
        walls.append(wall)
        cpus.append(cpu)
        if ceilings is not None and len(walls) % _CEILING_EVERY == 0:
            ceilings.sample()
    # Before the output check allocates anything: the pool, not the harness.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    by_op: dict[str, dict[str, int]] = {}
    for record in backend.ops():
        entry = by_op.setdefault(record.op, {"calls": 0, "bytes": 0})
        entry["calls"] += 1
        entry["bytes"] += record.size
    measured: dict[str, Any] = {
        "rss_kib": rss_kib,
        "epochs": {"wall_s": walls, "cpu_s": cpus},
        "stats": _stats_delta(stats0, rnd.fs.stats()),
        "backend": by_op,
    }
    if tracer is not None:
        tracer.recording = False
        durations = tracer.durations()
        chunks = tracer.observer.chunks
        measured["layers"] = tracer.layers()
        measured["write_p99_s"] = percentile(durations, 99) if durations else 0.0
        measured["chunks"] = {
            "residency_s": sum(start - sealed for sealed, start, _ in chunks),
            "busy_s": sum(duration for _, _, duration in chunks),
        }
    if ceilings is not None:
        measured["ceilings"] = ceilings.samples
    return measured


def _check_outputs(spec: RoundSpec, rnd: _Round, mount_digests: list[list[str]]) -> None:
    """The paper's restart property: what the round wrote is restartable
    from the backend root without CRFS.  One op per image."""
    workload, plans = rnd.workload, rnd.plans
    on_disk = workload.backend == "localdir"
    if spec.inject_corruption:
        if not on_disk:
            raise ValueError(f"{workload.name} keeps no backend file to corrupt")
        _flip_byte(
            os.path.join(spec.data_root, plans[0].path.lstrip("/")), plans[0].image_bytes // 2
        )
    if workload.kind == "read":
        # One more untimed epoch, digesting what the mount returns.
        mount_digests = mount_digests + [rnd.epoch(digest=True)[2]]
    for i, plan in enumerate(plans):
        expected = plan.image_digest()
        if on_disk:
            # Plain open(): no CRFS on this path.
            got, size = _file_digest(os.path.join(spec.data_root, plan.path.lstrip("/")))
        else:
            # A discarding backend holds no bytes; its length is all
            # there is to check.
            got, size = expected, rnd.fs.stat(plan.path).size
        good = got == expected and size == plan.image_bytes
        good = good and all(digests[i] == expected for digests in mount_digests)
        rnd.check(good, f"{workload.name}{plan.path}: image digest or length is wrong")


def main(argv: list[str]) -> int:
    spec = RoundSpec(**json.loads(argv[0]))
    print(json.dumps(run_round(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
