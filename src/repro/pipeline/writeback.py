"""The writeback engine: the per-chunk control flows, written once.

The paper's contribution (Section IV-B) is one small loop — dequeue a
sealed chunk, write it to the backing filesystem, bump
``complete_chunk_count``, recycle the buffer.  Everything that grew
around it (retry/backoff under a circuit breaker, gathered vectored
batches, the tier pump that points the same loop at a deeper store)
lives here as plain generator functions over a small per-plane *port*:

* :func:`attempts` — one backend op under a
  :class:`~repro.pipeline.resilience.RetryPolicy`, outcomes fed to a
  :class:`~repro.pipeline.resilience.BackendHealth` breaker;
* :func:`writeback` — the IO-worker step: a single chunk, a gathered
  ``pwritev`` batch, or a batch broken by an open breaker;
* :func:`ingest` — the general write (Section IV-B): copy into the
  file's open chunk, seal and enqueue it when it fills (or on a gap),
  take a fresh one;
* :func:`flush` — seal the partial chunk (close/fsync, and ahead of
  the bytes of a write that skips aggregation);
* :func:`write_through` — a synchronous write under the retry policy and
  breaker (the write-through threshold, and the breaker-open probe);
* :func:`stage` / :func:`migrate` — tier-0 acceptance and the pump step
  (forward on success, strand on retry exhaustion).

A port's operations are generators.  The timing plane's are its
virtual-clock generators (they yield simulator waitables, and ``yield
from`` hands those straight to the simulator); the threaded plane's are
blocking calls wrapped with :func:`blocking` — generators that never
yield — driven by :func:`run`, which raises if anything does.  Python's
own ``yield from`` is the only interpreter.

Ports (duck-typed; see the mounts, :class:`~repro.core.mount.CRFS` and
:class:`~repro.simcrfs.model.SimCRFS`, and the tier pump's
:class:`~repro.backends.tiered.TieredBackend`) provide, for the
writeback flows (the mount):

``retry`` / ``health``
    the mount's retry policy and tier-0 breaker;
``sleep(delay)``
    backoff wait;
``backend_write(file, extents, offset)``
    one backend op: a positional write of one extent, a vectored write
    of several;
``stage(file, offset, length)``
    tier 0 accepted one extent (no-op on untiered mounts);
``complete(extent, error, start)``
    per-chunk completion accounting plus buffer recycle;

for the write flows (the mount again, run under the file's
``write_lock`` on the threaded plane):

``acquire(file, offset)``
    a fresh pool chunk, opened for ``file`` at ``offset``;
``fill(file, op, data)``
    execute one :class:`~repro.pipeline.planner.Fill`;
``seal(file, op)``
    seal the open chunk as :class:`~repro.pipeline.planner.Seal` ``op``
    says and hand it to the work queue — a hand-off that raises after
    the chunk was taken completes it as failed, latching the cause;
``pool_would_wait(file)`` / ``shed_read_caches()``
    the backpressure predicate, and the pressure relief run before an
    acquire it says would wait;

where files also expose ``current_chunk`` (None while no chunk is open)
and a write op that raises has changed nothing, but for that seal;
and for the pump flows: ``retry``, ``sleep``, ``staging`` (the shared
:class:`~repro.pipeline.staging.StagingCore`), ``tier_healths``,
``lock`` (a context manager guarding the staging accounting — a real
lock on the threaded plane, a null context on the single-threaded
simulator), the ``pump_depth`` gauge, ``tier_copy(file, tier, offset,
lengths)`` (read the run from ``tier - 1``, write it into ``tier``),
``pump_put(extent)``, ``staging_wake(staged_file)`` and
``tier_close(file)``.  Files expose ``path`` plus ``pipeline`` (chunk
writeback) or ``staged`` (pump).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Generator, Sequence

from ..errors import FileStateError
from .planner import Seal
from .resilience import BackendHealth, RetryPolicy

__all__ = [
    "Extent",
    "attempts",
    "blocking",
    "contiguous",
    "flush",
    "ingest",
    "migrate",
    "run",
    "stage",
    "write_through",
    "writeback",
]

Gen = Generator[Any, Any, Any]


class Extent:
    """A contiguous byte run of one file bound for one tier — the unit
    both loops move.  Tier 0 is a sealed chunk bound for the mount's
    backend; tier k >= 1 is pump work, ``chunks`` accepted extents whose
    original ``lengths`` are kept so a coalesced migration can still
    issue one iovec per extent.  ``data`` is the threaded plane's view
    of the bytes (the timing plane moves sizes only)."""

    __slots__ = ("file", "tier", "offset", "length", "chunks", "lengths", "data")

    def __init__(
        self,
        file: Any,
        tier: int,
        offset: int,
        length: int,
        chunks: int = 1,
        lengths: tuple[int, ...] | None = None,
        data: Any = None,
    ):
        self.file = file
        self.tier = tier
        self.offset = offset
        self.length = length
        self.chunks = chunks
        self.lengths = lengths if lengths is not None else (length,)
        self.data = data


def contiguous(prev: Extent, nxt: Extent) -> bool:
    """Whether ``nxt`` extends ``prev`` into one backend op: same file,
    same destination tier, starting exactly where ``prev``'s bytes end."""
    return (
        nxt.file is prev.file
        and nxt.tier == prev.tier
        and nxt.offset == prev.offset + prev.length
    )


def blocking(fn: Callable[..., Any]) -> Callable[..., Gen]:
    """Wrap a blocking call as a generator that never yields — how the
    threaded plane's port presents real calls to the engine."""

    @functools.wraps(fn)
    def op(*args: Any, **kwargs: Any) -> Gen:
        return fn(*args, **kwargs)
        yield  # pragma: no cover - unreachable; makes ``op`` a generator

    return op


def run(flow: Gen) -> Any:
    """Drive an engine flow to completion on the calling thread (the
    threaded plane's driver) and return its result.  A flow that yields
    is a bug — a port operation that is not blocking."""
    try:
        flow.send(None)
    except StopIteration as stop:
        return stop.value
    flow.close()
    raise RuntimeError("threaded-plane writeback flow yielded; its port must block")


def attempts(
    policy: RetryPolicy,
    health: BackendHealth,
    op: Callable[[], Gen],
    *,
    path: str,
    file_offset: int,
    sleep: Callable[[float], Gen],
    on_retry: Callable[[int, float, BaseException], None] | None = None,
) -> Gen:
    """Drive ``op`` (a fresh generator per attempt) under ``policy`` and
    return the error to surface, or None on success.

    Every attempt's outcome is fed to ``health``.  ``on_retry(attempt,
    delay, error)`` fires before each backoff sleep.  Non-``Exception``
    failures (KeyboardInterrupt and friends) are surfaced but never
    retried.
    """
    attempt = 1
    while True:
        try:
            yield from op()
        except GeneratorExit:  # the driving process is being torn down
            raise
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            error = exc
        else:
            health.record_success()
            return None
        health.record_failure()
        if not isinstance(error, Exception) or not policy.should_retry(attempt):
            return error
        delay = policy.delay(attempt, path, file_offset)
        if on_retry is not None:
            on_retry(attempt, delay, error)
        if delay > 0:
            yield from sleep(delay)
        attempt += 1


def _write_run(port: Any, extents: Sequence[Extent]) -> Gen:
    """One contiguous run as one backend op: one retry schedule at the
    run's base offset, one health record per attempt, and — only once
    the op finally succeeded, so a reissued attempt never double-stages
    — one tier-0 acceptance of the whole run.  Returns the error that
    survived the retries, or None."""
    file = extents[0].file
    base = extents[0].offset
    pipeline = file.pipeline
    error = yield from attempts(
        port.retry,
        port.health,
        lambda: port.backend_write(file, extents, base),
        path=file.path,
        file_offset=base,
        sleep=port.sleep,
        on_retry=functools.partial(pipeline.note_retry, base),
    )
    if error is None:
        yield from port.stage(file, base, sum(e.length for e in extents))
    return error


def writeback(port: Any, extents: Sequence[Extent]) -> Gen:
    """The IO-worker step for one dequeued run of sealed chunks.

    A gathered batch is ONE backend op; the error that survives its
    retries is attributed to every member in offset order (each file
    latches raise-exactly-once).  If the breaker is already open the
    batch is broken back into per-chunk writes.  Completion is accounted
    *before* the buffer recycles: once ``complete_chunk_count`` rises a
    drain-waiter may proceed.
    """
    pipeline = extents[0].file.pipeline
    base = extents[0].offset
    if len(extents) > 1 and port.health.degraded:
        pipeline.note_batch_broken(base, len(extents), "degraded")
        for extent in extents:
            yield from writeback(port, [extent])
        return
    start = pipeline.clock()
    error = yield from _write_run(port, extents)
    if len(extents) > 1:
        pipeline.note_batch(
            base,
            len(extents),
            sum(e.length for e in extents),
            start=start,
            error=error,
        )
    for extent in extents:
        port.complete(extent, error, start)


def write_through(port: Any, extent: Extent) -> Gen:
    """A synchronous write under the retry policy and the breaker — a
    write at the write-through threshold, or any write while the breaker
    is open, when it doubles as a recovery probe: a success closes the
    breaker, exhaustion raises to the writer — the error is synchronous,
    so nothing is latched."""
    error = yield from _write_run(port, [extent])
    if error is not None:
        raise error


def _seal(port: Any, file: Any, seal: Seal) -> Gen:
    if file.current_chunk is None:
        raise FileStateError(f"{file.path}: seal with no open chunk")
    yield from port.seal(file, seal)


def ingest(port: Any, file: Any, offset: int, length: int, data: Any = None) -> Gen:
    """The general write (Section IV-B): execute the Fill/Seal plan of
    one write.  A fresh chunk is acquired only while none is open, and
    an acquire the pool would make wait is preceded by shedding the read
    caches — their leases draw on the same pool, and the cache is
    advisory where a parked writer is not.  ``data`` is the threaded
    plane's byte view (the timing plane moves sizes).

    A Fill the runtime cannot execute as planned (a fresh chunk while
    one is open, or a continuation with none) raises.  Whatever raises,
    the planner is rewound to the ops that ran — a seal that took the
    chunk before its hand-off raised ran, and latched the cause — so the
    file is never left divergent: it stays writable and closable, or
    fails fast naming what went wrong."""
    pipeline = file.pipeline
    ops = pipeline.plan_write(offset, length)
    done = 0
    try:
        for op in ops:
            held = file.current_chunk is not None
            if type(op) is Seal:
                yield from _seal(port, file, op)
            else:
                if held == (op.chunk_offset == 0):
                    raise FileStateError(
                        f"{file.path}: planner/runtime divergence (fill at "
                        f"chunk offset {op.chunk_offset}, open chunk {held})"
                    )
                if not held:
                    if port.pool_would_wait(file):
                        port.shed_read_caches()
                    yield from port.acquire(file, op.file_offset)
                yield from port.fill(file, op, data)
            done += 1
    except BaseException:
        if type(ops[done]) is Seal and held and file.current_chunk is None:
            done += 1
        pipeline.planner.rewind(ops, done)
        raise


def flush(port: Any, file: Any, through: tuple[int, int] | None = None) -> Gen:
    """Seal the partial chunk, if any: on close/fsync, or — ``through``
    is the (offset, length) of a write that skips aggregation — ahead of
    every byte the caller then writes with :func:`write_through`, moving
    the append point past the range (and failing fast, like
    :func:`ingest`, on a latched error)."""
    pipeline = file.pipeline
    ops = pipeline.plan_flush() if through is None else pipeline.plan_write_through(*through)
    for op in ops:
        yield from _seal(port, file, op)


def _enqueue(port: Any, extent: Extent) -> Gen:
    """Hand one extent to the pump (caller holds ``port.lock``).  The
    depth gauge is maintained here rather than read back from the queue
    so both planes report the same workload-determined depths."""
    port.pump_depth += 1
    port.staging.enqueued(extent.tier, port.pump_depth)
    yield from port.pump_put(extent)


def stage(port: Any, file: Any, offset: int, length: int) -> Gen:
    """Tier 0 accepted one extent: every deeper tier is now owed it."""
    with port.lock:
        port.staging.accept(file.staged, offset, length)
        yield from _enqueue(port, Extent(file, 1, offset, length))


def migrate(port: Any, extents: Sequence[Extent]) -> Gen:
    """The pump step: copy one contiguous run from tier k-1 into tier k
    under the destination tier's own retry schedule and breaker (deep
    trouble never touches the mount's ``resilience`` section).  On
    success the run is forwarded toward tier k+1; on retry exhaustion it
    strands where it is.  The worker that pays a closed file's last debt
    finishes its deferred per-tier closes."""
    first = extents[0]
    file, tier, offset = first.file, first.tier, first.offset
    sf = file.staged
    staging = port.staging
    total = sum(e.length for e in extents)
    chunks = sum(e.chunks for e in extents)
    lengths = tuple(n for e in extents for n in e.lengths)
    with port.lock:
        port.pump_depth -= len(extents)
    start = staging.clock()
    error = yield from attempts(
        port.retry,
        port.tier_healths[tier],
        lambda: port.tier_copy(file, tier, offset, lengths),
        path=file.path,
        file_offset=offset,
        sleep=port.sleep,
        on_retry=functools.partial(staging.retried, tier, file.path, offset),
    )
    with port.lock:
        if error is None:
            staging.migrated(sf, tier, offset, total, chunks, start)
            if tier + 1 < staging.ntiers:
                yield from _enqueue(
                    port, Extent(file, tier + 1, offset, total, chunks, lengths)
                )
        else:
            staging.stranded(sf, tier, offset, total, chunks, start, error)
        port.staging_wake(sf)
        last_debt = sf.closing and sum(sf.pending) == 0
        if last_debt:
            sf.closing = False
    if last_debt:
        yield from port.tier_close(file)
