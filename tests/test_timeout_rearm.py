"""The table of the threaded plane's bounded waits.

One row per wait that gives up after ``waits.STUCK_S``.  Under a bound
patched to ``BOUND`` and a "teaser" thread hammering the wait's
condition with notifies (spurious wakeups), each row raises its
exception type within ``[0.5 × BOUND, BOUND + SLACK]``; its twin returns
when the condition comes true mid-wait.  An idle worker's
``WorkQueue.get_batch`` is the one wait without a bound, pinned last.
"""

import functools
import threading
import time
from collections import namedtuple
from contextlib import contextmanager

import pytest

from repro import waits
from repro.backends import FaultRule, FaultyBackend, MemBackend, TieredBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.core.buffer_pool import BufferPool
from repro.core.filetable import FileEntry
from repro.core.readcache import ReadCache
from repro.core.workqueue import WorkQueue
from repro.errors import (
    BackendTimeoutError,
    FileStateError,
    MountError,
    QueueFullTimeout,
    ShutdownError,
)
from repro.pipeline import PipelineKernel
from repro.pipeline.readahead import PREFETCH, ReadaheadCore
from repro.pipeline.tenancy import DEFAULT_TENANT
from repro.pipeline.writeback import contiguous, run
from repro.units import KiB

CHUNK = 64 * KiB

#: The patched bound every row must give up at.
BOUND = 0.3

#: The storm must not extend BOUND anywhere near this; generous so slow
#: CI machines never flake.  Also the bound a twin waits under.
SLACK = 5.0


class _Teaser:
    """A thread that notifies ``cond`` in a tight loop until stopped —
    every notify is a spurious wakeup for the waiter under test."""

    def __init__(self, cond: threading.Condition):
        self.cond = cond
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            with self.cond:
                self.cond.notify_all()
            time.sleep(0.001)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()


def assert_deadline(fn, exc_type, timeout):
    start = time.monotonic()
    with pytest.raises(exc_type):
        fn()
    elapsed = time.monotonic() - start
    assert timeout * 0.5 <= elapsed < timeout + SLACK, elapsed


#: ``wait`` blocks on ``cond`` until ``come_true`` is called.
Row = namedtuple("Row", "wait cond come_true")


def _gated(backend):
    """``backend`` with every ``pwrite`` parked on a gate until it is set."""
    gate = threading.Event()
    rule = FaultRule(op="pwrite", nth=1, every=True, delay=1.0)
    return gate, FaultyBackend(backend, [rule], sleep=lambda _s: gate.wait())


@contextmanager
def pool_acquire():
    pool = BufferPool(PipelineKernel(CHUNK), CHUNK)
    held = pool.acquire()
    yield Row(pool.acquire, pool._available, lambda: pool.release(held))


@contextmanager
def quota_put():
    q = WorkQueue(quotas={DEFAULT_TENANT: 1})
    q.put("full")
    yield Row(lambda: q.put("late"), q._not_full, lambda: q.get_batch(1, contiguous))


@contextmanager
def wait_drained():
    entry = FileEntry("/stuck", None, PipelineKernel(CHUNK))
    entry.note_chunk_queued()  # one chunk outstanding until completed
    yield Row(entry.wait_drained, entry._drain, entry.note_chunk_complete)


@contextmanager
def mount_wait(op):
    """A mount with one full chunk parked in its ``pwrite``: ``close``
    and ``fsync`` wait on the file's drain, the mount's ``stop_workers``
    joins the parked worker (the idle one parks on the queue)."""
    gate, backend = _gated(MemBackend())
    fs = CRFS(backend, CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=2))
    fs.mount()
    f = fs.open("/ckpt")
    try:
        f.write(b"x" * CHUNK)
        if op == "shutdown":
            yield Row(fs.stop_workers, fs.queue._not_empty, gate.set)
        else:
            drain = fs.table.lookup("/ckpt")._drain
            yield Row(getattr(f, op), drain, gate.set)
    finally:
        gate.set()
        fs.unmount()


@contextmanager
def await_entry():
    """A cache with one prefetch entry nobody will land until told to,
    over a backend whose reads are delayed — so a reader parks on it."""
    slow = FaultyBackend(MemBackend(), [FaultRule(op="pread", delay=1.0)])
    fs = CRFS(slow, CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK))  # never mounted
    core = ReadaheadCore("/stuck", fs.kernel, capacity=4, depth=1)
    cache = ReadCache(fs, FileEntry("/stuck", None, fs.kernel), core)
    centry, _ = cache.core.admit(3, PREFETCH)

    def wait():
        with cache.lock:
            run(cache.await_entry(centry))
        assert centry.ready  # landed, not evicted

    def land():
        with cache.lock:
            cache.core.warm_done(centry, object(), CHUNK)
            cache.wake(centry)

    yield Row(wait, cache._cond, land)


@contextmanager
def tiered_wait(op):
    """A two-tier backend whose pump is parked in its first deep write,
    leaving staging debt outstanding."""
    gate, deep = _gated(MemBackend())
    backend = TieredBackend([MemBackend(), deep])
    try:
        h = backend.open("/ckpt")
        backend.pwrite(h, b"x" * CHUNK, 0)
        wait = (lambda: backend.fsync_through(h, 1)) if op == "fsync_through" else getattr(backend, op)
        yield Row(wait, backend._idle, gate.set)
    finally:
        gate.set()  # free the pump so shutdown drains cleanly
        backend.shutdown()


#: name -> (arrange, the exception the wait gives up with).
WAITS = {
    "pool_acquire": (pool_acquire, ShutdownError),
    "quota_put": (quota_put, QueueFullTimeout),
    "wait_drained": (wait_drained, FileStateError),
    "close": (functools.partial(mount_wait, "close"), FileStateError),
    "fsync": (functools.partial(mount_wait, "fsync"), FileStateError),
    "await_entry": (await_entry, FileStateError),
    "fsync_through": (functools.partial(tiered_wait, "fsync_through"), BackendTimeoutError),
    "drain": (functools.partial(tiered_wait, "drain"), BackendTimeoutError),
    "io_shutdown": (functools.partial(mount_wait, "shutdown"), TimeoutError),
    "tiered_shutdown": (functools.partial(tiered_wait, "shutdown"), BackendTimeoutError),
}


def gives_up(name, monkeypatch):
    arrange, exc_type = WAITS[name]
    with arrange() as row, monkeypatch.context() as m:
        m.setattr(waits, "STUCK_S", BOUND)
        with _Teaser(row.cond):
            assert_deadline(row.wait, exc_type, BOUND)


def returns(name, monkeypatch):
    arrange, _ = WAITS[name]
    with arrange() as row, monkeypatch.context() as m:
        m.setattr(waits, "STUCK_S", SLACK)
        with _Teaser(row.cond):
            threading.Timer(0.1, row.come_true).start()
            row.wait()  # must not raise


@pytest.mark.parametrize("name", WAITS)
def test_bounded_wait_gives_up_at_the_bound(name, monkeypatch):
    gives_up(name, monkeypatch)


@pytest.mark.parametrize("name", WAITS)
def test_bounded_wait_returns_when_its_condition_comes_true(name, monkeypatch):
    returns(name, monkeypatch)


# Rows of the table under the names they had as per-site tests.


class TestWaitDrainedDeadline:
    def test_wait_drained_times_out_under_notify_storm(self, monkeypatch):
        gives_up("wait_drained", monkeypatch)

    def test_wait_drained_wakes_on_real_completion(self, monkeypatch):
        returns("wait_drained", monkeypatch)


class TestTierStagingDeadlines:
    def test_fsync_through_times_out_under_notify_storm(self, monkeypatch):
        gives_up("fsync_through", monkeypatch)

    def test_drain_times_out_under_notify_storm(self, monkeypatch):
        gives_up("drain", monkeypatch)


class TestReadCacheInFlightWait:
    def test_inflight_wait_times_out_under_notify_storm(self, monkeypatch):
        gives_up("await_entry", monkeypatch)

    def test_inflight_wait_returns_when_the_fetch_lands(self, monkeypatch):
        returns("await_entry", monkeypatch)

    def test_inflight_wait_survives_spurious_wakeups(self):
        """A read that lands on its own in-flight prefetch is woken by
        completions for *other* chunks (spurious for it) and must keep
        waiting — then return the bytes once its fetch really lands."""
        mem = MemBackend()
        # slow every backend pread a little so demand reads overlap the
        # queued prefetches and the in-flight branch is actually taken
        backend = FaultyBackend(
            mem,
            [FaultRule(op="pread", nth=1, every=True, delay=0.01)],
            sleep=time.sleep,
        )
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=2,
            read_cache_chunks=4, readahead_chunks=2,
        )
        data = bytes(range(256)) * (CHUNK // 256) * 4
        with CRFS(backend, cfg) as fs:
            f = fs.open("/ckpt")
            f.write(data)
            f.fsync()
            out = b"".join(f.pread(CHUNK, i * CHUNK) for i in range(4))
            assert out == data
            f.close()


# -- the unbounded wait --------------------------------------------------------


class TestWorkQueueDeadlines:
    def test_get_still_returns_a_late_item(self):
        """An item arriving mid-wait (amid the storm) is returned, not
        dropped."""
        q = WorkQueue()
        with _Teaser(q._not_empty):
            threading.Timer(0.1, lambda: q.put("late")).start()
            assert q.get_batch(1, contiguous) == ["late"]


@pytest.mark.parametrize("batch", [1, 4])
def test_an_idle_worker_is_never_bounded(batch, monkeypatch):
    """IO workers idle in ``get_batch`` past the bound, then
    write a file that reads back byte-exact."""
    monkeypatch.setattr(waits, "STUCK_S", 0.2)
    cfg = CRFSConfig(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=2,
        writeback_batch_chunks=batch,
    )
    data = bytes(range(256)) * (CHUNK // 256) * 3
    with CRFS(MemBackend(), cfg) as fs:
        time.sleep(0.5)
        with fs.open("/ckpt") as f:
            f.write(data)
        with fs.open("/ckpt", create=False) as f:
            assert f.pread(len(data), 0) == data


# -- unmount past a stuck worker -----------------------------------------------


def test_unmount_finishes_its_teardown_past_a_stuck_worker(monkeypatch):
    """A worker parked in ``pwrite`` forever: unmount raises the file's
    drain error with the worker join's chained, and still takes the
    mount down — pool closed, its parked acquirer woken."""
    gate, backend = _gated(MemBackend())
    fs = CRFS(backend, CRFSConfig(chunk_size=CHUNK, pool_size=CHUNK, io_threads=1))
    fs.mount()
    woke = []

    def acquirer():
        try:
            fs.pool.acquire()
        except ShutdownError as exc:
            woke.append(exc)

    writer = threading.Thread(target=acquirer)
    try:
        monkeypatch.setattr(waits, "STUCK_S", SLACK)
        fs.open("/ckpt").write(b"x" * CHUNK)  # the pool's one chunk, parked
        writer.start()  # parks on the empty pool under the long bound
        while not fs.pool._available._waiters:
            time.sleep(0.001)
        monkeypatch.setattr(waits, "STUCK_S", BOUND)
        with pytest.raises(FileStateError, match="drain stuck") as info:
            fs.unmount()
        join_error = info.value.__context__
        assert isinstance(join_error, TimeoutError), join_error
        assert "IO threads did not exit" in str(join_error)
        assert not fs.mounted
        writer.join(SLACK)
        assert len(woke) == 1 and "closed" in str(woke[0])
        with pytest.raises(MountError):
            fs.open("/after")
    finally:
        gate.set()


# -- one deadline for a whole teardown -----------------------------------------


def test_unmount_spends_one_bound_however_many_files_are_stuck(monkeypatch):
    """Three files each with a full chunk behind a worker parked in
    ``pwrite``: every drain and the worker join share one deadline, so
    unmount gives up after one bound (four, one per wait, before) and
    still reports every file and the join."""
    gate, backend = _gated(MemBackend())
    fs = CRFS(backend, CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1))
    fs.mount()
    try:
        for path in ("/a", "/b", "/c"):
            fs.open(path).write(b"x" * CHUNK)
        monkeypatch.setattr(waits, "STUCK_S", BOUND)
        start = time.monotonic()
        with pytest.raises(FileStateError, match="/a: drain stuck") as info:
            fs.unmount()
        assert time.monotonic() - start < 1.5 * BOUND
        chain, error = [], info.value
        while error is not None:
            chain.append(str(error))
            error = error.__context__
        assert [c.split(":")[0] for c in chain[:3]] == ["/a", "/b", "/c"]
        assert "IO threads did not exit" in chain[3] and len(chain) == 4
        assert not fs.mounted
    finally:
        gate.set()


def test_tiered_shutdown_spends_one_bound_on_its_drain_and_join(monkeypatch):
    """A pump parked in its deep write: the drain and the join share one
    deadline (one bound each before)."""
    with tiered_wait("shutdown") as row:
        monkeypatch.setattr(waits, "STUCK_S", BOUND)
        start = time.monotonic()
        with pytest.raises(BackendTimeoutError, match="did not exit") as info:
            row.wait()
        assert time.monotonic() - start < 1.5 * BOUND
        assert "drain stuck" in str(info.value.__context__)


def test_a_nested_deadline_keeps_the_outer_one(monkeypatch):
    monkeypatch.setattr(waits, "STUCK_S", SLACK)
    assert waits.bound() == SLACK
    with waits.one_deadline():
        time.sleep(0.05)
        with waits.one_deadline():
            assert waits.bound() < SLACK - 0.04
    assert waits.bound() == SLACK
