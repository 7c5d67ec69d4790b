"""Fault-injecting backend: scripted errors and delays.

Exercises the CRFS error paths the paper's design implies but does not
evaluate: an asynchronous chunk write that fails must be latched in the
file's metadata entry and surfaced at close()/fsync() — the only places
a POSIX application can observe writeback errors.  Also injects delays,
to drive the buffer pool into backpressure deterministically.

Rule flavours (see :class:`FaultRule`): one-shot (``nth``), persistent
(``every``), periodic (``period`` — e.g. "every pwrite fails once" is
``period=2``), bounded outages (``until``), and seeded probabilistic
(``p``/``seed``), optionally scoped to paths with an fnmatch glob.

The rule matching itself lives in :class:`FaultSchedule`, which the
timing plane's :class:`~repro.simio.faulty.FaultySimFilesystem` shares
— one rule list drives identical fault schedules on both planes.
"""

from __future__ import annotations

import fnmatch
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..util.rng import rng_for
from .base import Backend, BackendStat

__all__ = ["FaultyBackend", "FaultRule", "FaultSchedule"]


@dataclass
class FaultRule:
    """Fire on matching ops; ``op`` matches the backend method name
    ('pwrite', 'fsync', ...), ``path`` is an optional fnmatch glob the
    op's path must match (None matches everything).

    Firing schedule, for the Nth matching op (1-based count per op):

    * default: exactly the ``nth`` op;
    * ``every=True``: every op from ``nth`` on;
    * ``period=k``: ops ``nth``, ``nth+k``, ``nth+2k``, ... (``period=2``
      from ``nth=1`` fails every first attempt when a retry follows);
    * ``p=0.x``: each op from ``nth`` on fires with probability ``p``,
      drawn from a deterministic per-rule stream seeded by ``seed``;
    * ``until=m``: cap any of the above at op ``m`` (a bounded outage).

    ``error`` is raised when the rule fires; ``delay`` seconds are slept
    before the op proceeds (or before raising).
    """

    op: str
    nth: int = 1
    every: bool = False
    error: BaseException | None = None
    delay: float = 0.0
    p: float | None = None
    seed: int = 0
    path: str | None = None
    period: int = 0
    until: int | None = None

    def __post_init__(self) -> None:
        if self.nth < 1:
            raise ValueError("nth is 1-based")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.period < 0:
            raise ValueError(f"period must be >= 0, got {self.period}")
        if self.until is not None and self.until < self.nth:
            raise ValueError(f"until ({self.until}) must be >= nth ({self.nth})")

    def matches(self, op: str, path: str | None) -> bool:
        if self.op != op:
            return False
        if self.path is None:
            return True
        return path is not None and fnmatch.fnmatch(path, self.path)

    def fires(self, count: int, rng: Callable[[], "np.random.Generator"]) -> bool:
        """Whether the rule fires on the ``count``-th matching op.

        ``rng`` lazily supplies the rule's deterministic stream; it is
        drawn from only for probabilistic rules, so deterministic rules
        stay draw-free.
        """
        if count < self.nth:
            return False
        if self.until is not None and count > self.until:
            return False
        if self.p is not None:
            return float(rng().uniform()) < self.p
        if self.period:
            return (count - self.nth) % self.period == 0
        return self.every or count == self.nth


class FaultSchedule:
    """Thread-safe op counter + rule matcher, shared by both planes.

    :meth:`decide` bumps the per-op count and returns what the injector
    should do — ``(delay_seconds, error_or_None)`` — leaving *how* to
    delay (real sleep vs. virtual timeout) to the caller.
    """

    def __init__(self, rules: Iterable[FaultRule] | None = None):
        self.rules: list[FaultRule] = list(rules or [])
        self._counts: dict[str, int] = {}
        self._rngs: dict[int, np.random.Generator] = {}
        self._lock = threading.Lock()
        self.faults_fired = 0

    def add_rule(self, rule: FaultRule) -> None:
        with self._lock:
            self.rules.append(rule)

    def _rng(self, rule: FaultRule) -> np.random.Generator:
        """The rule's lazily-created deterministic stream (draw order is
        op-call order, so single-threaded schedules replay exactly)."""
        key = id(rule)
        rng = self._rngs.get(key)
        if rng is None:
            rng = rng_for(rule.seed, f"faultrule/{rule.op}/{rule.path or '*'}")
            self._rngs[key] = rng
        return rng

    def decide(self, op: str, path: str | None = None) -> tuple[float, BaseException | None]:
        """Count one ``op`` and return ``(delay, error)`` per the rules.

        Rules are consulted in list order; delays accumulate, the first
        firing rule with an error wins (later rules are not consulted,
        matching the pre-schedule behaviour of raising at the first
        erroring rule).
        """
        with self._lock:
            self._counts[op] = self._counts.get(op, 0) + 1
            count = self._counts[op]
            delay = 0.0
            error: BaseException | None = None
            for rule in self.rules:
                if not rule.matches(op, path):
                    continue
                if not rule.fires(count, lambda r=rule: self._rng(r)):
                    continue
                delay += rule.delay
                if rule.error is not None:
                    self.faults_fired += 1
                    error = rule.error
                    break
            return delay, error


class _FaultyHandle:
    """Wraps an inner handle with the path it was opened at, so the
    data-plane ops can be matched per-path."""

    __slots__ = ("inner", "path")

    def __init__(self, inner: Any, path: str):
        self.inner = inner
        self.path = path


def _unwrap(handle: Any) -> tuple[Any, str | None]:
    if isinstance(handle, _FaultyHandle):
        return handle.inner, handle.path
    return handle, None


class FaultyBackend(Backend):
    """Delegating wrapper that applies :class:`FaultRule` schedules.

    Every op — data plane and namespace plane — routes through the
    schedule, so rules can target metadata traffic (``file_size``,
    ``exists``, ``stat``, ``listdir``) as well as the write path.
    """

    name = "faulty"

    def __init__(self, inner: Backend, rules: list[FaultRule] | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.inner = inner
        self.schedule = FaultSchedule(rules)
        self._sleep = sleep

    @property
    def rules(self) -> list[FaultRule]:
        return self.schedule.rules

    @property
    def faults_fired(self) -> int:
        return self.schedule.faults_fired

    @property
    def reads_from_memory(self) -> bool:  # type: ignore[override]
        # A rule that delays reads stands for a device with latency.
        return self.inner.reads_from_memory and not any(
            rule.op == "pread" and rule.delay for rule in self.rules
        )

    def add_rule(self, rule: FaultRule) -> None:
        self.schedule.add_rule(rule)

    def _check(self, op: str, path: str | None = None) -> None:
        delay, error = self.schedule.decide(op, path)
        if delay:
            self._sleep(delay)
        if error is not None:
            raise error

    # -- data plane ----------------------------------------------------------

    def open(self, path: str, create: bool = True, truncate: bool = False) -> Any:
        self._check("open", path)
        return _FaultyHandle(self.inner.open(path, create=create, truncate=truncate), path)

    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        inner, path = _unwrap(handle)
        self._check("pwrite", path)
        return self.inner.pwrite(inner, data, offset)

    def pwritev(
        self, handle: Any, views: Sequence[bytes | memoryview], offset: int
    ) -> int:
        # A vectored write is one backend op: one "pwritev" count, one
        # possible fault for the whole batch (mirrored by the timing
        # plane's FaultySimFilesystem.writev).
        inner, path = _unwrap(handle)
        self._check("pwritev", path)
        return self.inner.pwritev(inner, views, offset)

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        inner, path = _unwrap(handle)
        self._check("pread", path)
        return self.inner.pread(inner, size, offset)

    def pread_into(self, handle: Any, buf: memoryview | bytearray, offset: int) -> int:
        # Counts as a "pread" for fault matching — the rule vocabulary
        # targets the logical op, not the buffer-ownership variant.
        inner, path = _unwrap(handle)
        self._check("pread", path)
        return self.inner.pread_into(inner, buf, offset)

    def fsync(self, handle: Any) -> None:
        inner, path = _unwrap(handle)
        self._check("fsync", path)
        self.inner.fsync(inner)

    def close(self, handle: Any) -> None:
        inner, path = _unwrap(handle)
        self._check("close", path)
        self.inner.close(inner)

    def file_size(self, handle: Any) -> int:
        inner, path = _unwrap(handle)
        self._check("file_size", path)
        return self.inner.file_size(inner)

    # -- namespace plane ------------------------------------------------------

    def exists(self, path: str) -> bool:
        self._check("exists", path)
        return self.inner.exists(path)

    def stat(self, path: str) -> BackendStat:
        self._check("stat", path)
        return self.inner.stat(path)

    def unlink(self, path: str) -> None:
        self._check("unlink", path)
        self.inner.unlink(path)

    def mkdir(self, path: str) -> None:
        self._check("mkdir", path)
        self.inner.mkdir(path)

    def rmdir(self, path: str) -> None:
        self._check("rmdir", path)
        self.inner.rmdir(path)

    def listdir(self, path: str) -> list[str]:
        self._check("listdir", path)
        return self.inner.listdir(path)

    def rename(self, old: str, new: str) -> None:
        self._check("rename", old)
        self.inner.rename(old, new)

    def truncate(self, path: str, size: int) -> None:
        self._check("truncate", path)
        self.inner.truncate(path, size)
