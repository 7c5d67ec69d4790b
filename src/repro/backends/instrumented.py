"""Instrumented backend: records every operation passing through.

Wraps any other backend and keeps an op log with sizes, offsets and
wall-clock durations — the functional-plane analogue of the paper's
extended-BLCR profiling ("we extended the BLCR library to record the
information for all write operations, including number of writes, size
of a write and time cost for each write").  What the pipeline itself
did, on either plane, is the event stream's to tell
(:class:`~repro.pipeline.events.EventLog`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from .base import Backend, BackendStat

__all__ = ["InstrumentedBackend", "OpRecord"]


@dataclass(frozen=True)
class OpRecord:
    """One backend operation."""

    op: str
    path: str
    size: int
    offset: int
    start: float
    duration: float


class InstrumentedBackend(Backend):
    """Delegating wrapper that appends an :class:`OpRecord` per call."""

    name = "instrumented"

    def __init__(self, inner: Backend, clock=time.perf_counter):
        self.inner = inner
        self.clock = clock
        self.records: list[OpRecord] = []
        self._lock = threading.Lock()
        self._handle_paths: dict[Any, str] = {}

    @property
    def reads_from_memory(self) -> bool:  # type: ignore[override]
        return self.inner.reads_from_memory

    def _record(self, op: str, path: str, size: int, offset: int, start: float) -> None:
        rec = OpRecord(
            op=op,
            path=path,
            size=size,
            offset=offset,
            start=start,
            duration=self.clock() - start,
        )
        with self._lock:
            self.records.append(rec)

    def ops(self, kind: str | None = None) -> list[OpRecord]:
        with self._lock:
            if kind is None:
                return list(self.records)
            return [r for r in self.records if r.op == kind]

    def write_sizes(self) -> list[int]:
        """Sizes of all pwrites, in order — Table I's raw material."""
        return [r.size for r in self.ops("pwrite")]

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    # -- data plane ----------------------------------------------------------

    def open(self, path: str, create: bool = True, truncate: bool = False) -> Any:
        start = self.clock()
        handle = self.inner.open(path, create=create, truncate=truncate)
        with self._lock:
            self._handle_paths[handle] = path
        self._record("open", path, 0, 0, start)
        return handle

    def _path_of(self, handle: Any) -> str:
        with self._lock:
            return self._handle_paths.get(handle, "?")

    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        start = self.clock()
        n = self.inner.pwrite(handle, data, offset)
        self._record("pwrite", self._path_of(handle), len(data), offset, start)
        return n

    def pwritev(
        self, handle: Any, views: Sequence[bytes | memoryview], offset: int
    ) -> int:
        start = self.clock()
        n = self.inner.pwritev(handle, views, offset)
        size = sum(len(v) for v in views)
        self._record("pwritev", self._path_of(handle), size, offset, start)
        return n

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        start = self.clock()
        out = self.inner.pread(handle, size, offset)
        self._record("pread", self._path_of(handle), len(out), offset, start)
        return out

    def pread_into(self, handle: Any, buf: memoryview | bytearray, offset: int) -> int:
        start = self.clock()
        n = self.inner.pread_into(handle, buf, offset)
        self._record("pread_into", self._path_of(handle), n, offset, start)
        return n

    def fsync(self, handle: Any) -> None:
        start = self.clock()
        self.inner.fsync(handle)
        self._record("fsync", self._path_of(handle), 0, 0, start)

    def close(self, handle: Any) -> None:
        start = self.clock()
        path = self._path_of(handle)
        self.inner.close(handle)
        with self._lock:
            self._handle_paths.pop(handle, None)
        self._record("close", path, 0, 0, start)

    def file_size(self, handle: Any) -> int:
        return self.inner.file_size(handle)

    # -- namespace plane ------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def stat(self, path: str) -> BackendStat:
        return self.inner.stat(path)

    def unlink(self, path: str) -> None:
        start = self.clock()
        self.inner.unlink(path)
        self._record("unlink", path, 0, 0, start)

    def mkdir(self, path: str) -> None:
        start = self.clock()
        self.inner.mkdir(path)
        self._record("mkdir", path, 0, 0, start)

    def rmdir(self, path: str) -> None:
        start = self.clock()
        self.inner.rmdir(path)
        self._record("rmdir", path, 0, 0, start)

    def listdir(self, path: str) -> list[str]:
        return self.inner.listdir(path)

    def rename(self, old: str, new: str) -> None:
        start = self.clock()
        self.inner.rename(old, new)
        self._record("rename", old, 0, 0, start)

    def truncate(self, path: str, size: int) -> None:
        start = self.clock()
        self.inner.truncate(path, size)
        self._record("truncate", path, size, 0, start)
