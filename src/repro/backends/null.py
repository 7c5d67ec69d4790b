"""Null backend: accepts and discards all data.

This is the measurement rig of paper Figure 5: "Once a filled chunk is
picked up by an IO thread it is discarded without being written to a
back-end filesystem.  With this we can measure the raw performance of
CRFS to aggregate write streams, precluding the impacts of different
back-end filesystems."

Namespace ops maintain just enough state (paths and sizes) for the CRFS
mount's bookkeeping to work.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from ..errors import BadFileDescriptor, FileNotFound
from .base import Backend, BackendStat, normalize_path

__all__ = ["NullBackend"]


class NullBackend(Backend):
    """Discards writes; reads return zeros up to the recorded size."""

    name = "null"
    reads_from_memory = True

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}
        self._dirs: set[str] = {"/"}
        self._fd_paths: dict[int, str] = {}
        self._fds = itertools.count(3)
        self._lock = threading.Lock()

    def open(self, path: str, create: bool = True, truncate: bool = False) -> int:
        norm = normalize_path(path)
        with self._lock:
            if norm not in self._sizes:
                if not create:
                    raise FileNotFound(path)
                self._sizes[norm] = 0
            elif truncate:
                self._sizes[norm] = 0
            fd = next(self._fds)
            self._fd_paths[fd] = norm
            return fd

    def _path(self, handle: Any) -> str:
        with self._lock:
            try:
                return self._fd_paths[handle]
            except KeyError:
                raise BadFileDescriptor(f"fd {handle!r}") from None

    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        path = self._path(handle)
        n = len(data)
        with self._lock:
            if n:  # POSIX: zero-length writes do not extend the file
                self._sizes[path] = max(self._sizes[path], offset + n)
        return n

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        path = self._path(handle)
        with self._lock:
            end = min(offset + size, self._sizes[path])
        return b"\x00" * max(0, end - offset)

    def fsync(self, handle: Any) -> None:
        self._path(handle)

    def close(self, handle: Any) -> None:
        self._path(handle)
        with self._lock:
            del self._fd_paths[handle]

    def file_size(self, handle: Any) -> int:
        path = self._path(handle)
        with self._lock:
            return self._sizes[path]

    # -- namespace plane ------------------------------------------------------

    def exists(self, path: str) -> bool:
        norm = normalize_path(path)
        with self._lock:
            return norm in self._sizes or norm in self._dirs

    def stat(self, path: str) -> BackendStat:
        norm = normalize_path(path)
        with self._lock:
            if norm in self._dirs:
                return BackendStat(size=0, is_dir=True)
            if norm in self._sizes:
                return BackendStat(size=self._sizes[norm], is_dir=False)
        raise FileNotFound(path)

    def unlink(self, path: str) -> None:
        norm = normalize_path(path)
        with self._lock:
            if norm not in self._sizes:
                raise FileNotFound(path)
            del self._sizes[norm]

    def mkdir(self, path: str) -> None:
        with self._lock:
            self._dirs.add(normalize_path(path))

    def rmdir(self, path: str) -> None:
        norm = normalize_path(path)
        with self._lock:
            self._dirs.discard(norm)

    def listdir(self, path: str) -> list[str]:
        norm = normalize_path(path)
        prefix = norm.rstrip("/") + "/"
        with self._lock:
            names = set()
            for p in list(self._sizes) + list(self._dirs):
                if p.startswith(prefix) and p != norm:
                    names.add(p[len(prefix) :].split("/")[0])
            return sorted(names)

    def rename(self, old: str, new: str) -> None:
        o, n = normalize_path(old), normalize_path(new)
        with self._lock:
            if o not in self._sizes:
                raise FileNotFound(old)
            self._sizes[n] = self._sizes.pop(o)

    def truncate(self, path: str, size: int) -> None:
        norm = normalize_path(path)
        with self._lock:
            if norm not in self._sizes:
                raise FileNotFound(path)
            self._sizes[norm] = size
