"""POSIX-style integer-fd facade over a CRFS mount.

Checkpoint libraries (BLCR among them) are written against the classic
``open/write/lseek/close`` fd interface.  :class:`PosixShim` adapts a
:class:`~repro.core.mount.CRFS` mount to that shape so such code can be
pointed at CRFS without modification:

>>> from repro import CRFS, MemBackend
>>> from repro.core.posix import PosixShim, O_CREAT, O_WRONLY, O_TRUNC
>>> with CRFS(MemBackend()) as crfs:            # doctest: +SKIP
...     px = PosixShim(crfs)
...     fd = px.open("/ckpt.img", O_WRONLY | O_CREAT | O_TRUNC)
...     px.write(fd, b"snapshot")
...     px.close(fd)

Supported flags: O_RDONLY / O_WRONLY / O_RDWR (advisory — CRFS handles
are bidirectional), O_CREAT, O_TRUNC, O_APPEND, O_EXCL.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict

from ..errors import BadFileDescriptor, FileExists
from .handle import CRFSFile
from .mount import CRFS

__all__ = [
    "PosixShim",
    "O_RDONLY",
    "O_WRONLY",
    "O_RDWR",
    "O_CREAT",
    "O_TRUNC",
    "O_APPEND",
    "O_EXCL",
    "SEEK_SET",
    "SEEK_CUR",
    "SEEK_END",
]

O_RDONLY = os.O_RDONLY
O_WRONLY = os.O_WRONLY
O_RDWR = os.O_RDWR
O_CREAT = os.O_CREAT
O_TRUNC = os.O_TRUNC
O_APPEND = os.O_APPEND
O_EXCL = os.O_EXCL

SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2


class _FdState:
    __slots__ = ("handle", "append")

    def __init__(self, handle: CRFSFile, append: bool):
        self.handle = handle
        self.append = append


class PosixShim:
    """Integer-fd adapter for one CRFS mount."""

    def __init__(self, fs: CRFS):
        self.fs = fs
        self._fds: Dict[int, _FdState] = {}
        self._next_fd = itertools.count(3)
        self._lock = threading.Lock()

    # -- fd table -----------------------------------------------------------

    def _state(self, fd: int) -> _FdState:
        with self._lock:
            state = self._fds.get(fd)
        if state is None:
            raise BadFileDescriptor(f"fd {fd}")
        return state

    # -- calls ---------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int:
        """POSIX open(2) subset; returns an integer fd."""
        create = bool(flags & O_CREAT)
        if flags & O_EXCL and create and self.fs.exists(path):
            raise FileExists(path)
        handle = self.fs.open(
            path, create=create, truncate=bool(flags & O_TRUNC)
        )
        if flags & O_APPEND:
            handle.seek(0, SEEK_END)
        with self._lock:
            fd = next(self._next_fd)
            self._fds[fd] = _FdState(handle, append=bool(flags & O_APPEND))
        return fd

    def write(self, fd: int, data: bytes) -> int:
        state = self._state(fd)
        if state.append:
            return state.handle.append(data)
        return state.handle.write(data)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return self._state(fd).handle.pwrite(data, offset)

    def read(self, fd: int, size: int) -> bytes:
        return self._state(fd).handle.read(size)

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        return self._state(fd).handle.pread(size, offset)

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        return self._state(fd).handle.seek(offset, whence)

    def fsync(self, fd: int) -> None:
        self._state(fd).handle.fsync()

    def close(self, fd: int) -> None:
        # Looked up and removed in one step: of two closes racing on
        # one fd exactly one gets the handle.
        with self._lock:
            state = self._fds.pop(fd, None)
        if state is None:
            raise BadFileDescriptor(f"fd {fd}")
        state.handle.close()

    def fstat_size(self, fd: int) -> int:
        return self._state(fd).handle.size()

    # -- namespace passthrough ------------------------------------------------

    def unlink(self, path: str) -> None:
        self.fs.unlink(path)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self.fs.mkdir(path)

    def rmdir(self, path: str) -> None:
        self.fs.rmdir(path)

    def rename(self, old: str, new: str) -> None:
        self.fs.rename(old, new)

    def listdir(self, path: str) -> list[str]:
        return self.fs.listdir(path)

    def open_fds(self) -> int:
        with self._lock:
            return len(self._fds)
