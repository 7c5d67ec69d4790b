"""Local-directory backend: CRFS over a real filesystem subtree.

Maps the virtual namespace onto a root directory with ``os.pread``/
``os.pwrite``, so files written through CRFS are ordinary files — the
paper's property that "an application can be restarted directly from the
back-end filesystem, without the need to mount CRFS" holds literally.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Sequence

from ..errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from .base import Backend, BackendStat, byte_view, normalize_path

__all__ = ["LocalDirBackend"]


class LocalDirBackend(Backend):
    """Backend rooted at a real directory.  Paths may not escape the root."""

    name = "localdir"
    reads_from_memory = True  # the page cache; the kernel reads ahead of a miss

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    def _real(self, path: str) -> str:
        # normalize_path resolves '..' inside the virtual namespace, so the
        # joined path can never climb above the root.
        rel = normalize_path(path).lstrip("/")
        return os.path.join(self.root, rel) if rel else self.root

    # -- data plane ---------------------------------------------------------

    def open(self, path: str, create: bool = True, truncate: bool = False) -> int:
        real = self._real(path)
        flags = os.O_RDWR
        if create:
            flags |= os.O_CREAT
        if truncate:
            flags |= os.O_TRUNC
        try:
            return os.open(real, flags, 0o644)
        except FileNotFoundError:
            raise FileNotFound(path) from None
        except IsADirectoryError:
            raise IsADirectory(path) from None
        except NotADirectoryError:
            raise NotADirectory(path) from None

    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        view = byte_view(data)  # lengths below are bytes, whatever the item format
        total = 0
        while total < len(view):
            total += os.pwrite(handle, view[total:], offset + total)
        return total

    def pwritev(
        self, handle: Any, views: Sequence[bytes | memoryview], offset: int
    ) -> int:
        if not hasattr(os, "pwritev"):  # pragma: no cover - platform fallback
            return super().pwritev(handle, views, offset)
        bufs = [b for b in map(byte_view, views) if len(b)]
        if not bufs:
            return 0
        expected = sum(len(b) for b in bufs)
        total = os.pwritev(handle, bufs, offset)
        while total < expected:  # pragma: no cover - rare partial pwritev
            skip = total
            for b in bufs:
                if skip >= len(b):
                    skip -= len(b)
                    continue
                total += self.pwrite(handle, b[skip:], offset + total)
                skip = 0
        return total

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        first = os.pread(handle, size, offset)
        if len(first) == size or not first:
            # The common case: one syscall returned the whole region (or
            # a clean EOF).  Hand the kernel's bytes straight back — no
            # bytearray accumulation + bytes() double copy.
            return first
        out = bytearray(first)
        while len(out) < size:  # pragma: no cover - rare partial pread
            piece = os.pread(handle, size - len(out), offset + len(out))
            if not piece:
                break
            out.extend(piece)
        return bytes(out)

    def pread_into(self, handle: Any, buf: memoryview | bytearray, offset: int) -> int:
        if not hasattr(os, "preadv"):  # pragma: no cover - platform fallback
            return super().pread_into(handle, buf, offset)
        out = memoryview(buf)
        total = 0
        while total < len(out):
            n = os.preadv(handle, [out[total:]], offset + total)
            if not n:
                break
            total += n
        return total

    def fsync(self, handle: Any) -> None:
        os.fsync(handle)

    def close(self, handle: Any) -> None:
        os.close(handle)

    def file_size(self, handle: Any) -> int:
        return os.fstat(handle).st_size

    # -- namespace plane ------------------------------------------------------

    def exists(self, path: str) -> bool:
        return os.path.lexists(self._real(path))

    def stat(self, path: str) -> BackendStat:
        try:
            st = os.stat(self._real(path))
        except FileNotFoundError:
            raise FileNotFound(path) from None
        import stat as stat_mod

        return BackendStat(
            size=st.st_size,
            is_dir=stat_mod.S_ISDIR(st.st_mode),
            nlink=st.st_nlink,
        )

    def unlink(self, path: str) -> None:
        try:
            os.unlink(self._real(path))
        except FileNotFoundError:
            raise FileNotFound(path) from None
        except IsADirectoryError:
            raise IsADirectory(path) from None
        except PermissionError as exc:  # unlinking a dir on some platforms
            raise IsADirectory(path) from exc

    def mkdir(self, path: str) -> None:
        try:
            os.mkdir(self._real(path))
        except FileExistsError:
            raise FileExists(path) from None
        except FileNotFoundError:
            raise FileNotFound(path) from None

    def rmdir(self, path: str) -> None:
        try:
            os.rmdir(self._real(path))
        except FileNotFoundError:
            raise FileNotFound(path) from None
        except NotADirectoryError:
            raise NotADirectory(path) from None
        except OSError as exc:
            import errno

            if exc.errno == errno.ENOTEMPTY:
                raise DirectoryNotEmpty(path) from None
            raise

    def listdir(self, path: str) -> list[str]:
        try:
            return sorted(os.listdir(self._real(path)))
        except FileNotFoundError:
            raise FileNotFound(path) from None
        except NotADirectoryError:
            raise NotADirectory(path) from None

    def rename(self, old: str, new: str) -> None:
        try:
            os.rename(self._real(old), self._real(new))
        except FileNotFoundError:
            raise FileNotFound(old) from None

    def truncate(self, path: str, size: int) -> None:
        try:
            os.truncate(self._real(path), size)
        except FileNotFoundError:
            raise FileNotFound(path) from None
