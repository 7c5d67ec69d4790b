"""In-memory backend: a full directory tree with POSIX-ish semantics.

The default backing store for tests and examples.  Matches the POSIX
behaviours CRFS relies on:

* sparse positional writes (a pwrite past EOF zero-fills the gap — chunk
  writeback can complete out of order);
* unlink-while-open keeps data reachable through existing handles;
* rename replaces an existing file atomically.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Sequence

from ..errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from .base import Backend, BackendStat, byte_view, normalize_path, split_path

__all__ = ["MemBackend"]


class _FileNode:
    __slots__ = ("data", "lock", "nlink")

    def __init__(self) -> None:
        self.data = bytearray()
        self.lock = threading.Lock()
        self.nlink = 1


class _DirNode:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: Dict[str, Any] = {}


class _Handle:
    __slots__ = ("fd", "node", "path", "closed")

    def __init__(self, fd: int, node: _FileNode, path: str):
        self.fd = fd
        self.node = node
        self.path = path
        self.closed = False


class MemBackend(Backend):
    """Thread-safe in-memory filesystem tree."""

    name = "mem"
    reads_from_memory = True

    def __init__(self) -> None:
        self._root = _DirNode()
        self._tree_lock = threading.RLock()
        self._fd_counter = itertools.count(3)  # 0-2 reserved, as tradition
        self._handles: Dict[int, _Handle] = {}

    # -- tree walking ------------------------------------------------------

    def _walk_dir(self, path: str) -> _DirNode:
        node: Any = self._root
        norm = normalize_path(path)
        if norm == "/":
            return node
        for part in norm.strip("/").split("/"):
            if not isinstance(node, _DirNode):
                raise NotADirectory(path)
            if part not in node.children:
                raise FileNotFound(path)
            node = node.children[part]
        if not isinstance(node, _DirNode):
            raise NotADirectory(path)
        return node

    def _lookup(self, path: str) -> Any:
        parent_path, name = split_path(path)
        if name == "":
            return self._root
        parent = self._walk_dir(parent_path)
        if name not in parent.children:
            raise FileNotFound(path)
        return parent.children[name]

    # -- data plane ----------------------------------------------------------

    def open(self, path: str, create: bool = True, truncate: bool = False) -> int:
        with self._tree_lock:
            parent_path, name = split_path(path)
            if name == "":
                raise IsADirectory(path)
            parent = self._walk_dir(parent_path)
            node = parent.children.get(name)
            if node is None:
                if not create:
                    raise FileNotFound(path)
                node = _FileNode()
                parent.children[name] = node
            elif isinstance(node, _DirNode):
                raise IsADirectory(path)
            if truncate:
                with node.lock:
                    del node.data[:]
            fd = next(self._fd_counter)
            self._handles[fd] = _Handle(fd, node, normalize_path(path))
            return fd

    def _handle(self, fd: Any) -> _Handle:
        h = self._handles.get(fd)
        if h is None or h.closed:
            raise BadFileDescriptor(f"fd {fd!r}")
        return h

    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        return self._splice(self._handle(handle).node, (byte_view(data),), offset)

    def pwritev(
        self, handle: Any, views: Sequence[bytes | memoryview], offset: int
    ) -> int:
        # One backend op for the whole batch: the point of the gather.
        node = self._handle(handle).node
        return self._splice(node, [byte_view(v) for v in views], offset)

    def _splice(self, node: _FileNode, views: Sequence[memoryview], offset: int) -> int:
        """Lay ``views`` back to back into the node at ``offset``, each
        byte copied once: bytes that land on existing data are
        overwritten through a transient view of the node (a ``bytearray``
        slice assignment would copy the source into a temporary first),
        bytes past EOF are appended, and only a real gap is zero-filled.
        Everything is consumed before returning, which is the pwrite
        aliasing contract."""
        total = sum(len(v) for v in views)
        if total == 0:  # POSIX: zero-length writes do not extend the file
            return 0
        with node.lock:
            data = node.data
            if offset > len(data):
                data += bytes(offset - len(data))
            pos = offset
            for v in views:
                over = min(len(v), len(data) - pos)
                if over:
                    # Released before the append below: a bytearray
                    # with a live export cannot grow.
                    with memoryview(data) as dst:
                        dst[pos : pos + over] = v[:over]
                if over < len(v):
                    data += v[over:]
                pos += len(v)
        return total

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        h = self._handle(handle)
        # The one materialization the bytes-returning signature demands
        # (exactly the requested region; see Backend.pread).  Callers
        # with their own buffer use pread_into and skip it.  Going
        # through a view avoids the bytearray-slice + bytes() double
        # copy.
        with h.node.lock:
            src = memoryview(h.node.data)
            try:
                return bytes(src[offset : offset + size])
            finally:
                src.release()

    def pread_into(self, handle: Any, buf: memoryview | bytearray, offset: int) -> int:
        h = self._handle(handle)
        out = memoryview(buf)
        with h.node.lock:
            data = h.node.data
            n = min(len(out), max(0, len(data) - offset))
            if n:
                src = memoryview(data)
                try:
                    out[:n] = src[offset : offset + n]
                finally:
                    src.release()
        return n

    def fsync(self, handle: Any) -> None:
        self._handle(handle)  # validate only; memory is already "stable"

    def close(self, handle: Any) -> None:
        h = self._handle(handle)
        h.closed = True
        with self._tree_lock:
            del self._handles[h.fd]

    def file_size(self, handle: Any) -> int:
        h = self._handle(handle)
        with h.node.lock:
            return len(h.node.data)

    # -- namespace plane ------------------------------------------------------

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def stat(self, path: str) -> BackendStat:
        with self._tree_lock:
            node = self._lookup(path)
            if isinstance(node, _DirNode):
                return BackendStat(size=0, is_dir=True, nlink=2 + len(node.children))
            return BackendStat(size=len(node.data), is_dir=False, nlink=node.nlink)

    def unlink(self, path: str) -> None:
        with self._tree_lock:
            parent_path, name = split_path(path)
            parent = self._walk_dir(parent_path)
            node = parent.children.get(name)
            if node is None:
                raise FileNotFound(path)
            if isinstance(node, _DirNode):
                raise IsADirectory(path)
            node.nlink -= 1
            del parent.children[name]

    def mkdir(self, path: str) -> None:
        with self._tree_lock:
            parent_path, name = split_path(path)
            if name == "":
                raise FileExists(path)
            parent = self._walk_dir(parent_path)
            if name in parent.children:
                raise FileExists(path)
            parent.children[name] = _DirNode()

    def rmdir(self, path: str) -> None:
        with self._tree_lock:
            parent_path, name = split_path(path)
            if name == "":
                raise DirectoryNotEmpty(path)
            parent = self._walk_dir(parent_path)
            node = parent.children.get(name)
            if node is None:
                raise FileNotFound(path)
            if not isinstance(node, _DirNode):
                raise NotADirectory(path)
            if node.children:
                raise DirectoryNotEmpty(path)
            del parent.children[name]

    def listdir(self, path: str) -> list[str]:
        with self._tree_lock:
            node = self._lookup(path)
            if not isinstance(node, _DirNode):
                raise NotADirectory(path)
            return sorted(node.children)

    def rename(self, old: str, new: str) -> None:
        with self._tree_lock:
            old_parent_path, old_name = split_path(old)
            new_parent_path, new_name = split_path(new)
            old_parent = self._walk_dir(old_parent_path)
            if old_name not in old_parent.children:
                raise FileNotFound(old)
            new_parent = self._walk_dir(new_parent_path)
            node = old_parent.children[old_name]
            existing = new_parent.children.get(new_name)
            if existing is not None:
                if isinstance(existing, _DirNode) and not isinstance(node, _DirNode):
                    raise IsADirectory(new)
                if isinstance(existing, _DirNode) and existing.children:
                    raise DirectoryNotEmpty(new)
            del old_parent.children[old_name]
            new_parent.children[new_name] = node

    def truncate(self, path: str, size: int) -> None:
        with self._tree_lock:
            node = self._lookup(path)
            if isinstance(node, _DirNode):
                raise IsADirectory(path)
        with node.lock:
            if size < len(node.data):
                del node.data[size:]
            else:
                node.data.extend(b"\x00" * (size - len(node.data)))

    # -- test/debug helpers -----------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Whole-file read by path (test convenience; one deliberate
        whole-image materialization — not a hot-path API)."""
        node = self._lookup(path)
        if isinstance(node, _DirNode):
            raise IsADirectory(path)
        with node.lock:
            return bytes(node.data)
