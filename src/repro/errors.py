"""Exception hierarchy for the CRFS reproduction.

All library-raised errors derive from :class:`CRFSError` so callers can
catch the whole family with one clause.  Errors that mirror a POSIX errno
(the functional plane surfaces backend failures through the same paths a
FUSE filesystem would) carry an ``errno`` attribute.
"""

from __future__ import annotations

import errno as _errno

__all__ = [
    "CRFSError",
    "ConfigError",
    "MountError",
    "FileStateError",
    "BadFileDescriptor",
    "FileNotFound",
    "FileExists",
    "NotADirectory",
    "IsADirectory",
    "DirectoryNotEmpty",
    "BackendIOError",
    "BackendTimeoutError",
    "ManifestError",
    "ShutdownError",
    "QueueFullTimeout",
    "SimulationError",
    "DeadlockError",
]


class CRFSError(Exception):
    """Base class for all errors raised by this library."""

    errno: int | None = None


class ConfigError(CRFSError, ValueError):
    """Invalid configuration value (chunk size, pool size, thread count...)."""


class MountError(CRFSError):
    """The mount is in a state that forbids the requested operation."""


class FileStateError(CRFSError):
    """An operation was attempted on a handle in the wrong state."""


class BadFileDescriptor(CRFSError, OSError):
    errno = _errno.EBADF

    def __init__(self, msg: str = "bad file descriptor"):
        super().__init__(self.errno, msg)


class FileNotFound(CRFSError, FileNotFoundError):
    errno = _errno.ENOENT

    def __init__(self, path: str):
        super().__init__(self.errno, "no such file or directory", path)


class FileExists(CRFSError, FileExistsError):
    errno = _errno.EEXIST

    def __init__(self, path: str):
        super().__init__(self.errno, "file exists", path)


class NotADirectory(CRFSError, NotADirectoryError):
    errno = _errno.ENOTDIR

    def __init__(self, path: str):
        super().__init__(self.errno, "not a directory", path)


class IsADirectory(CRFSError, IsADirectoryError):
    errno = _errno.EISDIR

    def __init__(self, path: str):
        super().__init__(self.errno, "is a directory", path)


class DirectoryNotEmpty(CRFSError, OSError):
    errno = _errno.ENOTEMPTY

    def __init__(self, path: str):
        super().__init__(self.errno, "directory not empty", path)


class BackendIOError(CRFSError, OSError):
    """An I/O error surfaced by a storage backend.

    On the functional plane, asynchronous chunk-write failures are latched
    in the file's metadata entry and re-raised from ``close()``/``fsync()``
    — exactly where a POSIX application would observe a writeback error.
    """

    errno = _errno.EIO

    def __init__(self, msg: str = "I/O error"):
        super().__init__(self.errno, msg)


class BackendTimeoutError(BackendIOError):
    """A backend operation outlived its deadline.

    Raised by :class:`~repro.backends.tiered.TieredBackend` when one of
    its waits runs out of time: an ``fsync`` waiting for staged extents
    to reach the durability tier, a pump drain, or a pump worker that
    does not exit at shutdown.
    """

    errno = _errno.ETIMEDOUT

    def __init__(self, msg: str = "backend operation timed out"):
        super().__init__(msg)


class ManifestError(CRFSError):
    """A delta-checkpoint manifest is torn, stale or mismatched.

    Restore must fail loudly on a manifest whose checksum, magic,
    version or shape does not validate — silently reassembling a stale
    generation would hand the application a corrupt image.
    """


class ShutdownError(CRFSError):
    """The component has been shut down and cannot accept more work."""


class QueueFullTimeout(ShutdownError):
    """A quota-blocked work-queue put() waited out the wait bound
    (:data:`repro.waits.STUCK_S`) — the IO path behind it is stalled or
    undersized.

    Subclasses :class:`ShutdownError` so existing handlers of the old
    generic error keep catching it.
    """


class SimulationError(CRFSError):
    """Misuse of the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""
