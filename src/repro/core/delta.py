"""The threaded plane's delta-checkpoint port.

The drivers — plan, dirty extents through the mount's normal
aggregation pipeline into ``<path>.g<N>``, the synchronous manifest
write as the durable commit point, and the chain restore — are
:func:`repro.pipeline.delta.checkpoint` / ``restore``, the same
definitions the timing plane runs.  :class:`DeltaCheckpointer` is what
they stand on here: real bytes, the mount's file handles, and a
manifest that is read back and validated (a latched asynchronous
failure would be the wrong contract for a commit point, so the manifest
goes straight to the backend).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..backends.base import normalize_path
from ..checkpoint.manifest import Manifest, generation_path, manifest_path
from ..errors import ManifestError
from ..pipeline import delta
from ..pipeline.delta import DeltaExtent, DeltaPlan
from ..pipeline.writeback import blocking, run

if TYPE_CHECKING:  # pragma: no cover
    from .handle import CRFSFile
    from .mount import CRFS

__all__ = ["DeltaCheckpointer"]


class DeltaCheckpointer:
    """Per-mount delta-checkpoint driver (functional plane)."""

    def __init__(self, fs: "CRFS"):
        self.fs = fs
        self.kernel = fs.kernel

    def checkpoint(
        self,
        path: str,
        image: bytes | bytearray | memoryview,
        dirty: Iterable[int] | None = None,
        tenant: str | None = None,
    ) -> DeltaPlan:
        """Commit one generation of ``path``'s chain.

        ``image`` is the full current logical image; ``dirty`` declares
        which chunk indices changed since the previous generation
        (``None`` = all, and generation 0 is always a full dump).  Clean
        chunks stay manifest references to older generations.
        """
        view = memoryview(image)
        return run(
            delta.checkpoint(self, normalize_path(path), len(view), dirty, tenant, view)
        )

    def restore(self, path: str, tenant: str | None = None) -> bytes:
        """Reassemble the current logical image across the chain."""
        return b"".join(run(delta.restore(self, normalize_path(path), tenant)))

    # -- the delta drivers' port (threaded plane) ------------------------------

    def open_generation(
        self, path: str, generation: int, tenant: str | None, create: bool
    ) -> "CRFSFile":
        try:
            return self.fs.open(
                generation_path(path, generation),
                create=create,
                truncate=create,
                tenant=tenant,
            )
        except FileNotFoundError as exc:
            raise ManifestError(
                f"{path}: generation file g{generation} missing"
            ) from exc

    @blocking
    def write_extent(self, f: CRFSFile, ext: DeltaExtent, image: memoryview) -> None:
        f.pwrite(image[ext.file_offset : ext.file_offset + ext.length], ext.file_offset)

    @blocking
    def fsync(self, f: CRFSFile) -> None:
        f.fsync()

    @blocking
    def close(self, f: CRFSFile) -> None:
        f.close()

    @blocking
    def read_run(self, f: CRFSFile, file_offset: int, length: int) -> bytes:
        data = f.pread(length, file_offset)
        if len(data) != length:
            raise ManifestError(
                f"{f.path}: short read at {file_offset} "
                f"({len(data)} of {length} bytes)"
            )
        return data

    @blocking
    def write_manifest(self, path: str, raw: bytes) -> None:
        """Synchronous manifest replace: truncate, write, fsync, close."""
        backend = self.fs.backend
        handle = backend.open(manifest_path(path), create=True, truncate=True)
        try:
            backend.pwrite(handle, raw, 0)
            backend.fsync(handle)
        finally:
            backend.close(handle)

    @blocking
    def load_manifest(self, path: str) -> Manifest:
        """Read and validate ``path``'s manifest; every tear, checksum
        mismatch, or divergence from the in-session chain raises
        :class:`~repro.errors.ManifestError` — restore never silently
        reassembles a stale generation."""
        backend = self.fs.backend
        try:
            handle = backend.open(manifest_path(path), create=False)
        except FileNotFoundError as exc:
            raise ManifestError(f"{path}: manifest file missing") from exc
        try:
            raw = backend.pread(handle, backend.file_size(handle), 0)
        finally:
            backend.close(handle)
        manifest = Manifest.from_bytes(raw)
        if manifest.path != path:
            raise ManifestError(
                f"manifest names {manifest.path!r}, expected {path!r}"
            )
        if manifest.chunk_size != self.fs.config.chunk_size:
            raise ManifestError(
                f"{path}: manifest chunk_size {manifest.chunk_size} != "
                f"mount chunk_size {self.fs.config.chunk_size}"
            )
        generation = self.kernel.delta(path).generation
        if manifest.generation != generation:
            raise ManifestError(
                f"{path}: stale manifest generation {manifest.generation}, "
                f"chain is at {generation}"
            )
        return manifest
