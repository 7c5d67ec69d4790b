"""Unit tests for the incremental (delta) checkpoint kernel.

Covers the three layers separately and end to end:

* the manifest format (canonical bytes, checksum, torn/stale detection,
  owner-run planning with tail clipping);
* the plane-agnostic :class:`~repro.pipeline.delta.DeltaTracker`
  (planning, auto-dirty rules, commit discipline, torn latch);
* the functional-plane :class:`~repro.core.delta.DeltaCheckpointer`
  through the public mount surface (``fs.delta_checkpoint`` /
  ``fs.delta_restore``) — chains restore byte-identically, generation 0
  degenerates to a full dump, and every tear fails loudly.
"""

import pytest

from repro.backends import MemBackend
from repro.checkpoint.manifest import Manifest, generation_path, manifest_path
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import ManifestError
from repro.pipeline import PipelineKernel
from repro.pipeline.delta import DeltaTracker
from repro.units import KiB

CHUNK = 16 * KiB


def make_manifest(owners, chunk_size=CHUNK, logical_size=None, generation=None):
    owners = tuple(owners)
    if logical_size is None:
        logical_size = len(owners) * chunk_size
    if generation is None:
        generation = max(owners, default=0)
    return Manifest(
        path="/ckpt",
        generation=generation,
        chunk_size=chunk_size,
        logical_size=logical_size,
        owners=owners,
    )


class TestManifest:
    def test_round_trip(self):
        m = make_manifest([0, 1, 0, 2])
        assert Manifest.from_bytes(m.to_bytes()) == m

    def test_truncated_bytes_fail(self):
        raw = make_manifest([0, 1]).to_bytes()
        for cut in (0, 1, len(raw) // 2, len(raw) - 1):
            with pytest.raises(ManifestError):
                Manifest.from_bytes(raw[:cut])

    def test_flipped_byte_fails(self):
        raw = bytearray(make_manifest([0, 1]).to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(ManifestError, match="checksum|JSON"):
            Manifest.from_bytes(bytes(raw))

    def test_bad_magic_and_version(self):
        m = make_manifest([0])
        for field, value in (("magic", "nope"), ("version", 999)):
            import hashlib
            import json

            doc = json.loads(m.to_bytes().split(b"\n")[0])
            doc[field] = value
            body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            raw = body + b"\n" + hashlib.sha256(body).hexdigest().encode() + b"\n"
            with pytest.raises(ManifestError):
                Manifest.from_bytes(raw)

    def test_shape_validation(self):
        with pytest.raises(ManifestError, match="owner map"):
            make_manifest([0, 0], logical_size=3 * CHUNK)._validate_shape()
        with pytest.raises(ManifestError, match="outside generations"):
            make_manifest([0, 5], generation=2)._validate_shape()

    def test_owner_runs_merge_and_clip(self):
        # 3.5 chunks: tail chunk is half-length, runs merge same owners
        m = make_manifest(
            [1, 1, 0, 0], logical_size=3 * CHUNK + CHUNK // 2, generation=1
        )
        assert m.owner_runs() == [
            (1, 0, 2 * CHUNK, 2),
            (0, 2 * CHUNK, CHUNK + CHUNK // 2, 2),
        ]
        assert sum(length for _, _, length, _ in m.owner_runs()) == m.logical_size


class TestDeltaTracker:
    def test_generation_zero_is_always_a_full_dump(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        # declared dirtiness is irrelevant before the first commit
        plan = t.plan_checkpoint(4 * CHUNK, dirty=[1])
        assert plan.generation == 0
        assert plan.dirty_chunks == 4 and plan.clean_chunks == 0
        assert plan.dirty_bytes == 4 * CHUNK
        assert [e.file_offset for e in plan.extents] == [0]

    def test_dirty_subset_plans_only_those_extents(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        t.commit(t.plan_checkpoint(4 * CHUNK))
        plan = t.plan_checkpoint(4 * CHUNK, dirty=[0, 2, 3])
        assert plan.generation == 1
        assert plan.dirty == frozenset({0, 2, 3})
        assert [(e.file_offset, e.length) for e in plan.extents] == [
            (0, CHUNK),
            (2 * CHUNK, 2 * CHUNK),
        ]
        assert plan.manifest.owners == (1, 0, 1, 1)
        assert plan.gen_file_size == 4 * CHUNK  # sparse between runs

    def test_growth_auto_dirties_new_and_old_tail_chunks(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        t.commit(t.plan_checkpoint(2 * CHUNK + 10))  # partial tail chunk
        plan = t.plan_checkpoint(4 * CHUNK, dirty=[])
        # chunk 2 (the old partial tail) and chunks 3 (new) are forced
        assert plan.dirty == frozenset({2, 3})

    def test_shrink_auto_dirties_new_tail(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        t.commit(t.plan_checkpoint(4 * CHUNK))
        plan = t.plan_checkpoint(2 * CHUNK + 10, dirty=[])
        assert plan.dirty == frozenset({2})
        assert plan.manifest.owners == (0, 0, 1)

    def test_dirty_index_out_of_range(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        t.commit(t.plan_checkpoint(2 * CHUNK))
        with pytest.raises(ValueError, match="outside image"):
            t.plan_checkpoint(2 * CHUNK, dirty=[2])

    def test_commit_enforces_chain_order(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        plan = t.plan_checkpoint(CHUNK)
        t.commit(plan)
        with pytest.raises(ManifestError, match="commit of generation"):
            t.commit(plan)  # re-committing generation 0 against gen 0

    def test_torn_latch_blocks_restore_until_clean_commit(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        t.commit(t.plan_checkpoint(CHUNK))
        t.note_torn()
        with pytest.raises(ManifestError, match="torn"):
            t.check_restorable()
        t.commit(t.plan_checkpoint(CHUNK))
        t.check_restorable()  # clean commit clears the latch

    def test_fresh_chain_is_not_restorable(self):
        t = DeltaTracker("/ckpt", PipelineKernel(CHUNK))
        with pytest.raises(ManifestError, match="no committed"):
            t.check_restorable()
        with pytest.raises(ManifestError, match="never committed"):
            t.gen_size(0)


def small_config(**kw):
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("pool_size", 8 * CHUNK)
    kw.setdefault("io_threads", 1)
    return CRFSConfig(**kw)


def pattern(n, salt):
    return bytes((i * 31 + salt * 7) % 256 for i in range(n))


def overwrite(backend, path, raw):
    handle = backend.open(path, create=True, truncate=True)
    try:
        backend.pwrite(handle, raw, 0)
    finally:
        backend.close(handle)


class TestFunctionalPlane:
    def test_chain_restores_byte_identically(self):
        mem = MemBackend()
        with CRFS(mem, small_config()) as fs:
            image = bytearray(pattern(4 * CHUNK + 100, salt=0))
            fs.delta_checkpoint("/ckpt", image)
            for gen, dirty in enumerate(([1], [0, 4], [2]), start=1):
                for index in dirty:
                    lo = index * CHUNK
                    hi = min(lo + CHUNK, len(image))
                    image[lo:hi] = pattern(hi - lo, salt=gen)
                fs.delta_checkpoint("/ckpt", image, dirty=dirty)
            assert fs.delta_restore("/ckpt") == bytes(image)
            delta = fs.stats()["delta"]
        assert delta["generations"] == 4
        assert delta["restores"] == 1
        assert delta["reassembly_bytes"] == len(image)
        assert 0 < delta["bytes_written"] < delta["logical_bytes"]

    def test_generation_zero_matches_plain_full_write(self):
        """Gen 0 is exactly today's behavior: same bytes through the
        pipeline as an ordinary full-image write of the same path."""
        data = pattern(3 * CHUNK + 7, salt=3)

        mem_plain = MemBackend()
        with CRFS(mem_plain, small_config()) as fs:
            f = fs.open("/ckpt.g0", create=True, truncate=True)
            f.pwrite(data, 0)
            f.fsync()
            f.close()
            plain = fs.stats()
        mem_delta = MemBackend()
        with CRFS(mem_delta, small_config()) as fs:
            fs.delta_checkpoint("/ckpt", data)
            dstats = fs.stats()

        for key in ("writes", "bytes_in", "chunks_written", "bytes_out"):
            assert dstats[key] == plain[key], key
        assert mem_delta.read_file("/ckpt.g0") == mem_plain.read_file("/ckpt.g0")
        assert dstats["delta"]["bytes_written"] == dstats["delta"]["logical_bytes"]

    def test_manifest_lands_beside_generations(self):
        mem = MemBackend()
        with CRFS(mem, small_config()) as fs:
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=1))
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=2), dirty=[1])
        raw = mem.read_file(manifest_path("/ckpt"))
        manifest = Manifest.from_bytes(raw)
        assert manifest.generation == 1
        assert manifest.owners == (0, 1)
        assert mem.read_file(generation_path("/ckpt", 1))  # only chunk 1

    def test_corrupt_manifest_fails_restore_loudly(self):
        mem = MemBackend()
        with CRFS(mem, small_config()) as fs:
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=1))
            raw = bytearray(mem.read_file(manifest_path("/ckpt")))
            raw[5] ^= 0xFF
            overwrite(mem, manifest_path("/ckpt"), bytes(raw))
            with pytest.raises(ManifestError):
                fs.delta_restore("/ckpt")

    def test_stale_manifest_fails_restore_loudly(self):
        """A manifest from an older generation must never be silently
        reassembled once the chain has moved on."""
        mem = MemBackend()
        with CRFS(mem, small_config()) as fs:
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=1))
            stale = mem.read_file(manifest_path("/ckpt"))
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=2), dirty=[0])
            overwrite(mem, manifest_path("/ckpt"), stale)
            with pytest.raises(ManifestError, match="stale"):
                fs.delta_restore("/ckpt")

    def test_missing_generation_file_fails_restore(self):
        mem = MemBackend()
        with CRFS(mem, small_config()) as fs:
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=1))
            fs.delta_checkpoint("/ckpt", pattern(2 * CHUNK, salt=2), dirty=[1])
            mem.unlink(generation_path("/ckpt", 0))
            with pytest.raises(ManifestError, match="g0 missing"):
                fs.delta_restore("/ckpt")

    def test_restore_before_any_checkpoint(self):
        with CRFS(MemBackend(), small_config()) as fs:
            with pytest.raises(ManifestError, match="no committed"):
                fs.delta_restore("/ckpt")

    def test_size_changes_across_generations(self):
        mem = MemBackend()
        with CRFS(mem, small_config()) as fs:
            image = bytearray(pattern(2 * CHUNK + 10, salt=1))
            fs.delta_checkpoint("/ckpt", image)
            # grow: chunk 1 stays clean, chunk 0 declared dirty, the
            # old tail (2) and the new chunk (3) are auto-dirtied
            image.extend(pattern(4 * CHUNK - len(image), salt=2))
            image[0:CHUNK] = pattern(CHUNK, salt=2)
            image[2 * CHUNK :] = pattern(2 * CHUNK, salt=2)
            fs.delta_checkpoint("/ckpt", image, dirty=[0])
            assert fs.delta_restore("/ckpt") == bytes(image)
            del image[CHUNK + 3 :]  # shrink; new tail auto-dirtied
            fs.delta_checkpoint("/ckpt", image, dirty=[])
            assert fs.delta_restore("/ckpt") == bytes(image)
