"""Property suite for the restart read plane.

The readahead cache must be *semantically invisible*: for any
interleaving of pwrite/pread/write/read/seek/fsync, a mount with the
cache on returns byte-for-byte what a pass-through mount returns — and
both leave the backing file identical.  That includes read-your-writes
of data still sitting in undrained chunks (the read path flushes and
drains first on both configurations).

The reference mount uses ``read_passthrough=False`` — the flush+drain
pass-through — because that is the semantics the cache claims to
preserve; the default ``read_passthrough=True`` skips the drain and has
weaker (paper Section IV-D1, checkpoint-only) read semantics.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.units import KiB

pytestmark = pytest.mark.property

CHUNK = 4 * KiB
#: Offsets stay within this span: a handful of chunks, so random ops
#: actually collide with chunk boundaries and cached entries.
SPAN = 4 * CHUNK


def cached_config():
    return CRFSConfig(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        read_cache_chunks=4, readahead_chunks=2,
    )


def passthrough_config():
    return CRFSConfig(
        chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        read_cache_chunks=0, read_passthrough=False,
    )


def _payload(tag: int, size: int) -> bytes:
    """Deterministic, tag-distinct bytes so overwrites are observable."""
    pattern = bytes(((tag * 37 + i) % 251) + 1 for i in range(min(size, 256)))
    reps = -(-size // len(pattern))
    return (pattern * reps)[:size]


# -- the op language ----------------------------------------------------------

_sizes = st.integers(min_value=1, max_value=int(1.5 * CHUNK))
_offsets = st.integers(min_value=0, max_value=SPAN)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("pwrite"), _offsets, _sizes),
        st.tuples(st.just("write"), st.just(0), _sizes),
        st.tuples(st.just("pread"), _offsets, _sizes),
        st.tuples(st.just("read"), st.just(0), _sizes),
        st.tuples(st.just("seek"), _offsets, st.just(0)),
        st.tuples(st.just("fsync"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


def apply_op(f, op, arg1, arg2, tag):
    """Run one op on a handle; returns the bytes the op observed."""
    if op == "pwrite":
        f.pwrite(_payload(tag, arg2), arg1)
        return b""
    if op == "write":
        f.write(_payload(tag, arg2))
        return b""
    if op == "pread":
        return f.pread(arg2, arg1)
    if op == "read":
        return f.read(arg2)
    if op == "seek":
        f.seek(arg1)
        return b""
    if op == "fsync":
        f.fsync()
        return b""
    raise AssertionError(op)


def run_sequence(ops, config):
    """Apply the op sequence on a fresh mount; return (observations,
    final backing bytes, stats snapshot)."""
    mem = MemBackend()
    observed = []
    fs = CRFS(mem, config)
    with fs:
        with fs.open("/ckpt") as f:
            for tag, (op, arg1, arg2) in enumerate(ops):
                observed.append(apply_op(f, op, arg1, arg2, tag))
    handle = mem.open("/ckpt", create=False)
    size = mem.file_size(handle)
    content = mem.pread(handle, size, 0)
    mem.close(handle)
    return observed, content, fs.stats()


class TestReadPathProperties:
    @given(ops=OPS)
    # A chunk cached short at the then-EOF, the file grown by a write
    # that does not overlap it, then read past its valid bytes.
    @example(
        ops=[("write", 0, 4097), ("pread", 0, 1), ("pwrite", 8192, 1), ("pread", 0, 4098)]
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_is_semantically_invisible(self, ops):
        cached_obs, cached_bytes, cached_stats = run_sequence(ops, cached_config())
        plain_obs, plain_bytes, plain_stats = run_sequence(ops, passthrough_config())
        assert cached_obs == plain_obs
        assert cached_bytes == plain_bytes
        # and the write plane was untouched by the read plane
        assert cached_stats["bytes_in"] == plain_stats["bytes_in"]
        assert cached_stats["bytes_out"] == plain_stats["bytes_out"]

    @given(
        sizes=st.lists(_sizes, min_size=1, max_size=10),
        request=st.integers(min_value=1, max_value=2 * CHUNK),
    )
    @settings(max_examples=30, deadline=None)
    def test_read_your_writes_of_undrained_data(self, sizes, request):
        """A read issued immediately after writes — no fsync, chunks
        still buffered/queued — sees every byte, on both configs."""
        expected = b"".join(_payload(i, n) for i, n in enumerate(sizes))

        def collect(config):
            fs = CRFS(MemBackend(), config)
            with fs, fs.open("/ckpt") as f:
                for i, n in enumerate(sizes):
                    f.write(_payload(i, n))
                f.seek(0)
                parts, got = [], 0
                while got < len(expected):
                    part = f.read(min(request, len(expected) - got))
                    assert part, "short read before EOF"
                    parts.append(part)
                    got += len(part)
            return b"".join(parts)

        assert collect(cached_config()) == expected
        assert collect(passthrough_config()) == expected

    @given(ops=OPS)
    @settings(max_examples=20, deadline=None)
    def test_cache_accounting_invariants(self, ops):
        """Whatever the interleaving: every issued prefetch resolves to
        exactly one of delivered/dropped, and hit+miss covers every
        cache lookup (reads never vanish)."""
        _, _, stats = run_sequence(ops, cached_config())
        read = stats["read"]
        assert read["prefetch_dropped"] >= 0
        assert read["prefetch_wasted"] <= read["prefetched"]
        nreads = sum(1 for op, _, _ in ops if op in ("pread", "read"))
        assert read["reads"] == nreads
        if read["bytes_read"] == 0:
            assert read["hits"] == 0

    def test_default_config_read_section_is_zero(self):
        """readahead off (the default): the read plane stays the paper's
        pure passthrough — no cache activity at all."""
        ops = [("write", 0, CHUNK), ("pread", 0, CHUNK), ("fsync", 0, 0),
               ("pread", 0, 2 * CHUNK)]
        _, _, stats = run_sequence(ops, CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
        ))
        read = stats["read"]
        assert read["reads"] == 2
        assert read["hits"] == read["misses"] == 0
        assert read["prefetched"] == read["prefetch_dropped"] == 0
        assert read["prefetch_wasted"] == 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
