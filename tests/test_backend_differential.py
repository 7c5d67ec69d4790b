"""Differential property tests: MemBackend and LocalDirBackend must agree
on every operation sequence — one model checks the other."""

from hypothesis import given, settings, strategies as st

from repro.backends import LocalDirBackend, MemBackend
from repro.errors import CRFSError


@st.composite
def op_sequences(draw):
    """Random op scripts over a tiny namespace."""
    names = ["/a", "/b", "/d/x", "/d/y"]
    ops = []
    n = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["mkdir_d", "write", "read", "unlink", "rename", "truncate", "stat"]
            )
        )
        path = draw(st.sampled_from(names))
        ops.append(
            (
                kind,
                path,
                draw(st.integers(min_value=0, max_value=5000)),  # offset/size
                draw(st.binary(min_size=0, max_size=300)),  # data
            )
        )
    return ops


def apply_ops(backend, ops):
    """Run the script, capturing results and error *types* per step."""
    log = []
    for kind, path, num, data in ops:
        try:
            if kind == "mkdir_d":
                backend.mkdir("/d")
                log.append(("ok", None))
            elif kind == "write":
                fd = backend.open(path)
                backend.pwrite(fd, data, num)
                backend.close(fd)
                log.append(("ok", None))
            elif kind == "read":
                fd = backend.open(path, create=False)
                out = backend.pread(fd, 64, num)
                backend.close(fd)
                log.append(("data", out))
            elif kind == "unlink":
                backend.unlink(path)
                log.append(("ok", None))
            elif kind == "rename":
                backend.rename(path, path + "_r")
                backend.rename(path + "_r", path)
                log.append(("ok", None))
            elif kind == "truncate":
                backend.truncate(path, num)
                log.append(("ok", None))
            elif kind == "stat":
                log.append(("size", backend.stat(path).size))
        except CRFSError as exc:
            log.append(("err", type(exc).__name__))
    return log


class TestBackendsAgree:
    @given(ops=op_sequences())
    @settings(max_examples=40, deadline=None)
    def test_mem_and_localdir_equivalent(self, ops, tmp_path_factory):
        mem = MemBackend()
        local = LocalDirBackend(str(tmp_path_factory.mktemp("diff")))
        assert apply_ops(mem, ops) == apply_ops(local, ops)


class TestReadConsistencyOption:
    def test_passthrough_may_lag(self):
        # documentation-by-test: with passthrough (paper mode), a read
        # racing buffered data may see stale bytes; no assertion on
        # staleness (timing-dependent), just that nothing breaks.
        from repro.config import CRFSConfig
        from repro.core import CRFS
        from repro.units import KiB

        cfg = CRFSConfig(chunk_size=64 * KiB, pool_size=256 * KiB, io_threads=1)
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(b"x" * 100)
                f.pread(100, 0)  # allowed; content unspecified pre-drain

    def test_read_your_writes_mode(self):
        from repro.config import CRFSConfig
        from repro.core import CRFS
        from repro.units import KiB

        cfg = CRFSConfig(
            chunk_size=64 * KiB,
            pool_size=256 * KiB,
            io_threads=1,
            read_cache_chunks=2,
        )
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(b"fresh bytes")
                # read-your-writes: a cached read flushes + drains first
                assert f.pread(11, 0) == b"fresh bytes"
                f.write(b"MORE")
                assert f.pread(4, 11) == b"MORE"
