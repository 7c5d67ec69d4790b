"""Edge-case tests for CRFSFile handle semantics and mount namespace ops."""

import io
from array import array

import numpy as np
import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import FileStateError
from repro.units import KiB


@pytest.fixture
def fs():
    f = CRFS(
        MemBackend(), CRFSConfig(chunk_size=4 * KiB, pool_size=32 * KiB, io_threads=2)
    ).mount()
    yield f
    f.unmount()


class TestSeekWhence:
    def test_seek_set(self, fs):
        f = fs.open("/f")
        f.write(b"0123456789")
        assert f.seek(3) == 3
        assert f.tell() == 3
        f.close()

    def test_seek_cur(self, fs):
        f = fs.open("/f")
        f.write(b"0123456789")
        f.seek(2)
        assert f.seek(3, 1) == 5
        f.close()

    def test_seek_end(self, fs):
        f = fs.open("/f")
        f.write(b"0123456789")
        assert f.seek(-4, 2) == 6
        f.close()

    def test_seek_negative_rejected(self, fs):
        f = fs.open("/f")
        with pytest.raises(ValueError):
            f.seek(-1)
        f.close()

    def test_bad_whence(self, fs):
        f = fs.open("/f")
        with pytest.raises(ValueError):
            f.seek(0, 3)
        f.close()

    def test_seek_past_end_then_write_sparse(self, fs):
        f = fs.open("/f")
        f.seek(100)
        f.write(b"tail")
        f.fsync()
        assert f.pread(4, 100) == b"tail"
        assert f.pread(4, 0) == b"\x00" * 4
        f.close()


class TestReadSemantics:
    def test_read_all_default(self, fs):
        f = fs.open("/f")
        f.write(b"abcdef")
        f.fsync()
        f.seek(0)
        assert f.read() == b"abcdef"
        f.close()

    def test_read_zero(self, fs):
        f = fs.open("/f")
        f.write(b"abc")
        f.fsync()
        f.seek(0)
        assert f.read(0) == b""
        f.close()

    def test_read_moves_cursor(self, fs):
        f = fs.open("/f")
        f.write(b"abcdef")
        f.fsync()
        f.seek(0)
        f.read(2)
        assert f.read(2) == b"cd"
        f.close()

    def test_read_past_eof_empty(self, fs):
        f = fs.open("/f")
        f.write(b"abc")
        f.fsync()
        f.seek(100)
        assert f.read(10) == b""
        f.close()

    def test_writable_readable_seekable(self, fs):
        f = fs.open("/f")
        assert f.writable() and f.readable() and f.seekable()
        f.close()
        assert not f.writable() and not f.readable()


class TestWriteBufferTypes:
    """``write()`` takes any C-contiguous buffer and writes its bytes —
    a buffer's length counts items, which are not bytes for an
    ``array("d")`` or a NumPy shard."""

    @pytest.mark.parametrize(
        "data",
        [
            array("d", [1.0, 2.0, 3.0]),
            np.arange(12, dtype=np.float32).reshape(3, 4),
            memoryview(array("H", range(100))),
        ],
        ids=["array-d", "numpy-2d-float32", "memoryview-H"],
    )
    @pytest.mark.parametrize("threshold", [0, 16], ids=["aggregated", "write-through"])
    def test_wide_items_write_all_their_bytes(self, data, threshold):
        raw = memoryview(data).tobytes()
        assert len(raw) > len(data)
        mem = MemBackend()
        cfg = CRFSConfig(
            chunk_size=4 * KiB, pool_size=32 * KiB, write_through_threshold=threshold
        )
        with CRFS(mem, cfg) as fs:
            with fs.open("/f") as f:
                f.write(b"\xff")  # opens the chunk: the next write fits it
                assert f.write(data) == len(raw)
                assert f.tell() == 1 + len(raw)
            assert fs.stats()["bytes_in"] == 1 + len(raw)
        handle = mem.open("/f", create=False)
        assert mem.pread(handle, mem.file_size(handle), 0) == b"\xff" + raw

    @pytest.mark.parametrize(
        "data",
        [memoryview(b"abcdef")[::2], np.arange(12, dtype=np.float32).reshape(3, 4).T],
        ids=["strided-bytes", "numpy-transposed"],
    )
    def test_non_contiguous_buffer_is_refused_like_io_does(self, fs, data):
        # BufferError from a memoryview; NumPy's own export says ValueError
        with pytest.raises((BufferError, ValueError)):
            io.BytesIO().write(data)
        with fs.open("/f") as f:
            with pytest.raises(BufferError):
                f.write(data)
            assert f.tell() == 0
        assert fs.stats()["writes"] == 0


class TestHandleLifecycle:
    def test_double_context_exit_safe(self, fs):
        f = fs.open("/f")
        with f:
            f.write(b"x")
        f.close()  # idempotent

    def test_path_property(self, fs):
        f = fs.open("/dir/../name")
        assert f.path == "/name"
        f.close()

    def test_repr_shows_state(self, fs):
        f = fs.open("/f")
        assert "/f" in repr(f)
        f.close()
        assert "closed" in repr(f)

    def test_flush_then_close(self, fs):
        f = fs.open("/f")
        f.write(b"x" * 100)
        f.flush()
        f.flush()  # no partial left, no-op
        f.close()

    def test_pread_does_not_move_cursor(self, fs):
        f = fs.open("/f")
        f.write(b"abcdef")
        f.fsync()
        pos = f.tell()
        f.pread(3, 0)
        assert f.tell() == pos
        f.close()


class TestMountNamespace:
    def test_listdir_reflects_crfs_writes(self, fs):
        fs.mkdir("/d")
        with fs.open("/d/a") as f:
            f.write(b"1")
        with fs.open("/d/b") as f:
            f.write(b"2")
        assert fs.listdir("/d") == ["a", "b"]

    def test_stat_size_after_close(self, fs):
        with fs.open("/f") as f:
            f.write(b"x" * 12345)
        assert fs.stat("/f").size == 12345

    def test_exists_lifecycle(self, fs):
        assert not fs.exists("/f")
        f = fs.open("/f")
        f.close()
        assert fs.exists("/f")
        fs.unlink("/f")
        assert not fs.exists("/f")

    def test_truncate_open_file_refused(self, fs):
        f = fs.open("/f")
        with pytest.raises(FileStateError):
            fs.truncate("/f", 0)
        f.close()

    def test_size_tracks_largest_view(self, fs):
        f = fs.open("/f")
        f.write(b"x" * 5000)  # buffered: 1 chunk sealed + partial
        assert f.size() == 5000
        f.fsync()
        assert f.size() == 5000
        f.close()
