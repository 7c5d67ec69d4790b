"""Tests for all storage backends against the shared Backend contract."""

import threading
from array import array

import pytest

from repro.backends import (
    FaultRule,
    FaultyBackend,
    InstrumentedBackend,
    LocalDirBackend,
    MemBackend,
    NullBackend,
)
from repro.backends.base import normalize_path, split_path
from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)


class TestPathHelpers:
    @pytest.mark.parametrize(
        "raw,norm",
        [
            ("/a/b", "/a/b"),
            ("a/b", "/a/b"),
            ("/a//b/", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/../b", "/b"),
            ("/../..", "/"),
            ("/", "/"),
            ("", "/"),
        ],
    )
    def test_normalize(self, raw, norm):
        assert normalize_path(raw) == norm

    def test_split(self):
        assert split_path("/a/b/c") == ("/a/b", "c")
        assert split_path("/a") == ("/", "a")
        assert split_path("/") == ("/", "")


def make_mem():
    return MemBackend()


def make_localdir(tmp_path):
    return LocalDirBackend(str(tmp_path / "root"))


@pytest.fixture(params=["mem", "localdir"])
def backend(request, tmp_path):
    if request.param == "mem":
        return make_mem()
    return make_localdir(tmp_path)


class TestBackendContract:
    """Shared semantics every real backend must satisfy."""

    def test_write_read_roundtrip(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"hello world", 0)
        assert backend.pread(fd, 11, 0) == b"hello world"
        backend.close(fd)

    def test_positional_writes(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"BBBB", 4)
        backend.pwrite(fd, b"AAAA", 0)
        assert backend.pread(fd, 8, 0) == b"AAAABBBB"
        backend.close(fd)

    def test_sparse_write_zero_fills(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"X", 10)
        assert backend.file_size(fd) == 11
        assert backend.pread(fd, 11, 0) == b"\x00" * 10 + b"X"
        backend.close(fd)

    def test_short_read_at_eof(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"abc", 0)
        assert backend.pread(fd, 100, 0) == b"abc"
        assert backend.pread(fd, 10, 50) == b""
        backend.close(fd)

    def test_overwrite(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"aaaa", 0)
        backend.pwrite(fd, b"bb", 1)
        assert backend.pread(fd, 4, 0) == b"abba"
        backend.close(fd)

    def test_write_straddling_eof_overwrites_then_grows(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"aaaa", 0)
        assert backend.pwrite(fd, b"bbbbbb", 2) == 6
        assert backend.pread(fd, 100, 0) == b"aabbbbbb"
        backend.pwrite(fd, b"cc", 8)  # still growable: no view of it left behind
        assert backend.file_size(fd) == 10
        backend.close(fd)

    def test_gather_over_a_gap_and_across_eof(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        views = [memoryview(b"AAAA"), b"", bytearray(b"BBBB"), memoryview(b"xCCx")[1:3]]
        assert backend.pwritev(fd, views, 4) == 10
        assert backend.pread(fd, 100, 0) == b"0123AAAABBBBCC"
        assert backend.pwritev(fd, [b"DD", b"EE"], 16) == 4
        assert backend.pread(fd, 100, 0) == b"0123AAAABBBBCC\x00\x00DDEE"
        assert backend.pwritev(fd, [b"", b""], 64) == 0  # and no growth
        assert backend.file_size(fd) == 20
        backend.close(fd)

    def test_items_wider_than_a_byte_are_written_as_their_bytes(self, backend):
        doubles = array("d", [1.5, -2.25])
        fd = backend.open("/f")
        backend.pwrite(fd, b"\xff" * 20, 0)
        assert backend.pwrite(fd, doubles, 2) == 16  # in place
        assert backend.pwritev(fd, [array("b", [-1, 2]), doubles], 20) == 18  # at EOF
        assert backend.pread(fd, 100, 0) == (
            b"\xff\xff" + doubles.tobytes() + b"\xff\xff\xff\x02" + doubles.tobytes()
        )
        backend.close(fd)

    def test_open_no_create_missing(self, backend):
        with pytest.raises(FileNotFound):
            backend.open("/missing", create=False)

    def test_open_truncate(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"data", 0)
        backend.close(fd)
        fd = backend.open("/f", truncate=True)
        assert backend.file_size(fd) == 0
        backend.close(fd)

    def test_exists_and_stat(self, backend):
        assert not backend.exists("/f")
        fd = backend.open("/f")
        backend.pwrite(fd, b"12345", 0)
        backend.close(fd)
        assert backend.exists("/f")
        st = backend.stat("/f")
        assert st.size == 5
        assert not st.is_dir

    def test_stat_missing(self, backend):
        with pytest.raises(FileNotFound):
            backend.stat("/missing")

    def test_mkdir_listdir(self, backend):
        backend.mkdir("/d")
        fd = backend.open("/d/f")
        backend.close(fd)
        assert backend.listdir("/d") == ["f"]
        assert backend.stat("/d").is_dir

    def test_mkdir_exists(self, backend):
        backend.mkdir("/d")
        with pytest.raises(FileExists):
            backend.mkdir("/d")

    def test_mkdir_missing_parent(self, backend):
        with pytest.raises(FileNotFound):
            backend.mkdir("/no/such/parent")

    def test_unlink(self, backend):
        fd = backend.open("/f")
        backend.close(fd)
        backend.unlink("/f")
        assert not backend.exists("/f")

    def test_unlink_missing(self, backend):
        with pytest.raises(FileNotFound):
            backend.unlink("/missing")

    def test_rmdir_empty_only(self, backend):
        backend.mkdir("/d")
        fd = backend.open("/d/f")
        backend.close(fd)
        with pytest.raises(DirectoryNotEmpty):
            backend.rmdir("/d")
        backend.unlink("/d/f")
        backend.rmdir("/d")
        assert not backend.exists("/d")

    def test_rename(self, backend):
        fd = backend.open("/a")
        backend.pwrite(fd, b"data", 0)
        backend.close(fd)
        backend.rename("/a", "/b")
        assert not backend.exists("/a")
        assert backend.stat("/b").size == 4

    def test_rename_missing(self, backend):
        with pytest.raises(FileNotFound):
            backend.rename("/missing", "/x")

    def test_truncate_shrink_and_grow(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"123456", 0)
        backend.close(fd)
        backend.truncate("/f", 3)
        assert backend.stat("/f").size == 3
        backend.truncate("/f", 10)
        assert backend.stat("/f").size == 10

    def test_fsync_ok(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"x", 0)
        backend.fsync(fd)
        backend.close(fd)

    def test_nested_dirs(self, backend):
        backend.mkdir("/a")
        backend.mkdir("/a/b")
        backend.mkdir("/a/b/c")
        fd = backend.open("/a/b/c/deep")
        backend.close(fd)
        assert backend.listdir("/a/b/c") == ["deep"]

    def test_concurrent_writers_distinct_files(self, backend):
        errors = []

        def writer(i):
            try:
                fd = backend.open(f"/f{i}")
                for j in range(50):
                    backend.pwrite(fd, bytes([i]) * 100, j * 100)
                backend.close(fd)
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(8):
            assert backend.stat(f"/f{i}").size == 5000


class TestMemBackendSpecifics:
    def test_bad_fd(self):
        b = MemBackend()
        with pytest.raises(BadFileDescriptor):
            b.pwrite(12345, b"x", 0)

    def test_closed_fd_rejected(self):
        b = MemBackend()
        fd = b.open("/f")
        b.close(fd)
        with pytest.raises(BadFileDescriptor):
            b.pread(fd, 1, 0)

    def test_unlink_while_open_keeps_data(self):
        b = MemBackend()
        fd = b.open("/f")
        b.pwrite(fd, b"persist", 0)
        b.unlink("/f")
        assert b.pread(fd, 7, 0) == b"persist"
        b.close(fd)

    def test_open_dir_rejected(self):
        b = MemBackend()
        b.mkdir("/d")
        with pytest.raises(IsADirectory):
            b.open("/d")

    def test_listdir_on_file_rejected(self):
        b = MemBackend()
        fd = b.open("/f")
        b.close(fd)
        with pytest.raises(NotADirectory):
            b.listdir("/f")

    def test_write_stats(self):
        b = InstrumentedBackend(MemBackend())
        fd = b.open("/f")
        b.pwrite(fd, b"abc", 0)
        b.pwrite(fd, b"de", 3)
        assert b.write_sizes() == [3, 2]
        assert b.inner.read_file("/f") == b"abcde"


class TestLocalDirBackend:
    def test_files_are_real(self, tmp_path):
        b = LocalDirBackend(str(tmp_path / "r"))
        fd = b.open("/sub/../f")  # normalized inside the virtual namespace
        b.pwrite(fd, b"real bytes", 0)
        b.close(fd)
        assert (tmp_path / "r" / "f").read_bytes() == b"real bytes"

    def test_escape_attempt_stays_in_root(self, tmp_path):
        b = LocalDirBackend(str(tmp_path / "r"))
        fd = b.open("/../../../../escaped")
        b.close(fd)
        # '..' resolved inside the virtual namespace: file lands in the root
        assert (tmp_path / "r" / "escaped").exists()
        assert not (tmp_path / "escaped").exists()


class TestNullBackend:
    def test_discards_but_tracks_size(self):
        b = NullBackend()
        fd = b.open("/f")
        b.pwrite(fd, b"x" * 100, 0)
        b.pwrite(fd, b"y" * 50, 200)
        assert b.file_size(fd) == 250
        assert b.pread(fd, 10, 0) == b"\x00" * 10
        b.close(fd)

    def test_namespace_minimal(self):
        b = NullBackend()
        fd = b.open("/d/f")
        b.close(fd)
        assert b.exists("/d/f")
        b.rename("/d/f", "/d/g")
        assert b.exists("/d/g")
        b.unlink("/d/g")
        assert not b.exists("/d/g")


class TestInstrumentedBackend:
    def test_records_pwrites_with_sizes(self):
        b = InstrumentedBackend(MemBackend())
        fd = b.open("/f")
        b.pwrite(fd, b"abc", 0)
        b.pwrite(fd, b"defgh", 3)
        b.close(fd)
        assert b.write_sizes() == [3, 5]
        ops = b.ops()
        assert [o.op for o in ops] == ["open", "pwrite", "pwrite", "close"]
        assert all(o.duration >= 0 for o in ops)

    def test_paths_recorded(self):
        b = InstrumentedBackend(MemBackend())
        b.mkdir("/ckpt")
        fd = b.open("/ckpt/rank0")
        b.pwrite(fd, b"x", 0)
        assert b.ops("pwrite")[0].path == "/ckpt/rank0"

    def test_clear(self):
        b = InstrumentedBackend(MemBackend())
        fd = b.open("/f")
        b.clear()
        assert b.ops() == []
        b.close(fd)

    def test_delegation_correct(self):
        b = InstrumentedBackend(MemBackend())
        fd = b.open("/f")
        b.pwrite(fd, b"hello", 0)
        assert b.pread(fd, 5, 0) == b"hello"
        b.close(fd)
        b.mkdir("/d")
        assert b.listdir("/") == ["d", "f"]


class TestFaultyBackend:
    def test_nth_pwrite_fails(self):
        b = FaultyBackend(
            MemBackend(), [FaultRule(op="pwrite", nth=2, error=OSError("EIO"))]
        )
        fd = b.open("/f")
        b.pwrite(fd, b"ok", 0)
        with pytest.raises(OSError, match="EIO"):
            b.pwrite(fd, b"boom", 2)
        # third pwrite succeeds again (one-shot rule)
        b.pwrite(fd, b"ok", 2)
        assert b.faults_fired == 1

    def test_every_rule_persists(self):
        b = FaultyBackend(
            MemBackend(),
            [FaultRule(op="fsync", nth=1, every=True, error=OSError("nope"))],
        )
        fd = b.open("/f")
        for _ in range(3):
            with pytest.raises(OSError):
                b.fsync(fd)

    def test_delay_rule(self):
        slept = []
        b = FaultyBackend(
            MemBackend(),
            [FaultRule(op="pwrite", nth=1, delay=0.5)],
            sleep=slept.append,
        )
        fd = b.open("/f")
        b.pwrite(fd, b"x", 0)
        assert slept == [0.5]

    def test_bad_nth(self):
        with pytest.raises(ValueError):
            FaultRule(op="pwrite", nth=0)
