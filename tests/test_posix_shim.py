"""Tests for the POSIX fd-style facade."""

import sys
import threading

import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.core.posix import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    PosixShim,
)
from repro.errors import BadFileDescriptor, FileExists, FileNotFound
from repro.units import KiB


@pytest.fixture
def rig():
    backend = MemBackend()
    fs = CRFS(
        backend, CRFSConfig(chunk_size=4 * KiB, pool_size=32 * KiB, io_threads=2)
    ).mount()
    yield PosixShim(fs), backend
    fs.unmount()


class TestOpenFlags:
    def test_creat_and_write(self, rig):
        px, backend = rig
        fd = px.open("/f", O_WRONLY | O_CREAT)
        assert px.write(fd, b"hello") == 5
        px.close(fd)
        assert backend.read_file("/f") == b"hello"

    def test_open_missing_without_creat(self, rig):
        px, _ = rig
        with pytest.raises(FileNotFound):
            px.open("/missing", O_RDONLY)

    def test_excl_on_existing(self, rig):
        px, _ = rig
        fd = px.open("/f", O_CREAT)
        px.close(fd)
        with pytest.raises(FileExists):
            px.open("/f", O_CREAT | O_EXCL)

    def test_trunc_clears(self, rig):
        px, backend = rig
        fd = px.open("/f", O_CREAT)
        px.write(fd, b"old contents")
        px.close(fd)
        fd = px.open("/f", O_WRONLY | O_TRUNC)
        px.write(fd, b"new")
        px.close(fd)
        assert backend.read_file("/f") == b"new"

    def test_append_mode(self, rig):
        px, backend = rig
        fd = px.open("/f", O_CREAT)
        px.write(fd, b"start")
        px.fsync(fd)
        px.close(fd)
        fd = px.open("/f", O_WRONLY | O_APPEND)
        px.write(fd, b"+more")
        px.close(fd)
        assert backend.read_file("/f") == b"start+more"
        fd = px.open("/f", O_WRONLY | O_APPEND)
        px.lseek(fd, 0, SEEK_SET)
        px.write(fd, b"!")
        assert px.lseek(fd, 0, SEEK_CUR) == 11  # just past the append
        px.close(fd)
        assert backend.read_file("/f") == b"start+more!"

    def test_concurrent_appends_never_overlap(self, rig):
        """Two ``O_APPEND`` fds on one file, one thread each.  Finding
        the end and writing there are one step under the file's write
        lock; as a seek then a write, another appender's bytes landed
        in between and a third of the records were overwritten."""
        px, backend = rig
        count = 2000
        fds = {tag: px.open("/log", O_WRONLY | O_CREAT | O_APPEND) for tag in "ab"}

        def appender(tag):
            for i in range(count):
                px.write(fds[tag], b"%s%09d" % (tag.encode(), i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=appender, args=(tag,)) for tag in fds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for fd in fds.values():
            px.close(fd)
        image = backend.read_file("/log")
        assert len(image) == 2 * count * 10
        records = [image[i : i + 10] for i in range(0, len(image), 10)]
        for tag in "ab":
            mine = [r for r in records if r[:1] == tag.encode()]
            assert mine == [b"%s%09d" % (tag.encode(), i) for i in range(count)]

    def test_fd_numbers_unique(self, rig):
        px, _ = rig
        fds = [px.open(f"/f{i}", O_CREAT) for i in range(5)]
        assert len(set(fds)) == 5
        assert px.open_fds() == 5
        for fd in fds:
            px.close(fd)
        assert px.open_fds() == 0


class TestIO:
    def test_pwrite_pread(self, rig):
        px, _ = rig
        fd = px.open("/f", O_CREAT)
        px.pwrite(fd, b"ABCD", 10)
        px.fsync(fd)
        assert px.pread(fd, 4, 10) == b"ABCD"
        px.close(fd)

    def test_lseek_and_read(self, rig):
        px, _ = rig
        fd = px.open("/f", O_CREAT)
        px.write(fd, b"0123456789")
        px.fsync(fd)
        assert px.lseek(fd, 4, SEEK_SET) == 4
        assert px.read(fd, 3) == b"456"
        assert px.lseek(fd, -2, SEEK_END) == 8
        assert px.read(fd, 2) == b"89"
        px.close(fd)

    def test_fstat_size(self, rig):
        px, _ = rig
        fd = px.open("/f", O_CREAT)
        px.write(fd, b"x" * 1234)
        assert px.fstat_size(fd) == 1234
        px.close(fd)

    def test_bad_fd(self, rig):
        px, _ = rig
        with pytest.raises(BadFileDescriptor):
            px.write(999, b"x")
        with pytest.raises(BadFileDescriptor):
            px.close(999)

    def test_double_close_rejected(self, rig):
        px, _ = rig
        fd = px.open("/f", O_CREAT)
        px.close(fd)
        with pytest.raises(BadFileDescriptor):
            px.close(fd)

    def test_racing_close_rejected(self, rig):
        """A second close of the fd lands the moment the first releases
        the fd table's lock after its lookup: exactly one close gets the
        handle, the other reports a bad fd (not a ``KeyError``)."""
        px, _ = rig
        fd = px.open("/f", O_CREAT)
        outcomes = []

        def close():
            try:
                px.close(fd)
                outcomes.append("closed")
            except BadFileDescriptor:
                outcomes.append("EBADF")

        class RaceOnRelease:
            def __init__(self, lock):
                self.lock, self.race = lock, close

            def __enter__(self):
                return self.lock.__enter__()

            def __exit__(self, *exc):
                self.lock.__exit__(*exc)
                race, self.race = self.race, None
                if race is not None:
                    race()

        px._lock = RaceOnRelease(px._lock)
        close()
        assert sorted(outcomes) == ["EBADF", "closed"]


class TestNamespace:
    def test_mkdir_listdir_rename_unlink(self, rig):
        px, _ = rig
        px.mkdir("/d")
        fd = px.open("/d/f", O_CREAT)
        px.close(fd)
        assert px.listdir("/d") == ["f"]
        px.rename("/d/f", "/d/g")
        assert px.listdir("/d") == ["g"]
        px.unlink("/d/g")
        px.rmdir("/d")
        assert px.listdir("/") == []


class TestBLCRThroughShim:
    def test_checkpoint_via_fd_interface(self, rig):
        """A writer that only knows fds can checkpoint through CRFS."""
        import io

        from repro.checkpoint import (
            BLCRWriter,
            ProcessImage,
            restore_image,
            verify_roundtrip,
        )

        px, backend = rig

        class FdFile:
            def __init__(self, px, fd):
                self.px, self.fd = px, fd

            def write(self, data):
                return self.px.write(self.fd, data)

        img = ProcessImage.synthesize(rank=1, image_size=500_000, seed=31)
        fd = px.open("/ckpt.img", O_WRONLY | O_CREAT | O_TRUNC)
        BLCRWriter().checkpoint(img, FdFile(px, fd))
        px.close(fd)
        restored = restore_image(io.BytesIO(backend.read_file("/ckpt.img")))
        verify_roundtrip(img, restored)
