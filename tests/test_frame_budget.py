"""Per-call frame budgets: how many Python frames one ``write()`` that
fits its open chunk, and one ``pread()`` served from resident cache
chunks, enter.

A stopwatch sees a per-call regression only as noise on a shared box;
a helper call added to the fitting path is a new Python frame, which
``sys.setprofile`` counts exactly.  So these budgets fail a test, not
a benchmark, the moment a frame is added.
"""

import sys

from repro import CRFS, CRFSConfig, MemBackend

CHUNK = 4096


def frames_entered(call):
    """Qualified names of the Python frames ``call()`` enters, in order
    (the lambda wrapping the call itself excluded)."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names[1:]


class TestFittingWrite:
    def test_three_frames(self):
        cfg = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1)
        payload = memoryview(bytes(64))
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(payload[:16])  # opens the chunk: the general plan
                for record in (payload[:40], b"x" * 40, bytearray(8)):
                    assert frames_entered(lambda: f.write(record)) == [
                        "CRFSFile.write",
                        "CRFS._write",
                        "FilePipeline.fit_write",
                    ]
                assert frames_entered(lambda: f.pwrite(b"y" * 8, 104)) == [
                    "CRFSFile.pwrite",
                    "CRFS._write",
                    "FilePipeline.fit_write",
                ]
            assert fs.stats()["writes"] == 5


class TestResidentRead:
    #: The count after the handle stopped calling ``_check_open`` and the
    #: mount ``_require_mounted``, and ``BackendHealth.degraded`` became
    #: an attribute: 16 frames before.
    BUDGET = 13

    def test_frame_count(self):
        cfg = CRFSConfig(
            chunk_size=CHUNK,
            pool_size=16 * CHUNK,
            io_threads=1,
            read_cache_chunks=3,
            readahead_chunks=2,
        )
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(bytes(8 * CHUNK))
                f.fsync()
                f.pread(100, 0)  # the demand fetch: chunk 0 resident
                names = frames_entered(lambda: f.pread(100, 300))
                assert fs.stats()["read"]["hits"] >= 1
        assert names[:4] == ["CRFSFile.pread", "CRFS._read", "ReadCache.read", "read_resident"]
        assert len(names) == self.BUDGET, names
