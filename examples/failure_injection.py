#!/usr/bin/env python
"""Failure injection: how CRFS surfaces asynchronous write errors.

CRFS acknowledges write() as soon as data is buffered — so what happens
when the *backing store* fails later?  Per the POSIX writeback contract
(and this library's design), the error is latched in the file's
metadata entry and raised from the next close() or fsync().  This
example injects backend faults and demonstrates:

1. an error on an async chunk write surfaces at close();
2. after a failed fsync-cycle the file can be retried cleanly;
3. injected *delays* exercise buffer-pool backpressure without data loss.

Run:  python examples/failure_injection.py
"""

from repro import CRFS, CRFSConfig, MemBackend
from repro.backends import FaultRule, FaultyBackend
from repro.errors import BackendIOError
from repro.units import KiB


def error_at_close() -> None:
    print("1. async write error surfaces at close()")
    backend = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=2, error=OSError("injected: disk failed"))],
    )
    cfg = CRFSConfig(chunk_size=16 * KiB, pool_size=128 * KiB, io_threads=2)
    fs = CRFS(backend, cfg).mount()
    f = fs.open("/ckpt.img")
    f.write(b"a" * (48 * KiB))  # 3 chunks; the 2nd backend write fails
    try:
        f.close()
        raise AssertionError("close() should have raised")
    except BackendIOError as exc:
        print(f"   close() raised: {exc}")
    fs.unmount()
    print()


def retry_after_fsync_failure() -> None:
    print("2. fsync failure, then clean retry")
    backend = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, error=OSError("injected: transient"))],
    )
    cfg = CRFSConfig(chunk_size=16 * KiB, pool_size=128 * KiB, io_threads=2)
    with CRFS(backend, cfg) as fs:
        f = fs.open("/data")
        f.write(b"b" * (16 * KiB))
        try:
            f.fsync()
        except BackendIOError as exc:
            print(f"   fsync() raised: {exc}")
        # the fault rule was one-shot: rewrite and fsync again
        f.pwrite(b"b" * (16 * KiB), 0)
        f.fsync()
        print("   retry succeeded; data is on the backend")
        f.close()
    print()


def delays_cause_backpressure_not_loss() -> None:
    print("3. slow backend: backpressure, not loss")
    slow = FaultyBackend(
        MemBackend(),
        [FaultRule(op="pwrite", nth=1, every=True, delay=0.005)],
    )
    cfg = CRFSConfig(chunk_size=16 * KiB, pool_size=32 * KiB, io_threads=1)
    with CRFS(slow, cfg) as fs:
        with fs.open("/big") as f:
            payload = b"c" * (16 * KiB)
            for _ in range(16):  # 8x the pool size
                f.write(payload)
        stats = fs.stats()
        print(f"   pool waits: {stats['pool']['waits']} "
              f"(writers blocked while IO threads drained)")
        assert slow.inner.read_file("/big") == payload * 16
        print("   all 256 KiB intact on the backend")


def main() -> None:
    error_at_close()
    retry_after_fsync_failure()
    delays_cause_backpressure_not_loss()


if __name__ == "__main__":
    main()
