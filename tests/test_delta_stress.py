"""Delta-chain concurrency stress: cadence checkpointers and a
manifest-read restore storm sharing a small buffer pool.

Several threads each drive their own checkpoint chain at iteration
cadence — mutate a few chunks, commit a delta generation, immediately
reassemble the image across the chain and verify it byte-for-byte —
while the write pipeline and the restore read caches fight over a pool
a fraction of the working set.  Invariants at unmount: no pool chunk
leaks, no deadlock (wall-clock bounded), every restore byte-identical,
and the delta section consistent with the per-thread commit counts.
"""

import threading
import time

import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.units import KiB

pytestmark = pytest.mark.stress

CHUNK = 16 * KiB
POOL_CHUNKS = 6  # vs a working set of NTHREADS files x NCHUNKS chunks
NTHREADS = 4
NCHUNKS = 8  # chunks per logical image
GENERATIONS = 10

#: Generous bound; any deadlock hits the suite's own timeout long after.
WALL_LIMIT = 60.0


def pattern(n, salt):
    return bytes((i * 31 + salt * 7 + 3) % 256 for i in range(n))


class TestDeltaChainsUnderPoolContention:
    def test_concurrent_cadence_chains_share_the_pool_without_leaks(self):
        mem = MemBackend()
        cfg = CRFSConfig(
            chunk_size=CHUNK,
            pool_size=POOL_CHUNKS * CHUNK,
            io_threads=2,
            read_cache_chunks=2,
            readahead_chunks=1,
        )
        fs = CRFS(mem, cfg)
        errors = []
        committed = [0] * NTHREADS
        start = time.monotonic()

        def chain(index):
            path = f"/shard{index}.ckpt"
            image = bytearray(pattern(NCHUNKS * CHUNK + 100, salt=index))
            try:
                fs.delta_checkpoint(path, image)
                committed[index] += 1
                for gen in range(1, GENERATIONS):
                    dirty = [
                        (gen + index) % NCHUNKS,
                        (gen * 3 + index) % NCHUNKS,
                    ]
                    for chunk in dirty:
                        lo = chunk * CHUNK
                        hi = min(lo + CHUNK, len(image))
                        image[lo:hi] = pattern(hi - lo, salt=index * 100 + gen)
                    fs.delta_checkpoint(path, image, dirty=dirty)
                    committed[index] += 1
                    # restore storm: every commit is immediately read
                    # back across the whole chain
                    if fs.delta_restore(path) != bytes(image):
                        raise AssertionError(f"{path}: reassembly diverged")
            except BaseException as exc:  # surfaced after the join
                errors.append((index, exc))

        with fs:
            threads = [
                threading.Thread(target=chain, args=(i,), name=f"chain-{i}")
                for i in range(NTHREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WALL_LIMIT)
            assert not any(t.is_alive() for t in threads), "chain deadlocked"
            assert not errors, errors

            # final cross-check once the storm has settled
            for index in range(NTHREADS):
                assert fs.delta_restore(f"/shard{index}.ckpt") is not None
            stats = fs.stats()
            pool = fs.pool

        assert time.monotonic() - start < WALL_LIMIT
        # no chunk leaks: the whole pool is back on the free list
        assert (pool.in_use, pool.nchunks) == (0, POOL_CHUNKS)

        delta = stats["delta"]
        assert delta["generations"] == sum(committed) == NTHREADS * GENERATIONS
        assert delta["manifest_writes"] == delta["generations"]
        # every per-commit restore plus the final sweep
        assert delta["restores"] == NTHREADS * (GENERATIONS - 1) + NTHREADS
        assert 0 < delta["bytes_written"] < delta["logical_bytes"]
        assert delta["reassembly_bytes"] == delta["restores"] * (
            NCHUNKS * CHUNK + 100
        )
