"""The zero-copy hot path under pytest-benchmark.

Records the cost of the copy-gated sim scenario and of a
functional-plane sequential write with batching on/off, and asserts
the copy budget every time: exactly one ingest copy per byte
written, zero read-side copies, and a ledger that is invariant to the
writeback batching knob (coalescing reshapes backend ops, never the
data path's copies).
"""

import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.perf.runner import run_scenario_sim
from repro.perf.scenarios import SCENARIOS
from repro.units import MiB

CHUNK = 1 * MiB
IMAGE = 32 * MiB


def test_zero_copy_scenario(benchmark):
    metrics = benchmark.pedantic(
        run_scenario_sim, args=(SCENARIOS["zero_copy"], 2011), kwargs={"fast": True},
        rounds=1, iterations=1,
    )
    mem = metrics["stats"]["mem"]
    assert metrics["bytes_copied"] == mem["bytes_copied"] == metrics["bytes_in"]
    assert metrics["copy_ratio"] == 1.0
    assert mem["by_site"]["read_boundary"]["bytes"] == 0
    assert mem["by_site"]["fetch"]["bytes"] == 0


def _sequential_write(batch_chunks: int):
    fs = CRFS(
        MemBackend(),
        CRFSConfig(
            chunk_size=CHUNK, pool_size=8 * CHUNK, io_threads=2,
            writeback_batch_chunks=batch_chunks,
        ),
    )
    payload = bytes(256 * 1024)
    with fs, fs.open("/ckpt") as f:
        for _ in range(IMAGE // len(payload)):
            f.write(payload)
    return fs.stats()


@pytest.mark.parametrize("batch_chunks", [1, 8])
def test_functional_write_copy_budget(benchmark, batch_chunks):
    stats = benchmark.pedantic(
        _sequential_write, args=(batch_chunks,), rounds=1, iterations=1,
    )
    mem = stats["mem"]
    # One ingest copy per byte, regardless of how writeback batches.
    assert mem["bytes_copied"] == stats["bytes_in"] == IMAGE
    assert mem["by_site"]["ingest"]["bytes"] == IMAGE
    assert mem["by_site"]["read_boundary"]["bytes"] == 0
    assert mem["by_site"]["fetch"]["bytes"] == 0
    assert stats["io_errors"] == 0
