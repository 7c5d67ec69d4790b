"""Shared scenario builders for the experiment modules."""

from __future__ import annotations

from functools import lru_cache

from ..config import DEFAULT_CONFIG
from ..mpi import CheckpointCoordinator, CheckpointResult, MPIJob, stack_by_name
from ..simio.params import DEFAULT_HW
from ..workloads import lu_class

__all__ = ["run_cell", "DEFAULT_SEED", "speedup", "pct_reduction"]

DEFAULT_SEED = 2011


@lru_cache(maxsize=128)
def run_cell(
    stack_name: str,
    nas_name: str,
    fs_kind: str,
    use_crfs: bool,
    nprocs: int = 128,
    nnodes: int = 16,
    seed: int = DEFAULT_SEED,
    record_writes: bool = False,
    io_threads: int = 4,
    chunk_size: int = DEFAULT_CONFIG.chunk_size,
) -> CheckpointResult:
    """One (stack, class, filesystem, mode) checkpoint run, memoized —
    figure modules and ablations share cells without re-simulating."""
    job = MPIJob(
        stack=stack_by_name(stack_name),
        nas=lu_class(nas_name),
        nprocs=nprocs,
        nnodes=nnodes,
    )
    config = DEFAULT_CONFIG.with_(io_threads=io_threads, chunk_size=chunk_size)
    coord = CheckpointCoordinator(
        job,
        fs_kind,
        use_crfs=use_crfs,
        hw=DEFAULT_HW,
        config=config,
        seed=seed,
        record_writes=record_writes,
    )
    return coord.run()


def speedup(native: float, crfs: float) -> float:
    return native / crfs if crfs > 0 else float("inf")


def pct_reduction(native: float, crfs: float) -> float:
    return 100.0 * (native - crfs) / native if native > 0 else 0.0
