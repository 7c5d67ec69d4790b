"""The LLM cadence-checkpoint workload.

Drives the incremental-checkpoint path the way an LLM trainer does:
every iteration boundary, each tensor-shard file checkpoints a
deterministic dirty subset of its chunks (generation 0 is a full dump),
and a restart reassembles the current image across the generation
chain.  A thin workload-facing wrapper over
:class:`repro.checkpoint.llm.LLMCheckpointPlan` so the workload table's
arms (``delta``, ``llm_cadence``) and the experiments share one source
of truth for shard paths and dirty draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..checkpoint.llm import LLMCheckpointPlan
from ..units import MiB

__all__ = ["LLMCadenceWorkload"]


@dataclass(frozen=True)
class LLMCadenceWorkload:
    """Deterministic cadence-checkpoint schedule for one mount."""

    shards: int = 2
    shard_bytes: int = 4 * MiB
    iterations: int = 8
    dirty_fraction: float = 0.25
    path_prefix: str = "/shard"

    @property
    def plan(self) -> LLMCheckpointPlan:
        return LLMCheckpointPlan(
            shards=self.shards,
            shard_bytes=self.shard_bytes,
            iterations=self.iterations,
            dirty_fraction=self.dirty_fraction,
            path_prefix=self.path_prefix,
        )

    def shard_path(self, shard: int) -> str:
        return self.plan.shard_path(shard)

    def nchunks(self, chunk_size: int) -> int:
        return self.plan.nchunks(chunk_size)

    def dirty_chunks(
        self, seed: int, shard: int, iteration: int, chunk_size: int
    ) -> tuple[int, ...] | None:
        """Dirty declaration for one (shard, iteration); ``None`` means
        a full dump (always at iteration 0)."""
        return self.plan.dirty_chunks(seed, shard, iteration, chunk_size)

    def schedule(
        self, seed: int, chunk_size: int
    ) -> list[tuple[int, int, tuple[int, ...] | None]]:
        """The full run as ``(iteration, shard, dirty)`` checkpoints in
        execution order — iteration-major, the order a trainer hits the
        iteration barrier and dumps each shard."""
        return [
            (iteration, shard, self.dirty_chunks(seed, shard, iteration, chunk_size))
            for iteration in range(self.iterations)
            for shard in range(self.shards)
        ]
