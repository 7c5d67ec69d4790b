"""LLM cadence checkpointing through the delta pipeline (repo artifact).

The paper's workloads rewrite whole BLCR images per epoch; an LLM
trainer checkpoints a few huge tensor-shard files every iteration with
most bytes unchanged.  This experiment plays the ``llm_cadence`` arm of
the workload table on the sim plane and proves the incremental-checkpoint
chain end to end:

* the ``stats()["delta"]`` section matches an *independent* recount of
  the workload's dirty draws — the pipeline wrote exactly the chunks
  the cadence schedule declared, nothing more;
* the steady-state write savings agree with the
  :class:`~repro.mpi.stacks.LLMStack` sizing arithmetic experiments
  use to provision checkpoint bandwidth.
"""

from __future__ import annotations

from ..mpi.stacks import LLMStack
from ..units import MiB
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED
from .crossplane import cadence, cadence_arm, metrics, play_sim

PAPER = {
    "narrative": "incremental (delta) checkpoints for iteration-cadence "
    "LLM workloads (repo artifact; extends the paper's full-image model)"
}


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    arm, wl = cadence_arm(seed, fast), cadence(fast)
    cs, shard_bytes = arm.config.chunk_size, wl.shard_bytes
    nchunks = wl.nchunks(cs)

    # Independent recount of the cadence schedule: what the delta
    # section *must* say if the pipeline wrote exactly the declared
    # dirty chunks.  Shard sizes are chunk-divisible by construction.
    expected_dirty = sum(
        nchunks if dirty is None else len(dirty)
        for _it, _shard, dirty in wl.schedule(seed, cs)
    )
    generations = wl.shards * wl.iterations
    expected = {
        "generations": generations,
        "dirty_chunks": expected_dirty,
        "clean_chunks": generations * nchunks - expected_dirty,
        "bytes_written": expected_dirty * cs,
        "logical_bytes": generations * shard_bytes,
    }

    sim = metrics(play_sim(arm, seed))
    delta = sim["stats"]["delta"]
    savings = 1.0 - delta["bytes_written"] / delta["logical_bytes"]

    stack = LLMStack(shards=wl.shards, dirty_fraction=wl.dirty_fraction)
    # The stack's provisioning arithmetic, evaluated at this arm's
    # model size (shard framing removed so the shapes are comparable).
    model_total = wl.shards * (shard_bytes - stack.shard_overhead)
    stack_ratio = stack.delta_bytes_per_checkpoint(
        model_total
    ) / stack.job_checkpoint_size(model_total)

    table = TextTable(
        ["quantity", "value"],
        title="LLM cadence checkpointing (delta pipeline, sim plane)",
    )
    for row in (
        ("shards x iterations", f"{wl.shards} x {wl.iterations}"),
        ("shard size", f"{shard_bytes / MiB:.2f} MiB ({nchunks} chunks)"),
        ("dirty fraction (configured)", f"{wl.dirty_fraction:.2f}"),
        ("generations committed", str(delta["generations"])),
        ("dirty / clean chunks", f"{delta['dirty_chunks']} / {delta['clean_chunks']}"),
        ("bytes written (delta)", str(delta["bytes_written"])),
        ("bytes full rewrite would write", str(delta["logical_bytes"])),
        ("write savings", f"{savings:.1%}"),
        ("chain restores", str(delta["restores"])),
        ("reassembly reads / bytes", f"{delta['reassembly_reads']} / {delta['reassembly_bytes']}"),
        ("restore span (virtual s)", f"{sim['restore_span_s']:.4f}"),
        ("checkpoint goodput (MiB/s)", f"{sim['goodput_mib_s']:.2f}"),
    ):
        table.add_row(list(row))

    checks = [
        Check(
            "the delta section matches an independent recount of the "
            "cadence schedule's dirty draws",
            all(delta[k] == v for k, v in expected.items()),
            f"expected {expected}, measured "
            f"{ {k: delta[k] for k in expected} }",
        ),
        Check(
            "delta writes stay within dirty_fraction + 0.1 of a full "
            "rewrite",
            0
            < delta["bytes_written"]
            <= (wl.dirty_fraction + 0.1) * delta["logical_bytes"],
            f"savings {savings:.1%} (floor "
            f"{1.0 - (wl.dirty_fraction + 0.1):.0%})",
        ),
        Check(
            "every shard restored across the chain, crossing generations",
            delta["restores"] == wl.shards
            and delta["reassembly_bytes"] == wl.shards * shard_bytes
            and delta["reassembly_reads"] > delta["restores"]
            and sim["restore_span_s"] > 0,
            f"{delta['restores']} restores, {delta['reassembly_reads']} "
            f"owner runs, span {sim['restore_span_s']:.4f}s",
        ),
        Check(
            "the LLMStack provisioning arithmetic agrees with the "
            "measured steady-state dirty fraction",
            abs(stack_ratio - wl.dirty_fraction) < 1e-9
            and abs(
                delta["bytes_written"] / delta["logical_bytes"]
                - wl.dirty_fraction
            )
            < 0.1,
            f"stack ratio {stack_ratio:.4f}, measured "
            f"{delta['bytes_written'] / delta['logical_bytes']:.4f}, "
            f"configured {wl.dirty_fraction:.2f}",
        ),
    ]
    return ExperimentResult(
        name="llm_cadence",
        title="LLM iteration-cadence delta checkpointing (generation chain)",
        table=table.render(),
        measured={"sim": sim["stats"]["delta"], "expected": expected,
                  "restore_span_s": sim["restore_span_s"]},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
