"""Deterministic perf-regression gate for the sim plane.

The paper's whole claim is throughput — aggregation turns many
contended medium writes into a few large sequential ones — so the repo
tracks a machine-readable perf trajectory alongside correctness.  The
gate plays every arm of the one workload table
(:func:`repro.experiments.perfbench.table`: the crossplane arms, the
fault sweep's cells and the rank workloads) on
:class:`~repro.simcrfs.SimCRFS` and its virtual clock: noise-free and
bit-reproducible, so the gate is exact — any number that moves against
the committed baseline fails it (:mod:`~repro.perf.artifact`).  The
threaded plane's wall clock is ``bench/``'s job (``python3 -m bench.run``).

``python -m repro.perf`` exposes ``run`` (write one artifact) and
``check`` (re-run at the committed baseline's seed and size class —
``baseline.json`` beside this module; exit 1 and print every path that
differs).
"""

from .artifact import ArtifactError, build_artifact, check, diff, dump_artifact, load_artifact

__all__ = [
    "ArtifactError",
    "build_artifact",
    "check",
    "diff",
    "dump_artifact",
    "load_artifact",
]
