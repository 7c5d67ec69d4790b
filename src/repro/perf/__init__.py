"""Deterministic perf-regression harness for the sim plane.

The paper's whole claim is throughput — aggregation turns many
contended medium writes into a few large sequential ones — so the repo
tracks a machine-readable perf trajectory alongside correctness.  This
package runs a curated scenario set (:mod:`~repro.perf.scenarios`) on
:class:`~repro.simcrfs.SimCRFS` and its virtual clock: noise-free and
bit-reproducible, so these numbers *gate* CI — a regression beyond
per-metric tolerance fails the build.  The threaded plane's wall clock
is ``bench/``'s job (``python3 -m bench.run``).

``python -m repro.perf`` exposes ``run`` (emit a schema-versioned
``BENCH_<timestamp>.json`` artifact), ``compare`` (diff an artifact
against the committed ``benchmarks/baselines/baseline.json``, nonzero
exit on regression), ``check-baseline`` and ``update-baseline``.
"""

from .compare import ComparisonReport, MetricDelta, compare_artifacts, render_report
from .runner import run_scenario_sim, run_suite
from .scenarios import SCENARIOS, Scenario
from .schema import (
    SCHEMA_VERSION,
    ArtifactError,
    artifact_filename,
    build_artifact,
    canonical_metrics,
    dump_artifact,
    load_artifact,
    validate_artifact,
)

__all__ = [
    "ArtifactError",
    "ComparisonReport",
    "MetricDelta",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "Scenario",
    "artifact_filename",
    "build_artifact",
    "canonical_metrics",
    "compare_artifacts",
    "dump_artifact",
    "load_artifact",
    "render_report",
    "run_scenario_sim",
    "run_suite",
    "validate_artifact",
]
