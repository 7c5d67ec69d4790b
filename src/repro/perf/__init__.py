"""Deterministic perf-regression harness for the sim plane.

The paper's whole claim is throughput — aggregation turns many
contended medium writes into a few large sequential ones — so the repo
tracks a machine-readable perf trajectory alongside correctness.  This
package runs a curated scenario set (:mod:`~repro.perf.scenarios`) on
:class:`~repro.simcrfs.SimCRFS` and its virtual clock: noise-free and
bit-reproducible, so the gate is exact — any number that moves against
the committed baseline fails it (:mod:`~repro.perf.artifact`).  The
threaded plane's wall clock is ``bench/``'s job (``python3 -m bench.run``).

``python -m repro.perf`` exposes ``run`` (write one artifact) and
``check`` (re-run at the committed ``benchmarks/baselines/baseline.json``'s
seed and size class; exit 1 and print every path that differs).
"""

from .artifact import ArtifactError, build_artifact, check, diff, dump_artifact, load_artifact
from .runner import run_scenario_sim, run_suite
from .scenarios import SCENARIOS, Scenario

__all__ = [
    "ArtifactError",
    "SCENARIOS",
    "Scenario",
    "build_artifact",
    "check",
    "diff",
    "dump_artifact",
    "load_artifact",
    "run_scenario_sim",
    "run_suite",
]
