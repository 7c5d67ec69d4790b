"""Smoke + shape tests for the experiment modules.

The heavyweight grid experiments (fig6-9, internode) are exercised in
``fast`` mode here; their full-fidelity runs are
``python -m repro.experiments.registry <name>``.  Cheap experiments run
at full fidelity.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import Check, ExperimentResult
from repro.experiments.common import pct_reduction, run_cell, speedup


class TestHelpers:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) == float("inf")

    def test_pct_reduction(self):
        assert pct_reduction(10.0, 7.0) == pytest.approx(30.0)
        assert pct_reduction(0.0, 1.0) == 0.0

    def test_run_cell_memoized(self):
        a = run_cell("MPICH2", "B", "ext3", False, nprocs=8, nnodes=2, seed=1)
        b = run_cell("MPICH2", "B", "ext3", False, nprocs=8, nnodes=2, seed=1)
        assert a is b


class TestFramework:
    def test_check_str(self):
        assert "PASS" in str(Check("x", True))
        assert "FAIL" in str(Check("x", False, "why"))

    def test_result_ok(self):
        r = ExperimentResult(name="x", title="t", table="")
        assert r.ok
        r.checks.append(Check("bad", False))
        assert not r.ok

    def test_render_contains_checks(self):
        r = ExperimentResult(name="x", title="T", table="body")
        r.checks.append(Check("something", True))
        out = r.render()
        assert "== x: T ==" in out
        assert "[PASS] something" in out

    def test_registry_contents(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig3", "fig5", "table2",
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "restart", "internode", "ablations", "crossplane", "faultsweep", "perfbench",
            "tenant_storm", "restart_storm", "llm_cadence",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCheapExperiments:
    """Full-fidelity runs for the experiments that are quick."""

    def test_table2_passes(self):
        r = run_experiment("table2")
        assert r.ok, r.render()

    def test_crossplane_fast_passes(self):
        r = run_experiment("crossplane", fast=True)
        assert r.ok, r.render()
        assert r.measured["functional"]["seals"] == r.measured["timing"]["seals"]

    def test_tenant_storm_fast_passes(self):
        r = run_experiment("tenant_storm", fast=True)
        assert r.ok, r.render()
        # The isolation headline: tenant specs bound the victims, the
        # same storm on a mount with none demonstrably does not.
        assert r.measured["fair_ratio"] <= 1.25
        assert r.measured["one_tenant_ratio"] >= 2.0

    def test_llm_cadence_fast_passes(self):
        r = run_experiment("llm_cadence", fast=True)
        assert r.ok, r.render()
        assert all(
            r.measured["sim"][k] == v for k, v in r.measured["expected"].items()
        )

    @pytest.mark.parametrize("name", ["faultsweep", "perfbench", "restart_storm"])
    def test_fast_passes(self, name):
        r = run_experiment(name, fast=True)
        assert r.ok, r.render()
        assert r.checks

    def test_fig5_fast_passes(self):
        r = run_experiment("fig5", fast=True)
        assert r.ok, r.render()
        # sanity: the grid includes the paper's (16M, 4M) operating point
        assert "pool=16M,chunk=4096K" in r.measured


@pytest.mark.slow
class TestGridExperiments:
    """LU.C.64-based experiments — a few minutes total, marked slow."""

    @pytest.mark.parametrize(
        "name,fast",
        [
            ("table1", False),
            ("fig3", False),
            ("fig10", False),
            ("fig11", False),
            ("restart", False),
            ("fig6", True),
            ("fig7", True),
            ("fig8", True),
            ("fig9", True),
            ("internode", True),
            ("ablations", True),
        ],
    )
    def test_passes(self, name, fast):
        r = run_experiment(name, fast=fast)
        assert r.ok, r.render()

    @pytest.mark.parametrize("seed", [2011, 7, 99])
    def test_fig6_shape_stable_across_seeds(self, seed):
        """The reproduced shapes are not artifacts of one RNG seed."""
        r = run_experiment("fig6", seed=seed, fast=True)
        assert r.ok, r.render()
