"""Property suite for the weighted DRR scheduler.

Pure-kernel properties on :class:`repro.pipeline.tenancy.DRRScheduler`
— no threads, no clock.  The contract under test:

* under saturation (every tenant backlogged), service counts converge
  to the configured weights: after any whole number of rounds, each
  tenant has been served its weight's share, give or take one quantum;
* no starvation: in any window of ``sum(weights)`` consecutive pops
  with every tenant backlogged, every tenant is served at least once;
* a single tenant reduces to exact FIFO.

This file runs in the CI stress/property step, not the tier-1 lane.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.pipeline.tenancy import DEFAULT_TENANT, DRRScheduler

pytestmark = pytest.mark.property

#: tenant name -> weight; two to four tenants, small integer weights so
#: a full DRR round (sum of weights) stays cheap to saturate.
_weights = st.dictionaries(
    keys=st.sampled_from(["a", "b", "c", "d"]),
    values=st.integers(min_value=1, max_value=5),
    min_size=2,
    max_size=4,
)


def _saturate(sched: DRRScheduler, weights: dict[str, int], rounds: int) -> None:
    """Backlog every tenant deeply enough to survive ``rounds`` rounds."""
    for tenant, weight in weights.items():
        for i in range(weight * rounds + 1):
            sched.push(tenant, (tenant, i))


class TestWeightConvergence:
    @given(weights=_weights, rounds=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_service_counts_match_weights_after_whole_rounds(self, weights, rounds):
        sched = DRRScheduler(weights=weights)
        _saturate(sched, weights, rounds)
        quantum_sum = sum(weights.values())
        served: dict[str, int] = {t: 0 for t in weights}
        for _ in range(quantum_sum * rounds):
            tenant, _item = sched.pop()
            served[tenant] += 1
        # With unit-cost items and no banking, whole rounds are exact.
        assert served == {t: w * rounds for t, w in weights.items()}

    @given(weights=_weights)
    @settings(max_examples=60, deadline=None)
    def test_no_tenant_starves_within_one_round(self, weights):
        sched = DRRScheduler(weights=weights)
        _saturate(sched, weights, rounds=3)
        window = sum(weights.values())
        # Slide three windows across the pop sequence; every tenant must
        # appear in each one.
        for _ in range(3):
            seen = {sched.pop()[0] for _ in range(window)}
            assert seen == set(weights)

    @given(weights=_weights)
    @settings(max_examples=40, deadline=None)
    def test_within_tenant_order_is_fifo(self, weights):
        sched = DRRScheduler(weights=weights)
        _saturate(sched, weights, rounds=2)
        last: dict[str, int] = {t: -1 for t in weights}
        for _ in range(sum(weights.values()) * 2):
            tenant, (_, i) = sched.pop()
            assert i == last[tenant] + 1
            last[tenant] = i


class TestDegenerateShapes:
    @given(items=st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_single_tenant_is_exact_fifo(self, items):
        sched = DRRScheduler()
        for item in items:
            sched.push(DEFAULT_TENANT, item)
        assert [sched.pop()[1] for _ in items] == items
        assert sched.pop() is None

    @given(weights=_weights, drained=st.sampled_from(["a", "b", "c", "d"]))
    @settings(max_examples=40, deadline=None)
    def test_idle_tenant_forfeits_its_share(self, weights, drained):
        """A tenant with nothing queued must not slow the others: the
        backlogged tenants split every pop among themselves."""
        weights = dict(weights)
        weights.setdefault(drained, 1)
        busy = {t: w for t, w in weights.items() if t != drained}
        if not busy:
            return
        sched = DRRScheduler(weights=weights)
        _saturate(sched, busy, rounds=2)
        for _ in range(sum(busy.values()) * 2):
            tenant, _ = sched.pop()
            assert tenant != drained
