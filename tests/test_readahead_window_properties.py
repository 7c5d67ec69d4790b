"""Property suite for the adaptive readahead window (Hypothesis).

Pure-kernel properties on :class:`repro.pipeline.readahead.AdaptiveWindow`
— no threads, no clock, no cache.  The contract under test:

* **bounded**: under any interleaving of accesses and pressure signals
  the window stays within ``[floor, ceiling]``, and a
  :class:`~repro.pipeline.readahead.ReadaheadCore` window never exceeds
  its thrash-free ceiling ``capacity - 2`` (one slot of slack beyond
  the working set);
* **monotone under pressure**: a run of pressure signals only ever
  shrinks the window, and sustained pressure pins it at ``floor``
  within ``log2`` steps;
* **recovery**: once pressure clears, a long enough run of sequential
  hits grows the window back to the ceiling from any state;
* **static degeneracy**: with ``floor == initial == ceiling`` the
  window is pinned at ``initial`` and never reports growth or
  shrinkage — the plain ``readahead_chunks`` knob, which a core with
  ``adaptive=False`` builds.

This file runs in the CI stress/property step, not the tier-1 lane.
"""

import math

import pytest

from hypothesis import given, settings, strategies as st

from repro.pipeline.readahead import AdaptiveWindow, ReadaheadCore

pytestmark = pytest.mark.property

#: One abstract controller input: a chunk access (index delta from the
#: previous access, hit or miss) or a cache-pressure signal.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("access"),
            st.integers(min_value=-3, max_value=3),  # index delta
            st.booleans(),  # hit?
        ),
        st.tuples(st.just("pressure"), st.just(0), st.just(False)),
    ),
    max_size=60,
)

_geometry = st.integers(min_value=1, max_value=8).flatmap(
    lambda ceiling: st.tuples(
        st.integers(min_value=1, max_value=ceiling),  # initial
        st.just(ceiling),
    )
)


def _drive(window: AdaptiveWindow, ops) -> list[int]:
    """Replay an op sequence; returns the window trajectory."""
    index = 0
    widths = [window.window]
    for kind, delta, hit in ops:
        if kind == "access":
            index += delta
            window.on_access(index, hit=hit)
        else:
            window.on_pressure()
        widths.append(window.window)
    return widths


class TestBounds:
    @given(geometry=_geometry, ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_window_stays_within_floor_and_ceiling(self, geometry, ops):
        initial, ceiling = geometry
        window = AdaptiveWindow(initial=initial, ceiling=ceiling)
        for width in _drive(window, ops):
            assert window.floor <= width <= ceiling

    @given(
        capacity=st.integers(min_value=1, max_value=12),
        depth=st.integers(min_value=1, max_value=16),
        ops=_ops,
    )
    @settings(max_examples=200, deadline=None)
    def test_core_window_never_exceeds_thrash_free_ceiling(
        self, capacity, depth, ops
    ):
        core = ReadaheadCore(
            "/img", chunk_size=4, capacity=capacity, depth=depth, adaptive=True
        )
        bound = max(1, capacity - 2)
        # the clamp holds at construction (even for an over-eager knob)
        # and at every point of every trajectory
        for width in _drive(core.window, ops):
            assert 1 <= width <= bound

    def test_invalid_initial_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveWindow(initial=0, ceiling=4)
        with pytest.raises(ValueError):
            AdaptiveWindow(initial=9, ceiling=4)


class TestPressure:
    @given(geometry=_geometry, nsignals=st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_pressure_run_shrinks_monotonically_to_floor(
        self, geometry, nsignals
    ):
        initial, ceiling = geometry
        window = AdaptiveWindow(initial=initial, ceiling=ceiling)
        previous = window.window
        for _ in range(nsignals):
            shrank = window.on_pressure()
            assert window.window <= previous
            assert shrank == (window.window < previous)
            previous = window.window
        # halving reaches the floor within log2(initial) signals
        if nsignals >= max(1, math.ceil(math.log2(max(initial, 1)))):
            assert window.window == window.floor

    @given(geometry=_geometry, ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_recovery_after_pressure_clears(self, geometry, ops):
        initial, ceiling = geometry
        window = AdaptiveWindow(initial=initial, ceiling=ceiling)
        _drive(window, ops)  # arbitrary history, possibly ending shrunk
        # pressure gone: a pure sequential hit run regrows to the
        # ceiling within grow_streak accesses per step
        index = 10_000  # far from wherever the history left off
        window.on_access(index, hit=True)  # seed sequentiality
        for i in range(1, window.grow_streak * (ceiling + 1) + 1):
            window.on_access(index + i, hit=True)
        assert window.window == ceiling

    @given(geometry=_geometry)
    @settings(max_examples=100, deadline=None)
    def test_pressure_breaks_the_hit_streak(self, geometry):
        initial, ceiling = geometry
        window = AdaptiveWindow(initial=initial, ceiling=ceiling)
        window.on_access(0, hit=True)
        window.on_access(1, hit=True)  # streak one step short of growth
        window.on_pressure()
        width = window.window
        # the next sequential hit must not complete the broken streak
        window.on_access(2, hit=True)
        assert window.window == width


class TestStaticDegeneracy:
    @given(depth=st.integers(min_value=0, max_value=16), ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_static_window_is_pinned(self, depth, ops):
        window = AdaptiveWindow(initial=depth, ceiling=depth, floor=depth)
        index = 0
        for kind, delta, hit in ops:
            if kind == "access":
                index += delta
                assert window.on_access(index, hit=hit) is False
            else:
                assert window.on_pressure() is False
            assert window.window == depth

    @given(
        capacity=st.integers(min_value=2, max_value=12),
        ops=_ops,
    )
    @settings(max_examples=100, deadline=None)
    def test_static_core_keeps_the_configured_depth(self, capacity, ops):
        depth = capacity - 1  # the largest depth the config would allow
        core = ReadaheadCore(
            "/img", chunk_size=4, capacity=capacity, depth=depth, adaptive=False
        )
        _drive(core.window, ops)
        assert core.depth == depth
