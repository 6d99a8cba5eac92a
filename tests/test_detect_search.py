"""The token-bucket estimator's search against its plain oracles.

The estimator replays only the rates its search needs (stage 3 of the
``repro.detect.estimator`` docstring). Its outputs stay those of a full
scan of every zoom grid because of two premises, tested here first,
and two mechanisms built on them, each checked against the plain
computation it replaces:

* both depth bounds are non-increasing in the rate, and the clamp set
  of a rate is contained in that of any higher rate;
* the lazy zoom grid gives the ``np.argmax`` of the grid's margins and
  the feasible run around it that the lockstep replay of every lane
  (:func:`grid_depth_bounds` below) gives;
* a segmented replay under the rate's own clamp set equals the scalar
  replay, and one under any clamp set differing by one packet is
  rejected.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.detect import estimator
from repro.detect.estimator import (
    _SegmentLayout,
    _Replayer,
    _gaps,
    _replay,
    _zoom_grid,
    replay_depth_bounds,
)
from repro.units import mbps
from tests.test_detect import synthetic_trace


def grid_depth_bounds(times, sizes, conform, rates):
    """Every lane of a rate grid replayed in lockstep: the full scan.

    One pass over the packets updates every rate's deficit at once with
    the same IEEE-754 operations as the scalar replay.
    """
    rates = np.asarray(rates, dtype=np.float64)
    deficit = np.zeros_like(rates)
    b_lo = np.zeros_like(rates)
    b_hi = np.full_like(rates, math.inf)
    t_prev = 0.0
    for t, s, ok in zip(times, sizes, conform):
        dt = t - t_prev
        if dt > 0.0:
            deficit = np.maximum(0.0, deficit - rates * dt)
        t_prev = t
        demand = deficit + s
        if ok:
            np.maximum(b_lo, demand, out=b_lo)
            deficit = demand
        else:
            np.minimum(b_hi, demand, out=b_hi)
    return b_lo, b_hi


def feasible_run(margins):
    """Lanes of the connected feasible run containing the best margin."""
    feasible = np.flatnonzero(np.asarray(margins) > 0.0)
    if not len(feasible):
        return None
    best = feasible[int(np.argmax([margins[i] for i in feasible]))]
    lo = hi = int(best)
    while lo - 1 >= 0 and margins[lo - 1] > 0.0:
        lo -= 1
    while hi + 1 < len(margins) and margins[hi + 1] > 0.0:
        hi += 1
    return lo, hi


def full_scan(margins):
    """What a full scan of one zoom grid answers."""
    return int(np.argmax(margins)), feasible_run(margins)


def scalar(times, sizes, conform, rate):
    """``(b_lo, b_hi, clamps)`` from the scalar replay."""
    return _replay(
        _gaps(times).tolist(), sizes.tolist(), conform.tolist(), rate
    )


def random_loss(times, sizes, conform, seed=9):
    rng = np.random.default_rng(seed)
    return times, sizes, rng.random(len(times)) > (~conform).mean()


def equal_timestamps(times, sizes, conform):
    return np.round(times, 2), sizes, conform


def decreasing_timestamps(times, sizes, conform):
    times = times.copy()
    times[::25] -= 0.004
    return times, sizes, conform


#: Small traces of every shape the estimator meets, with a true rate.
TRACES = {
    "policed": (synthetic_trace(mbps(1.5), 3000.0, seed=1, n=800), 1.5e6 / 8),
    "deep-bucket": (synthetic_trace(mbps(1.2), 9000.0, seed=4, n=800), 1.2e6 / 8),
    "depth-below-mtu": (
        synthetic_trace(mbps(1.0), 1450.0, seed=2, n=800),
        1.0e6 / 8,
    ),
    "random-loss": (
        random_loss(*synthetic_trace(mbps(1.5), 3000.0, seed=3, n=800)),
        1.5e6 / 8,
    ),
    "equal-timestamps": (
        equal_timestamps(*synthetic_trace(mbps(1.5), 3000.0, seed=5, n=800)),
        1.5e6 / 8,
    ),
    "decreasing-timestamps": (
        decreasing_timestamps(
            *synthetic_trace(mbps(1.5), 3000.0, seed=6, n=800)
        ),
        1.5e6 / 8,
    ),
}


# ----------------------------------------------------------------------
# The premises: monotone bounds, nested clamp sets

#: Dyadic steps and rates keep ``r·dt`` exact, so decayed deficits land
#: exactly on zero and demands exactly on each other.
STEPS = st.sampled_from([-0.5, -0.001, 0.0, 0.0, 0.001, 0.25, 0.5, 1.0, 1.5])
SIZES = st.sampled_from([1.0, 500.0, 1000.0, 1500.0])
RATES = st.sampled_from([250.0, 500.0, 1000.0, 1500.0, 3000.0]) | st.floats(
    1.0, 5000.0, allow_nan=False
)


@st.composite
def traces(draw):
    n = draw(st.integers(1, 40))
    times = np.cumsum(draw(st.lists(STEPS, min_size=n, max_size=n)))
    sizes = np.array(draw(st.lists(SIZES, min_size=n, max_size=n)))
    conform = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return times, sizes, conform


class TestReplayPremises:
    @settings(max_examples=200, deadline=None)
    @given(trace=traces(), rate=RATES, higher=RATES)
    @example(
        trace=(
            np.array([0.5, 1.0, 1.0, 0.5, 2.0]),
            np.array([500.0, 500.0, 1000.0, 1500.0, 500.0]),
            np.array([True, True, False, True, False]),
        ),
        rate=1000.0,
        higher=1000.0000000001,
    )
    def test_bounds_fall_and_clamps_nest(self, trace, rate, higher):
        times, sizes, conform = trace
        rate, higher = sorted((rate, higher))
        b_lo, b_hi, clamps = scalar(times, sizes, conform, rate)
        b_lo2, b_hi2, clamps2 = scalar(times, sizes, conform, higher)
        assert replay_depth_bounds(times, sizes, conform, rate) == (b_lo, b_hi)
        assert b_lo2 <= b_lo
        assert b_hi2 <= b_hi
        assert set(clamps) <= set(clamps2)
        gaps = _gaps(times)
        assert all(gaps[k] > 0.0 for k in clamps)


# ----------------------------------------------------------------------
# The lazy zoom grid against the full scan


def visited_grids(monkeypatch, times, sizes, conform):
    """The zoom grids one estimate scans, in order."""
    grids = []

    def recording(grid, bounds):
        grids.append(grid)
        return _zoom_grid(grid, bounds)

    monkeypatch.setattr(estimator, "_zoom_grid", recording)
    estimator.estimate_token_bucket(times, sizes, conform)
    return grids


def assert_lazy_matches_full_scan(times, sizes, conform, grid):
    b_lo, b_hi = grid_depth_bounds(times, sizes, conform, grid)
    expected = full_scan(b_hi - b_lo)
    calls = []

    def bounds(rate):
        calls.append(rate)
        return replay_depth_bounds(times, sizes, conform, rate)

    assert _zoom_grid(grid, bounds) == expected
    assert len(calls) <= len(grid)  # each lane at most once
    assert _zoom_grid(grid, _Replayer(times, sizes, conform)) == expected


class TestZoomGrid:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_visited_grids_match_full_scan(self, monkeypatch, name):
        (times, sizes, conform), _ = TRACES[name]
        grids = visited_grids(monkeypatch, times, sizes, conform)
        assert grids
        for grid in grids:
            assert_lazy_matches_full_scan(times, sizes, conform, grid)

    @pytest.mark.parametrize("name", sorted(TRACES))
    @pytest.mark.parametrize("half", [0.3, 0.08, 5e-3, 1e-4, 1e-7])
    def test_grids_around_truth_match_full_scan(self, name, half):
        (times, sizes, conform), rate = TRACES[name]
        grid = np.linspace(rate * (1 - half), rate * (1 + half), 161)
        assert_lazy_matches_full_scan(times, sizes, conform, grid)

    @pytest.mark.parametrize("name", ["policed", "random-loss"])
    def test_repeated_lane_values_at_finest_zoom(self, name):
        (times, sizes, conform), rate = TRACES[name]
        est = estimator.estimate_token_bucket(times, sizes, conform)
        center = est.rate_bps / 8.0 if est is not None else rate
        ulp = math.ulp(center)
        grid = np.linspace(center - 30 * ulp, center + 30 * ulp, 161)
        assert len(np.unique(grid)) < len(grid)
        assert_lazy_matches_full_scan(times, sizes, conform, grid)

    def test_tied_margins_pick_the_first_lane(self):
        """Sparse arrivals clamp at every rate: every margin is equal."""
        times = np.arange(1.0, 41.0)
        sizes = np.tile([1500.0, 1000.0, 500.0, 1200.0], 10)
        conform = sizes <= 1200.0
        grid = np.linspace(1000.0, 2000.0, 161)
        b_lo, b_hi = grid_depth_bounds(times, sizes, conform, grid)
        assert len(np.unique(b_hi - b_lo)) == 1
        assert _zoom_grid(
            grid, lambda r: replay_depth_bounds(times, sizes, conform, r)
        ) == (0, (0, 160))
        assert_lazy_matches_full_scan(times, sizes, conform, grid)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_monotone_bounds_match_full_scan(self, data):
        """Ties, plateaus, several runs and repeated lanes, on step bounds."""
        levels = data.draw(st.integers(1, 12))
        steps = st.lists(st.integers(0, 2), min_size=levels, max_size=levels)
        b_lo = data.draw(st.integers(0, 12)) - np.cumsum(data.draw(steps))
        b_hi = data.draw(st.integers(0, 12)) - np.cumsum(data.draw(steps))
        n = data.draw(st.integers(1, 40))
        lanes = sorted(
            data.draw(
                st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)
            )
        )
        grid = np.array(lanes, dtype=np.float64)
        margins = (b_hi - b_lo)[lanes].astype(np.float64)
        calls = []

        def bounds(rate):
            calls.append(rate)
            level = int(rate)
            return float(b_lo[level]), float(b_hi[level])

        assert _zoom_grid(grid, bounds) == full_scan(margins)
        assert len(calls) <= n


# ----------------------------------------------------------------------
# Segmented replays against the scalar replay


def rates_around(rate):
    """Rates from well below to well above the truth: few to many clamps."""
    return [rate * f for f in (0.5, 0.9, 0.99, 1.0, 1.0 + 1e-9, 1.01, 1.1, 2.0)]


class TestSegmentLayout:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_own_clamps_reproduce_scalar_replay(self, name):
        (times, sizes, conform), rate = TRACES[name]
        gaps = _gaps(times)
        for r in rates_around(rate):
            b_lo, b_hi, clamps = scalar(times, sizes, conform, r)
            layout = _SegmentLayout(gaps, sizes, conform, clamps)
            assert layout.bounds(r) == (b_lo, b_hi)

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_rejects_one_clamp_added_or_removed(self, name):
        (times, sizes, conform), rate = TRACES[name]
        gaps = _gaps(times)
        rng = np.random.default_rng(0)
        for r in rates_around(rate):
            clamps = scalar(times, sizes, conform, r)[2]
            free = np.setdiff1d(np.arange(len(times)), clamps)
            unskipped = free[gaps[free] > 0.0]
            skipped = free[gaps[free] <= 0.0]
            for pool in (unskipped, skipped):
                if len(pool):
                    extra = sorted([*clamps, int(rng.choice(pool))])
                    layout = _SegmentLayout(gaps, sizes, conform, extra)
                    assert layout.bounds(r) is None
            if clamps:
                fewer = list(clamps)
                del fewer[int(rng.integers(len(fewer)))]
                layout = _SegmentLayout(gaps, sizes, conform, fewer)
                assert layout.bounds(r) is None

    @settings(max_examples=150, deadline=None)
    @given(trace=traces(), rate=RATES, pick=st.integers(0, 10**6))
    def test_any_trace_own_clamps_only(self, trace, rate, pick):
        times, sizes, conform = trace
        gaps = _gaps(times)
        b_lo, b_hi, clamps = scalar(times, sizes, conform, rate)
        layout = _SegmentLayout(gaps, sizes, conform, clamps)
        assert layout.bounds(rate) == (b_lo, b_hi)
        free = sorted(set(range(len(times))) - set(clamps))
        if free:
            extra = sorted([*clamps, free[pick % len(free)]])
            assert _SegmentLayout(gaps, sizes, conform, extra).bounds(rate) is None
        if clamps:
            fewer = [k for k in clamps if k != clamps[pick % len(clamps)]]
            assert _SegmentLayout(gaps, sizes, conform, fewer).bounds(rate) is None


class TestReplayer:
    def test_bracketed_rate_skips_the_scalar_loop(self, monkeypatch):
        (times, sizes, conform), rate = TRACES["policed"]
        low, high = rate, rate * (1 + 1e-9)
        assert scalar(times, sizes, conform, low)[2] == scalar(
            times, sizes, conform, high
        )[2]
        mid = 0.5 * (low + high)
        expected = replay_depth_bounds(times, sizes, conform, mid)
        bounds = _Replayer(times, sizes, conform)
        bounds(low)
        bounds(high)

        def no_scalar(*_args):
            raise AssertionError("the scalar loop ran")

        monkeypatch.setattr(estimator, "_replay", no_scalar)
        assert bounds(mid) == expected

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_every_answer_is_the_scalar_replay(self, name):
        (times, sizes, conform), rate = TRACES[name]
        rng = np.random.default_rng(1)
        probes = rate * (1 + np.concatenate((
            rng.uniform(-0.1, 0.1, 20), rng.uniform(-1e-6, 1e-6, 20)
        )))
        bounds = _Replayer(times, sizes, conform)
        for r in [*probes, *probes[:5]]:
            r = float(r)
            assert bounds(r) == replay_depth_bounds(times, sizes, conform, r)
