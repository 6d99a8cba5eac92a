"""Edge cases of the token-bucket conformance kernels.

Two kernels replay :class:`~repro.diffserv.token_bucket.TokenBucket`:
the stream kernel every single-stream lane uses
(:func:`repro.sim.fastpath.bucket_fill`) and the batch lane's 2-D scan
over a rate x depth lane axis (:func:`repro.sim.batchpath._lane_scan`).
A differential property test pits the stream kernel against the real
bucket on random streams, and every lane-scan case below is checked
column by column against the stream kernel, at the boundaries where a
vectorization typically diverges: fractional token accrual across
shared-schedule gaps, bucket depths below one MTU (nothing ever
conforms), and exact token==size equality at the first and last lane
of the vectorized axis.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import ResultSummary
from repro.diffserv.token_bucket import TokenBucket
from repro.sim.batchpath import _lane_scan
from repro.sim.fastpath import bucket_fill
from repro.units import mbps


def _assert_scan_matches(times, sizes, rates_bps, depths):
    rates_bps = np.asarray(rates_bps, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    conform = _lane_scan(times, sizes, rates_bps / 8.0, depths)
    assert conform.shape == (len(times), len(rates_bps))
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    for lane, (rate, depth) in enumerate(zip(rates_bps, depths)):
        fill = bucket_fill(list(times), list(sizes), float(rate), float(depth))
        expected = (fill >= sizes_arr).tolist()
        assert conform[:, lane].tolist() == expected, f"lane {lane}"


# Gaps: zero (equal timestamps), whole seconds (exact tokens == size
# refills at 8000 bps and 1000-byte packets), and arbitrary fractions.
_gap = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 1.0]),
    st.floats(0.0, 0.05, allow_nan=False),
)
# Sizes: the exact-boundary 1000 B, MTU-sized and small packets, and
# anything up to twice the deepest bucket (oversize packets).
_size = st.one_of(st.sampled_from([40, 1000, 1500]), st.integers(1, 9000))
# Rates: 8000 bps is 1000 B/s exactly; the rest accrue fractional bytes.
_rate = st.one_of(
    st.sampled_from([8000.0, 1_234_567.0, 1_999_999.9]),
    st.floats(1.0, 1e7, allow_nan=False),
)
# Depths: below one MTU, at the boundary, the paper's two, arbitrary.
_depth = st.one_of(
    st.sampled_from([600.0, 1000.0, 1499.999, 3000.0, 4500.0]),
    st.floats(1.0, 4500.0, allow_nan=False),
)


@st.composite
def _stream(draw):
    n = draw(st.integers(0, 80))
    gaps = draw(st.lists(_gap, min_size=n, max_size=n))
    sizes = draw(st.lists(_size, min_size=n, max_size=n))
    lanes = draw(st.lists(st.tuples(_rate, _depth), min_size=1, max_size=4))
    return list(accumulate(gaps)), sizes, lanes


@settings(max_examples=150, deadline=None)
@given(_stream())
@example(([0.0, 1.0, 2.0, 3.0, 3.0], [1000] * 5, [(8000.0, 1000.0)]))
@example(([0.0, 0.0, 0.5], [1500, 1500, 1500], [(1.7e6, 1499.999)]))
def test_bucket_fill_matches_token_bucket(stream):
    times, sizes, lanes = stream
    for rate_bps, depth in lanes:
        bucket = TokenBucket(rate_bps, depth)
        levels, verdicts = [], []
        for now, size in zip(times, sizes):
            levels.append(bucket.tokens_at(now))
            verdicts.append(bucket.try_consume(size, now))
        fill = bucket_fill(times, sizes, rate_bps, depth)
        assert fill.tolist() == levels
        assert (fill >= np.asarray(sizes, dtype=np.int64)).tolist() == verdicts
    rates, depths = zip(*lanes)
    _assert_scan_matches(times, sizes, rates, depths)


class TestLaneScanEdges:
    def test_fractional_accrual_across_schedule_gaps(self):
        # A rate that is not a multiple of 8 makes every refill a
        # fraction of a byte per microsecond; irregular gaps (the
        # shared message schedule's shape) accumulate those fractions
        # across hundreds of packets. Any divergence from the scalar
        # recurrence's rounding shows up as a flipped conformance bit.
        rng = np.random.default_rng(42)
        gaps = rng.exponential(0.004, 400)
        gaps[rng.random(400) < 0.25] = 0.0  # frame bursts share an instant
        times = np.cumsum(gaps)
        sizes = rng.choice([52, 576, 1024, 1472, 1500], size=400)
        rates = [1_234_567.0, 987_654.3, 1_999_999.9, 2_000_000.0]
        depths = [3000.0, 3000.0, 4500.0, 1500.1]
        _assert_scan_matches(times, sizes, rates, depths)

    def test_depth_below_mtu_never_conforms(self):
        # depth < packet size: the scalar bucket can never satisfy
        # tokens >= size (tokens <= depth), so every slot is False.
        times = np.arange(50) * 10.0  # generous gaps: bucket always full
        sizes = [1500] * 50
        rates = [2_000_000.0, 8_000_000.0]
        depths = [600.0, 1499.999]
        conform = _lane_scan(
            times, sizes, np.asarray(rates) / 8.0, np.asarray(depths)
        )
        assert not conform.any()
        _assert_scan_matches(times, sizes, rates, depths)

    def test_exact_boundary_at_first_and_last_lane(self):
        # Engineer tokens == size exactly: rate 8000 bps = 1000 bytes/s,
        # gap 1.0 s, size 1000. After the first packet drains the
        # bucket to 0, every subsequent refill lands on exactly 1000.0
        # tokens — conformance decided by >= at exact float equality,
        # at both ends of the lane axis (middle lanes differ).
        times = np.arange(12, dtype=np.float64)
        sizes = [1000] * 12
        boundary_rate = 8000.0  # exactly 1000 bytes per 1.0 s gap
        rates = [boundary_rate, 7999.0, 8001.0, boundary_rate]
        depths = [1000.0, 1000.0, 1000.0, 1000.0]
        conform = _lane_scan(
            times, sizes, np.asarray(rates) / 8.0, np.asarray(depths)
        )
        # Exact-boundary lanes conform on every packet; the slightly
        # slower lane starves after the bucket first drains.
        assert conform[:, 0].all() and conform[:, 3].all()
        assert not conform[1:, 1].all()
        _assert_scan_matches(times, sizes, rates, depths)

    def test_empty_schedule(self):
        conform = _lane_scan(
            [], [], np.asarray([1000.0]), np.asarray([3000.0])
        )
        assert conform.shape == (0, 1)

    def test_randomized_lane_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(20, 200))
            times = np.cumsum(rng.exponential(0.01, n))
            sizes = rng.integers(40, 1501, size=n)
            lanes = int(rng.integers(1, 9))
            rates = rng.uniform(0.5e6, 3e6, lanes)
            depths = rng.choice([1500.0, 3000.0, 4500.0, 9000.0], lanes)
            _assert_scan_matches(times, sizes, rates, depths)


class TestBatchBoundarySpecs:
    """Spec-level: engine == batch at the same boundary conditions."""

    def _grid(self, depth):
        return [
            ExperimentSpec(
                clip="test-150",
                codec="mpeg1",
                encoding_rate_bps=mbps(1.5),
                token_rate_bps=mbps(rate),
                bucket_depth_bytes=depth,
                policer_action="drop",
            )
            for rate in (1.4, 1.5, 1.7)
        ]

    @pytest.fixture(autouse=True)
    def _reset(self, monkeypatch):
        monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
        fastlane.stats.reset()

    def test_depth_below_mtu_starves_full_packets(self, monkeypatch):
        # Only sub-depth trailing fragments can ever conform; every
        # full-MTU packet is non-conformant regardless of token rate,
        # so the drop fraction stays pinned high across the grid.
        grid = self._grid(depth=600.0)
        batched = fastlane.run_batchpath(grid)
        for summary in batched:
            assert summary.packet_drop_fraction > 0.8
            assert summary.lost_frame_fraction == 1.0
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        engine = ResultSummary.from_result(
            run_experiment(grid[1]), elapsed_s=0.0
        )
        for name in engine.__dataclass_fields__:
            if name == "elapsed_s":
                continue
            assert getattr(engine, name) == getattr(batched[1], name), name

    def test_fractional_rate_matches_engine(self, monkeypatch):
        spec = ExperimentSpec(
            clip="test-150",
            codec="mpeg1",
            encoding_rate_bps=mbps(1.5),
            token_rate_bps=1_234_567.0,  # fractional bytes/s accrual
            bucket_depth_bytes=3000.0,
            policer_action="drop",
        )
        [batched] = fastlane.run_batchpath([spec])
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        engine = ResultSummary.from_result(
            run_experiment(spec), elapsed_s=0.0
        )
        for name in engine.__dataclass_fields__:
            if name == "elapsed_s":
                continue
            assert getattr(engine, name) == getattr(batched, name), name
