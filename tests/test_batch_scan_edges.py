"""Edge cases of the token-bucket conformance kernel.

Every fast lane replays :class:`~repro.diffserv.token_bucket.TokenBucket`
with one stream kernel, :func:`repro.sim.fastpath.bucket_fill`, whose
verdict is ``fill >= sizes``; the batch lane runs it once per lane. A
differential property test pits it against the real bucket on random
streams, and every case below is checked lane by lane against the
bucket, at the boundaries where a replay typically diverges: fractional
token accrual across shared-schedule gaps, bucket depths below one MTU
(nothing ever conforms), and exact token==size equality at the first
and last lane of a sweep. Another property test pins the monotonicity
in rate and depth that lets the batch lane skip a lane dominated by an
all-forwarding one (:meth:`repro.sim.fastpath.PolicerStream.verdicts`).
"""

import dataclasses
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import ResultSummary
from repro.diffserv.token_bucket import TokenBucket
from repro.sim.fastpath import PolicerStream, ScheduleBundle, bucket_fill
from repro.testbeds.qbone import QBoneTestbedConfig
from repro.units import mbps


def _verdicts(times, sizes, rates_bps, depths) -> np.ndarray:
    """``(n_packets, n_lanes)``: each lane's ``bucket_fill`` verdict,
    checked against the real bucket's levels and verdicts."""
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    conform = np.empty((len(times), len(rates_bps)), dtype=bool)
    for lane, (rate, depth) in enumerate(zip(rates_bps, depths)):
        rate, depth = float(rate), float(depth)
        bucket = TokenBucket(rate, depth)
        levels, verdicts = [], []
        for now, size in zip(times, sizes):
            levels.append(bucket.tokens_at(float(now)))
            verdicts.append(bucket.try_consume(int(size), float(now)))
        fill = bucket_fill(list(times), list(sizes), rate, depth)
        assert fill.tolist() == levels, f"lane {lane}"
        conform[:, lane] = fill >= sizes_arr
        assert conform[:, lane].tolist() == verdicts, f"lane {lane}"
    return conform


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


def _first_forwarding_rate(times, sizes, depth) -> float:
    """The least rate in [1, 1e12] bps at which ``bucket_fill`` forwards
    every packet at ``depth``, by bisection over the ordered bit
    patterns of positive floats; NaN when even 1e12 drops one."""
    sizes_arr = np.asarray(sizes, dtype=np.int64)

    def forwards(bits):
        rate = float(np.int64(bits).view(np.float64))
        return bool((bucket_fill(times, sizes, rate, depth) >= sizes_arr).all())

    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, 1e12))
    if not forwards(hi):
        return float("nan")
    if forwards(lo):
        return 1.0
    while hi - lo > 1:  # forwards(hi) and not forwards(lo)
        mid = (lo + hi) // 2
        if forwards(mid):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


# A step from a value to one at or above it: equal, one ulp up, or
# scaled by a factor in [1, 4].
_up = st.one_of(
    st.just(("same", 1.0)),
    st.just(("ulp", 1.0)),
    st.tuples(st.just("scale"), st.floats(1.0, 4.0)),
)


def _step_up(value: float, step) -> float:
    kind, factor = step
    if kind == "ulp":
        return float(np.nextafter(value, np.inf))
    return value * factor


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    _stream(),
    st.lists(st.tuples(_up, _up), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
@example(  # the least rate refills exactly one packet per gap
    ([0.0, 1.0, 2.0, 3.0], [1000] * 4, [(8000.0, 1000.0)]),
    [(("ulp", 1.0), ("same", 1.0)), (("same", 1.0), ("ulp", 1.0))],
    random.Random(0),
)
def test_lanes_dominating_a_forwarding_lane_forward_all(stream, steps, order):
    # Random streams with tied times and packets up to twice the
    # deepest bucket. At each drawn depth, the least all-forwarding
    # rate is found exactly; every lane at or above it in both rate and
    # depth forwards all, and a PolicerStream visiting the lanes in any
    # order returns each lane's scanned mask, shortcut or not.
    times, sizes, lanes = stream
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    # Some rate forwards every packet once the depth holds each burst
    # of tied packets (the bucket starts full); drawn depths are mostly
    # below some packet.
    bursts: dict = {}
    for now, size in zip(times, sizes):
        bursts[now] = bursts.get(now, 0) + size
    need = float(max(bursts.values(), default=1))
    depths = [depth for _rate, depth in lanes]
    depths += [need, float(np.nextafter(need, np.inf)), 1.5 * need]
    probes = list(lanes)
    for depth in depths:
        rate0 = _first_forwarding_rate(times, sizes, depth)
        if rate0 != rate0:  # NaN: a packet never fits this depth
            continue
        if rate0 > 1.0:
            below = float(np.nextafter(rate0, 0.0))
            assert not (bucket_fill(times, sizes, below, depth) >= sizes_arr).all()
            probes.append((below, depth))
        for rate_step, depth_step in steps:
            rate = _step_up(rate0, rate_step)
            deeper = _step_up(depth, depth_step)
            assert (bucket_fill(times, sizes, rate, deeper) >= sizes_arr).all()
            probes.append((rate, deeper))
    order.shuffle(probes)
    sched = ScheduleBundle(
        fids_arr=np.zeros(len(sizes), dtype=np.int64),
        lens_arr=sizes_arr,
        sizes_arr=sizes_arr,
        sizes=list(sizes),
        emit_times=list(times),
        campus_departs=list(times),
    )
    policer_stream = PolicerStream(
        QBoneTestbedConfig(), sched, list(times), range(len(sizes))
    )
    for rate, depth in probes:
        scanned = bucket_fill(times, sizes, rate, depth) >= sizes_arr
        assert policer_stream.verdicts(rate, depth).tolist() == scanned.tolist()


class TestLaneScanEdges:
    """Per-lane ``bucket_fill`` verdicts against the real bucket."""

    def test_fractional_accrual_across_schedule_gaps(self):
        # A rate that is not a multiple of 8 makes every refill a
        # fraction of a byte per microsecond; irregular gaps (the
        # shared message schedule's shape) accumulate those fractions
        # across hundreds of packets. Any divergence from the bucket's
        # rounding shows up as a flipped conformance bit.
        rng = np.random.default_rng(42)
        gaps = rng.exponential(0.004, 400)
        gaps[rng.random(400) < 0.25] = 0.0  # frame bursts share an instant
        times = np.cumsum(gaps)
        sizes = rng.choice([52, 576, 1024, 1472, 1500], size=400)
        rates = [1_234_567.0, 987_654.3, 1_999_999.9, 2_000_000.0]
        depths = [3000.0, 3000.0, 4500.0, 1500.1]
        conform = _verdicts(times, sizes, rates, depths)
        assert conform.any() and not conform.all()

    def test_depth_below_mtu_never_conforms(self):
        # depth < packet size: the bucket can never satisfy
        # tokens >= size (tokens <= depth), so every slot is False.
        times = np.arange(50) * 10.0  # generous gaps: bucket always full
        sizes = [1500] * 50
        rates = [2_000_000.0, 8_000_000.0]
        depths = [600.0, 1499.999]
        assert not _verdicts(times, sizes, rates, depths).any()

    def test_exact_boundary_at_first_and_last_lane(self):
        # Engineer tokens == size exactly: rate 8000 bps = 1000 bytes/s,
        # gap 1.0 s, size 1000. After the first packet drains the
        # bucket to 0, every subsequent refill lands on exactly 1000.0
        # tokens — conformance decided by >= at exact float equality,
        # at both ends of the sweep (middle lanes differ).
        times = np.arange(12, dtype=np.float64)
        sizes = [1000] * 12
        boundary_rate = 8000.0  # exactly 1000 bytes per 1.0 s gap
        rates = [boundary_rate, 7999.0, 8001.0, boundary_rate]
        depths = [1000.0, 1000.0, 1000.0, 1000.0]
        conform = _verdicts(times, sizes, rates, depths)
        # Exact-boundary lanes conform on every packet; the slightly
        # slower lane starves after the bucket first drains.
        assert conform[:, 0].all() and conform[:, 3].all()
        assert not conform[1:, 1].all()

    def test_empty_schedule(self):
        assert bucket_fill([], [], 8000.0, 3000.0).shape == (0,)
        assert _verdicts([], [], [8000.0], [3000.0]).shape == (0, 1)

    def test_randomized_lane_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(20, 200))
            times = np.cumsum(rng.exponential(0.01, n))
            sizes = rng.integers(40, 1501, size=n)
            lanes = int(rng.integers(1, 9))
            rates = rng.uniform(0.5e6, 3e6, lanes)
            depths = rng.choice([1500.0, 3000.0, 4500.0, 9000.0], lanes)
            _verdicts(times, sizes, rates, depths)


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

    def test_one_byte_bucket_remarks_every_packet(self, monkeypatch):
        # Every packet is remarked BE: a one-class stream on the
        # backbone, served by FIFO hops in both fast lanes.
        spec = self._grid(depth=1.0)[1]
        spec = dataclasses.replace(spec, policer_action="remark")
        [batched] = fastlane.run_batchpath([spec])
        scalar = ResultSummary.from_result(run_experiment(spec), elapsed_s=0.0)
        assert fastlane.stats.hits == 1
        assert batched.remarked_packets > 0
        assert batched.conformant_packets == 0
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        engine = ResultSummary.from_result(
            run_experiment(spec), elapsed_s=0.0
        )
        for name in engine.__dataclass_fields__:
            if name == "elapsed_s":
                continue
            assert getattr(engine, name) == getattr(batched, name), name
            assert getattr(engine, name) == getattr(scalar, name), name

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
