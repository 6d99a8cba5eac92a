"""One front end per request: the batch calls of one request share it.

A session's front end is the server schedule (with the campus-LAN
recurrence) and, per seed, the jitter replay. Both are pure functions
of the clip version, the testbed and the seed, never of the policing
profile. ``recommend_provisioning`` makes one runner call per probe
round, and a 16-point serial sweep runs as two 8-unit scheduler
windows, so without sharing every call would compute the same front
end again. The counters below wrap every binding of
``compute_schedule`` and ``jitter_releases``, so each count is a real
computation, and the outputs are checked against solo runs.

The same memo holds segment calibrations, keyed by the values
``calibrate_segment`` reads: the flows of a no-drop aggregate show
one window and calibrate it once, while ``VqmTool._calibrate`` still
runs for every segment of every session. It also holds one record per
policer-input stream, which every batch call of the request scans:
a lane at or above an all-forwarding lane is not scanned, and one
all-forwarded backbone run serves the stream's outcomes.
"""

import copy
import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest

from repro.client.renderer import DisplayTrace
from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import ResultSummary, Runner
from repro.core.sweep import token_rate_sweep
from repro.detect.recommend import recommend_provisioning
from repro.flows import AggregateSpec, admission_frontier, multipath, run_aggregate
from repro.sim import batchpath, fastpath
from repro.units import mbps
from repro.video.frames import FrameFeatures
from repro.vqm import tool as vqm_tool
from repro.vqm.segments import segment_plan
from repro.vqm.tool import VqmTool

BASE = ExperimentSpec(
    clip="test-150", codec="mpeg1", encoding_rate_bps=mbps(1.7), seed=4
)
ONCE = {"compute_schedule": 1, "jitter_releases": 1}


class FrontEndCalls:
    """Counts every schedule and jitter replay, and keeps a copy of each."""

    def __init__(self):
        self.counts = Counter()
        self.made = []  # (returned object, deep copy taken on return)

    def wrap(self, name, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[name] += 1
            self.made.append((out, copy.deepcopy(out)))
            return out

        return counted


@pytest.fixture
def calls(monkeypatch):
    monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
    calls = FrontEndCalls()
    for name in ("compute_schedule", "jitter_releases"):
        fn = getattr(fastpath, name)
        counted = calls.wrap(name, fn)
        for module in (fastpath, batchpath, multipath):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class RecordingRunner(Runner):
    """A serial runner that keeps every call's specs and outcomes."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run_batch(self, specs):
        outcomes = super().run_batch(specs)
        self.calls.append(list(zip(specs, outcomes)))
        return outcomes


def _same(value, snapshot) -> bool:
    if isinstance(value, list):
        return value == snapshot
    return all(
        np.array_equal(getattr(value, name), getattr(snapshot, name))
        if isinstance(getattr(value, name), np.ndarray)
        else getattr(value, name) == getattr(snapshot, name)
        for name in vars(snapshot)
    )


@pytest.mark.perf_smoke
class TestOneFrontEndPerRequest:
    def test_recommend_rounds_share_it_on_the_batch_lane(self, calls):
        runner = RecordingRunner()
        recommend_provisioning(BASE, runner=runner)
        assert len(runner.calls) > 1
        assert all(len(call) == 2 for call in runner.calls)
        assert runner.stats.batch_groups == len(runner.calls)
        assert calls.counts == ONCE

    def test_recommend_rounds_share_it_on_the_scalar_lane(self, calls):
        runner = RecordingRunner()
        recommend_provisioning(BASE, depths=(4500.0,), runner=runner)
        assert len(runner.calls) > 1
        assert runner.stats.fastpath_hits == len(runner.calls)
        assert calls.counts == ONCE

    def test_sweep_windows_share_it(self, calls):
        runner = Runner(jobs=1)
        rates = [mbps(r) for r in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2)]
        sweep = token_rate_sweep(BASE, rates, (3000.0, 4500.0), runner=runner)
        assert len(sweep.points) == 16
        assert runner.stats.batch_groups == 2
        assert calls.counts == ONCE

    def test_frontier_aggregates_share_one_schedule(self, calls):
        base = ExperimentSpec(clip="test-150", encoding_rate_bps=mbps(1.7))
        frontier = admission_frontier(
            base, 3, mbps(4.0), 9000.0, runner=Runner(jobs=1), seed=4
        )
        assert len(frontier.points) == 3
        assert calls.counts == {"compute_schedule": 1}

    def test_a_bare_aggregate_shares_one_schedule(self, calls):
        agg = AggregateSpec.homogeneous(BASE, 4, token_rate_bps=mbps(7.0))
        multipath.run_multipath(agg)
        assert calls.counts == {"compute_schedule": 1}

    def test_the_next_request_computes_again(self, calls):
        recommend_provisioning(BASE, runner=Runner())
        first = dict(calls.counts)
        recommend_provisioning(BASE, runner=Runner())
        assert calls.counts == {name: 2 * n for name, n in first.items()}
        # Outside a request nothing is shared: each solo run computes.
        spec = BASE.with_token_bucket(mbps(2.0), 4500.0)
        run_experiment(spec)
        run_experiment(spec)
        assert calls.counts == {name: 2 * n + 2 for name, n in first.items()}


LOST = ExperimentSpec(
    clip="lost", codec="mpeg1", encoding_rate_bps=mbps(1.7), seed=3
)
LOST_RATES = [mbps(r) for r in (1.65, 1.7, 1.75, 1.8, 1.9, 2.0, 2.1, 2.2)]


class StreamCalls:
    """Every lane scan, all-forwarded backbone run, replay of one,
    backbone pass and stream lookup."""

    def __init__(self):
        self.scans = []  # (rate_bps, depth_bytes) per bucket_fill call
        self.runs = 0
        self.replays = []  # drops per ForwardedRun.arrivals call
        self.passes = 0  # backbone calls
        self.streams = []  # the PolicerStream each lookup returned


@pytest.fixture
def stream_calls(monkeypatch):
    monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
    calls = StreamCalls()
    scan, run, replay, plain, lookup = (
        fastpath.bucket_fill,
        fastpath.forwarded_run,
        fastpath.ForwardedRun.arrivals,
        fastpath.backbone,
        fastpath.FrontEndMemo.stream,
    )

    def bucket_fill(times, sizes, rate_bps, depth_bytes):
        calls.scans.append((rate_bps, depth_bytes))
        return scan(times, sizes, rate_bps, depth_bytes)

    def forwarded_run(*args):
        calls.runs += 1
        return run(*args)

    def arrivals(self, keep):
        calls.replays.append(int((~keep).sum()))
        return replay(self, keep)

    def backbone(*args):
        calls.passes += 1
        return plain(*args)

    def stream(self, *args):
        calls.streams.append(lookup(self, *args))
        return calls.streams[-1]

    for module in (fastpath, batchpath):
        if getattr(module, "bucket_fill", None) is scan:
            monkeypatch.setattr(module, "bucket_fill", bucket_fill)
    monkeypatch.setattr(fastpath, "forwarded_run", forwarded_run)
    monkeypatch.setattr(fastpath.ForwardedRun, "arrivals", arrivals)
    monkeypatch.setattr(fastpath, "backbone", backbone)
    monkeypatch.setattr(fastpath.FrontEndMemo, "stream", stream)
    return calls


class TestOneStreamRecordPerRequest:
    """The batch lane's policer-input stream record, per request: lanes
    an all-forwarding lane dominates go unscanned, and one all-forwarded
    backbone run serves every outcome of the stream. The ``lost`` sweep
    pays the clip's encode, so it stays out of ``perf_smoke``."""

    def test_sweep_scans_up_to_each_depths_first_forwarding_lane(
        self, stream_calls
    ):
        sweep = token_rate_sweep(
            LOST, LOST_RATES, (3000.0, 4500.0), runner=Runner(jobs=1)
        )
        assert len(sweep.points) == 16
        wanted = []
        for depth in (3000.0, 4500.0):
            for rate in LOST_RATES:
                wanted.append((rate, depth))
                [point] = [
                    p for p in sweep.points
                    if (p.token_rate_bps, p.bucket_depth_bytes) == (rate, depth)
                ]
                if point.result.dropped_packets == 0:
                    break
            else:
                pytest.fail(f"no lane forwards every packet at {depth} B")
        assert len(wanted) < 16
        assert stream_calls.scans == wanted
        assert stream_calls.runs == 1
        assert len(set(map(id, stream_calls.streams))) == 1
        for point in sweep.points:
            spec = LOST.with_token_bucket(
                point.token_rate_bps, point.bucket_depth_bytes
            )
            assert point.result == ResultSummary.from_result(run_experiment(spec))

    @pytest.mark.perf_smoke
    def test_recommend_rounds_share_one_stream(self, stream_calls):
        runner = RecordingRunner()
        recommend_provisioning(BASE, runner=runner)
        assert len(runner.calls) > 1
        assert len(stream_calls.streams) == len(runner.calls)
        assert len(set(map(id, stream_calls.streams))) == 1
        assert stream_calls.runs == 1
        # Some round's 4500 B lane sits at or above an all-forwarding
        # 3000 B lane, of its own round or an earlier one.
        assert len(stream_calls.scans) < 2 * len(runner.calls)

    @pytest.mark.perf_smoke
    def test_outcomes_dropping_over_the_share_take_a_backbone_pass(
        self, stream_calls
    ):
        # Past REPLAY_MAX_DROP_SHARE a replay costs more than a plain
        # pass, so that outcome runs backbone.
        rates = [mbps(r) for r in (0.8, 1.6, 2.4)]
        sweep = token_rate_sweep(BASE, rates, (4500.0,), runner=Runner(jobs=1))
        [stream] = set(stream_calls.streams)
        drops = [p.result.dropped_packets for p in sweep.points]
        n = len(stream.size_list)
        assert drops[0] > fastpath.REPLAY_MAX_DROP_SHARE * n > drops[1] > 0
        assert drops[2] == 0
        assert sorted(stream_calls.replays) == [0, drops[1]]
        assert (stream_calls.runs, stream_calls.passes) == (1, 1)
        for point in sweep.points:
            spec = BASE.with_token_bucket(
                point.token_rate_bps, point.bucket_depth_bytes
            )
            assert point.result == ResultSummary.from_result(run_experiment(spec))

    @pytest.mark.perf_smoke
    def test_the_next_request_builds_again(self, stream_calls):
        rates = [mbps(r) for r in (1.8, 2.4)]
        for _ in range(2):
            token_rate_sweep(BASE, rates, (4500.0,), runner=Runner(jobs=1))
        assert stream_calls.runs == 2
        assert len(set(map(id, stream_calls.streams))) == 2


class TestOutputsUnchanged:
    def test_probe_summaries_equal_solo_runs(self):
        runner = RecordingRunner()
        recommend_provisioning(BASE, runner=runner)
        probes = {spec: outcome for call in runner.calls for spec, outcome in call}
        assert len(probes) > 2
        for spec, outcome in probes.items():
            assert outcome == ResultSummary.from_result(run_experiment(spec))

    def test_sweep_points_equal_solo_runs(self):
        rates = [mbps(r) for r in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2)]
        sweep = token_rate_sweep(
            BASE, rates, (3000.0, 4500.0), runner=Runner(jobs=1)
        )
        for point in sweep.points:
            spec = BASE.with_token_bucket(
                point.token_rate_bps, point.bucket_depth_bytes
            )
            assert point.result == ResultSummary.from_result(run_experiment(spec))

    def test_table_equals_the_process_pool_one(self):
        serial = recommend_provisioning(BASE, runner=Runner())
        pooled = recommend_provisioning(BASE, runner=Runner(jobs=2))
        assert serial == pooled

    def test_shared_lists_are_unchanged_after_the_request(self, calls):
        recommend_provisioning(BASE, runner=Runner())
        recommend_provisioning(BASE, depths=(4500.0,), runner=Runner())
        assert calls.made
        for value, snapshot in calls.made:
            assert _same(value, snapshot)


class CalibrationCalls:
    """Counts ``VqmTool._calibrate`` and ``calibrate_segment`` calls,
    and keeps the arguments of each ``calibrate_segment`` call."""

    def __init__(self):
        self.counts = Counter()
        self.args = []


@pytest.fixture
def calibrations(monkeypatch):
    monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
    calls = CalibrationCalls()
    segment_fn = vqm_tool.calibrate_segment
    signature = inspect.signature(segment_fn)
    method = VqmTool._calibrate

    def calibrate_segment(*args, **kwargs):
        calls.counts["calibrate_segment"] += 1
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.args.append(bound.args)
        return segment_fn(*args, **kwargs)

    def _calibrate(self, *args):
        calls.counts["_calibrate"] += 1
        return method(self, *args)

    monkeypatch.setattr(vqm_tool, "calibrate_segment", calibrate_segment)
    monkeypatch.setattr(VqmTool, "_calibrate", _calibrate)
    return calls


def _no_drop_aggregate(n_flows: int) -> AggregateSpec:
    return AggregateSpec.homogeneous(
        BASE, n_flows, token_rate_bps=mbps(20.0), bucket_depth_bytes=150000.0
    )


@pytest.mark.perf_smoke
class TestOneCalibrationPerWindow:
    """test-150 has one segment, so each session calibrates once."""

    def test_aggregate_through_the_runner(self, calibrations):
        [summary] = Runner(jobs=1).run_batch([_no_drop_aggregate(6)])
        assert summary.packet_drop_fraction == 0.0
        assert calibrations.counts == {"_calibrate": 6, "calibrate_segment": 1}

    @pytest.mark.parametrize("lane", ["auto", "0"])
    def test_bare_aggregate_on_either_lane(self, calibrations, monkeypatch, lane):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, lane)
        summary = run_aggregate(_no_drop_aggregate(6))
        assert summary.packet_drop_fraction == 0.0
        assert calibrations.counts == {"_calibrate": 6, "calibrate_segment": 1}

    def test_bare_batch_grid_across_seeds(self, calibrations):
        # Two seeds give two all-conform outcomes with equal displays.
        grid = [
            dataclasses.replace(BASE, seed=seed).with_token_bucket(
                mbps(rate), 9000.0
            )
            for seed in (4, 5)
            for rate in (2.5, 3.0)
        ]
        summaries = fastlane.run_batchpath(grid)
        assert {s.packet_drop_fraction for s in summaries} == {0.0}
        assert calibrations.counts == {"_calibrate": 2, "calibrate_segment": 1}

    def test_each_request_calibrates_again(self, calibrations):
        agg = _no_drop_aggregate(2)
        run_aggregate(agg)
        run_aggregate(agg)
        assert calibrations.counts == {"_calibrate": 4, "calibrate_segment": 2}


N_FRAMES = 520  # two overlapping segments


def _features(rng) -> FrameFeatures:
    """A random clip version with smooth luma and scene cuts."""
    n = N_FRAMES
    luma = np.cumsum(rng.normal(0.0, 0.01, n)) + rng.uniform(0.3, 0.6)
    scene_ids = np.cumsum(rng.random(n) < 0.01)
    luma += 0.1 * (scene_ids % 3)

    def f32(values):
        return np.asarray(values, dtype=np.float32)

    return FrameFeatures(
        clip_name="random",
        y_mean=f32(luma),
        y_std=f32(rng.uniform(0.1, 0.2, n)),
        si=f32(rng.uniform(0.0, 1.0, n)),
        hv=f32(rng.uniform(0.0, 1.0, n)),
        ti=f32(rng.uniform(0.005, 0.05, n)),
        u_mean=f32(rng.uniform(0.4, 0.6, n)),
        v_mean=f32(rng.uniform(0.4, 0.6, n)),
        scene_ids=scene_ids.astype(np.int64),
    )


def _nudged(features: FrameFeatures, name: str, k: int) -> FrameFeatures:
    """A copy one float32 ulp up in element ``k`` of stream ``name``."""
    stream = getattr(features, name).copy()
    stream[k] = np.nextafter(stream[k], np.float32(np.inf))
    return dataclasses.replace(features, **{name: stream})


def _randomly_nudged(features: FrameFeatures, rng) -> FrameFeatures:
    name = ("y_mean", "ti")[int(rng.integers(2))]
    return _nudged(features, name, int(rng.integers(N_FRAMES)))


def _trace(rng) -> DisplayTrace:
    """A display with a random dark start, freeze and skip."""
    n = N_FRAMES
    dark = int(rng.integers(0, 4))
    at = int(rng.integers(50, n - 50))
    hold = int(rng.integers(0, 30))
    skip = int(rng.integers(0, 10))
    display = np.concatenate([
        np.full(dark, -1),
        np.arange(at),
        np.full(hold, at - 1),
        np.arange(at + skip, n),
    ]).astype(np.int64)
    return DisplayTrace(
        display=display,
        fps=30.0,
        n_source_frames=n,
        total_stall_s=hold / 30.0,
        rebuffer_events=int(hold > 0),
    )


def _reads(ref_y, ref_ti, rcv_y, rcv_ti, ns, length, uncertainty, min_corr):
    """The values one calibration can read: the reference segment and
    the received streams over every lag the search may score."""
    ref_window = ref_y[ns : ns + length]
    lo = max(0, ns - uncertainty)
    stop = min(ns + uncertainty + len(ref_window), len(rcv_y))
    return (
        ns, length, uncertainty, min_corr, len(rcv_y),
        ref_window.tobytes(), ref_ti[ns : ns + length].tobytes(),
        rcv_y[lo:stop].tobytes(), rcv_ti[lo:stop].tobytes(),
    )


def _score(tool, cases, shared: bool) -> list:
    """``repr`` of each result (exact for floats, NaN included)."""
    if shared:
        with fastpath.front_end_scope():
            return [repr(tool.assess(*case)) for case in cases]
    out = []
    for case in cases:
        with fastpath.front_end_scope():
            out.append(repr(tool.assess(*case)))
    return out


class TestCalibrationMemo:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_scope_equals_fresh_scopes(self, calibrations, seed):
        rng = np.random.default_rng(seed)
        refs = [_features(rng) for _ in range(2)]
        encodings = [_features(rng) for _ in range(2)]
        traces = [_trace(rng) for _ in range(3)]
        cases = []
        for _ in range(24):
            ref = refs[int(rng.integers(len(refs)))]
            enc = encodings[int(rng.integers(len(encodings)))]
            trace = traces[int(rng.integers(len(traces)))]
            roll = rng.random()
            if roll < 0.2:
                ref = _randomly_nudged(ref, rng)
            elif roll < 0.4:
                enc = _randomly_nudged(enc, rng)
            cases.append((ref, enc, trace))
        ref, enc, trace = cases[0]
        cases.append((ref, enc, trace))  # an exact repeat
        # Past the first segment's windows: a hit there, a miss after.
        cases.append((ref, _nudged(enc, "y_mean", N_FRAMES - 1), trace))
        tool = VqmTool()

        fresh = _score(tool, cases, shared=False)
        reads = {_reads(*args) for args in calibrations.args}
        n_segments = len(cases) * len(segment_plan(N_FRAMES))
        assert calibrations.counts == {
            "_calibrate": n_segments,
            "calibrate_segment": n_segments,
        }
        assert 1 < len(reads) < n_segments

        calibrations.counts.clear()
        assert _score(tool, cases, shared=True) == fresh
        assert calibrations.counts == {
            "_calibrate": n_segments,
            "calibrate_segment": len(reads),
        }

    def test_tools_with_other_settings_never_share(self, calibrations):
        rng = np.random.default_rng(7)
        case = (_features(rng), _features(rng), _trace(rng))
        tools = [
            VqmTool(),
            VqmTool(alignment_uncertainty=60),
            VqmTool(min_correlation=0.9),
        ]
        fresh = [_score(t, [case], shared=False) for t in tools]
        calibrations.counts.clear()
        n_segments = len(segment_plan(N_FRAMES))
        with fastpath.front_end_scope() as memo:
            shared = [_score(t, [case], shared=True) for t in tools]
            assert len(memo.calibrations) == len(tools) * n_segments
        assert shared == fresh
        assert calibrations.counts["calibrate_segment"] == len(tools) * n_segments
