"""Tests for the VQM tool: segmentation, calibration, model, end-to-end."""

import gc
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.client.renderer import DisplayTrace
from repro.core.experiment import ExperimentSpec
from repro.core.runner import Runner
from repro.core.sweep import token_rate_sweep
from repro.video.clips import clip_features
from repro.units import mbps
from repro.vqm import calibration, tool as vqm_tool
from repro.vqm.calibration import (
    DEFAULT_MIN_CORRELATION,
    DEFAULT_UNCERTAINTY,
    CalibrationResult,
    calibrate_segment,
)
from repro.vqm.model import QualityParameters, VqmModel, WORST_SCORE
from repro.vqm.segments import (
    SCORING_FRAMES,
    SEGMENT_FRAMES,
    SEGMENT_OVERLAP,
    Segment,
    segment_plan,
)
from repro.vqm.tool import VqmTool


class TestSegmentPlan:
    def test_paper_geometry(self):
        """300-frame segments, 100-frame overlap (Figure 3)."""
        plan = segment_plan(2150)
        assert plan[0].start == 0
        assert plan[1].start == 200
        assert all(s.length == 300 for s in plan[:-1])

    def test_overlap_is_100(self):
        plan = segment_plan(1000)
        for a, b in zip(plan, plan[1:]):
            assert a.end - b.start == SEGMENT_OVERLAP

    def test_lost_clip_segment_count(self):
        # 2150 frames, stride 200: starts 0..2000, but the tail must
        # hold overlap + scoring frames.
        plan = segment_plan(2150)
        assert len(plan) == 10

    def test_short_clip_single_segment(self):
        plan = segment_plan(250)
        assert len(plan) == 1
        assert plan[0].length == 250

    def test_ragged_tail_dropped(self):
        plan = segment_plan(SEGMENT_FRAMES + 50)  # tail of 50 < 200
        assert len(plan) == 1

    def test_scoring_window_inside_segment(self):
        for segment in segment_plan(2000):
            assert segment.scoring_start == segment.start + SEGMENT_OVERLAP
            assert segment.scoring_start + SCORING_FRAMES <= segment.end + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_plan(0)
        with pytest.raises(ValueError):
            segment_plan(100, segment_frames=100, overlap=100)
        with pytest.raises(ValueError):
            Segment(index=0, start=-1, length=10)


class TestCalibration:
    def _profile(self, n=600, seed=0):
        rng = np.random.default_rng(seed)
        # Smooth scene-like profile with structure.
        base = np.cumsum(rng.standard_normal(n) * 0.01)
        return (base - base.min()).astype(np.float32)

    def test_zero_lag_recovered(self):
        profile = self._profile()
        ti = np.abs(np.diff(profile, prepend=profile[0])).astype(np.float32)
        result = calibrate_segment(profile, ti, profile, ti, 100, 300)
        assert result.succeeded
        assert result.lag == 0

    def test_constant_shift_recovered(self):
        profile = self._profile()
        ti = np.abs(np.diff(profile, prepend=profile[0])).astype(np.float32)
        shifted = np.concatenate([np.zeros(30, np.float32), profile])
        ti_shifted = np.concatenate([np.zeros(30, np.float32), ti])
        result = calibrate_segment(profile, ti, shifted, ti_shifted, 100, 300)
        assert result.succeeded
        assert result.lag == 30

    def test_garbage_fails_calibration(self):
        profile = self._profile(seed=1)
        ti = np.abs(np.diff(profile, prepend=profile[0])).astype(np.float32)
        noise = np.random.default_rng(2).random(len(profile)).astype(np.float32)
        result = calibrate_segment(profile, ti, noise, noise, 100, 300)
        assert not result.succeeded

    def test_constant_received_fails(self):
        profile = self._profile()
        ti = np.abs(np.diff(profile, prepend=profile[0])).astype(np.float32)
        frozen = np.full_like(profile, 0.5)
        result = calibrate_segment(profile, ti, frozen, np.zeros_like(ti), 100, 300)
        assert not result.succeeded

    def test_gain_estimated(self):
        profile = self._profile()
        ti = np.abs(np.diff(profile, prepend=profile[0])).astype(np.float32)
        result = calibrate_segment(profile, ti, profile * 2.0, ti, 100, 300)
        assert result.gain == pytest.approx(2.0, rel=0.01)

    def test_level_offset_estimated(self):
        profile = self._profile()
        ti = np.abs(np.diff(profile, prepend=profile[0])).astype(np.float32)
        result = calibrate_segment(profile, ti, profile + 0.25, ti, 100, 300)
        assert result.level_offset == pytest.approx(0.25, abs=0.01)


def per_lag_calibration(
    ref_profile,
    ref_ti,
    rcv_profile,
    rcv_ti,
    nominal_start,
    length,
    uncertainty=DEFAULT_UNCERTAINTY,
    min_correlation=DEFAULT_MIN_CORRELATION,
):
    """Reference oracle: the per-lag loop :func:`calibrate_segment`
    vectorized. One Pearson correlation per candidate lag; a strict
    ``>`` keeps the first maximum."""

    def corr(da, da_sq_sum, b):
        b = b.astype(np.float64)
        db = b - b.mean()
        denom = np.sqrt(da_sq_sum * (db * db).sum())
        if denom < 1e-12:
            return 0.0
        return float((da * db).sum() / denom)

    ref_win_profile = ref_profile[nominal_start : nominal_start + length]
    ref_win_ti = ref_ti[nominal_start : nominal_start + length]
    win = len(ref_win_profile)
    if win >= 2:
        da_profile = ref_win_profile.astype(np.float64)
        da_profile = da_profile - da_profile.mean()
        da_ti = ref_win_ti.astype(np.float64)
        da_ti = da_ti - da_ti.mean()
    best_lag, best_score, best_corr = 0, -np.inf, 0.0
    for lag in range(-uncertainty, uncertainty + 1):
        start = nominal_start + lag
        if start < 0:
            continue
        end = start + win
        if end > len(rcv_profile):
            break
        if win < 2:
            c_profile = c_ti = 0.0
        else:
            c_profile = corr(
                da_profile, (da_profile * da_profile).sum(), rcv_profile[start:end]
            )
            c_ti = corr(da_ti, (da_ti * da_ti).sum(), rcv_ti[start:end])
        combined = 0.75 * c_profile + 0.25 * c_ti
        if combined > best_score:
            best_lag, best_score, best_corr = lag, combined, combined
    if not np.isfinite(best_score):
        return CalibrationResult(
            lag=0, correlation=0.0, succeeded=False, gain=1.0, level_offset=0.0
        )
    start = nominal_start + best_lag
    aligned = rcv_profile[start : start + win]
    ref_std = ref_win_profile.std()
    return CalibrationResult(
        lag=best_lag,
        correlation=best_corr,
        succeeded=best_corr >= min_correlation,
        gain=float(aligned.std() / ref_std) if ref_std > 1e-9 else 1.0,
        level_offset=float(aligned.mean() - ref_win_profile.mean()),
    )


def assert_same_calibration(got, want):
    """Field by field, bit for bit (an empty window's NaN equals NaN)."""
    for g, w in zip(astuple(got), astuple(want)):
        assert type(g) is type(w)
        assert g == w or (math.isnan(g) and math.isnan(w)), (got, want)


_VALUES = st.floats(0.0, 1.0, width=32) | st.sampled_from([0.0, 0.5, 1.0])


def _flat(n, value=0.5, seed=0):
    """``value`` with random one-ulp steps: windows so nearly constant
    that a correlation of two of them falls under the 1e-12 guard."""
    base = np.full(n, value, dtype=np.float32)
    up = np.nextafter(base, np.float32(2.0))
    return np.where(np.random.default_rng(seed).random(n) < 0.5, base, up)


@st.composite
def _stream(draw, n):
    """A float32 feature stream: free, constant, flat (one-ulp steps),
    or periodic (equal windows recur at several lags, so their scores
    tie exactly)."""
    kind = draw(st.sampled_from(["free", "constant", "flat", "periodic"]))
    if kind == "constant":
        return np.full(n, draw(_VALUES), dtype=np.float32)
    if kind == "flat":
        return _flat(n, draw(_VALUES), draw(st.integers(0, 3)))
    if kind == "periodic":
        pattern = draw(st.lists(_VALUES, min_size=1, max_size=4))
        return np.resize(np.asarray(pattern, dtype=np.float32), n)
    return np.asarray(draw(st.lists(_VALUES, min_size=n, max_size=n)), np.float32)


@st.composite
def _calibration_case(draw):
    n_ref = draw(st.integers(0, 40))
    n_rcv = draw(st.integers(0, 60))
    return dict(
        ref_profile=draw(_stream(n_ref)),
        ref_ti=draw(_stream(n_ref)),
        rcv_profile=draw(_stream(n_rcv)),
        rcv_ti=draw(_stream(n_rcv)),
        nominal_start=draw(st.integers(0, n_ref)),
        length=draw(st.integers(0, 30)),
        uncertainty=draw(st.integers(0, 25)),
        min_correlation=draw(st.sampled_from([DEFAULT_MIN_CORRELATION, 0.0])),
    )


def _ramp(n, period=None):
    """A rising float32 stream; with ``period``, a repeating ramp whose
    windows at lags ``period`` apart are bitwise equal."""
    return (np.arange(n) % (period or n) / (period or n)).astype(np.float32)


class TestCalibrationOracle:
    """The vectorized lag search against the per-lag loop it replaced."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty windows
    @given(case=_calibration_case())
    @example(  # both clip edges clamp the lag range
        case=dict(
            ref_profile=_ramp(40), ref_ti=_ramp(40, 7),
            rcv_profile=_ramp(45), rcv_ti=_ramp(45, 7),
            nominal_start=5, length=30, uncertainty=20,
            min_correlation=DEFAULT_MIN_CORRELATION,
        )
    )
    @example(  # the received stream is shorter than the window
        case=dict(
            ref_profile=_ramp(40), ref_ti=_ramp(40),
            rcv_profile=_ramp(20), rcv_ti=_ramp(20),
            nominal_start=0, length=30, uncertainty=5,
            min_correlation=DEFAULT_MIN_CORRELATION,
        )
    )
    @example(  # constant windows hit the 1e-12 guard at every lag
        case=dict(
            ref_profile=_ramp(40), ref_ti=np.zeros(40, np.float32),
            rcv_profile=np.full(60, 0.5, np.float32), rcv_ti=_ramp(60),
            nominal_start=10, length=20, uncertainty=8,
            min_correlation=0.0,
        )
    )
    @example(  # nearly constant windows: the guard, not the division
        case=dict(
            ref_profile=_flat(40), ref_ti=_flat(40, 0.25),
            rcv_profile=_flat(60, seed=1), rcv_ti=_flat(60, 0.25, seed=1),
            nominal_start=10, length=20, uncertainty=8,
            min_correlation=0.0,
        )
    )
    @example(  # a period-4 stream: equal scores, the first lag wins
        case=dict(
            ref_profile=_ramp(40, 4), ref_ti=_ramp(40, 4),
            rcv_profile=_ramp(60, 4), rcv_ti=_ramp(60, 4),
            nominal_start=12, length=16, uncertainty=10,
            min_correlation=DEFAULT_MIN_CORRELATION,
        )
    )
    @example(  # a one-frame window: no correlation is defined
        case=dict(
            ref_profile=_ramp(40), ref_ti=_ramp(40),
            rcv_profile=_ramp(60), rcv_ti=_ramp(60),
            nominal_start=39, length=30, uncertainty=3,
            min_correlation=0.0,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_lag_loop(self, case):
        assert_same_calibration(
            calibrate_segment(**case), per_lag_calibration(**case)
        )

    def test_ties_go_to_the_first_lag(self):
        profile = _ramp(60, 4)
        result = calibrate_segment(profile, profile, profile, profile, 12, 16, 10)
        assert result.lag == -8  # lags -8, -4, 0, 4, 8 all correlate 1.0
        assert result.correlation == 1.0

    def test_long_lived_tool_matches_fresh_tools(self):
        """Scoring one reference must leave nothing behind that changes
        the next reference's score, even when the next reference's
        arrays are allocated where the first one's were."""
        base = clip_features("test-600", "mpeg1", mbps(1.7))
        display = np.arange(600)
        display[150:165] = 149
        trace = DisplayTrace(
            display=display,
            fps=29.97,
            n_source_frames=600,
            total_stall_s=0.0,
            rebuffer_events=0,
        )
        tool = VqmTool()

        def reference(scale):
            return replace(
                base,
                y_mean=(base.y_mean * np.float32(scale)).astype(np.float32),
                ti=(base.ti * np.float32(scale)).astype(np.float32),
            )

        first = reference(1.0)
        assert tool.assess(first, base, trace) == VqmTool().assess(first, base, trace)
        del first
        gc.collect()
        second = reference(0.5)
        want = VqmTool().assess(second, base, trace)
        assert tool.assess(second, base, trace) == want


def _piece(kind, size, level, rng):
    """``size`` float32 frames of one kind of feature stream."""
    if kind == "free":
        return rng.random(size).astype(np.float32)
    if kind == "dark":
        return np.zeros(size, np.float32)
    if kind == "constant":
        return np.full(size, level, np.float32)
    if kind == "broken":  # a constant run broken by single frames
        out = np.full(size, level, np.float32)
        spots = rng.integers(0, size, 1 + size // 60)
        out[spots] = rng.random(len(spots))
        return out
    if kind == "flat":
        return _flat(size, level, int(rng.integers(4)))
    if kind == "periodic":  # windows a period apart tie exactly
        pattern = rng.random(int(rng.integers(1, 7))).astype(np.float32)
        return np.resize(pattern, size)
    # "offset": far from zero with tiny variance, where the sliding
    # sums cancel: one-ulp steps, noise scaled by the level, or a
    # periodic pattern of it (exact ties the sums cannot order).
    base = np.float32(1000.0 + 9000.0 * level)
    variant = rng.integers(3)
    if variant == 0:
        steps = rng.integers(0, 3, size).astype(np.int32)
        return (np.full(size, base).view(np.int32) + steps).view(np.float32)
    noise = rng.normal(0.0, 2e-2 * level, int(rng.integers(2, 7)))
    if variant == 1:
        noise = rng.normal(0.0, 2e-2 * level, size)
    return (base + np.resize(noise, size)).astype(np.float32)


_KINDS = ["free", "dark", "constant", "broken", "flat", "periodic", "offset"]


@st.composite
def _long_stream(draw, n):
    """``n`` float32 frames: a drawn list of pieces, cycled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pieces = draw(
        st.lists(
            st.tuples(st.sampled_from(_KINDS), st.integers(1, 720), _VALUES),
            min_size=1,
            max_size=6,
        )
    )
    out, total = [], 0
    while total < n:
        for kind, size, level in pieces:
            out.append(_piece(kind, size, level, rng))
            total += size
    return np.concatenate(out)[:n]


@st.composite
def _full_size_case(draw):
    """A 300-frame segment searched over 100 frames each way in a
    640-720-frame received stream: the sizes the screen runs at."""
    n_rcv = draw(st.integers(640, 720))
    rcv_profile, rcv_ti = draw(_long_stream(n_rcv)), draw(_long_stream(n_rcv))
    if draw(st.booleans()):  # the received streams, shifted: near-ties
        shift = draw(st.integers(-100, 100))
        ref_profile, ref_ti = np.roll(rcv_profile, shift), np.roll(rcv_ti, shift)
    else:
        n_ref = draw(st.integers(300, 720))
        ref_profile, ref_ti = draw(_long_stream(n_ref)), draw(_long_stream(n_ref))
    return dict(
        ref_profile=ref_profile,
        ref_ti=ref_ti,
        rcv_profile=rcv_profile,
        rcv_ti=rcv_ti,
        nominal_start=draw(st.integers(0, len(ref_profile) - 300)),
        length=SEGMENT_FRAMES,
        uncertainty=DEFAULT_UNCERTAINTY,
        min_correlation=draw(st.sampled_from([DEFAULT_MIN_CORRELATION, 0.0])),
    )


def _offset_periodic(n, period, base, seed):
    pattern = np.random.default_rng(seed).normal(0.0, 2e-2, period)
    return (np.float32(base) + np.resize(pattern, n)).astype(np.float32)


def _offset_stream(n, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [_piece("offset", 100, level, rng) for level in (0.0, 0.5, 0.1) * 3]
    )[:n]


class TestFullSizeOracle:
    """The screened search against the per-lag loop at full size."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(case=_full_size_case())
    @example(  # period 4 everywhere: lags 4 apart tie, the first wins
        case=dict(
            ref_profile=_ramp(700, 4), ref_ti=_ramp(700, 4),
            rcv_profile=_ramp(700, 4), rcv_ti=_ramp(700, 4),
            nominal_start=200, length=300, uncertainty=100,
            min_correlation=DEFAULT_MIN_CORRELATION,
        )
    )
    @example(  # far from zero with tiny variance: the sums cancel
        case=dict(
            ref_profile=np.roll(_offset_stream(700, 1), 7),
            ref_ti=np.roll(_offset_stream(700, 2), 7),
            rcv_profile=_offset_stream(700, 1), rcv_ti=_offset_stream(700, 2),
            nominal_start=200, length=300, uncertainty=100,
            min_correlation=DEFAULT_MIN_CORRELATION,
        )
    )
    @example(  # ...and periodic: ties whose sliding sums differ
        case=dict(
            ref_profile=_offset_periodic(700, 2, 5000.0, 0),
            ref_ti=_offset_periodic(700, 2, 5000.0 / 3, 100),
            rcv_profile=_offset_periodic(700, 2, 5000.0, 0),
            rcv_ti=_offset_periodic(700, 2, 5000.0 / 3, 100),
            nominal_start=200, length=300, uncertainty=100,
            min_correlation=DEFAULT_MIN_CORRELATION,
        )
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_per_lag_loop(self, case):
        assert_same_calibration(
            calibrate_segment(**case), per_lag_calibration(**case)
        )

    @pytest.mark.slow
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(case=_full_size_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_lag_loop_long(self, case):
        assert_same_calibration(
            calibrate_segment(**case), per_lag_calibration(**case)
        )


LOST = ExperimentSpec(
    clip="lost", codec="mpeg1", encoding_rate_bps=mbps(1.7), seed=3
)
LOST_RATES = [mbps(r) for r in (1.65, 1.7, 1.75, 1.8, 1.9, 2.0, 2.1, 2.2)]


@pytest.fixture
def searches(monkeypatch):
    """Every ``calibrate_segment`` call of the VQM tool: its arguments
    and its result."""
    calls = []
    search = vqm_tool.calibrate_segment

    def recorded(*args):
        calls.append((args, search(*args)))
        return calls[-1][1]

    monkeypatch.setattr(vqm_tool, "calibrate_segment", recorded)
    return calls


def _lag_windows(args) -> int:
    """Received windows the full search scores: lags times streams."""
    ref_profile, _, rcv_profile, _, ns, length, uncertainty, _ = args
    win = len(ref_profile[ns : ns + length])
    lo, hi = calibration._search_range(ns, win, uncertainty, len(rcv_profile))
    return 2 * (hi - lo + 1)


class TestSessionCorpus:
    """Every search of a sweep's sessions against the per-lag loop."""

    def _assert_oracle(self, searches):
        assert searches
        assert {result.succeeded for _, result in searches} == {True, False}
        assert {result.lag for _, result in searches} != {0}
        for args, result in searches:
            assert_same_calibration(result, per_lag_calibration(*args))

    def test_test600_sweep(self, searches):
        base = ExperimentSpec(
            clip="test-600", codec="mpeg1", encoding_rate_bps=mbps(1.7), seed=3
        )
        rates = [mbps(r) for r in (1.2, 1.5, 1.65, 2.2)]
        sweep = token_rate_sweep(
            base, rates, (3000.0, 4500.0), runner=Runner(jobs=1)
        )
        assert len(sweep.points) == 8
        self._assert_oracle(searches)

    @pytest.mark.slow
    def test_lost_sweep(self, searches):
        sweep = token_rate_sweep(
            LOST, LOST_RATES, (3000.0, 4500.0), runner=Runner(jobs=1)
        )
        assert len(sweep.points) == 16
        self._assert_oracle(searches)

    def test_lost_sweep_rescores_few_windows(self, monkeypatch, searches):
        # The screen hands the exact row scorer only the lags that can
        # win and one window per constant run.
        rows = []
        score_rows = calibration._score_rows

        def counted(windows, da, da_sq_sum):
            rows.append(windows.size // windows.shape[-1])
            return score_rows(windows, da, da_sq_sum)

        monkeypatch.setattr(calibration, "_score_rows", counted)
        token_rate_sweep(LOST, LOST_RATES, (3000.0,), runner=Runner(jobs=1))
        windows = sum(_lag_windows(args) for args, _ in searches)
        assert windows > 10_000
        assert sum(rows) < 0.05 * windows


class TestModel:
    def _window(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "si": rng.random(n).astype(np.float32) + 1.0,
            "hv": np.full(n, 0.4, np.float32),
            "ti": rng.random(n).astype(np.float32) * 0.1 + 0.05,
            "y_mean": np.full(n, 0.5, np.float32),
            "u_mean": np.full(n, 0.5, np.float32),
            "v_mean": np.full(n, 0.5, np.float32),
        }

    def test_identical_windows_score_zero(self):
        model = VqmModel()
        ref = self._window()
        rcv = dict(ref, frozen=np.zeros(100, bool))
        params = model.extract_parameters(ref, rcv, clip_ti_scale=0.1)
        assert model.combine(params) == 0.0

    def test_freeze_dominates(self):
        model = VqmModel()
        ref = self._window()
        frozen = np.zeros(100, bool)
        frozen[10:25] = True
        rcv = dict(ref, frozen=frozen, ti=ref["ti"].copy())
        params = model.extract_parameters(ref, rcv, clip_ti_scale=0.1)
        assert params.freeze_fraction == pytest.approx(0.15, abs=0.02)
        assert model.combine(params) > 0.5

    def test_freeze_response_concave(self):
        """Doubling the freeze length less than doubles the score."""
        model = VqmModel()
        ref = self._window()

        def score(k):
            frozen = np.zeros(100, bool)
            frozen[:k] = True
            rcv = dict(ref, frozen=frozen)
            return model.combine(
                model.extract_parameters(ref, rcv, clip_ti_scale=0.1)
            )

        assert 0 < score(10) and score(20) < 2 * score(10)

    def test_freeze_in_static_scene_costs_less(self):
        model = VqmModel()
        ref = self._window()
        ref["ti"] = np.full(100, 0.001, np.float32)  # almost static
        frozen = np.zeros(100, bool)
        frozen[:20] = True
        rcv = dict(ref, frozen=frozen)
        params = model.extract_parameters(ref, rcv, clip_ti_scale=0.1)
        assert params.freeze_fraction == 0.0  # below the moving threshold

    def test_blur_raises_si_loss(self):
        model = VqmModel()
        ref = self._window()
        rcv = dict(ref, si=ref["si"] * 0.8, frozen=np.zeros(100, bool))
        params = model.extract_parameters(ref, rcv, clip_ti_scale=0.1)
        assert params.si_loss == pytest.approx(0.2 * ref["si"].mean() / ref["si"].mean(), rel=0.1)
        assert params.si_gain == 0.0

    def test_score_clamped(self):
        model = VqmModel()
        params = QualityParameters(5, 5, 5, 1.0, 5, 5, 5)
        assert model.combine(params) == model.clamp_max

    def test_color_shift_scores(self):
        model = VqmModel()
        ref = self._window()
        rcv = dict(ref, u_mean=ref["u_mean"] + 0.1, frozen=np.zeros(100, bool))
        params = model.extract_parameters(ref, rcv, clip_ti_scale=0.1)
        assert params.color_diff == pytest.approx(0.1, abs=0.01)
        assert model.combine(params) > 0.1


class TestVqmTool:
    @pytest.fixture(scope="class")
    def features(self):
        return clip_features("test-600", "mpeg1", mbps(1.7))

    def _trace(self, display, fps=29.97, n_source=600):
        display = np.asarray(display, dtype=np.int64)
        return DisplayTrace(
            display=display,
            fps=fps,
            n_source_frames=n_source,
            total_stall_s=0.0,
            rebuffer_events=0,
        )

    def test_perfect_delivery_scores_zero(self, features):
        trace = self._trace(np.arange(600))
        result = VqmTool().assess(features, features, trace)
        assert result.clip_score <= 0.02
        assert result.failed_segments == 0

    def test_single_freeze_detected(self, features):
        display = np.arange(600)
        display[150:165] = 149  # 15-frame freeze inside a scored window
        result = VqmTool().assess(features, features, self._trace(display))
        assert result.clip_score > 0.1

    def test_more_freezing_scores_worse(self, features):
        one = np.arange(600)
        one[150:165] = 149
        many = np.arange(600)
        for start in (120, 150, 320, 350, 520):
            many[start : start + 15] = start - 1
        light = VqmTool().assess(features, features, self._trace(one))
        heavy = VqmTool().assess(features, features, self._trace(many))
        assert heavy.clip_score > light.clip_score

    def test_destroyed_stream_fails_calibration(self, features):
        display = np.zeros(600, dtype=np.int64)  # eternal frame 0
        result = VqmTool().assess(features, features, self._trace(display))
        assert result.failed_segments > 0
        assert result.clip_score >= 0.9

    def test_encoding_gap_gives_floor(self, features):
        low = clip_features("test-600", "mpeg1", mbps(1.0))
        trace = self._trace(np.arange(600))
        result = VqmTool().assess(features, low, trace)
        assert 0.005 < result.clip_score < 0.3

    def test_short_trace_padded(self, features):
        trace = self._trace(np.arange(400))  # stream died early
        result = VqmTool().assess(features, features, trace)
        assert result.clip_score > 0.0

    def test_parameter_means_exposed(self, features):
        trace = self._trace(np.arange(600))
        result = VqmTool().assess(features, features, trace)
        means = result.parameter_means()
        assert "freeze_fraction" in means
        assert means["freeze_fraction"] == pytest.approx(0.0, abs=1e-6)

    def test_worst_score_constant(self):
        assert WORST_SCORE == 1.0


class TestGainCorrection:
    """The calibration's gain/level estimates are applied before
    scoring ("remove systematic errors"), so a capture-chain contrast
    or brightness error is not charged as network impairment."""

    @pytest.fixture(scope="class")
    def features(self):
        return clip_features("test-600", "mpeg1", mbps(1.7))

    def _distorted(self, features, gain=1.0, offset=0.0):
        from dataclasses import replace

        return replace(
            features,
            y_mean=features.y_mean * gain + offset,
            y_std=features.y_std * gain,
            si=features.si * gain,
            ti=features.ti * gain,
        )

    def _trace(self, n=600):
        return DisplayTrace(
            display=np.arange(n),
            fps=29.97,
            n_source_frames=n,
            total_stall_s=0.0,
            rebuffer_events=0,
        )

    def test_contrast_error_corrected(self, features):
        warped = self._distorted(features, gain=1.3)
        result = VqmTool().assess(features, warped, self._trace())
        assert result.clip_score <= 0.1

    def test_brightness_error_corrected(self, features):
        warped = self._distorted(features, offset=0.12)
        result = VqmTool().assess(features, warped, self._trace())
        assert result.clip_score <= 0.1

    def test_extreme_gain_not_excused(self, features):
        """Beyond the sane range the distortion is scored, not removed."""
        warped = self._distorted(features, gain=3.5)
        result = VqmTool().assess(features, warped, self._trace())
        assert result.clip_score > 0.1
