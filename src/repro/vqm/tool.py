"""The VQM tool: end-to-end quality assessment of a received session.

Inputs: the reference clip's feature streams, the *received* encoding's
feature streams (they differ from the reference in the fixed-reference
experiments), and the renderer's display trace. Output: per-segment
and clip-level quality scores plus the parameters behind them.

The received feature streams are constructed on the display timeline:
slot ``k`` carries the features of whichever encoded frame was shown
there (repeats repeat features; the TI stream is rebuilt from the
display sequence by :meth:`FrameFeatures.ti_for_display_sequence`, so
freezes read as zero motion and skips as jumps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.client.renderer import DisplayTrace
from repro.sim.fastpath import active_front_end
from repro.video.frames import FrameFeatures
from repro.vqm.calibration import (
    DEFAULT_MIN_CORRELATION,
    DEFAULT_UNCERTAINTY,
    calibrate_segment,
    calibration_key,
)
from repro.vqm.model import QualityParameters, VqmModel, WORST_SCORE
from repro.vqm.segments import SCORING_FRAMES, Segment, segment_plan


@dataclass(frozen=True)
class SegmentScore:
    """Quality verdict for one segment."""

    segment: Segment
    score: float
    calibrated: bool
    lag: int
    parameters: Optional[QualityParameters]


@dataclass
class VqmResult:
    """Clip-level result: the mean of the segment scores (paper §3.1.3)."""

    clip_score: float
    segments: list[SegmentScore] = field(default_factory=list)

    @property
    def failed_segments(self) -> int:
        """Number of segments whose calibration failed."""
        return sum(1 for s in self.segments if not s.calibrated)

    def parameter_means(self) -> dict:
        """Average parameters over calibrated segments (diagnostics)."""
        rows = [s.parameters.as_dict() for s in self.segments if s.parameters]
        if not rows:
            return {}
        return {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}


class VqmTool:
    """Reduced-reference quality assessment (see module docstring)."""

    def __init__(
        self,
        model: Optional[VqmModel] = None,
        alignment_uncertainty: int = DEFAULT_UNCERTAINTY,
        min_correlation: float = DEFAULT_MIN_CORRELATION,
    ):
        self.model = model or VqmModel()
        self.alignment_uncertainty = alignment_uncertainty
        self.min_correlation = min_correlation

    # ------------------------------------------------------------------
    def assess(
        self,
        reference: FrameFeatures,
        received_encoding: FrameFeatures,
        trace: DisplayTrace,
    ) -> VqmResult:
        """Score a received session against a reference clip version."""
        n_ref = reference.n_frames
        rcv = self._received_streams(received_encoding, trace, pad_to=n_ref)
        ref = {
            "si": reference.si,
            "hv": reference.hv,
            "ti": reference.ti,
            "y_mean": reference.y_mean,
            "u_mean": reference.u_mean,
            "v_mean": reference.v_mean,
        }
        clip_ti_scale = float(reference.ti.mean())

        scores: list[SegmentScore] = []
        for segment in segment_plan(n_ref):
            scores.append(
                self._score_segment(segment, ref, rcv, clip_ti_scale)
            )
        clip_score = float(np.mean([s.score for s in scores])) if scores else 0.0
        return VqmResult(clip_score=clip_score, segments=scores)

    # ------------------------------------------------------------------
    def _received_streams(
        self,
        encoding: FrameFeatures,
        trace: DisplayTrace,
        pad_to: int,
    ) -> dict:
        """Feature streams on the display timeline."""
        display = trace.display
        n = max(len(display), pad_to + self.alignment_uncertainty)
        idx = np.full(n, -1, dtype=np.int64)
        idx[: len(display)] = display
        if len(display) > 0 and len(display) < n:
            idx[len(display) :] = display[-1]  # screen holds last frame

        def mapped(stream: np.ndarray, dark_value: float) -> np.ndarray:
            out = np.full(n, dark_value, dtype=np.float32)
            shown = idx >= 0
            out[shown] = stream[idx[shown]]
            return out

        frozen = np.zeros(n, dtype=bool)
        frozen[1:] = idx[1:] == idx[:-1]
        frozen[idx < 0] = True  # dark screen counts as frozen

        return {
            "si": mapped(encoding.si, 0.0),
            "hv": mapped(encoding.hv, 0.0),
            "y_mean": mapped(encoding.y_mean, 0.0),
            "u_mean": mapped(encoding.u_mean, 0.5),
            "v_mean": mapped(encoding.v_mean, 0.5),
            "ti": encoding.ti_for_display_sequence(idx),
            "frozen": frozen,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_gain_correction(rcv_win: dict, calibration) -> dict:
        """Remove estimated systematic gain/level errors before scoring.

        The paper's calibration step exists "to remove systematic
        errors (i.e., gain, spatial shift, temporal shift) from the
        received video stream" — a capture chain with a contrast or
        brightness error must not be charged as network impairment.
        Luma-derived features are divided by the estimated gain and the
        luma level is re-centered; corrections are only applied when
        the estimate is in a sane range (wild estimates mean the
        segment is genuinely damaged, not mis-captured).
        """
        gain = calibration.gain
        offset = calibration.level_offset
        if not 0.5 <= gain <= 2.0:
            return rcv_win
        corrected = dict(rcv_win)
        # Invert y' = gain * y + b: remove the contrast gain around the
        # window's own mean, then re-center using the estimated level
        # offset (mean(y') - mean(y_ref)).
        y = rcv_win["y_mean"]
        window_mean = float(y.mean())
        corrected["y_mean"] = (y - window_mean) / gain + (window_mean - offset)
        for key in ("si", "ti", "y_std"):
            if key in rcv_win:
                corrected[key] = rcv_win[key] / gain
        return corrected

    def _calibrate(self, segment: Segment, ref: dict, rcv: dict):
        """Temporal alignment for one segment.

        The per-segment method perfbench wraps: its traced pass times
        calibration here and counts one call per segment
        (``vqm.segments``, and ``vqm.calibration_failed`` from its
        result), so every lane calibrates through it, once per segment.
        Inside a request (:func:`~repro.sim.fastpath.front_end_scope`)
        it looks the segment up in the request memo by
        :func:`~repro.vqm.calibration.calibration_key` and calls
        :func:`~repro.vqm.calibration.calibrate_segment` only on a
        miss; outside one it builds no key.
        """
        args = (
            ref["y_mean"],
            ref["ti"],
            rcv["y_mean"],
            rcv["ti"],
            segment.start,
            segment.length,
            self.alignment_uncertainty,
            self.min_correlation,
        )
        memo = active_front_end()
        if memo is None:
            return calibrate_segment(*args)
        key = calibration_key(*args)
        result = memo.calibrations.get(key)
        if result is None:
            result = memo.calibrations[key] = calibrate_segment(*args)
        return result

    def _score_segment(
        self,
        segment: Segment,
        ref: dict,
        rcv: dict,
        clip_ti_scale: float,
    ) -> SegmentScore:
        calibration = self._calibrate(segment, ref, rcv)
        if not calibration.succeeded:
            return SegmentScore(
                segment=segment,
                score=WORST_SCORE,
                calibrated=False,
                lag=calibration.lag,
                parameters=None,
            )

        # Score the SCORING_FRAMES following the alignment point.
        ref_start = segment.scoring_start
        ref_stop = min(ref_start + SCORING_FRAMES, segment.end)
        rcv_start = ref_start + calibration.lag
        rcv_stop = rcv_start + (ref_stop - ref_start)

        ref_win = {k: v[ref_start:ref_stop] for k, v in ref.items()}
        rcv_win = {k: v[rcv_start:rcv_stop] for k, v in rcv.items()}
        rcv_win = self._apply_gain_correction(rcv_win, calibration)
        params = self.model.extract_parameters(ref_win, rcv_win, clip_ti_scale)
        score = self.model.combine(params)
        return SegmentScore(
            segment=segment,
            score=score,
            calibrated=True,
            lag=calibration.lag,
            parameters=params,
        )
