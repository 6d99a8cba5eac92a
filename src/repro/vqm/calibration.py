"""Temporal (and level) calibration of received segments.

Before scoring, the tool must find where each reference segment
actually sits in the received stream: renderer stalls shift playback,
so the lag varies segment to segment. The paper drives this with an
"Alignment Uncertainty" parameter covering the 100-frame overlap.

We align on the luma-mean profile (scene structure survives coding and
freezes) refined by the temporal-information profile. Segments whose
best alignment is still a poor match — long periods of degraded
quality — fail calibration, and the tool assigns them the worst score,
exactly as the paper describes ("segments for which the temporal
calibration process did not succeed were assigned a default quality
index of 1").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Default alignment search range, frames (the segment overlap).
DEFAULT_UNCERTAINTY = 100

#: Minimum combined correlation for a successful calibration.
DEFAULT_MIN_CORRELATION = 0.55


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of aligning one segment."""

    lag: int
    correlation: float
    succeeded: bool
    gain: float
    level_offset: float


def _window_correlations(
    stream: np.ndarray, lo: int, hi: int, ref_window: np.ndarray
) -> np.ndarray:
    """Pearson correlation of ``ref_window`` against every window of
    ``stream`` that starts in ``[lo, hi]``, one row per start.

    The shifted windows form a strided ``(hi - lo + 1, win)`` view,
    materialized as float64. Numpy reduces each contiguous row with
    the same pairwise summation as a 1-D array, so every correlation
    is bitwise equal to computing that window alone. A row whose
    denominator falls below ``1e-12`` (a constant window) reads 0.0.
    """
    a = ref_window.astype(np.float64)
    da = a - a.mean()
    da_sq_sum = (da * da).sum()
    rows = sliding_window_view(stream, len(a))[lo : hi + 1].astype(np.float64)
    db = rows - rows.mean(axis=1)[:, None]
    denom = np.sqrt(da_sq_sum * (db * db).sum(axis=1))
    num = (da[None, :] * db).sum(axis=1)
    out = np.zeros(len(rows))
    ok = denom >= 1e-12
    out[ok] = num[ok] / denom[ok]
    return out


def _search_range(ns: int, win: int, uncertainty: int, n_rcv: int) -> tuple:
    """First and last received window start the lag search scores."""
    return max(0, ns - uncertainty), min(ns + uncertainty, n_rcv - win)


def calibration_key(
    ref_profile: np.ndarray,
    ref_ti: np.ndarray,
    rcv_profile: np.ndarray,
    rcv_ti: np.ndarray,
    nominal_start: int,
    length: int,
    uncertainty: int = DEFAULT_UNCERTAINTY,
    min_correlation: float = DEFAULT_MIN_CORRELATION,
) -> tuple:
    """Everything :func:`calibrate_segment` reads, by value.

    Takes the same arguments. The key holds the scalars, the received
    stream's length, and the dtype and bytes of the four windows the
    search touches: the reference segment of each stream and the
    received streams over ``[lo, hi + win)``. Two calls with equal
    keys return equal results, so a request can calibrate each
    distinct key once. Bytes, not ``id()``: a per-session array's id
    can be reused by a later session's different array.
    """
    ns = nominal_start
    ref_window = ref_profile[ns : ns + length]
    win = len(ref_window)
    lo, hi = _search_range(ns, win, uncertainty, len(rcv_profile))
    windows = (
        ref_window,
        ref_ti[ns : ns + length],
        rcv_profile[lo : hi + win],
        rcv_ti[lo : hi + win],
    )
    key = [ns, length, len(rcv_profile), uncertainty, min_correlation]
    for window in windows:
        key += (window.dtype.str, window.tobytes())
    return tuple(key)


def calibrate_segment(
    ref_profile: np.ndarray,
    ref_ti: np.ndarray,
    rcv_profile: np.ndarray,
    rcv_ti: np.ndarray,
    nominal_start: int,
    length: int,
    uncertainty: int = DEFAULT_UNCERTAINTY,
    min_correlation: float = DEFAULT_MIN_CORRELATION,
) -> CalibrationResult:
    """Find the lag aligning a reference window into the received stream.

    Every lag in ``[-uncertainty, uncertainty]`` whose received window
    lies inside the received stream is scored by the combined
    correlation ``0.75 * corr(luma mean) + 0.25 * corr(TI)``; the
    highest score wins, the smallest lag on a tie. The lags are
    searched as one (lags x window) array program.

    Parameters
    ----------
    ref_profile / ref_ti:
        Full-clip reference feature streams (luma mean and TI).
    rcv_profile / rcv_ti:
        Full received streams (display timeline; may be longer than
        the reference).
    nominal_start:
        Where the segment starts on the reference timeline; lag 0
        means the received window starts at the same index.
    length:
        Segment length in frames.
    """
    ns = nominal_start
    ref_win_profile = ref_profile[ns : ns + length]
    win = len(ref_win_profile)
    lo, hi = _search_range(ns, win, uncertainty, len(rcv_profile))
    if hi < lo:
        return CalibrationResult(
            lag=0, correlation=0.0, succeeded=False, gain=1.0, level_offset=0.0
        )
    if win < 2:  # no correlation is defined: every lag scores 0.0
        combined = np.zeros(hi - lo + 1)
    else:
        c_profile = _window_correlations(rcv_profile, lo, hi, ref_win_profile)
        c_ti = _window_correlations(rcv_ti, lo, hi, ref_ti[ns : ns + length])
        combined = 0.75 * c_profile + 0.25 * c_ti
    best = int(np.argmax(combined))  # the first maximum
    best_lag = lo + best - ns
    best_corr = float(combined[best])

    # Gain/level estimation on the aligned luma profile (the paper's
    # calibration also removed systematic gain and offset errors).
    start = ns + best_lag
    aligned = rcv_profile[start : start + win]
    ref_std = ref_win_profile.std()
    gain = float(aligned.std() / ref_std) if ref_std > 1e-9 else 1.0
    level_offset = float(aligned.mean() - ref_win_profile.mean())

    return CalibrationResult(
        lag=best_lag,
        correlation=best_corr,
        succeeded=best_corr >= min_correlation,
        gain=gain,
        level_offset=level_offset,
    )
