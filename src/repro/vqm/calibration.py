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

The lag search is screened: cheap sliding sums bound every lag's
score, and only the lags that can still win are scored with the full
search's row arithmetic, so the result is the full search's bit for
bit (:func:`_screened_search`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default alignment search range, frames (the segment overlap).
DEFAULT_UNCERTAINTY = 100

#: Minimum combined correlation for a successful calibration.
DEFAULT_MIN_CORRELATION = 0.55

#: Unit roundoff of float64.
_U = 2.0**-53

#: Bound on any correlation the full search computes: its guarded
#: ratio stays within ``1 + 4 * _gamma(win)`` of [-1, 1] by
#: Cauchy-Schwarz, and a guarded one reads 0.0.
_SPAN = 2.0

#: Largest received value the screen bounds (squared, the largest
#: reference square sum). Beyond it, or for a value that is not
#: finite, every lag is a candidate, so no bound meets an overflow.
_SCREEN_MAX = 1e60


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of aligning one segment."""

    lag: int
    correlation: float
    succeeded: bool
    gain: float
    level_offset: float


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``.

    It bounds the relative error of a sum of ``k + 1`` terms in any
    association (pairwise, sequential or BLAS), against the sum of
    their magnitudes, and of an inner product of length ``k``, fused
    multiply-adds or not.
    """
    return k * _U / (1.0 - k * _U)


def _score_rows(windows: np.ndarray, da: np.ndarray, da_sq_sum) -> np.ndarray:
    """Pearson correlation of each float64 window row against the
    centred reference ``da``: the full search's row arithmetic.

    ``windows`` is a C-contiguous ``(..., k, win)`` array and is
    overwritten with its centred rows; ``da`` is ``(..., win)`` and
    ``da_sq_sum`` its ``(...)`` sums of squares. Numpy reduces each
    contiguous row with the same pairwise summation as a 1-D array, so
    every result is bitwise equal to scoring that window alone, and a
    window's result depends only on its bytes. (``rcv[:, starts]``
    with a 2-D ``starts`` is not C-contiguous, and its rows sum in
    another order: gather with ``np.take``.) A row whose denominator
    falls below ``1e-12`` (a constant window) reads 0.0.
    """
    np.subtract(windows, windows.mean(axis=-1)[..., None], out=windows)
    product = windows * windows
    denom = np.sqrt(da_sq_sum[..., None] * product.sum(axis=-1))
    np.multiply(da[..., None, :], windows, out=product)
    num = product.sum(axis=-1)
    out = np.zeros(denom.shape)
    ok = denom >= 1e-12
    out[ok] = num[ok] / denom[ok]
    return out


def _combine(correlations: np.ndarray) -> np.ndarray:
    """The combined score of stacked profile and TI correlations."""
    return 0.75 * correlations[0] + 0.25 * correlations[1]


def _screened_search(ref: np.ndarray, rcv: np.ndarray, win: int) -> tuple:
    """First maximum of ``0.75 * c_profile + 0.25 * c_ti`` over the
    lags, scoring exactly only the lags that can reach it.

    ``ref`` is ``(2, win)`` float64: the reference segment of the luma
    profile and of TI. ``rcv`` is ``(2, lags + win - 1)`` float64: the
    received streams over every window the search reads, and nothing
    beyond. Returns the winning lag's index and combined score, both
    equal to the full (lags x window) search's: that search is what
    this one does when every lag is a candidate, as it is where a bound
    could overflow (a value beyond :data:`_SCREEN_MAX` or not finite).
    :func:`_screen` picks the candidates; they are rescored exactly
    with :func:`_score_rows`, and the first maximum among them wins.
    """
    lags = rcv.shape[1] - win + 1
    da = ref - ref.mean(axis=1)[:, None]
    da_sq_sum = (da * da).sum(axis=1)
    offsets = np.arange(win)  # a window's frames, from its start
    x_max = np.abs(rcv).max(axis=1)
    if x_max.max() < _SCREEN_MAX and da_sq_sum.max() < _SCREEN_MAX**2:
        combined, candidates = _screen(rcv, da, da_sq_sum, x_max, offsets)
    else:
        combined, candidates = np.full(lags, -np.inf), np.arange(lags)
    windows = np.take(rcv, candidates[:, None] + offsets, axis=1)
    combined[candidates] = _combine(_score_rows(windows, da, da_sq_sum))
    best = int(np.argmax(combined))  # the first maximum
    return best, float(combined[best])


def _screen(rcv, da, da_sq_sum, x_max, offsets) -> tuple:
    """The lags :func:`_screened_search` must rescore.

    Returns the combined scores, exact for the lags constant in both
    streams and ``-inf`` elsewhere, and the indices of the other lags
    whose score can reach the best. Every lag gets an interval holding
    each stream's correlation as the full search computes it:

    * A run of identical constant windows (no change point inside) is
      scored once with :func:`_score_rows`; equal bytes give equal
      results, so the run's lags read that exact value.
    * Any other lag's interval comes from its window sum ``S1`` and
      square sum ``S2`` (prefix sums over the slice) and its cross sum
      ``P = sum(da * b)`` (``np.correlate``), which bound the exact
      centred square sum ``SS = S2 - S1**2 / win`` and the exact
      numerator ``P - S1 * D / win`` (``D``: the sum of ``da``). Then
      the full search's own rounding is bounded on top of those, and
      the ``1e-12`` guard's side is decided from the denominator's
      bounds. :func:`_error_bounds` gives each term and why it holds.
      A lag whose denominator surely reaches the guard gets the
      ratio's interval, one surely below it reads exactly 0.0, and one
      in doubt gets all of ``[-_SPAN, _SPAN]``.

    The combined score's interval adds ``1e-14`` for the full search's
    three roundings of values within ``[-_SPAN, _SPAN]``. The
    candidates are the lags whose upper bound reaches the best lower
    bound: the first maximum is among them or exact, and every lag
    before it scores less.
    """
    win = len(offsets)
    m = rcv.shape[1]
    lags = m - win + 1
    # Prefix sums give every window's sum and square sum.
    prefix = np.zeros((2, 2, m + 1))
    np.cumsum(rcv, axis=1, out=prefix[0, :, 1:])
    np.cumsum(rcv * rcv, axis=1, out=prefix[1, :, 1:])
    s1, s2 = prefix[:, :, win:] - prefix[:, :, :lags]
    cross = np.stack([np.correlate(rcv[i], da[i]) for i in (0, 1)])
    d_sum = da.sum(axis=1)
    ss_err, num_err, mean_err = _error_bounds(x_max, da_sq_sum, d_sum, win, m)

    ss = s2 - s1 * s1 / win
    num = cross - s1 * (d_sum / win)[:, None]
    g = _gamma(win + 2)
    den_lo = np.sqrt(
        np.maximum(ss - ss_err, 0.0) * (da_sq_sum * (1.0 - g))[:, None]
    ) * (1.0 - 16 * _U)
    den_hi = np.sqrt(
        (ss + (ss_err + win * mean_err * mean_err)) * (da_sq_sum * (1.0 + g))[:, None]
    ) * (1.0 + 16 * _U)
    num_lo, num_hi = num - num_err, num + num_err
    with np.errstate(divide="ignore", invalid="ignore"):  # den_lo may be 0
        r_lo = np.minimum(num_lo / den_lo, num_lo / den_hi)
        r_hi = np.maximum(num_hi / den_lo, num_hi / den_hi)
        r_lo -= 16 * _U * np.abs(r_lo)
        r_hi += 16 * _U * np.abs(r_hi)
    ratio = den_lo >= 1e-12
    lo = np.where(ratio, np.maximum(r_lo, -_SPAN), -_SPAN)
    hi = np.where(ratio, np.minimum(r_hi, _SPAN), _SPAN)
    zero = den_hi < 1e-12
    lo[zero] = hi[zero] = 0.0

    # Constant windows: no change point inside. A run of them repeats
    # one window, so its first lag is scored for all of them.
    changes = np.zeros(rcv.shape, dtype=np.int64)
    np.cumsum(rcv[:, 1:] != rcv[:, :-1], axis=1, out=changes[:, 1:])
    constant = changes[:, win - 1 :] == changes[:, :lags]
    if constant.any():
        first = constant.copy()
        first[:, 1:] &= ~constant[:, :-1]
        streams, starts = np.nonzero(first)
        values = _score_rows(
            rcv[streams[:, None], starts[:, None] + offsets][:, None],
            da[streams],
            da_sq_sum[streams],
        )[:, 0]
        run = np.cumsum(first) - 1  # flat index of each lag's run
        lo[constant] = hi[constant] = values[run[constant.ravel()]]

    exact = constant[0] & constant[1]
    combined = _combine(lo)
    comb_hi = np.where(exact, combined, _combine(hi) + 1e-14)
    best_lo = np.where(exact, combined, combined - 1e-14).max()
    candidates = np.flatnonzero((comb_hi >= best_lo) & ~exact)
    combined[~exact] = -np.inf
    return combined, candidates


def _error_bounds(x_max, da_sq_sum, d_sum, win: int, m: int) -> tuple:
    """Per-stream error bounds of :func:`_screen`.

    For windows of ``win`` values at most ``x_max`` in magnitude, read
    from prefix sums over ``m`` values, with ``A = da_sq_sum``, returns
    ``(2, 1)`` arrays of:

    * ``ss_err``, bounding the sliding estimate of ``SS`` against the
      exact ``SS``. Each prefix sum of ``k`` values is off by at most
      ``gamma(k) * k * x_max``, so a window sum by
      ``e1 = 2 gamma(m) m x_max`` plus its subtraction's rounding, and
      a square sum by the same with ``x_max**2`` and one more rounding
      for the squares (``e2``); ``S1**2 / win`` moves by at most
      ``2 x_max e1 + e1**2 / win``.
    * ``num_err``, bounding the full search's computed numerator
      against the estimate ``P - S1 * D / win``: the cross sum is an
      inner product, off by ``gamma(win) sum |da| |b|``, and
      Cauchy-Schwarz bounds that sum by ``sqrt(A win) x_max``; ``D``
      is a sum, off by ``gamma(win) sqrt(win A)``. The full search's
      row mean is off by ``E <= gamma(win) x_max``, so each centred
      value is ``(d - E')(1 + delta)`` with ``|E'| <= E``; its
      numerator then differs from the exact ``sum(da * d)`` by at most
      ``gamma(win) sqrt(A sum d_hat**2) + E |D|
      + u (sqrt(A SS) + E sqrt(win A))``, with Cauchy-Schwarz bounding
      ``sum |da_i| |d_i|`` by ``sqrt(A SS)`` and ``SS <= win x_max**2``.
    * ``mean_err``: ``E``. The full search's centred square sum then
      lies in ``[SS (1 - gamma(win + 2)), (SS + win E**2)(1 +
      gamma(win + 2))]``, and its product with ``A`` and ``sqrt`` round
      twice more, which the caller's ``16 u`` margins cover.

    ``A`` here is the computed sum, within ``gamma(win)`` of the exact
    one. Every term is doubled, which covers the roundings of computing
    the bounds themselves, and ``1e-300`` covers underflow.
    """
    ss_errs, num_errs, mean_errs = [], [], []
    for x, a, d in zip(x_max.tolist(), da_sq_sum.tolist(), d_sum.tolist()):
        x2 = x * x
        e1 = 2 * _gamma(m) * m * x + 2.1 * _U * win * x
        e2 = 2 * _gamma(m + 1) * m * x2 + 2.1 * _U * win * x2
        ss_err = e2 + 2 * x * e1 + e1 * e1 / win + 8 * _U * win * x2
        root = math.sqrt(a * (1.0 + 2 * _gamma(win)) * win)  # >= sum |da|
        d_err = _gamma(win) * root
        d_up = abs(d) + d_err
        mean_err = 2 * _gamma(win + 1) * x
        estimate_err = (
            _gamma(win) * root * x * (1.0 + 4 * _U)
            + x * d_err
            + d_up * e1 / win
            + 3.1 * _U * (root * x + x * abs(d))
        )
        rounding_err = (
            _gamma(win) * root * math.sqrt((x2 + mean_err * mean_err) * (1 + 3 * _U))
            + mean_err * d_up
            + _U * (root * x + mean_err * root)
        )
        ss_errs.append(2 * ss_err + 1e-300)
        num_errs.append(2 * (estimate_err + rounding_err) + 1e-300)
        mean_errs.append(mean_err)
    column = np.array((ss_errs, num_errs, mean_errs))[:, :, None]
    return column[0], column[1], column[2]


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
    received streams over ``[lo, hi + win)``. The screen's sliding sums
    and change points are taken over that same span and nothing beyond
    it, so the key decides the candidate lags as well as the result:
    two calls with equal keys return equal results, and a request can
    calibrate each distinct key once. Bytes, not ``id()``: a
    per-session array's id can be reused by a later session's
    different array.
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
    highest score wins, the smallest lag on a tie. The search is
    screened (:func:`_screened_search`): bounds from sliding sums rule
    out the lags that cannot win, and the rest are scored exactly, so
    the result equals scoring every lag.

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
        best, best_corr = 0, 0.0
    else:
        best, best_corr = _screened_search(
            np.array((ref_win_profile, ref_ti[ns : ns + length]), np.float64),
            np.array((rcv_profile[lo : hi + win], rcv_ti[lo : hi + win]), np.float64),
            win,
        )
    best_lag = lo + best - ns

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
