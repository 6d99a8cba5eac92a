"""Token-bucket parameter inference from one flow's trace.

Given the send-side record (times, sizes) and the per-packet
conformance outcome (delivered with the conform DSCP, or not), recover
the token rate ``r`` and bucket depth ``b`` of the policer that
produced it. Three stages:

**1. Pooled inter-drop accounting (initial rate).** Between two
consecutive non-conformant packets at times ``t_i < t_j``, the bucket
gained ``r·(t_j − t_i)`` tokens and spent ``B`` bytes on the
conformant packets in between, so ``r·Δt = B + (fill_j − fill_i)``
where each fill is in ``[0, MTU)`` — the per-pair rate ``B/Δt`` is
exact to within one MTU per gap. A Δt-weighted median of the pair
rates gives a first guess that idle gaps cannot poison (a gap long
enough to refill the bucket to its cap breaks the balance and biases
``B/Δt`` low); pairs inconsistent with the running estimate by more
than 1.5 MTU are then excluded and the survivors pooled
(``ΣB / ΣΔt``), iterated to a fixed point.

**2. Depth-free replay (feasibility + depth bounds).** For a candidate
rate, replay the arrival sequence tracking the bucket *deficit*
``U = b − fill``: it decays at ``r`` (floored at zero, the bucket's
cap) and grows by each conformant packet's size — a recurrence that
never references ``b``. Each conformant packet then demands
``b ≥ U + size`` (tokens were available) and each non-conformant one
demands ``b < U + size`` (they were not), yielding
``b_lo = max(conformant demands)`` and ``b_hi = min(non-conformant
demands)``. A candidate rate is *feasible* iff ``b_lo < b_hi``; random
(non-policer) loss produces contradictory demands and no feasible
rate, which is exactly how the detector rejects it.

**3. Feasibility-interval refinement.** The feasible rates form an
interval around the truth — but a heavily-constrained trace (hundreds
of drops) pins it to within *tens of bits per second*, far narrower
than any fixed grid. The search therefore zooms: scan a coarse grid
around the initial estimate, re-center on the best (least-infeasible)
margin, shrink the window, and repeat until a feasible rate appears;
then bisect the interval's edges. ``r̂`` is the interval midpoint with
the interval itself as the confidence band, and ``b̂`` is the midpoint
of ``(b_lo, b_hi)`` at ``r̂``.

The search replays only the rates it needs, and each replay is exact,
so every output is the one a full scan of each grid would give. Every
step of the replay is a monotone IEEE-754 operation, so neither bound
grows with the rate. A grid lane between two replayed lanes
``a < j < c`` therefore has margin at most ``b_hi(a) − b_lo(c)`` and
at least ``b_hi(c) − b_lo(a)`` (both rounded), and each grid finds its
first-maximum lane and the feasible run around it by branch-and-bound
over those bounds (:func:`_zoom_grid`). The packets at which the
deficit is floored at zero (its *clamps*) form a set that only grows
with the rate. Between two clamps the deficit is a left-to-right chain
of ``−r·dt`` and ``+size`` terms from an exact 0.0, which
``np.add.accumulate`` reproduces bit for bit. So when two replayed
rates bracketing a new one share a clamp set, that set is the new
rate's own, and the rate replays as one accumulate per class of
segment lengths, checked against the set (:class:`_SegmentLayout`).
Every other rate runs the scalar loop, which also returns its clamps.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.units import ETHERNET_MTU

#: Cascaded zoom: each level scans ``_ZOOM_POINTS`` rates across the
#: current window, re-centers on the best (least-infeasible) margin,
#: and shrinks the half-width to ``_ZOOM_GUARD`` grid spacings — a
#: ×16 zoom per level with enough overlap that a basin straddling two
#: grid points is never lost. The first window is ±8% around the
#: pooled initial estimate; when a cascade bottoms out without finding
#: a feasible rate the search restarts from the next wider window
#: (cap-refill-heavy traffic can bias the initial estimate by more
#: than 8%). Each cascade gives up at a relative half-width of
#: ``_ZOOM_FLOOR`` (below the float64 resolution of any physical
#: window).
_ZOOM_STARTS = (0.08, 0.16, 0.32, 0.64)
_ZOOM_POINTS = 161
_ZOOM_GUARD = 5
_ZOOM_FLOOR = 1e-11
#: Bisection steps when tightening each feasibility edge.
_EDGE_STEPS = 25
#: Inter-drop pairs whose token balance misses by more than this many
#: MTUs are treated as cap-refill (idle) gaps and excluded.
_PAIR_SLACK_MTU = 1.5


@dataclass(frozen=True)
class TokenBucketEstimate:
    """Inferred ``(r̂, b̂)`` with confidence intervals.

    The rate interval is the feasible-rate band of the replay test;
    the depth interval is ``(b_lo, b_hi)`` at the point estimate.
    ``margin_bytes`` is the feasibility margin ``b_hi − b_lo`` there —
    how much room the constraints left (small margins mean the trace
    pinned the bucket tightly).
    """

    rate_bps: float
    rate_ci_bps: tuple
    depth_bytes: float
    depth_ci_bytes: tuple
    margin_bytes: float
    n_conformant: int
    n_nonconformant: int
    pairs_used: int

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary."""
        return {
            "rate_bps": self.rate_bps,
            "rate_ci_bps": list(self.rate_ci_bps),
            "depth_bytes": self.depth_bytes,
            "depth_ci_bytes": list(self.depth_ci_bytes),
            "margin_bytes": self.margin_bytes,
            "n_conformant": self.n_conformant,
            "n_nonconformant": self.n_nonconformant,
            "pairs_used": self.pairs_used,
        }


def _replay(gaps, sizes, conform, rate_bytes_per_s: float):
    """The scalar deficit replay over lists: ``(b_lo, b_hi, clamps)``.

    ``gaps`` holds each packet's time step from the one before it (the
    first from 0.0); a step that is not positive skips the decay.
    ``clamps`` lists, in order, the packets at which the decayed
    deficit went negative and was floored at zero.
    """
    deficit = 0.0
    b_lo = 0.0
    b_hi = math.inf
    clamps = []
    for k, dt, s, ok in zip(count(), gaps, sizes, conform):
        if dt > 0.0:
            deficit -= rate_bytes_per_s * dt
            if deficit < 0.0:
                deficit = 0.0
                clamps.append(k)
        demand = deficit + s
        if ok:
            if demand > b_lo:
                b_lo = demand
            deficit = demand  # the admitted bytes leave the bucket
        elif demand < b_hi:
            b_hi = demand
    return b_lo, b_hi, clamps


def _gaps(times) -> np.ndarray:
    """Each packet's time step from the one before it, the first from 0.0."""
    return np.diff(np.asarray(times, dtype=np.float64), prepend=0.0)


def replay_depth_bounds(times, sizes, conform, rate_bytes_per_s: float):
    """Depth bounds ``(b_lo, b_hi)`` implied by a candidate rate.

    Replays the deficit recurrence described in the module docstring.
    ``b_hi`` is ``inf`` when every packet conformed (nothing upper-
    bounds the depth); the candidate is feasible iff ``b_lo < b_hi``.
    """
    b_lo, b_hi, _ = _replay(
        _gaps(times).tolist(),
        np.asarray(sizes, dtype=np.float64).tolist(),
        np.asarray(conform, dtype=bool).tolist(),
        rate_bytes_per_s,
    )
    return b_lo, b_hi


class _SegmentLayout:
    """Vectorized replay of one trace under one given clamp set.

    The replay is a stream of terms, packet ``k``'s decay ``−r·dt`` at
    position ``2k`` and its admitted bytes at ``2k + 1``. Each clamp
    restarts the deficit at 0.0, so the stream splits into segments
    that each run from 0.0. Segments are stored as rows of one matrix
    per width class (a power of two: a leading 0.0, the segment's
    terms, then 0.0 padding), and ``np.add.accumulate`` along each
    row repeats the scalar loop's additions in its order. The result
    stands only if the negative decayed deficits are exactly the
    clamps at the rows' ends; :meth:`bounds` returns ``None``
    otherwise.
    """

    def __init__(self, gaps, sizes, conform, clamps):
        n = len(gaps)
        clamps = np.asarray(clamps, dtype=np.int64)  # ascending packets
        self.n_clamps = len(clamps)
        # The first segment starts with the trace, each later one just
        # past a clamp's decay (that decay ends the segment before it).
        starts = np.concatenate(([0], 2 * clamps + 1))
        lengths = np.diff(starts, append=2 * n)
        # A row is the smallest power of two above its segment's length,
        # which leaves room for the leading 0.0; rows go in width order.
        widths = np.left_shift(1, np.frexp(lengths)[1].astype(np.int64))
        order = np.argsort(widths, kind="stable")
        sorted_widths = widths[order]
        offsets = np.concatenate(([0], np.cumsum(sorted_widths)))
        row_cells = np.empty_like(offsets[:-1])
        row_cells[order] = offsets[:-1]
        cells = np.repeat(row_cells + 1 - starts, lengths) + np.arange(2 * n)
        decay_cells, add_cells = cells[0::2], cells[1::2]
        self._steps = np.zeros(offsets[-1])
        self._steps[decay_cells] = np.where(gaps > 0.0, gaps, 0.0)
        self._adds = np.zeros(offsets[-1])
        self._adds[add_cells] = np.where(conform, sizes, 0.0)
        edges = np.flatnonzero(np.diff(sorted_widths, prepend=0, append=0))
        self._blocks = [
            (int(offsets[a]), int(offsets[b]), int(sorted_widths[a]))
            for a, b in zip(edges[:-1], edges[1:])
        ]
        is_clamp = np.zeros(n, dtype=bool)
        is_clamp[clamps] = True
        self._held = decay_cells[~is_clamp]
        self._clamped = decay_cells[is_clamp]
        self._conform_cells = add_cells[conform]
        self._excess_cells = add_cells[~conform]
        self._excess_sizes = sizes[~conform]

    def bounds(self, rate_bytes_per_s: float):
        """``(b_lo, b_hi)`` at this rate, or ``None`` if the clamps differ."""
        # The terms, then, accumulated in place, the deficit after each.
        deficit = self._steps * -rate_bytes_per_s
        deficit += self._adds
        for lo, hi, width in self._blocks:
            rows = deficit[lo:hi].reshape(-1, width)
            np.add.accumulate(rows, axis=1, out=rows)
        held = deficit[self._held]
        clamped = deficit[self._clamped]
        if (len(held) and held.min() < 0.0) or (
            len(clamped) and clamped.max() >= 0.0
        ):
            return None
        b_lo = 0.0
        if len(self._conform_cells):
            b_lo = max(0.0, float(deficit[self._conform_cells].max()))
        b_hi = math.inf
        if len(self._excess_cells):
            demands = deficit[self._excess_cells] + self._excess_sizes
            b_hi = float(demands.min())
        return b_lo, b_hi


class _Replayer:
    """Exact depth bounds at any rate for one trace, memoized.

    A rate between two replayed rates whose clamp sets are equal
    replays through that set's :class:`_SegmentLayout`; any other rate
    runs :func:`_replay`. Clamp sets of different rates are nested, so
    two of them are equal exactly when their sizes are. Only the
    layout of the latest such bracket is kept.
    """

    def __init__(self, times, sizes, conform):
        self._arrays = (_gaps(times), sizes, conform)
        self._lists = tuple(a.tolist() for a in self._arrays)
        self._rates = []  # ascending
        self._bounds = []
        self._clamps = []
        self._layout = None

    def __call__(self, rate_bytes_per_s: float):
        rates = self._rates
        i = bisect.bisect_left(rates, rate_bytes_per_s)
        if i < len(rates) and rates[i] == rate_bytes_per_s:
            return self._bounds[i]
        found = None
        if 0 < i < len(rates):
            clamps = self._clamps[i - 1]
            if len(clamps) == len(self._clamps[i]):
                layout = self._layout
                if layout is None or layout.n_clamps != len(clamps):
                    layout = self._layout = _SegmentLayout(
                        *self._arrays, clamps
                    )
                found = layout.bounds(rate_bytes_per_s)
        if found is None:
            b_lo, b_hi, clamps = _replay(*self._lists, rate_bytes_per_s)
            found = (b_lo, b_hi)
        rates.insert(i, rate_bytes_per_s)
        self._bounds.insert(i, found)
        self._clamps.insert(i, clamps)
        return found


def _interdrop_rate(times, sizes, conform, mtu_bytes: float):
    """Initial rate (bytes/s) from pooled inter-drop accounting.

    Returns ``(rate, pairs_used)`` or ``(None, 0)`` when fewer than
    two non-conformant events exist or no usable pair remains.
    """
    drop_idx = np.flatnonzero(~conform)
    if len(drop_idx) < 2:
        return None, 0
    admitted = np.where(conform, sizes, 0.0)
    cum = np.concatenate(([0.0], np.cumsum(admitted)))
    dts = times[drop_idx[1:]] - times[drop_idx[:-1]]
    bytes_between = cum[drop_idx[1:]] - cum[drop_idx[:-1]]
    usable = dts > 0.0
    dts = dts[usable]
    bytes_between = bytes_between[usable]
    if not len(dts):
        return None, 0
    pair_rates = bytes_between / dts
    # Δt-weighted median: long gaps carry more information, but a
    # single cap-refill gap must not drag the estimate.
    order = np.argsort(pair_rates)
    weights = np.cumsum(dts[order])
    pivot = np.searchsorted(weights, weights[-1] / 2.0)
    rate = float(pair_rates[order[min(pivot, len(order) - 1)]])
    pairs_used = len(dts)
    slack = _PAIR_SLACK_MTU * mtu_bytes
    for _ in range(3):
        consistent = np.abs(rate * dts - bytes_between) <= slack
        if not consistent.any():
            break
        pooled = float(bytes_between[consistent].sum() / dts[consistent].sum())
        pairs_used = int(consistent.sum())
        if abs(pooled - rate) <= 1e-9 * max(rate, 1.0):
            rate = pooled
            break
        rate = pooled
    if rate <= 0.0:
        return None, 0
    return rate, pairs_used


def _zoom_grid(grid, bounds):
    """One zoom grid's first-maximum margin lane and its feasible run.

    ``grid`` is a non-decreasing array of rates and ``bounds`` maps a
    rate to ``(b_lo, b_hi)``, neither of which may grow with the rate.
    Returns ``(best, run)``: ``best`` is the first lane of maximum
    margin ``b_hi − b_lo`` (``np.argmax`` of the grid's margins), and
    ``run`` is the ``(lo, hi)`` lanes of the connected feasible run
    around it, or ``None`` when no lane is feasible. Lanes are replayed
    only where the bounds of their replayed neighbours leave either
    answer open.
    """
    n = len(grid)
    lanes = {}

    def lane(j):
        if j not in lanes:
            lanes[j] = bounds(float(grid[j]))
        return lanes[j]

    def margin(j):
        b_lo, b_hi = lane(j)
        return b_hi - b_lo

    def most(a, c):
        """No lane strictly between replayed lanes ``a < c`` has more."""
        return lanes[a][1] - lanes[c][0]

    def least(a, c):
        """No lane strictly between replayed lanes ``a < c`` has less."""
        return lanes[c][1] - lanes[a][0]

    best, top = 0, margin(0)
    if margin(n - 1) > top:
        best, top = n - 1, margin(n - 1)
    gaps = [(-most(0, n - 1), 0, n - 1)] if n > 2 else []
    while gaps:
        neg_most, a, c = heapq.heappop(gaps)
        # A gap lies wholly before or after ``best``: a lane in it wins
        # with a larger margin, or with an equal one if it comes first.
        if -neg_most < top or (-neg_most == top and a >= best):
            continue
        j = (a + c) // 2
        m = margin(j)
        if m > top or (m == top and j < best):
            best, top = j, m
        for x, y in ((a, j), (j, c)):
            if y - x > 1:
                heapq.heappush(gaps, (-most(x, y), x, y))
    if not top > 0.0:
        return best, None

    def edge(step):
        """Last feasible lane walking from ``best`` by ``step``."""
        a = best
        while 0 <= a + step < n:
            c = a + step
            while c not in lanes:
                c += step
            x, y = min(a, c), max(a, c)
            if c == a + step:
                if not margin(c) > 0.0:
                    return a
            elif not least(x, y) > 0.0:
                if not most(x, y) > 0.0:
                    return a  # every lane up to ``c`` is infeasible
                lane((x + y) // 2)
                continue
            a = c
        return a

    return best, (edge(-1), edge(+1))


def _bisect_edge(bounds, r_feasible, r_infeasible):
    """Tighten one feasibility edge between a good and a bad rate."""
    for _ in range(_EDGE_STEPS):
        mid = 0.5 * (r_feasible + r_infeasible)
        b_lo, b_hi = bounds(mid)
        if b_lo < b_hi:
            r_feasible = mid
        else:
            r_infeasible = mid
    return r_feasible


def estimate_token_bucket(
    times,
    sizes,
    conform,
    mtu_bytes: float = float(ETHERNET_MTU),
):
    """Infer the policing token bucket behind one conformance record.

    Parameters are parallel send-order arrays: observation times,
    wire sizes, and the boolean conformance outcome per packet.
    Returns a :class:`TokenBucketEstimate`, or ``None`` when no token
    bucket is consistent with the record (too few events, or the
    non-conformance pattern is infeasible for every candidate rate —
    e.g. random loss).
    """
    times = np.asarray(times, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    conform = np.asarray(conform, dtype=bool)
    r0, pairs_used = _interdrop_rate(times, sizes, conform, mtu_bytes)
    if r0 is None:
        return None

    bounds = _Replayer(times, sizes, conform)

    # Cascaded zoom (see the schedule constants above). A heavily
    # constrained trace admits a feasible window well under 1 B/s wide
    # — the funnel toward it is what the re-centering follows.
    run = None
    for start in _ZOOM_STARTS:
        center = r0
        half = start * r0
        while half > _ZOOM_FLOOR * center:
            grid = np.linspace(center - half, center + half, _ZOOM_POINTS)
            best, run = _zoom_grid(grid, bounds)
            if run is not None:
                break
            spacing = 2.0 * half / (_ZOOM_POINTS - 1)
            center = float(grid[best])
            half = _ZOOM_GUARD * spacing
            if center <= 0.0:
                break
        if run is not None:
            break
    if run is None:
        return None
    lo_idx, hi_idx = run
    spacing = float(grid[1] - grid[0])

    def _bracket_edge(rate_feasible, direction):
        """Walk outward to an infeasible rate, then bisect the edge."""
        step = spacing
        probe = rate_feasible + direction * step
        for _ in range(60):
            b_lo, b_hi = bounds(probe)
            if not (b_lo < b_hi):
                return _bisect_edge(bounds, rate_feasible, probe)
            rate_feasible = probe
            step *= 2.0
            probe = rate_feasible + direction * step
            if probe <= 0.0:
                break
        return rate_feasible

    rate_lo = _bracket_edge(float(grid[lo_idx]), -1.0)
    rate_hi = _bracket_edge(float(grid[hi_idx]), +1.0)

    rate_hat = 0.5 * (rate_lo + rate_hi)
    b_lo, b_hi = bounds(rate_hat)
    if not (b_lo < b_hi):  # pragma: no cover - edges bisected feasible
        return None
    depth_hi = b_hi if math.isfinite(b_hi) else b_lo + mtu_bytes
    n_nonconf = int((~conform).sum())
    return TokenBucketEstimate(
        rate_bps=rate_hat * 8.0,
        rate_ci_bps=(rate_lo * 8.0, rate_hi * 8.0),
        depth_bytes=0.5 * (b_lo + depth_hi),
        depth_ci_bytes=(b_lo, depth_hi),
        margin_bytes=depth_hi - b_lo,
        n_conformant=int(conform.sum()),
        n_nonconformant=n_nonconf,
        pairs_used=pairs_used,
    )
