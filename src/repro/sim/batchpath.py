"""Batched array execution: a whole sweep grid as one numpy program.

A parameter sweep evaluates the same (clip, encoding) session under
many policing profiles ``(token_rate_bps, bucket_depth_bytes)`` and
repeat seeds. Run one spec at a time and almost everything is
recomputed: the message schedule, the emission and campus-LAN
recurrences, and the jitter RNG replay depend only on the clip and the
seed — not on the policing profile. This module exploits that:

1. **Shared front end.** The schedule/emission/campus arrays
   (:func:`repro.sim.fastpath.compute_schedule`) and, per seed, the
   jitter replay are computed once per request, not per grid point
   or per batch call: every lane of a request reads them from one
   :class:`~repro.sim.fastpath.FrontEndMemo`, so a recommend's probe
   rounds and a sweep's scheduler windows share them.
2. **Conformance scan by width.** Lanes that share one policer-input
   stream are scanned together. A stream of
   :data:`LANE_SCAN_MIN_LANES` lanes or more runs the token-bucket
   recurrence over a *lane axis* (:func:`_lane_scan`): one 2-D scan
   updates every (rate, depth) lane's token level per packet, with
   the exact IEEE-754 operations of the scalar scan (a zero-elapsed
   refill adds ``0.0`` and re-clips at the depth, both bitwise no-ops
   under the invariant ``tokens <= depth``). A narrower stream, which
   is what the campaign scheduler's windows and ``recommend`` submit,
   scans each lane with :func:`~repro.sim.fastpath.bucket_fill` on
   the stream's lists, converted once. Both give the verdict
   ``fill >= sizes``, so the choice never moves a bit.
3. **Outcome dedup.** Downstream of the scan, everything — policer
   accounting, the backbone traversal, playout, renderer, VQM — is a
   pure function of the conformance mask and the policer-input stream,
   whose times, ids, sizes and frame ids are gathered once per stream.
   :func:`repro.sim.fastpath.build_session` runs that tail once per
   unique mask. Above the policing cliff every lane produces the same
   all-conform mask, so a 64-point grid typically collapses to a
   handful of unique outcomes per seed.
4. **Shared assessment.** Each unique outcome is scored once, by the
   same offline stages as the scalar path. VQM's temporal calibration
   is the vectorized lag search every lane runs
   (:func:`repro.vqm.calibration.calibrate_segment`), so this module
   has no assessment code of its own.

The contract matches :mod:`repro.sim.fastpath`: every
:class:`~repro.core.runner.ResultSummary` field (except the wall-clock
``elapsed_s``) is bit-identical to what the event engine or the scalar
fast path would produce for that spec alone. The equivalence corpus in
``tests/test_fastpath_equivalence.py`` enforces this three ways.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.sim.fastpath import (
    bucket_fill,
    build_session,
    front_end_scope,
    qbone_config,
    shaper_releases,
)
from repro.video.clips import encode_clip

#: Fewest lanes on one policer-input stream that the 2-D
#: :func:`_lane_scan` serves; narrower streams scan lane by lane with
#: :func:`~repro.sim.fastpath.bucket_fill`. On the 11,506-packet
#: ``lost`` stream, on 2-vCPU hosts, ``_lane_scan`` takes 40-108 ms at
#: any width from 1 to 32 lanes and ``bucket_fill`` 3-7 ms per lane:
#: per-lane scans win 5-11x at 2 lanes and 1.3-2.4x at 8, break even
#: at 12-19 lanes depending on the host, and lose 1.5-3.4x at 32.
LANE_SCAN_MIN_LANES = 16


def _lane_scan(
    times: Sequence[float],
    sizes: Sequence[int],
    rate_bytes: np.ndarray,
    depths: np.ndarray,
) -> np.ndarray:
    """Token-bucket conformance over a lane axis: one 2-D scan.

    Returns a ``(n_packets, n_lanes)`` boolean matrix whose column
    ``j`` is bitwise equal to
    ``repro.sim.fastpath.bucket_fill(...) >= sizes`` for lane ``j``.
    The scalar kernel skips the refill when no time has elapsed; here
    the refill adds ``elapsed * rate == 0.0`` and re-clips at the
    depth — both exact no-ops (``x + 0.0 == x``; ``min(depth, x) == x``
    under the invariant ``x <= depth`` that consumption preserves) — so
    the unconditional update is bit-identical.

    This is the one grid kernel. Its numpy calls cost about the same
    per packet at any width, while per-lane ``bucket_fill`` scans cost
    one Python step per packet per lane, so it wins only on wide
    streams: :func:`_run_group` calls it from
    :data:`LANE_SCAN_MIN_LANES` lanes up (the 64-point batch gate's
    32 lanes per seed) and scans narrower streams lane by lane.
    """
    t = np.asarray(times, dtype=np.float64)
    n = len(t)
    lanes = len(rate_bytes)
    conform = np.empty((n, lanes), dtype=bool)
    if n == 0:
        return conform
    gaps = np.diff(t, prepend=0.0)
    refill = np.outer(gaps, rate_bytes)
    tokens = depths.astype(np.float64).copy()
    add, minimum = np.add, np.minimum
    greater_equal, subtract = np.greater_equal, np.subtract
    for i in range(n):
        add(tokens, refill[i], out=tokens)
        minimum(tokens, depths, out=tokens)
        row = conform[i]
        greater_equal(tokens, sizes[i], out=row)
        subtract(tokens, sizes[i], out=tokens, where=row)
    return conform


def _run_group(specs: list) -> list:
    """One (clip, encoding, …) group: shared front end, per-lane scan."""
    from repro.core.fastlane import result_from_session
    from repro.core.runner import ResultSummary

    spec0 = specs[0]
    encoded = encode_clip(spec0.clip, spec0.codec, spec0.encoding_rate_bps)
    cfg = qbone_config(spec0)

    summaries: list = [None] * len(specs)
    by_seed: dict = {}
    for i, spec in enumerate(specs):
        by_seed.setdefault(spec.seed, []).append(i)

    with front_end_scope() as front:
        sched = front.schedule(encoded, cfg)
        releases_by_seed = {
            seed: front.releases(encoded, cfg, seed) for seed in by_seed
        }
    for seed, members in by_seed.items():
        releases = releases_by_seed[seed]
        # Lanes sharing one policer-input packet stream. Unshaped lanes
        # all see the jitter releases; shaped lanes see their shaper
        # profile's output, which lanes with equal profiles share.
        if spec0.use_shaper:
            profiles: dict = {}
            for i in members:
                spec = specs[i]
                prof = (
                    spec.shaper_rate_bps or spec.token_rate_bps,
                    cfg.shaper_depth_bytes,
                )
                profiles.setdefault(prof, []).append(i)
            streams = []
            for (srate, sdepth), lanes in profiles.items():
                pol_times, pol_ids = shaper_releases(
                    releases, sched.sizes, srate, sdepth
                )
                streams.append(((srate, sdepth), pol_times, pol_ids, lanes))
        else:
            streams = [(None, releases, np.arange(sched.n_packets), members)]

        outcome_cache: dict = {}
        for marker, pol_times, pol_ids, lanes in streams:
            times = np.asarray(pol_times, dtype=np.float64)
            ids = np.asarray(pol_ids, dtype=np.int64)
            sizes = sched.sizes_arr[ids]
            fids = sched.fids_arr[ids]
            size_list = sizes.tolist()
            if len(lanes) < LANE_SCAN_MIN_LANES:
                masks = [
                    bucket_fill(
                        pol_times,
                        size_list,
                        specs[i].token_rate_bps,
                        specs[i].bucket_depth_bytes,
                    )
                    >= sizes
                    for i in lanes
                ]
            else:
                rate_bytes = np.array(
                    [specs[i].token_rate_bps / 8.0 for i in lanes],
                    dtype=np.float64,
                )
                depths = np.array(
                    [float(specs[i].bucket_depth_bytes) for i in lanes],
                    dtype=np.float64,
                )
                conform = _lane_scan(times, size_list, rate_bytes, depths)
                masks = np.ascontiguousarray(conform.T)  # one row per lane
            for i, mask in zip(lanes, masks):
                key = (marker, mask.tobytes())
                summary = outcome_cache.get(key)
                if summary is None:
                    session = build_session(
                        cfg, encoded, sched, times, ids, sizes, fids, mask
                    )
                    result = result_from_session(specs[i], encoded, session)
                    summary = ResultSummary.from_result(result, elapsed_s=0.0)
                    outcome_cache[key] = summary
                summaries[i] = summary
    return summaries


def run_batch_specs(specs: Sequence) -> list:
    """Run a grid of qualifying specs as one batched array program.

    Specs may span multiple (clip, encoding) groups; grouping happens
    here. Returns one ``ResultSummary`` per spec in input order, each
    bit-identical to a solo engine or scalar fast-path run of that
    spec; ``elapsed_s`` carries the batch wall-clock divided evenly
    across the grid (it feeds the cache's time-saved accounting and is
    excluded from equality).
    """
    specs = list(specs)
    if not specs:
        return []
    started = time.perf_counter()
    from repro.core.fastlane import batch_key

    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault(batch_key(spec), []).append(i)
    out: list = [None] * len(specs)
    for members in groups.values():
        results = _run_group([specs[i] for i in members])
        for i, summary in zip(members, results):
            out[i] = summary
    per_point = (time.perf_counter() - started) / len(specs)
    return [replace(summary, elapsed_s=per_point) for summary in out]
