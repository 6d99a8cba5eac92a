"""Batched array execution: a whole sweep grid as one numpy program.

A parameter sweep evaluates the same (clip, encoding) session under
many policing profiles ``(token_rate_bps, bucket_depth_bytes)`` and
repeat seeds. Run one spec at a time and almost everything is
recomputed: the message schedule, the emission and campus-LAN
recurrences, and the jitter RNG replay depend only on the clip and the
seed — not on the policing profile. This module exploits that:

1. **Shared front end.** The schedule/emission/campus arrays are
   computed once per (clip, encoding) group
   (:func:`repro.sim.fastpath.compute_schedule`), and the jitter
   replay once per seed — not per grid point.
2. **Vectorized conformance scan.** The token-bucket recurrence runs
   over a *lane axis*: one 2-D scan updates every (rate, depth) lane's
   token level per packet instead of N independent 1-D scans. The
   arithmetic is arranged so each lane performs the exact IEEE-754
   operations of the scalar scan (a zero-elapsed refill adds ``0.0``
   and re-clips at the depth, both bitwise no-ops under the invariant
   ``tokens <= depth``), keeping the bit-identity contract.
3. **Outcome dedup.** Downstream of the policer, everything — the
   backbone traversal, playout, renderer, VQM — is a pure function of
   the conformance mask (plus the policer-exit times and codepoints).
   Above the policing cliff every lane produces the same all-conform
   mask, so a 64-point grid typically collapses to a handful of
   unique outcomes per seed.
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
from typing import Optional, Sequence

import numpy as np

from repro.sim.fastpath import (
    ScheduleBundle,
    build_session,
    compute_schedule,
    jitter_releases,
    policer_outcome,
    qbone_config,
    shaper_releases,
)
from repro.video.clips import encode_clip
from repro.vqm.tool import VqmTool


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

    This is the one grid kernel. Per-lane ``bucket_fill`` scans give
    the same columns with one Python step per packet per lane: over the
    64-point batch gate's 32 lanes per seed (11,506 ``lost`` packets)
    they took 117-118 ms per seed against 65-76 ms here, on a 2-vCPU
    host.
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


def _summarize_outcome(
    spec,
    encoded,
    sched: ScheduleBundle,
    pol_times: Sequence[float],
    pol_ids: Sequence[int],
    mask: np.ndarray,
    seen_sizes: np.ndarray,
    seen_fids: np.ndarray,
    tool: VqmTool,
):
    """Everything downstream of the conformance mask, for one outcome."""
    from repro.core.runner import ResultSummary

    cfg = qbone_config(spec)
    stats, arr, surviving, is_ef = policer_outcome(
        mask, cfg.policer_action, pol_times, pol_ids, seen_sizes, seen_fids
    )
    session = build_session(cfg, encoded, sched, arr, surviving, is_ef, stats)
    from repro.core.fastlane import result_from_session

    result = result_from_session(spec, encoded, session, tool)
    return ResultSummary.from_result(result, elapsed_s=0.0)


def _run_group(specs: list, vqm_tool: Optional[VqmTool]) -> list:
    """One (clip, encoding, …) group: shared front end, per-lane scan."""
    from repro.recovery.session import validate_recovery

    spec0 = specs[0]
    for spec in specs:
        validate_recovery(spec)  # parity with the per-spec paths
    encoded = encode_clip(spec0.clip, spec0.codec, spec0.encoding_rate_bps)
    cfg = qbone_config(spec0)
    sched = compute_schedule(encoded, cfg)
    tool = vqm_tool or VqmTool()

    summaries: list = [None] * len(specs)
    by_seed: dict = {}
    for i, spec in enumerate(specs):
        by_seed.setdefault(spec.seed, []).append(i)

    for seed, members in by_seed.items():
        releases = jitter_releases(sched.campus_departs, seed, cfg)
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
            streams = [(None, releases, list(range(sched.n_packets)), members)]

        outcome_cache: dict = {}
        for marker, pol_times, pol_ids, lanes in streams:
            ids_arr = np.asarray(pol_ids, dtype=np.int64)
            seen_sizes = sched.sizes_arr[ids_arr]
            seen_fids = sched.fids_arr[ids_arr]
            scan_sizes = [sched.sizes[k] for k in pol_ids]
            rate_bytes = np.array(
                [specs[i].token_rate_bps / 8.0 for i in lanes], dtype=np.float64
            )
            depths = np.array(
                [float(specs[i].bucket_depth_bytes) for i in lanes],
                dtype=np.float64,
            )
            conform = _lane_scan(pol_times, scan_sizes, rate_bytes, depths)
            for col, i in enumerate(lanes):
                mask = np.ascontiguousarray(conform[:, col])
                key = (marker, mask.tobytes())
                summary = outcome_cache.get(key)
                if summary is None:
                    summary = _summarize_outcome(
                        specs[i], encoded, sched, pol_times, pol_ids,
                        mask, seen_sizes, seen_fids, tool,
                    )
                    outcome_cache[key] = summary
                summaries[i] = summary
    return summaries


def run_batch_specs(specs: Sequence, vqm_tool: Optional[VqmTool] = None) -> list:
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
        results = _run_group([specs[i] for i in members], vqm_tool)
        for i, summary in zip(members, results):
            out[i] = summary
    per_point = (time.perf_counter() - started) / len(specs)
    return [replace(summary, elapsed_s=per_point) for summary in out]
