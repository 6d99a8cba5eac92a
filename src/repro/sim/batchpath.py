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
2. **Conformance scan, lane by lane.** Lanes that share one
   policer-input stream are scanned against it, and the stream itself
   (a seed's jitter releases, or one shaper profile's output) is a
   :class:`~repro.sim.fastpath.PolicerStream` held in the request's
   memo, so every batch call of the request scans the same record.
   Each lane is one :func:`~repro.sim.fastpath.bucket_fill` scan, in
   ascending (depth, rate) order, and a lane at or above one seen to
   forward every packet, in this call or an earlier one, gets the
   all-True mask unscanned
   (:meth:`~repro.sim.fastpath.PolicerStream.verdicts`: the scan is
   monotone in rate and depth). Either way the verdict is
   ``fill >= sizes``, so skipping a lane never moves a bit.
3. **Outcome dedup.** Downstream of the scan, everything — policer
   accounting, the backbone traversal, playout, renderer, VQM — is a
   pure function of the conformance mask and the policer-input stream,
   whose times, ids, sizes and frame ids are gathered once per stream.
   :func:`repro.sim.fastpath.build_session` runs that tail once per
   unique mask in each call. Above the policing cliff every lane
   produces the same all-conform mask, so a 64-point grid typically
   collapses to a handful of unique outcomes per seed. The backbone
   part is one all-forwarded three-hop run per stream per request
   (:class:`~repro.sim.fastpath.ForwardedRun`): the all-conform
   outcome's arrivals are that run's, and a drop outcome copies it and
   re-runs the hops only from each packet after a drop until their
   finish times are back in step with it.
4. **Shared assessment.** Each unique outcome is scored once, by the
   same offline stages as the scalar path. VQM's temporal calibration
   is the screened lag search every lane runs
   (:func:`repro.vqm.calibration.calibrate_segment`), so this module
   has no assessment code of its own. A group holds the request's
   front-end scope across its outcomes, so outcomes whose received
   windows match (a segment before the first policer drop, say)
   calibrate that segment once.

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

from repro.sim.fastpath import (
    build_session,
    front_end_scope,
    qbone_config,
    shaper_profile,
)
from repro.video.clips import encode_clip


@front_end_scope()
def _run_group(specs: list) -> list:
    """One (clip, encoding, …) group: shared front end, per-lane scan.

    The scope spans the group's assessments too, so its unique
    outcomes share segment calibrations
    (:class:`~repro.sim.fastpath.FrontEndMemo`).
    """
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
        streams: list = []
        for seed, members in by_seed.items():
            # Lanes sharing one policer-input packet stream. Unshaped
            # lanes all see the seed's jitter releases; shaped lanes see
            # their shaper profile's output, which equal profiles share.
            profiles: dict = {}
            for i in members:
                profiles.setdefault(shaper_profile(specs[i], cfg), []).append(i)
            for prof, lanes in profiles.items():
                streams.append((front.stream(encoded, cfg, seed, prof), lanes))

    for stream, lanes in streams:
        # In ascending (depth, rate) order, so that no lane an
        # all-forwarding lane dominates is scanned.
        ascending = sorted(
            lanes,
            key=lambda i: (specs[i].bucket_depth_bytes, specs[i].token_rate_bps),
        )
        verdicts = {
            i: stream.verdicts(specs[i].token_rate_bps, specs[i].bucket_depth_bytes)
            for i in ascending
        }
        masks = [verdicts[i] for i in lanes]
        outcome_cache: dict = {}
        for i, mask in zip(lanes, masks):
            key = mask.tobytes()
            summary = outcome_cache.get(key)
            if summary is None:
                session = build_session(
                    cfg,
                    encoded,
                    sched,
                    stream.times,
                    stream.ids,
                    stream.sizes,
                    stream.fids,
                    mask,
                    forwarded=stream.forwarded,
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
