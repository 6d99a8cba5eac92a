"""Interleaved multi-flow fast lane.

One aggregate run is N single-flow front ends feeding one shared
policing point. The front ends are already pure functions of the spec
(a schedule from the request's
:class:`~repro.sim.fastpath.FrontEndMemo` plus each flow's batched
jitter vector), so the only genuinely *coupled* computation is the
policer: every packet's conformance depends on the token state left by
whichever flow arrived before it. This module merges the per-flow
release streams into one time-sorted arrival array and scans the
shared bucket once with :func:`repro.sim.fastpath.bucket_fill`, the
token-bucket kernel every single-stream lane uses. The rest is the
post-policer stage set the single-flow lanes compose:
:func:`~repro.sim.fastpath.policer_outcome` gives per-flow counters,
:func:`~repro.sim.fastpath.backbone` runs the shared hops, and after a
stable flow-sort :func:`~repro.sim.fastpath.flow_session` builds each
flow's session for the unchanged offline stages (playout finalize,
VQM, path metrics).

The scan stays a scalar recurrence. Committing clamp-free, brim-riding
and drop runs as ``np.add.accumulate`` slices is exact too, but it was
6.4x slower over the 210 scans of one round of perfbench's
``flow_aggregates`` workload (1260 vs 197 ms, seed 3, on a 2-vCPU
host) and slower on all 48 ``qbone_sweeps`` lanes.

**The contract is bit-identity with the engine fan-in lane**
(:func:`repro.flows.aggregate.run_engine_aggregate`): every per-flow
summary field and the aggregate rollup must match, which the ``flows``
equivalence suite checks field by field. Two known gaps break it,
each pinned by a strict ``xfail`` in ``tests/test_flows.py``: the
backbone hops here have no queue bound, where the engine's
``PriorityScheduler`` drops EF packets past 1000 per level, and exact
cross-flow ties in the merged stream are broken by flow index, where
the engine breaks them by event order.
:func:`repro.flows.aggregate.run_aggregate` picks the lane and honours
``REPRO_FASTPATH`` exactly as single flows do.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.fastlane import result_from_session, run_fastpath
from repro.core.runner import ResultSummary
from repro.flows.aggregate import (
    AggregateSpec,
    AggregateSummary,
    aggregate_config,
    derive_flow_seed,
    flow_jitter_delays,
    rollup_summaries,
)
from repro.sim.fastpath import (
    backbone,
    bucket_fill,
    flow_session,
    front_end_scope,
    policer_outcome,
)
from repro.video.clips import encode_clip


def qualifies_for_flowpath(agg: AggregateSpec) -> bool:
    """True when the interleaved lane models this aggregate exactly.

    Member-flow restrictions are already enforced by
    :class:`~repro.flows.aggregate.AggregateSpec` validation; the only
    aggregate-level feature needing the event loop is backbone cross
    traffic (Poisson arrivals interleaving with the merged stream at
    the priority queues).
    """
    return agg.cross_traffic_bps == 0


class _MergedStream:
    """Per-flow schedules merged into one time-sorted arrival stream.

    Flows of one clip version and start offset share one schedule from
    the request's front-end memo. :func:`run_multipath` holds a scope
    of its own, so a bare aggregate's zero-offset flows still share
    one; :func:`merged_arrival_arrays` opens one here. Each flow's jitter
    vector is drawn afresh: at about 0.1 ms a flow it is not worth
    keeping.
    """

    def __init__(self, agg: AggregateSpec, cfg):
        self.encodeds = []
        self.schedules = []
        self.releases = []
        with front_end_scope() as front:
            for i, flow in enumerate(agg.flows):
                encoded = encode_clip(
                    flow.clip, flow.codec, flow.encoding_rate_bps
                )
                sched = front.schedule(encoded, cfg, start=agg.start_offsets[i])
                delays = flow_jitter_delays(
                    derive_flow_seed(agg.seed, i), sched.n_packets, cfg
                )
                campus = np.asarray(sched.campus_departs, dtype=np.float64)
                self.encodeds.append(encoded)
                self.schedules.append(sched)
                # The jitter element's monotone clamp, vectorized: the
                # engine computes max(arrival + delay, last) packet by
                # packet; maximum.accumulate is that exact chain (max
                # has no rounding) and the initial last=0.0 is absorbed
                # since every release is positive.
                self.releases.append(np.maximum.accumulate(campus + delays))

        counts = [len(r) for r in self.releases]
        self.counts = counts
        self.times = np.concatenate(self.releases) if counts else np.empty(0)
        self.sizes = np.concatenate(
            [s.sizes_arr for s in self.schedules]
        ).astype(np.int64)
        self.fids = np.concatenate([s.fids_arr for s in self.schedules])
        self.flow_idx = np.repeat(np.arange(len(counts)), counts)
        self.local_idx = np.concatenate(
            [np.arange(c, dtype=np.int64) for c in counts]
        )
        # Time-major merge; flow index breaks cross-flow ties and the
        # stable sort keeps within-flow FIFO order. Exact cross-flow
        # ties are not rare: flows that share a schedule tie whenever
        # both jitter draws clip at jitter_max_s. 40 test-150 flows at
        # seed 3 give 32 ties, and each of perfbench's 100-flow
        # aggregates 254-316. The engine breaks them by event order,
        # not flow index, so a tied flow's delay and jitter can differ
        # from the engine's (tests/test_flows.py::TestKnownLaneGaps).
        order = np.lexsort((self.flow_idx, self.times))
        self.order = order  # concat position -> merged position map
        self.times = self.times[order]
        self.sizes = self.sizes[order]
        self.fids = self.fids[order]
        self.flow_idx = self.flow_idx[order]
        self.local_idx = self.local_idx[order]


@front_end_scope()
def run_multipath(agg: AggregateSpec) -> AggregateSummary:
    """Run one aggregate through the interleaved array lane.

    Returns the same :class:`AggregateSummary` (per-flow summaries and
    rollup, field for field) as
    :func:`~repro.flows.aggregate.run_engine_aggregate`. One front-end
    scope spans the flows' schedules and their assessments, so flows
    that show the same window calibrate it once.
    """
    cfg = aggregate_config(agg)
    n = agg.n_flows
    stream = _MergedStream(agg, cfg)

    # ------------------------------------------------------------------
    # Policing: one shared scan over the merged stream, or one
    # independent scan per flow (identical profile) in per-flow mode.
    # ------------------------------------------------------------------
    rate, depth = agg.token_rate_bps, agg.bucket_depth_bytes
    if agg.policing == "aggregate":
        fill = bucket_fill(
            stream.times.tolist(), stream.sizes.tolist(), rate, depth
        )
        conform = fill >= stream.sizes
    else:
        # Per-flow buckets see only their own (pre-merge, already
        # sorted) release stream; scatter the verdicts back into
        # merged order through the stored permutation.
        concat = np.concatenate([
            bucket_fill(releases.tolist(), sched.sizes, rate, depth)
            >= sched.sizes_arr
            for releases, sched in zip(stream.releases, stream.schedules)
        ])
        conform = concat[stream.order]
    stats, keep = policer_outcome(
        conform, cfg.policer_action, stream.sizes, stream.fids,
        stream.flow_idx, n,
    )

    # ------------------------------------------------------------------
    # Shared backbone: the forwarded packets in policer-exit order,
    # FIFO hops for a one-class stream, strict priority for a mixed one.
    # ------------------------------------------------------------------
    fwd = slice(None) if keep is None else keep
    final_times, order = backbone(
        cfg,
        stream.times[fwd].tolist(),
        ((stream.sizes[fwd] * 8) / cfg.backbone_rate_bps).tolist(),
        conform.tolist() if keep is None else None,
    )
    final_flow = stream.flow_idx[fwd][order]
    final_local = stream.local_idx[fwd][order]

    # ------------------------------------------------------------------
    # Demux: per-flow sessions through the unchanged offline stages.
    # ------------------------------------------------------------------
    # Stable flow-sort of the delivered stream: one O(n log n) pass
    # replaces N boolean mask sweeps, and stability preserves each
    # flow's delivery order exactly as the mask would.
    demux = np.argsort(final_flow, kind="stable")
    bounds = np.searchsorted(final_flow[demux], np.arange(n + 1))
    flow_summaries = []
    for i, flow in enumerate(agg.flows):
        member = demux[bounds[i] : bounds[i + 1]]
        session = flow_session(
            stream.encodeds[i],
            stream.schedules[i],
            final_local[member],
            final_times[member],
            stats[i],
        )
        result = result_from_session(flow, stream.encodeds[i], session)
        flow_summaries.append(ResultSummary.from_result(result))
    return rollup_summaries(flow_summaries)


def merged_arrival_arrays(agg: AggregateSpec) -> tuple:
    """Pre-policer merged arrival stream ``(times, sizes, flow_idx)``.

    The measurement layer (:mod:`repro.flows.measure`) and the
    admission controller read the offered aggregate load from these
    arrays — the same ones the shared scan polices.
    """
    stream = _MergedStream(agg, aggregate_config(agg))
    return stream.times, stream.sizes, stream.flow_idx


def run_flows_loop(agg: AggregateSpec) -> list:
    """Naive uncontended baseline: independent single-flow runs.

    N separate scalar fast-path pipelines, each with its own RNG
    replay, policer scan, and assessment — and, importantly, each
    policing its *own* full-rate bucket, because the single-flow
    pipeline cannot express a shared one. It approximates an aggregate
    only in per-flow mode with zero offsets. The scale benchmark
    quotes it as a secondary reference (a lower bound on what any
    per-flow decomposition costs); its headline baseline is the
    *contended* loop built from
    :func:`repro.flows.aggregate.contended_flow_specs`, which models
    the coupling and therefore needs the event engine per flow.
    """
    summaries = []
    for i, flow in enumerate(agg.flows):
        spec = replace(
            flow,
            token_rate_bps=agg.token_rate_bps,
            bucket_depth_bytes=agg.bucket_depth_bytes,
            policer_action=agg.policer_action,
            seed=derive_flow_seed(agg.seed, i),
        )
        result = run_fastpath(spec)
        summaries.append(ResultSummary.from_result(result))
    return summaries
