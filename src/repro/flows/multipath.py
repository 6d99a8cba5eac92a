"""Interleaved multi-flow fast lane.

One aggregate run is N single-flow front ends feeding one shared
policing point. The front ends are already pure functions of the spec
(:func:`repro.sim.fastpath.compute_schedule` plus each flow's batched
jitter vector), so the only genuinely *coupled* computation is the
policer: every packet's conformance depends on the token state left by
whichever flow arrived before it. This module merges the per-flow
release streams into one time-sorted arrival array and scans the
shared bucket once — speculatively vectorized — then pushes the
survivors through the shared backbone and demultiplexes per-flow
sessions for the unchanged offline stages (playout finalize, VQM,
path metrics).

**The contract is bit-identity with the engine fan-in lane**
(:func:`repro.flows.aggregate.run_engine_aggregate`): every per-flow
summary field and the aggregate rollup must match, which the ``flows``
equivalence suite checks field by field.

The speculative token scan (:func:`_bucket_verdicts`) exploits two
IEEE-754 identities: ``x + 0.0 == x`` for the non-negative token
level, and ``min(depth, x) == x`` whenever ``x <= depth`` — so as long
as no refill clips at the brim and no packet fails conformance, the
engine's guarded refill/consume chain collapses to a strictly
sequential ``np.add.accumulate`` over interleaved ``[+elapsed·rate,
-size]`` increments. Violations of either assumption are detected on
the candidate values themselves (they are exact up to the first
violation), replayed with one scalar engine-identical step, and the
speculation resumes. Conform-heavy regimes — the admission frontier's
operating point — run at array speed; drop-heavy regimes degrade
toward the scalar scan, never past it by more than a chunk replay.

``REPRO_FLOWPATH`` mirrors ``REPRO_FASTPATH``: ``auto`` (default)
uses this lane when the aggregate qualifies (no backbone cross
traffic), ``0`` forces the engine lane, ``1`` raises
:class:`FlowpathUnsupported` on a non-qualifying aggregate.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.fastlane import result_from_session, run_fastpath
from repro.core.runner import ResultSummary
from repro.diffserv.policer import PolicerStats
from repro.flows.aggregate import (
    AggregateSpec,
    AggregateSummary,
    aggregate_config,
    derive_flow_seed,
    flow_jitter_delays,
    rollup_summaries,
)
from repro.sim.fastpath import (
    FastPathSession,
    _fifo_departs,
    _priority_link,
    client_frame_arrays,
    compute_schedule,
)
from repro.video.clips import encode_clip
from repro.vqm.tool import VqmTool

#: Environment variable controlling aggregate dispatch (see module
#: docstring); same auto/0/1 semantics as ``REPRO_FASTPATH``.
FLOWPATH_ENV = "REPRO_FLOWPATH"

#: Largest speculation window of the shared-bucket scan. Windows
#: gallop: they double after every clean commit and halve after every
#: violation, so clamp-free stretches run at full array width while
#: clamp-dense stretches pay small rebuilds instead of chunk-sized ones.
SCAN_CHUNK = 8192

#: Smallest speculation window (the galloping floor).
SCAN_CHUNK_MIN = 128

#: Window of the drop-run regime: consecutive non-conformant packets
#: committed per accumulate while the bucket stays below every size.
DROP_RUN = 512


class FlowpathUnsupported(RuntimeError):
    """``REPRO_FLOWPATH=1`` met an aggregate this lane cannot serve."""


def flowpath_mode() -> str:
    """Current override mode: ``"auto"``, ``"0"``, or ``"1"``."""
    mode = os.environ.get(FLOWPATH_ENV, "auto").strip().lower()
    if mode in ("0", "1"):
        return mode
    return "auto"


def qualifies_for_flowpath(agg: AggregateSpec) -> bool:
    """True when the interleaved lane models this aggregate exactly.

    Member-flow restrictions are already enforced by
    :class:`~repro.flows.aggregate.AggregateSpec` validation; the only
    aggregate-level feature needing the event loop is backbone cross
    traffic (Poisson arrivals interleaving with the merged stream at
    the priority queues).
    """
    return agg.cross_traffic_bps == 0


def use_flowpath(agg: AggregateSpec) -> bool:
    """Dispatch decision for one aggregate, honouring ``REPRO_FLOWPATH``."""
    mode = flowpath_mode()
    if mode == "0":
        return False
    if qualifies_for_flowpath(agg):
        return True
    if mode == "1":
        raise FlowpathUnsupported(
            f"REPRO_FLOWPATH=1 but the aggregate does not qualify for the "
            f"interleaved lane: {agg!r}"
        )
    return False


def _bucket_verdicts(
    times: np.ndarray,
    sizes_f: np.ndarray,
    rate_bps: float,
    depth_bytes: float,
) -> np.ndarray:
    """Conformance mask of a token-bucket scan over sorted arrivals.

    Bit-identical to feeding the arrivals one by one through
    :meth:`repro.diffserv.token_bucket.TokenBucket.try_consume` on a
    bucket created at t=0 (full, ``last_update=0``). Three speculative
    regimes cover the three steady states a policed aggregate visits:

    * **linear** (the module-docstring accumulate): no refill clips at
      the brim and every packet conforms — the well-inside-the-bucket
      band. Violation checks on the candidates are *strict* (`> depth`,
      `< 0`) because an exact brim-touch refill and an exact
      zero-token consume follow the identities and are not divergences.
    * **brim runs**: a refill that clips leaves ``tokens == depth``,
      and a conform then leaves ``depth - size[k]`` — a state that
      depends only on the *previous packet's size*, not on history. So
      whether step ``k`` re-clips and conforms is an elementwise
      predicate (``brim_ok``), precomputed once; a whole run of
      brim-riding packets commits as one slice. Over-provisioned
      aggregates live here.
    * **drop runs**: while the bucket stays below both the brim and
      every arriving size, nothing consumes and the token level is
      again a pure accumulate of refill credits. Saturated aggregates
      (the admission frontier's far side) live here.

    Every committed value is produced by the same IEEE-754 operations,
    in the same order, as the engine's guarded scalar step.
    """
    n = len(times)
    conform = np.zeros(n, dtype=bool)
    if n == 0:
        return conform
    rate_bytes = rate_bps / 8.0
    depth = float(depth_bytes)
    # Per-step refill credit: the same ``(now - prev) * rate`` product
    # the scalar step computes (prev is 0.0 before the first packet).
    credit = np.empty(n, dtype=np.float64)
    credit[0] = times[0] - 0.0
    np.subtract(times[1:], times[:-1], out=credit[1:])
    np.multiply(credit, rate_bytes, out=credit)
    # Brim-run table: entering step k with ``tokens == depth - size[k-1]``
    # (the state a brim-clipped conform leaves), the refill re-clips and
    # the packet conforms iff brim_ok[k]. brim_ok[0] stays False: packet
    # 0 has no brim predecessor.
    leftover = depth - sizes_f
    brim_ok = np.zeros(n, dtype=bool)
    if n > 1:
        np.greater_equal(leftover[:-1] + credit[1:], depth, out=brim_ok[1:])
        brim_ok[1:] &= sizes_f[1:] <= depth
    brim_stop = np.flatnonzero(~brim_ok)

    tokens = depth
    chunk = SCAN_CHUNK
    i = 0
    while i < n:
        j = min(i + chunk, n)
        m = j - i
        increments = np.empty(2 * m + 1, dtype=np.float64)
        increments[0] = tokens
        increments[1::2] = credit[i:j]
        np.negative(sizes_f[i:j], out=increments[2::2])
        candidate = np.add.accumulate(increments)
        after_refill = candidate[1::2]
        after_consume = candidate[2::2]
        bad = np.flatnonzero((after_refill > depth) | (after_consume < 0.0))
        if bad.size == 0:
            conform[i:j] = True
            tokens = float(candidate[-1])
            i = j
            chunk = min(chunk * 2, SCAN_CHUNK)
            continue
        v = int(bad[0])
        conform[i : i + v] = True
        if v > 0:
            tokens = float(after_consume[v - 1])
        chunk = max(chunk // 2, SCAN_CHUNK_MIN)
        p = i + v
        refilled = float(after_refill[v])  # exact: prefix had no clamps
        size_p = float(sizes_f[p])
        if refilled > depth:
            # Brim clip: the stored level is exactly ``depth``.
            if size_p <= depth:
                conform[p] = True
                tokens = depth - size_p
                # Ride the brim: commit the maximal brim_ok run.
                k = int(np.searchsorted(brim_stop, p + 1))
                stop = int(brim_stop[k]) if k < brim_stop.size else n
                if stop > p + 1:
                    conform[p + 1 : stop] = True
                    tokens = float(leftover[stop - 1])
                i = stop
            else:
                tokens = depth  # oversize: can never conform
                i = p + 1
        else:
            # Token shortfall: packet p drops at level ``refilled``.
            tokens = refilled
            q = p + 1
            stop = min(q + DROP_RUN, n)
            if stop > q:
                run = np.empty(stop - q + 1, dtype=np.float64)
                run[0] = tokens
                run[1:] = credit[q:stop]
                level = np.add.accumulate(run)[1:]
                ok = (level <= depth) & (level < sizes_f[q:stop])
                run_bad = np.flatnonzero(~ok)
                b = int(run_bad[0]) if run_bad.size else ok.size
                if b > 0:
                    tokens = float(level[b - 1])
                i = q + b
            else:
                i = q
    return conform


class _MergedStream:
    """Per-flow schedules merged into one time-sorted arrival stream."""

    def __init__(self, agg: AggregateSpec, cfg):
        self.encodeds = []
        self.schedules = []
        self.releases = []
        schedule_cache: dict = {}
        for i, flow in enumerate(agg.flows):
            encoded = encode_clip(flow.clip, flow.codec, flow.encoding_rate_bps)
            key = (
                flow.clip,
                flow.codec,
                flow.encoding_rate_bps,
                agg.start_offsets[i],
            )
            sched = schedule_cache.get(key)
            if sched is None:
                sched = compute_schedule(encoded, cfg, start=agg.start_offsets[i])
                schedule_cache[key] = sched
            delays = flow_jitter_delays(
                derive_flow_seed(agg.seed, i), sched.n_packets, cfg
            )
            campus = np.asarray(sched.campus_departs, dtype=np.float64)
            self.encodeds.append(encoded)
            self.schedules.append(sched)
            # The jitter element's monotone clamp, vectorized: the
            # engine computes max(arrival + delay, last) packet by
            # packet; maximum.accumulate is that exact chain (max has
            # no rounding) and the initial last=0.0 is absorbed since
            # every release is positive.
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
        # stable sort keeps within-flow FIFO order. (Cross-flow exact
        # ties are measure-zero under distinct derived jitter seeds;
        # the deterministic tiebreak just keeps the merge well-defined.)
        order = np.lexsort((self.flow_idx, self.times))
        self.order = order  # concat position -> merged position map
        self.times = self.times[order]
        self.sizes = self.sizes[order]
        self.fids = self.fids[order]
        self.flow_idx = self.flow_idx[order]
        self.local_idx = self.local_idx[order]


def _flow_stats(
    stream: _MergedStream,
    conform: np.ndarray,
    action_drop: bool,
    n_flows: int,
) -> list:
    """Per-flow :class:`PolicerStats` from the merged verdict mask.

    One ``bincount`` pass per counter instead of a per-flow mask sweep:
    byte sums stay exact (they are far below 2**53) and the dropped
    frame-id sets come from one unique pass over (flow, frame) pairs.
    """
    flow_idx = stream.flow_idx
    sizes = stream.sizes
    conf_flows = flow_idx[conform]
    conf_counts = np.bincount(conf_flows, minlength=n_flows)
    conf_bytes = np.bincount(
        conf_flows, weights=sizes[conform], minlength=n_flows
    )
    nonconform = ~conform
    non_flows = flow_idx[nonconform]
    non_counts = np.bincount(non_flows, minlength=n_flows)
    drop_sets: list[set] = [set() for _ in range(n_flows)]
    if action_drop:
        non_bytes = np.bincount(
            non_flows, weights=sizes[nonconform], minlength=n_flows
        )
        drop_fids = stream.fids[nonconform]
        if drop_fids.size:
            base = int(drop_fids.min())
            span = int(drop_fids.max()) - base + 1
            pairs = np.unique(
                non_flows.astype(np.int64) * span + (drop_fids - base)
            )
            pair_flows = pairs // span
            bounds = np.searchsorted(pair_flows, np.arange(n_flows + 1))
            pair_fids = (pairs % span + base).tolist()
            for i in range(n_flows):
                drop_sets[i] = set(pair_fids[bounds[i] : bounds[i + 1]])
    stats = []
    for i in range(n_flows):
        st = PolicerStats()
        st.conformant_packets = int(conf_counts[i])
        st.conformant_bytes = int(conf_bytes[i])
        if action_drop:
            st.dropped_packets = int(non_counts[i])
            st.dropped_bytes = int(non_bytes[i])
            st.dropped_frame_ids = drop_sets[i]
        else:
            st.remarked_packets = int(non_counts[i])
        stats.append(st)
    return stats


def run_multipath(
    agg: AggregateSpec, vqm_tool: Optional[VqmTool] = None
) -> AggregateSummary:
    """Run one aggregate through the interleaved array lane.

    Returns the same :class:`AggregateSummary` (per-flow summaries and
    rollup, field for field) as
    :func:`~repro.flows.aggregate.run_engine_aggregate`.
    """
    cfg = aggregate_config(agg)
    n = agg.n_flows
    stream = _MergedStream(agg, cfg)
    action_drop = agg.policer_action == "drop"

    # ------------------------------------------------------------------
    # Policing: one shared scan over the merged stream, or one
    # independent scan per flow (identical profile) in per-flow mode.
    # ------------------------------------------------------------------
    sizes_f = stream.sizes.astype(np.float64)
    if agg.policing == "aggregate":
        conform = _bucket_verdicts(
            stream.times, sizes_f, agg.token_rate_bps, agg.bucket_depth_bytes
        )
    else:
        # Per-flow buckets see only their own (pre-merge, already
        # sorted) release stream; scatter the verdicts back into
        # merged order through the stored permutation.
        concat = np.zeros(len(stream.times), dtype=bool)
        offset = 0
        for i in range(n):
            count = stream.counts[i]
            concat[offset : offset + count] = _bucket_verdicts(
                stream.releases[i],
                stream.schedules[i].sizes_arr.astype(np.float64),
                agg.token_rate_bps,
                agg.bucket_depth_bytes,
            )
            offset += count
        conform = concat[stream.order]
    flow_stats = _flow_stats(stream, conform, action_drop, n)

    # ------------------------------------------------------------------
    # Shared backbone: survivors in policer-exit order. Drop action
    # leaves a pure-EF stream (FIFO recurrence per hop); remark mixes
    # EF and BE through the strict-priority queues.
    # ------------------------------------------------------------------
    keep = conform if action_drop else np.ones(len(conform), dtype=bool)
    arr = stream.times[keep]
    surv_sizes = stream.sizes[keep]
    surv_flow = stream.flow_idx[keep]
    surv_local = stream.local_idx[keep]
    surv_ef = conform[keep]
    hop_prop = cfg.backbone_hop_delay_s
    mixed = bool(surv_ef.size) and not surv_ef.all()
    tx = ((surv_sizes * 8) / cfg.backbone_rate_bps).tolist()
    if mixed:
        arr_l = arr.tolist()
        ef_l = surv_ef.tolist()
        flow_l = surv_flow.tolist()
        local_l = surv_local.tolist()
        for _hop in range(cfg.backbone_hops):
            departs, order = _priority_link(arr_l, tx, ef_l)
            arr_l = [departs[k] + hop_prop for k in order]
            tx = [tx[k] for k in order]
            ef_l = [ef_l[k] for k in order]
            flow_l = [flow_l[k] for k in order]
            local_l = [local_l[k] for k in order]
        final_times = np.asarray(arr_l, dtype=np.float64)
        final_flow = np.asarray(flow_l, dtype=np.int64)
        final_local = np.asarray(local_l, dtype=np.int64)
    else:
        arr_l = arr.tolist()
        for _hop in range(cfg.backbone_hops):
            departs = _fifo_departs(arr_l, tx)
            arr_l = [d + hop_prop for d in departs]
        final_times = np.asarray(arr_l, dtype=np.float64)
        final_flow = surv_flow
        final_local = surv_local

    # ------------------------------------------------------------------
    # Demux: per-flow sessions through the unchanged offline stages.
    # One VQM tool is shared across flows; it keeps no state between
    # calls.
    # ------------------------------------------------------------------
    tool = vqm_tool if vqm_tool is not None else VqmTool()
    # Stable flow-sort of the delivered stream: one O(n log n) pass
    # replaces N boolean mask sweeps, and stability preserves each
    # flow's delivery order exactly as the mask would.
    demux = np.argsort(final_flow, kind="stable")
    bounds = np.searchsorted(final_flow[demux], np.arange(n + 1))
    flow_summaries = []
    for i, flow in enumerate(agg.flows):
        sched = stream.schedules[i]
        member = demux[bounds[i] : bounds[i + 1]]
        recv_ids = final_local[member]
        recv_times = final_times[member]
        received_bytes, completion = client_frame_arrays(
            stream.encodeds[i],
            sched.fids_arr,
            sched.lens_arr,
            recv_ids,
            recv_times,
        )
        session = FastPathSession(
            send_times=np.asarray(sched.emit_times, dtype=np.float64),
            recv_ids=recv_ids,
            recv_times=recv_times,
            policer_stats=flow_stats[i],
            server_messages=sched.n_packets,
            server_packets=sched.n_packets,
            server_bytes=int(np.sum(sched.sizes_arr)) if sched.n_packets else 0,
            received_packets=int(member.size),
            received_bytes=received_bytes,
            completion=completion,
            first_arrival=float(recv_times[0]) if recv_times.size else None,
        )
        result = result_from_session(flow, stream.encodeds[i], session, tool)
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


def run_flows_loop(
    agg: AggregateSpec, vqm_tool: Optional[VqmTool] = None
) -> list:
    """Naive uncontended baseline: independent single-flow runs.

    N separate scalar fast-path pipelines, each with its own RNG
    replay, policer scan, and VQM tool — and, importantly, each
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
        result = run_fastpath(spec, vqm_tool=vqm_tool)
        summaries.append(ResultSummary.from_result(result))
    return summaries
