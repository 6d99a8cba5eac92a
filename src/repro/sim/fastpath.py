"""Vectorized fast-path simulation of the qualifying QBone pipeline.

The dominant experiment in every paper figure is a CBR VideoCharger
session streaming UDP through the QBone path with no recovery, no
adaptation, and no cross traffic. That pipeline is *deterministic given
the spec*: the server's emission schedule is a pure function of the
clip, the campus LAN and backbone links are FIFO recurrences, the
jitter element consumes a named RNG stream whose draws depend only on
the seed, and the token bucket is a one-pass scan over arrival times.
None of it needs the event heap.

This module re-derives the exact per-packet timeline as array
computations plus a few tight scalar recurrences. **The contract is
bit-identity**: every timestamp, every drop decision, and every counter
must equal what :class:`repro.sim.engine.Engine` would have produced,
operation for IEEE-754 operation. Where numpy vectorization would
change rounding (the FIFO recurrence ``d = max(a, d) + tx``, the token
bucket's clipped refill) the recurrence is kept as a sequential scan
over the precomputed arrays — still two orders of magnitude fewer
Python operations than the event loop, because all per-packet object
construction, heap traffic, and callback dispatch are gone.

Tie semantics mirror the engine's seq ordering: on this topology an
arrival event that coincides exactly with a link's transmission-finish
event was always *scheduled* earlier (propagation and jitter delays
exceed every serialization time), so at equal timestamps arrivals
enter the queue before the finish event dequeues. The scans below bake
that rule in (``arr <= finish`` absorbs ties into the queue).

See DESIGN.md §8 for the qualification rules and the equivalence test
contract (``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.diffserv.dscp import DSCP
from repro.diffserv.policer import (
    DROP_REASON_OVERSIZE,
    DROP_REASON_TOKENS,
    PolicerAction,
    PolicerStats,
)
from repro.server.videocharger import message_schedule
from repro.sim.tracer import (
    POLICER_TRACE_COLUMNS,
    RECEIVER_TRACE_COLUMNS,
    TRACE_SCHEMA_VERSION,
)
from repro.testbeds.qbone import QBoneTestbedConfig
from repro.units import UDP_IP_HEADER
from repro.video.mpeg import EncodedClip


@dataclass
class FastPathSession:
    """Everything the experiment harness needs from one fast-path run.

    Field-for-field, this carries the observable state the event-driven
    run would leave behind in the testbed taps, the policer, the server
    stats, and the playout client's internal arrays. The tap streams are
    stored as arrays (send times in packet-id order; delivered packet
    ids and arrival times in arrival order) rather than TraceRecord
    objects; :meth:`network_summary` derives the same metrics dict
    :func:`repro.core.netmetrics.summarize_path` would.
    """

    send_times: np.ndarray  # emission time per packet id (float64)
    recv_ids: np.ndarray  # delivered packet ids, arrival order (int64)
    recv_times: np.ndarray  # arrival times, arrival order (float64)
    policer_stats: PolicerStats
    server_messages: int
    server_packets: int
    server_bytes: int
    received_packets: int
    received_bytes: np.ndarray  # per-frame delivered payload (int64)
    completion: np.ndarray  # per-frame completion time (NaN = never)
    first_arrival: Optional[float]
    trace_payload: Optional[dict] = None  # detection trace (capture_trace)

    def network_summary(self) -> dict:
        """The :func:`~repro.core.netmetrics.summarize_path` dict.

        Computed straight from the tap arrays with the identical
        arithmetic the record-based implementation performs: per-packet
        transit is the same float subtraction (vectorized elementwise —
        bit-equal), the RFC 3550 EWMA stays a sequential loop, and loss
        runs come from the delivered mask in send order.
        """
        sent_n = len(self.send_times)
        transits = self.recv_times - self.send_times[self.recv_ids]
        if len(transits):
            jitter = 0.0
            for d in np.abs(np.diff(transits)).tolist():
                jitter += (d - jitter) / 16.0
            delay_mean = float(transits.mean())
            delay_p95 = float(np.percentile(transits, 95))
            delay_p99 = float(np.percentile(transits, 99))
            delay_max = float(transits.max())
        else:
            jitter = delay_mean = delay_p95 = delay_p99 = delay_max = 0.0
        delivered_mask = np.zeros(sent_n, dtype=bool)
        delivered_mask[self.recv_ids] = True
        delivered = int(delivered_mask.sum())
        lost_idx = np.flatnonzero(~delivered_mask)
        if lost_idx.size:
            splits = np.flatnonzero(np.diff(lost_idx) != 1) + 1
            runs = np.diff(np.concatenate(([0], splits, [lost_idx.size])))
            loss_runs = len(runs)
            mean_run = float(np.mean(runs))
            max_run = int(runs.max())
        else:
            loss_runs = 0
            mean_run = 0.0
            max_run = 0
        return {
            "delay_mean_s": delay_mean,
            "delay_p95_s": delay_p95,
            "delay_p99_s": delay_p99,
            "delay_max_s": delay_max,
            "jitter_rfc3550_s": float(jitter),
            "loss_fraction": (sent_n - delivered) / sent_n if sent_n else 0.0,
            "loss_runs": loss_runs,
            "loss_mean_run": mean_run,
            "loss_max_run": max_run,
        }


def _emission_times(dues: np.ndarray, start: float = 0.0) -> list[float]:
    """Replay the server's self-scheduling recurrence.

    The event engine fires message ``m`` at
    ``t_m = t_{m-1} + max(0.0, (start + due_m) - t_{m-1})`` (the
    server's batch recurrence computes ``start + due - t`` left to
    right and ``schedule_at`` fires at the clamped chain), which is
    *not* bitwise the same as ``max(t_{m-1}, start + due_m)``; keep
    the exact chain. ``start`` is the server's ``start(at=...)``
    instant — multi-flow aggregates stagger flows with it; at the
    default 0.0 the arithmetic is bitwise the historical single-flow
    form (``0.0 + due == due``).
    """
    times: list[float] = []
    t = start
    for due in dues.tolist():
        delay = start + due - t
        if delay < 0.0:
            delay = 0.0
        t = t + delay
        times.append(t)
    return times


def _fifo_departs(arrivals: list[float], tx: list[float]) -> list[float]:
    """FIFO link: departure times for in-order arrivals.

    The recurrence is ``d[i] = max(a[i], d[i-1]) + t[i]``, kept as a
    scalar loop: a cumsum reformulation would change rounding, and
    committing idle or busy runs as array slices measured slower than
    this loop on every stream tried (DESIGN.md §8).
    """
    departs: list[float] = []
    free = float("-inf")
    for a_i, t_i in zip(arrivals, tx):
        free = (a_i if a_i > free else free) + t_i
        departs.append(free)
    return departs


def bucket_fill(
    times: Sequence[float],
    sizes: Sequence[int],
    rate_bps: float,
    depth_bytes: float,
) -> np.ndarray:
    """Token level at each decision instant of a token-bucket scan.

    Feeds the arrivals one by one through
    :class:`~repro.diffserv.token_bucket.TokenBucket`'s recurrence (a
    bucket full at t=0, refilled only when time has elapsed, drained
    by each conformant packet) and returns the level each packet sees
    before its ``try_consume``. ``fill >= sizes`` is therefore the
    conformance verdict, and the same array gives a detection trace's
    ``bucket_fill`` and ``token_deficit`` columns. Python lists
    iterate fastest; every value is produced by the same IEEE-754
    operations, in the same order, as the engine's policer.
    """
    rate_bytes = rate_bps / 8.0
    depth = float(depth_bytes)
    tokens = depth
    last = 0.0
    fill: list[float] = []
    append = fill.append
    for now, size in zip(times, sizes):
        elapsed = now - last
        if elapsed > 0:
            # min(depth, tokens + elapsed * rate) as a branch: the
            # same float, in about half the loop's time.
            tokens += elapsed * rate_bytes
            if tokens > depth:
                tokens = depth
            last = now
        append(tokens)
        if tokens >= size:
            tokens -= size
    return np.array(fill, dtype=np.float64)


def _priority_link(
    arrivals: list[float], tx: list[float], is_ef: list[bool]
) -> tuple[list[float], list[int]]:
    """Two-level strict-priority link serving time-ordered arrivals.

    Returns ``(departs, order)``: ``departs[k]`` is packet ``k``'s
    transmission-finish time and ``order`` lists packet indices in
    service order (EF overtakes queued BE, FIFO within a class — the
    engine's :class:`~repro.diffserv.scheduler.PriorityScheduler`).
    Arrivals exactly at a finish instant join the queue before the
    dequeue, matching the engine's event seq ordering on this topology.
    """
    n = len(arrivals)
    departs = [0.0] * n
    order: list[int] = []
    ef: deque[int] = deque()
    be: deque[int] = deque()
    i = 0
    while len(order) < n:
        if not ef and not be:
            # Idle link: the first arrival starts service immediately,
            # before any same-timestamp arrival can be classified.
            k = i
            i += 1
            start = arrivals[k]
        else:
            start = free
            k = ef.popleft() if ef else be.popleft()
        free = start + tx[k]
        while i < n and arrivals[i] <= free:
            (ef if is_ef[i] else be).append(i)
            i += 1
        departs[k] = free
        order.append(k)
    return departs, order


@dataclass
class ScheduleBundle:
    """The deterministic front end of a session, up to the jitter box.

    Everything here is a pure function of (clip, encoding, campus
    rate) — independent of the policing profile and the seed — so one
    bundle is shared across every grid point of a batched sweep.
    """

    fids_arr: np.ndarray  # frame id per packet (int64)
    lens_arr: np.ndarray  # payload bytes per packet (int64)
    sizes_arr: np.ndarray  # wire bytes per packet (int64)
    fids: list[int]
    sizes: list[int]
    emit_times: list[float]  # server emission instants
    campus_departs: list[float]  # campus-LAN finish times

    @property
    def n_packets(self) -> int:
        return len(self.emit_times)


def compute_schedule(
    encoded: EncodedClip,
    cfg: QBoneTestbedConfig,
    start: float = 0.0,
) -> ScheduleBundle:
    """Server emission schedule plus the campus-LAN FIFO recurrence.

    ``start`` offsets the whole session (the server's ``start(at=...)``
    instant); multi-flow aggregates replay the recurrence per flow per
    offset because the emission chain is a clamped recurrence, not a
    shiftable array (``t + (s - t) != s`` in floats).
    """
    fids_arr, lens_arr, dues = message_schedule(encoded)
    emit_times = _emission_times(dues, start=start)
    sizes_arr = lens_arr + UDP_IP_HEADER
    campus_tx = ((sizes_arr * 8) / cfg.campus_lan_rate_bps).tolist()
    campus_departs = _fifo_departs(emit_times, campus_tx)
    return ScheduleBundle(
        fids_arr=fids_arr,
        lens_arr=lens_arr,
        sizes_arr=sizes_arr,
        fids=fids_arr.tolist(),
        sizes=sizes_arr.tolist(),
        emit_times=emit_times,
        campus_departs=campus_departs,
    )


def jitter_releases(
    campus_departs: list[float], seed: int, cfg: QBoneTestbedConfig
) -> list[float]:
    """Replay the jitter element's RNG stream for this seed.

    The draws replicate ``JitterElement.receive`` against the same
    named stream the engine would hand out, including the draw *order*
    (exponential, then the burst Bernoulli, then the conditional
    uniform) — the stream advances differently depending on outcomes,
    so this stays a sequential replay.
    """
    key = zlib.crc32(b"jitter") & 0x7FFFFFFF
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    )
    base = 0.0005  # the QBone testbed's campus base delay
    mean_jitter = cfg.jitter_mean_s
    max_jitter = cfg.jitter_max_s
    burst_p = 0.004
    burst_lo, burst_hi = (0.001, 0.004)
    releases: list[float] = []
    last_release = 0.0
    for a in campus_departs:
        jitter = 0.0
        if mean_jitter > 0:
            jitter = min(float(rng.exponential(mean_jitter)), max_jitter)
        if burst_p > 0 and rng.random() < burst_p:
            jitter += float(rng.uniform(burst_lo, burst_hi))
        release = a + base + jitter
        if release < last_release:
            release = last_release
        last_release = release
        releases.append(release)
    return releases


def shaper_releases(
    arrivals: list[float],
    sizes: list[int],
    rate_bps: float,
    depth_bytes: float,
    max_queue_packets: int = 2000,
) -> tuple[list[float], list[int]]:
    """Analytic replay of :class:`repro.diffserv.shaper.Shaper`.

    Returns ``(out_times, out_ids)``: the instants at which packets
    leave the shaper toward the policer, in release order, and the
    original packet indices (packets dropped by the bounded backlog or
    as oversize are absent). Bit-identity demands the token bucket be
    refilled at exactly the engine's call sites and no others: at a
    conformance check when the backlog is empty (``try_consume`` after
    the short-circuit), when a release is (re)scheduled while none is
    pending (``time_until_conformant``), and at the release instant
    itself (``force_consume``). While a release is pending, arrivals
    leave the bucket untouched.
    """
    rate_bytes = rate_bps / 8.0
    depth = float(depth_bytes)
    tokens = depth
    last_update = 0.0

    out_times: list[float] = []
    out_ids: list[int] = []
    queue: deque[int] = deque()
    pending_time: Optional[float] = None

    def refill(now: float) -> None:
        nonlocal tokens, last_update
        elapsed = now - last_update
        if elapsed > 0:
            tokens = min(depth, tokens + elapsed * rate_bytes)
            last_update = now

    def schedule_release(now: float) -> None:
        # Mirrors Shaper._schedule_release with no release pending:
        # oversize heads are dropped (never conformant) and the next
        # head's wait is the token deficit plus the 1e-7 epsilon.
        nonlocal pending_time
        while queue:
            head = queue[0]
            refill(now)
            if sizes[head] > depth:
                queue.popleft()
                continue
            deficit = sizes[head] - tokens
            wait = 0.0 if deficit <= 0 else deficit / rate_bytes
            pending_time = now + (wait + 1e-7)
            return
        pending_time = None

    def release_head() -> None:
        nonlocal pending_time, tokens
        now = pending_time
        pending_time = None
        k = queue.popleft()
        refill(now)  # force_consume refills, then floors at zero
        t = tokens - sizes[k]
        tokens = t if t > 0.0 else 0.0
        out_times.append(now)
        out_ids.append(k)
        schedule_release(now)

    for i, a in enumerate(arrivals):
        while pending_time is not None and pending_time <= a:
            release_head()
        if not queue:
            # Empty backlog: the engine's try_consume refills here even
            # when the packet turns out non-conformant.
            refill(a)
            if tokens >= sizes[i]:
                tokens -= sizes[i]
                out_times.append(a)
                out_ids.append(i)
                continue
        if len(queue) >= max_queue_packets:
            continue  # DropTailQueue: arrival dropped, release pending
        queue.append(i)
        if pending_time is None:
            schedule_release(a)
    while pending_time is not None:
        release_head()
    return out_times, out_ids


def qbone_config(spec) -> QBoneTestbedConfig:
    """The QBone testbed configuration a qualifying spec runs on."""
    return QBoneTestbedConfig(
        token_rate_bps=spec.token_rate_bps,
        bucket_depth_bytes=spec.bucket_depth_bytes,
        policer_action=(
            PolicerAction.DROP
            if spec.policer_action == "drop"
            else PolicerAction.REMARK_BE
        ),
        use_shaper=spec.use_shaper,
        shaper_rate_bps=spec.shaper_rate_bps,
    )


def policer_outcome(
    mask: np.ndarray,
    action: PolicerAction,
    pol_times: Sequence[float],
    pol_ids: Sequence[int],
    seen_sizes: np.ndarray,
    seen_fids: np.ndarray,
) -> tuple[PolicerStats, list[float], list[int], list[bool]]:
    """Policer counters and survivors for one conformance mask.

    ``mask`` holds the verdict for each packet reaching the policer, at
    ``pol_times`` with ids ``pol_ids``, wire sizes ``seen_sizes`` and
    frame ids ``seen_fids``. Returns ``(stats, arr, surviving, is_ef)``
    as :func:`build_session` takes them: drop forwards the conformant
    packets, remark forwards every packet and restamps the rest BE.
    """
    stats = PolicerStats()
    stats.conformant_packets = int(mask.sum())
    stats.conformant_bytes = int(seen_sizes[mask].sum())
    if action is PolicerAction.DROP:
        dropped = ~mask
        stats.dropped_packets = int(dropped.sum())
        stats.dropped_bytes = int(seen_sizes[dropped].sum())
        stats.dropped_frame_ids.update(np.unique(seen_fids[dropped]).tolist())
        keep = np.flatnonzero(mask).tolist()
        surviving = [pol_ids[j] for j in keep]
        arr = [pol_times[j] for j in keep]
        is_ef = [True] * len(surviving)
    else:  # REMARK_BE forwards everything, restamped
        stats.remarked_packets = int((~mask).sum())
        surviving = list(pol_ids)
        arr = list(pol_times)
        is_ef = mask.tolist()
    return stats, arr, surviving, is_ef


def simulate_qbone_session(spec, encoded: EncodedClip) -> FastPathSession:
    """Run one qualifying spec through the analytic pipeline.

    ``spec`` is an :class:`~repro.core.experiment.ExperimentSpec` that
    passed :func:`repro.core.fastlane.qualifies_for_fastpath`; the
    caller owns qualification (this function assumes the default QBone
    topology, a VideoCharger server, and no recovery machinery).
    """
    cfg = qbone_config(spec)
    sched = compute_schedule(encoded, cfg)
    releases = jitter_releases(sched.campus_departs, spec.seed, cfg)

    # Optional edge shaper between the jitter box and the policer.
    if cfg.use_shaper:
        pol_times, pol_ids = shaper_releases(
            releases,
            sched.sizes,
            cfg.shaper_rate_bps or cfg.token_rate_bps,
            cfg.shaper_depth_bytes,
        )
    else:
        pol_times, pol_ids = releases, list(range(sched.n_packets))

    # Border policer: one token-bucket scan at the release times.
    ids = np.asarray(pol_ids, dtype=np.int64)
    seen_sizes = sched.sizes_arr[ids]
    seen_fids = sched.fids_arr[ids]
    sizes = seen_sizes.tolist()
    fill = bucket_fill(
        pol_times, sizes, cfg.token_rate_bps, cfg.bucket_depth_bytes
    )
    mask = fill >= seen_sizes
    stats, arr, surviving, is_ef = policer_outcome(
        mask, cfg.policer_action, pol_times, pol_ids, seen_sizes, seen_fids
    )

    pol_cols = None
    if spec.capture_trace:
        # The engine's policer tap: one row per packet with the level
        # it saw before try_consume. QBone premarks every packet EF.
        depth = float(cfg.bucket_depth_bytes)
        miss = "drop" if cfg.policer_action is PolicerAction.DROP else "remark"
        conform = mask.tolist()
        fills = fill.tolist()
        reasons = [
            None if ok or miss == "remark"
            else DROP_REASON_OVERSIZE if size > depth
            else DROP_REASON_TOKENS
            for ok, size in zip(conform, sizes)
        ]
        pol_cols = dict(zip(POLICER_TRACE_COLUMNS, (
            list(pol_times),
            list(pol_ids),
            sizes,
            seen_fids.tolist(),
            [int(DSCP.EF)] * len(sizes),
            ["conform" if ok else miss for ok in conform],
            reasons,
            [0.0 if ok else s - f for ok, s, f in zip(conform, sizes, fills)],
            fills,
        )))
    return build_session(
        cfg, encoded, sched, arr, surviving, is_ef, stats, pol_cols
    )


def client_frame_arrays(
    encoded: EncodedClip,
    fids_arr: np.ndarray,
    lens_arr: np.ndarray,
    recv_ids: np.ndarray,
    recv_times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Playout-buffer bookkeeping from delivered-packet tap arrays.

    ``recv_ids`` indexes the flow's own schedule arrays (``fids_arr``,
    ``lens_arr``), in arrival order; ``recv_times`` are the matching
    arrival instants. Returns ``(received_bytes, completion)`` per
    frame — the exact arrays the event-driven PlayoutClient accumulates
    packet by packet. Shared by the single-flow fast path and the
    multi-flow interleaved lane (which calls it once per flow with
    flow-local ids).
    """
    n_frames = encoded.n_frames
    received_bytes = np.zeros(n_frames, dtype=np.int64)
    completion = np.full(n_frames, np.nan)
    if len(recv_ids):
        d_fid = fids_arr[recv_ids]
        d_pay = lens_arr[recv_ids]
        d_time = recv_times
        received_bytes = np.bincount(
            d_fid, weights=d_pay, minlength=n_frames
        ).astype(np.int64)
        # First crossing of the expected byte count, per frame, in
        # arrival order: stable-group by frame, running sum within the
        # group, first index meeting the frame's expected payload.
        expected = np.array(
            [f.size_bytes for f in encoded.frames], dtype=np.int64
        )
        order = np.argsort(d_fid, kind="stable")
        fid_s = d_fid[order]
        pay_s = d_pay[order]
        t_s = d_time[order]
        cum = np.cumsum(pay_s)
        _uniq, starts = np.unique(fid_s, return_index=True)
        counts = np.diff(np.append(starts, len(fid_s)))
        group_base = cum[starts] - pay_s[starts]
        within = cum - np.repeat(group_base, counts)
        done = within >= expected[fid_s]
        done_fids = fid_s[done]
        done_times = t_s[done]
        crossed, first_idx = np.unique(done_fids, return_index=True)
        completion[crossed] = done_times[first_idx]
    return received_bytes, completion


def build_session(
    cfg: QBoneTestbedConfig,
    encoded: EncodedClip,
    sched: ScheduleBundle,
    arr: list[float],
    surviving: list[int],
    is_ef: list[bool],
    stats: PolicerStats,
    pol_cols: Optional[dict] = None,
) -> FastPathSession:
    """Backbone traversal and client bookkeeping for policer survivors.

    ``arr`` holds the policer-exit instant of each surviving packet (in
    exit order), ``surviving`` the original packet ids, ``is_ef`` the
    post-policer codepoint. Everything downstream of the policer is a
    pure function of these, so batched execution reuses this tail
    per *unique* policer outcome rather than per grid point.
    """
    fids = sched.fids
    sizes = sched.sizes
    fids_arr = sched.fids_arr
    lens_arr = sched.lens_arr
    n_packets = sched.n_packets

    # ------------------------------------------------------------------
    # Abilene backbone: three identical hops, strict priority, 8 ms
    # propagation each. With a pure-EF flow (drop action) the priority
    # queue degenerates to FIFO and the cheap recurrence applies.
    # ------------------------------------------------------------------
    hop_prop = cfg.backbone_hop_delay_s
    hop_rate = cfg.backbone_rate_bps
    arr = list(arr)
    hop_sizes = [sizes[k] for k in surviving]
    hop_tx = ((np.array(hop_sizes, dtype=np.int64) * 8) / hop_rate).tolist()
    hop_ids = list(surviving)
    mixed = (not all(is_ef)) and any(is_ef)
    hop_ef = list(is_ef)
    for _hop in range(cfg.backbone_hops):
        if mixed:
            departs, order = _priority_link(arr, hop_tx, hop_ef)
            arr = [departs[k] + hop_prop for k in order]
            hop_ids = [hop_ids[k] for k in order]
            hop_tx = [hop_tx[k] for k in order]
            hop_ef = [hop_ef[k] for k in order]
        else:
            departs = _fifo_departs(arr, hop_tx)
            arr = [d + hop_prop for d in departs]

    # ------------------------------------------------------------------
    # Client side: tap arrays and playout-buffer bookkeeping.
    # ------------------------------------------------------------------
    recv_ids = np.asarray(hop_ids, dtype=np.int64)
    recv_times = np.asarray(arr, dtype=np.float64)

    first_arrival: Optional[float] = arr[0] if hop_ids else None
    received_bytes, completion = client_frame_arrays(
        encoded, fids_arr, lens_arr, recv_ids, recv_times
    )

    trace_payload = None
    if pol_cols is not None:
        # Receiver point: delivered packets in arrival order, carrying
        # the restamped codepoint (EF conform / BE remark), exactly as
        # the engine's client tap records them.
        ef_dscp = int(DSCP.EF)
        be_dscp = int(DSCP.BE)
        ef_by_id = dict(zip(surviving, is_ef))
        recv_cols = {column: [] for column in RECEIVER_TRACE_COLUMNS}
        for pid, t in zip(hop_ids, arr):
            recv_cols["time"].append(t)
            recv_cols["packet_id"].append(pid)
            recv_cols["size"].append(sizes[pid])
            recv_cols["frame_id"].append(fids[pid])
            recv_cols["dscp"].append(ef_dscp if ef_by_id[pid] else be_dscp)
        trace_payload = {
            "version": TRACE_SCHEMA_VERSION,
            "policer": pol_cols,
            "receiver": recv_cols,
        }

    return FastPathSession(
        send_times=np.asarray(sched.emit_times, dtype=np.float64),
        recv_ids=recv_ids,
        recv_times=recv_times,
        policer_stats=stats,
        server_messages=n_packets,
        server_packets=n_packets,
        server_bytes=int(np.sum(sched.sizes_arr)) if n_packets else 0,
        received_packets=len(hop_ids),
        received_bytes=received_bytes,
        completion=completion,
        first_arrival=first_arrival,
        trace_payload=trace_payload,
    )
