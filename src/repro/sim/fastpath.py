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

Past the policer, every lane composes the same three stages:
:func:`policer_outcome` (per-flow counters and the forwarded packets),
:func:`backbone` (the Abilene hops: FIFO recurrences for a stream of
one class, the strict-priority replay for a mixed one) and
:func:`flow_session` (one flow's tap arrays and playout bookkeeping).
:func:`build_session` composes them for one single-flow verdict mask;
the scalar path calls it once per run and the batch lane once per
unique mask. :func:`repro.flows.multipath.run_multipath` composes them
over a merged multi-flow stream.

Before the policer, every lane takes its server schedule and jitter
replay from :func:`front_end_scope`'s memo, so all the lane calls of
one request (a recommend's probe rounds, a sweep's scheduler windows)
compute each once.

See DESIGN.md §8 for the qualification rules and the equivalence test
contract (``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
from repro.testbeds.jitter import (
    BURST_DELAY_RANGE_S,
    BURST_PROBABILITY,
    CAMPUS_BASE_DELAY_S,
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
    server_packets: int
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
    bundle serves every lane call of a request (:class:`FrontEndMemo`).
    """

    fids_arr: np.ndarray  # frame id per packet (int64)
    lens_arr: np.ndarray  # payload bytes per packet (int64)
    sizes_arr: np.ndarray  # wire bytes per packet (int64)
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
        sizes=sizes_arr.tolist(),
        emit_times=emit_times,
        campus_departs=campus_departs,
    )


class FrontEndMemo:
    """The schedules and jitter replays computed so far in one request.

    A schedule is keyed by the clip version (clip, codec, encoding
    rate), the campus-LAN rate and the start offset; a jitter replay by
    its zero-offset schedule's key, the seed and the jitter element's
    mean and cap. Both are pure functions of their keys, so a hit
    returns the very lists the first call built. Callers only read
    them. A miss calls :func:`compute_schedule` or
    :func:`jitter_releases` through this module's globals. There is no
    lock: the scheduler runs every in-process unit on its event-loop
    thread, and two threads missing one key at once would only both
    compute the same value.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._schedules: dict = {}
        self._releases: dict = {}

    @staticmethod
    def _schedule_key(
        encoded: EncodedClip, cfg: QBoneTestbedConfig, start: float
    ) -> tuple:
        return (
            encoded.clip_name,
            encoded.codec,
            encoded.target_rate_bps,
            cfg.campus_lan_rate_bps,
            start,
        )

    def schedule(
        self, encoded: EncodedClip, cfg: QBoneTestbedConfig, start: float = 0.0
    ) -> ScheduleBundle:
        """:func:`compute_schedule`, computed once per key."""
        key = self._schedule_key(encoded, cfg, start)
        sched = self._schedules.get(key)
        if sched is None:
            sched = self._schedules[key] = compute_schedule(encoded, cfg, start)
        return sched

    def releases(
        self, encoded: EncodedClip, cfg: QBoneTestbedConfig, seed: int
    ) -> list[float]:
        """:func:`jitter_releases` over the zero-offset schedule, once per key."""
        key = (
            self._schedule_key(encoded, cfg, 0.0),
            seed,
            cfg.jitter_mean_s,
            cfg.jitter_max_s,
        )
        releases = self._releases.get(key)
        if releases is None:
            campus_departs = self.schedule(encoded, cfg).campus_departs
            releases = jitter_releases(campus_departs, seed, cfg)
            self._releases[key] = releases
        return releases


_front_end: ContextVar[Optional[FrontEndMemo]] = ContextVar(
    "front_end", default=None
)


@contextmanager
def front_end_scope() -> Iterator[FrontEndMemo]:
    """Share schedules and jitter replays across the calls of one request.

    Yields the active :class:`FrontEndMemo`, opening one when none is
    active. A nested scope reuses the outer memo, and the outermost
    one drops it on exit, so nothing outlives its request. The memo
    lives in a context variable, which ``asyncio.run`` and
    ``asyncio.to_thread`` carry into the scheduler's task and threads.
    A forked worker process inherits the variable but not the scope: a
    memo opened by another process counts as none.
    """
    memo = _front_end.get()
    if memo is not None and memo.pid == os.getpid():
        yield memo
        return
    memo = FrontEndMemo()
    token = _front_end.set(memo)
    try:
        yield memo
    finally:
        _front_end.reset(token)


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
    base = CAMPUS_BASE_DELAY_S
    mean_jitter = cfg.jitter_mean_s
    max_jitter = cfg.jitter_max_s
    burst_p = BURST_PROBABILITY
    burst_lo, burst_hi = BURST_DELAY_RANGE_S
    # Bound once: each call returns a Python float. numpy computes
    # exponential(scale) as scale * standard_exponential(), so the
    # product below is the engine's draw, bit for bit, and the
    # branches are its min() and max() clamps.
    standard_exponential = rng.standard_exponential
    random = rng.random
    uniform = rng.uniform
    releases: list[float] = []
    append = releases.append
    last_release = 0.0
    for a in campus_departs:
        jitter = 0.0
        if mean_jitter > 0:
            jitter = mean_jitter * standard_exponential()
            if jitter > max_jitter:
                jitter = max_jitter
        if burst_p > 0 and random() < burst_p:
            jitter += uniform(burst_lo, burst_hi)
        release = a + base + jitter
        if release < last_release:
            release = last_release
        last_release = release
        append(release)
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
    sizes: np.ndarray,
    fids: np.ndarray,
    flows: Optional[np.ndarray] = None,
    n_flows: int = 1,
) -> tuple[list[PolicerStats], Optional[np.ndarray]]:
    """Per-flow policer counters and the packets the policer forwards.

    ``mask`` holds the verdict for each packet reaching the policer,
    ``sizes`` its wire bytes, ``fids`` its frame id and ``flows`` its
    flow index (``None``: one flow). Returns one :class:`PolicerStats`
    per flow and the positions drop forwards, in policer-exit order;
    remark forwards every packet, restamping the misses BE, so its
    positions are ``None``. Each counter is one ``bincount`` for any
    number of flows: byte sums stay exact (far below 2**53), and the
    dropped frame-id sets come from one unique pass over (flow, frame)
    pairs.
    """
    if flows is None:
        flows = np.zeros(len(mask), dtype=np.int64)
    miss = ~mask
    hit_flows = flows[mask]
    miss_flows = flows[miss]
    counts = zip(
        np.bincount(hit_flows, minlength=n_flows).tolist(),
        np.bincount(hit_flows, weights=sizes[mask], minlength=n_flows).tolist(),
        np.bincount(miss_flows, minlength=n_flows).tolist(),
        np.bincount(miss_flows, weights=sizes[miss], minlength=n_flows).tolist(),
    )
    drop = action is PolicerAction.DROP
    stats = []
    for hits, hit_bytes, misses, miss_bytes in counts:
        st = PolicerStats(conformant_packets=hits, conformant_bytes=int(hit_bytes))
        if drop:
            st.dropped_packets = misses
            st.dropped_bytes = int(miss_bytes)
        else:
            st.remarked_packets = misses
        stats.append(st)
    if not drop:
        return stats, None
    dropped = fids[miss]
    if dropped.size:
        base = int(dropped.min())
        span = int(dropped.max()) - base + 1
        pairs = np.unique(miss_flows * span + (dropped - base))
        bounds = np.searchsorted(pairs // span, np.arange(n_flows + 1)).tolist()
        pair_fids = (pairs % span + base).tolist()
        for st, lo, hi in zip(stats, bounds, bounds[1:]):
            st.dropped_frame_ids = set(pair_fids[lo:hi])
    return stats, np.flatnonzero(mask)


def backbone(
    cfg: QBoneTestbedConfig,
    arr: list[float],
    tx: list[float],
    is_ef: Optional[list[bool]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The Abilene hops from the policer to the client.

    ``arr`` holds the policer-exit instant of each forwarded packet, in
    exit order, ``tx`` its per-hop transmission time and ``is_ef`` its
    codepoint (``None``: all EF). Returns the client arrival instants
    and, in the same arrival order, each packet's input position. The
    hops are three identical strict-priority links with a fixed
    propagation delay. A stream of one class (drop's pure EF, or remark
    where every packet conforms or none does) has nothing to overtake,
    so each hop is the FIFO recurrence of :func:`_fifo_departs`, which
    serves it exactly as the priority queue would, in identity order.
    One pass over the packets carries all three hops' finish times:
    FIFO hops keep the packet order, so the pass runs each hop's
    recurrence on the same values, in the same order, as three
    ``_fifo_departs`` passes would, in about half their time.
    """
    if cfg.backbone_hops != 3:
        raise ValueError(
            f"the Abilene path has 3 backbone hops, not {cfg.backbone_hops}"
        )
    prop = cfg.backbone_hop_delay_s
    n = len(arr)
    if is_ef is None or sum(is_ef) in (0, n):
        out: list[float] = []
        append = out.append
        free1 = free2 = free3 = float("-inf")
        for a, t in zip(arr, tx):
            free1 = (a if a > free1 else free1) + t
            a = free1 + prop
            free2 = (a if a > free2 else free2) + t
            a = free2 + prop
            free3 = (a if a > free3 else free3) + t
            append(free3 + prop)
        return np.asarray(out, dtype=np.float64), np.arange(n)
    order = list(range(n))
    for _hop in range(cfg.backbone_hops):
        departs, served = _priority_link(arr, tx, is_ef)
        arr = [departs[k] + prop for k in served]
        tx = [tx[k] for k in served]
        is_ef = [is_ef[k] for k in served]
        order = [order[k] for k in served]
    return np.asarray(arr, dtype=np.float64), np.asarray(order, dtype=np.int64)


def flow_session(
    encoded: EncodedClip,
    sched: ScheduleBundle,
    recv_ids: np.ndarray,
    recv_times: np.ndarray,
    stats: PolicerStats,
    trace_payload: Optional[dict] = None,
) -> FastPathSession:
    """One flow's session from its delivered-packet tap arrays.

    ``recv_ids`` index the flow's own schedule ``sched``, in arrival
    order, and ``recv_times`` are the matching arrival instants. The
    per-frame ``received_bytes`` and ``completion`` arrays are exactly
    the ones the event-driven PlayoutClient accumulates packet by
    packet.
    """
    n_frames = encoded.n_frames
    received_bytes = np.zeros(n_frames, dtype=np.int64)
    completion = np.full(n_frames, np.nan)
    if len(recv_ids):
        d_fid = sched.fids_arr[recv_ids]
        d_pay = sched.lens_arr[recv_ids]
        received_bytes = np.bincount(
            d_fid, weights=d_pay, minlength=n_frames
        ).astype(np.int64)
        # First crossing of the expected byte count, per frame, in
        # arrival order: stable-group by frame, running sum within the
        # group, first index meeting the frame's expected payload.
        expected = encoded.frame_sizes
        order = np.argsort(d_fid, kind="stable")
        fid_s = d_fid[order]
        pay_s = d_pay[order]
        t_s = recv_times[order]
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
    return FastPathSession(
        send_times=np.asarray(sched.emit_times, dtype=np.float64),
        recv_ids=recv_ids,
        recv_times=recv_times,
        policer_stats=stats,
        server_packets=sched.n_packets,
        received_packets=len(recv_ids),
        received_bytes=received_bytes,
        completion=completion,
        first_arrival=float(recv_times[0]) if len(recv_ids) else None,
        trace_payload=trace_payload,
    )


def simulate_qbone_session(spec, encoded: EncodedClip) -> FastPathSession:
    """Run one qualifying spec through the analytic pipeline.

    ``spec`` is an :class:`~repro.core.experiment.ExperimentSpec` that
    passed :func:`repro.core.fastlane.qualifies_for_fastpath`; the
    caller owns qualification (this function assumes the default QBone
    topology, a VideoCharger server, and no recovery machinery).
    """
    cfg = qbone_config(spec)
    with front_end_scope() as front:
        sched = front.schedule(encoded, cfg)
        releases = front.releases(encoded, cfg, spec.seed)

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
        cfg, encoded, sched, pol_times, ids, seen_sizes, seen_fids, mask,
        pol_cols,
    )


def build_session(
    cfg: QBoneTestbedConfig,
    encoded: EncodedClip,
    sched: ScheduleBundle,
    pol_times: Sequence[float],
    pol_ids: np.ndarray,
    sizes: np.ndarray,
    fids: np.ndarray,
    mask: np.ndarray,
    pol_cols: Optional[dict] = None,
) -> FastPathSession:
    """Policer accounting, backbone and client side for one verdict mask.

    ``mask`` holds the verdict for each packet reaching the policer, at
    ``pol_times`` with ids ``pol_ids``, wire sizes ``sizes`` and frame
    ids ``fids``. Everything downstream of the policer is a pure
    function of these, so the batch lane calls this once per *unique*
    mask rather than per grid point. ``pol_cols`` are a detection
    trace's policer columns; the receiver columns are added here.
    """
    [stats], keep = policer_outcome(mask, cfg.policer_action, sizes, fids)
    fwd = slice(None) if keep is None else keep
    recv_times, order = backbone(
        cfg,
        np.asarray(pol_times)[fwd].tolist(),
        ((sizes[fwd] * 8) / cfg.backbone_rate_bps).tolist(),
        mask.tolist() if keep is None else None,
    )
    pos = order if keep is None else keep[order]  # policer-input positions
    recv_ids = pol_ids[pos]

    trace_payload = None
    if pol_cols is not None:
        # Receiver point: delivered packets in arrival order, carrying
        # the restamped codepoint (EF conform / BE remark), exactly as
        # the engine's client tap records them.
        recv_cols = dict(zip(RECEIVER_TRACE_COLUMNS, (
            recv_times.tolist(),
            recv_ids.tolist(),
            sched.sizes_arr[recv_ids].tolist(),
            sched.fids_arr[recv_ids].tolist(),
            np.where(mask[pos], int(DSCP.EF), int(DSCP.BE)).tolist(),
        )))
        trace_payload = {
            "version": TRACE_SCHEMA_VERSION,
            "policer": pol_cols,
            "receiver": recv_cols,
        }
    return flow_session(encoded, sched, recv_ids, recv_times, stats, trace_payload)
