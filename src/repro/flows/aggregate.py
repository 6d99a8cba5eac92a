"""Multi-flow aggregate experiments: N sessions, one EF profile.

The paper's experiments police a single video flow. A DiffServ ingress
polices the EF *aggregate*: every admitted session shares one token
bucket, so each flow's conformance depends on who else is bursting at
the same instant. :class:`AggregateSpec` describes that situation — N
member :class:`~repro.core.experiment.ExperimentSpec` flows with
per-flow start offsets and independently derived seeds, one shared
(or, for comparison, per-flow) policer profile, and an optional
best-effort cross-traffic mix on the backbone.

Two execution lanes produce bit-identical results:

* :func:`run_engine_aggregate` (here) builds the fan-in topology in
  the event engine — per-flow campus front ends converging on one
  border router — and is the oracle for small N.
* :func:`repro.flows.multipath.run_multipath` merges the per-flow
  message schedules into one interleaved arrival stream and scans the
  shared bucket in one pass of the single-stream token-bucket kernel,
  making 100–1000-flow aggregates tractable.

Both lanes draw each flow's campus jitter from the same
:func:`flow_jitter_delays` batch (seeded by :func:`derive_flow_seed`),
so the only difference between them is *how* the arithmetic is
scheduled, never *what* is computed. Note the batched draw scheme
differs from the single-flow engine's per-packet stream, so an N=1
aggregate is a distinct experiment from the member spec run alone;
single-flow behavior is untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import zlib
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Sequence

import numpy as np

from repro.core.experiment import (
    RUN_SLACK_S,
    ExperimentResult,
    ExperimentSpec,
    _policer_action,
    assess_playback,
)
from repro.core.runner import ResultSummary
from repro.client.playout import PlayoutClient
from repro.client.reassembly import DatagramReassembler
from repro.diffserv.policer import Policer, PolicerStats
from repro.diffserv.scheduler import PriorityScheduler
from repro.server.videocharger import VideoChargerServer, message_schedule
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.tracer import FlowTracer
from repro.testbeds.crosstraffic import PoissonSource
from repro.testbeds.jitter import JitterElement
from repro.testbeds.qbone import QBoneTestbedConfig
from repro.units import mbps
from repro.video.clips import encode_clip
from repro.vqm.tool import VqmTool

#: Campus front-end constants, matching the single-flow QBone build
#: (qbone.py wires base_delay=0.0005 into its JitterElement) and the
#: JitterElement defaults for contention bursts.
JITTER_BASE_DELAY_S = 0.0005
JITTER_BURST_PROBABILITY = 0.004
JITTER_BURST_RANGE_S = (0.001, 0.004)


def derive_flow_seed(base_seed: int, flow_index: int) -> int:
    """Stable per-flow RNG seed from the aggregate seed and flow index.

    A content hash rather than ``base_seed + index`` so neighbouring
    aggregate seeds cannot collide into overlapping flow streams, and
    a pure function of ``(base_seed, flow_index)`` so a flow's stream
    does not depend on which other flows are in the set or how they
    are ordered.
    """
    payload = f"repro.flows:{base_seed}:{flow_index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def flow_jitter_delays(
    flow_seed: int, n_packets: int, cfg: QBoneTestbedConfig
) -> np.ndarray:
    """Draw one flow's whole campus-delay vector up front.

    Returns the *total* pre-policer delay per packet (base + truncated
    exponential jitter + occasional contention bursts), indexed by
    emission order. Both aggregate lanes call this same function with
    the same derived seed, so the engine's JitterElement (precomputed
    mode) and the fast lane's ``maximum.accumulate`` replay release
    bit-identical timestamps by construction.

    The burst uniforms are drawn unconditionally (``size=n``) so the
    stream consumed is a fixed function of ``n_packets`` — masking
    afterwards keeps the draw order independent of which packets
    actually burst.
    """
    key = zlib.crc32(b"jitter") & 0x7FFFFFFF
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=flow_seed, spawn_key=(key,))
    )
    delays = np.full(n_packets, JITTER_BASE_DELAY_S, dtype=np.float64)
    if cfg.jitter_mean_s > 0:
        delays = delays + np.minimum(
            rng.exponential(cfg.jitter_mean_s, size=n_packets), cfg.jitter_max_s
        )
    burst = rng.random(n_packets) < JITTER_BURST_PROBABILITY
    extra = rng.uniform(*JITTER_BURST_RANGE_S, size=n_packets)
    delays[burst] += extra[burst]
    return delays


#: Fields a member flow may not use inside an aggregate: anything that
#: needs the event loop's feedback cycles, plus per-flow policing and
#: shaping knobs the aggregate owns.
_UNSUPPORTED_FLOW_REASONS = (
    ("testbed", "qbone", "aggregates model the QBone path only"),
    ("server", "videocharger", "aggregates stream VideoCharger CBR only"),
    ("transport", "udp", "aggregates stream UDP only"),
)


@dataclass(frozen=True)
class AggregateSpec:
    """N concurrent flows sharing one EF policing profile.

    ``flows`` holds the member :class:`ExperimentSpec` descriptions;
    their own ``token_rate_bps`` / ``bucket_depth_bytes`` / ``seed``
    fields are ignored — the aggregate owns policing (``policing``
    selects one shared bucket vs one identical bucket per flow) and
    derives each flow's RNG seed from its index via
    :func:`derive_flow_seed`. ``start_offsets`` staggers session
    starts (seconds, one per flow, default all zero).
    """

    flows: tuple = ()
    start_offsets: tuple = ()
    token_rate_bps: float = mbps(1.9)
    bucket_depth_bytes: float = 3000.0
    policing: str = "aggregate"  # aggregate | per-flow
    policer_action: str = "drop"  # drop | remark
    cross_traffic_bps: float = 0.0  # per backbone hop (engine lane only)
    seed: int = 0

    #: Dispatch marker consumed by runner/fastlane/export layers
    #: (ClassVar so dataclasses.asdict / fingerprints skip it).
    is_aggregate: ClassVar[bool] = True

    def __post_init__(self) -> None:
        flows = tuple(self.flows)
        if not flows:
            raise ValueError("an aggregate needs at least one flow")
        offsets = tuple(float(x) for x in self.start_offsets) or (0.0,) * len(
            flows
        )
        if len(offsets) != len(flows):
            raise ValueError(
                f"{len(flows)} flows but {len(offsets)} start offsets"
            )
        if any(off < 0 for off in offsets):
            raise ValueError("start offsets cannot be negative")
        if self.policing not in ("aggregate", "per-flow"):
            raise ValueError(f"unknown policing mode {self.policing!r}")
        if self.policer_action not in ("drop", "remark"):
            raise ValueError(
                f"unknown policer action {self.policer_action!r}"
            )
        for i, flow in enumerate(flows):
            for fname, want, why in _UNSUPPORTED_FLOW_REASONS:
                if getattr(flow, fname) != want:
                    raise ValueError(f"flow {i}: {why}")
            if (
                flow.adaptation
                or flow.arq
                or flow.fec_group
                or flow.feedback_loss
                or flow.client_buffer_frames
                or flow.capture_trace
                or flow.use_shaper
                or flow.cross_traffic_bps
            ):
                raise ValueError(
                    f"flow {i}: adaptation/recovery/shaping/trace/cross "
                    "knobs are not supported inside an aggregate"
                )
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "start_offsets", offsets)

    @property
    def n_flows(self) -> int:
        """Number of member flows."""
        return len(self.flows)

    def flow_ids(self) -> list:
        """Stable per-flow identifiers, ``flow0..flowN-1``."""
        return [f"flow{i}" for i in range(len(self.flows))]

    def with_token_bucket(
        self, token_rate_bps: float, bucket_depth_bytes: float
    ) -> "AggregateSpec":
        """Copy at a different profile (sweep-grid interface)."""
        return replace(
            self,
            token_rate_bps=token_rate_bps,
            bucket_depth_bytes=bucket_depth_bytes,
        )

    @classmethod
    def homogeneous(
        cls,
        base: ExperimentSpec,
        n_flows: int,
        spacing_s: float = 0.0,
        policing: str = "aggregate",
        policer_action: Optional[str] = None,
        token_rate_bps: Optional[float] = None,
        bucket_depth_bytes: Optional[float] = None,
        cross_traffic_bps: float = 0.0,
        seed: Optional[int] = None,
    ) -> "AggregateSpec":
        """N copies of ``base`` starting ``spacing_s`` apart.

        Policing defaults are lifted from ``base`` (so ``sweep
        --flows N`` scales an existing single-flow command line) and
        may be overridden individually.
        """
        if n_flows < 1:
            raise ValueError("n_flows must be at least 1")
        if spacing_s < 0:
            raise ValueError("spacing cannot be negative")
        return cls(
            flows=tuple(base for _ in range(n_flows)),
            start_offsets=tuple(i * spacing_s for i in range(n_flows)),
            token_rate_bps=(
                base.token_rate_bps if token_rate_bps is None else token_rate_bps
            ),
            bucket_depth_bytes=(
                base.bucket_depth_bytes
                if bucket_depth_bytes is None
                else bucket_depth_bytes
            ),
            policing=policing,
            policer_action=(
                base.policer_action if policer_action is None else policer_action
            ),
            cross_traffic_bps=cross_traffic_bps,
            seed=base.seed if seed is None else seed,
        )


@dataclass(frozen=True)
class AggregateSummary(ResultSummary):
    """One aggregate run: per-flow summaries plus their rollup.

    The inherited scalar fields hold the aggregate rollup (means for
    quality fractions, sums for counters — see
    :func:`rollup_summaries`), so sweep tables, CSV export, and the
    sampler read an aggregate point exactly like a single-flow one.
    ``flow_summaries`` keeps the full per-flow records.
    """

    n_flows: int = 0
    flow_summaries: tuple = ()

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        if data.get("flow_trace") is None:
            data.pop("flow_trace", None)
        data["flow_summaries"] = [fs.to_dict() for fs in self.flow_summaries]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateSummary":
        data = dict(data)
        members = tuple(
            ResultSummary.from_dict(d) for d in data.pop("flow_summaries", ())
        )
        names = {f.name for f in dataclasses.fields(cls)} - {"flow_summaries"}
        return cls(
            flow_summaries=members,
            **{k: v for k, v in data.items() if k in names},
        )


def rollup_summaries(flow_summaries: Sequence[ResultSummary]) -> AggregateSummary:
    """Fold per-flow summaries into one :class:`AggregateSummary`.

    Both lanes call this on their per-flow results (always in flow
    order), so rollup bit-identity follows from per-flow bit-identity.
    Quality fractions average across flows; packet/byte/stall counters
    sum; the network block averages delay and jitter weighted by
    delivered packets, loss weighted by sent packets, and takes the
    worst flow for the tail percentiles.
    """
    flows = tuple(flow_summaries)
    if not flows:
        raise ValueError("cannot roll up an empty flow set")
    n = len(flows)

    def fmean(name: str) -> float:
        total = 0.0
        for s in flows:
            total += getattr(s, name)
        return total / n

    conformant = sum(s.conformant_packets for s in flows)
    dropped = sum(s.dropped_packets for s in flows)
    remarked = sum(s.remarked_packets for s in flows)
    total_packets = conformant + dropped + remarked

    delivered = [s.client_packets for s in flows]
    sent = [s.server_packets for s in flows]
    runs = [int(s.network.get("loss_runs", 0)) for s in flows]

    def wavg(key: str, weights) -> float:
        total_w = sum(weights)
        if not total_w:
            return 0.0
        acc = 0.0
        for s, w in zip(flows, weights):
            acc += float(s.network.get(key, 0.0)) * w
        return acc / total_w

    def worst(key: str) -> float:
        return max(float(s.network.get(key, 0.0)) for s in flows)

    network = {
        "delay_mean_s": wavg("delay_mean_s", delivered),
        "delay_p95_s": worst("delay_p95_s"),
        "delay_p99_s": worst("delay_p99_s"),
        "delay_max_s": worst("delay_max_s"),
        "jitter_rfc3550_s": wavg("jitter_rfc3550_s", delivered),
        "loss_fraction": wavg("loss_fraction", sent),
        "loss_runs": sum(runs),
        "loss_mean_run": wavg("loss_mean_run", runs),
        "loss_max_run": max(
            int(s.network.get("loss_max_run", 0)) for s in flows
        ),
    }
    return AggregateSummary(
        quality_score=fmean("quality_score"),
        lost_frame_fraction=fmean("lost_frame_fraction"),
        packet_drop_fraction=(
            dropped / total_packets if total_packets else 0.0
        ),
        frozen_fraction=fmean("frozen_fraction"),
        rebuffer_events=sum(s.rebuffer_events for s in flows),
        total_stall_s=sum(s.total_stall_s for s in flows),
        conformant_packets=conformant,
        dropped_packets=dropped,
        remarked_packets=remarked,
        dropped_bytes=sum(s.dropped_bytes for s in flows),
        server_aborted=any(s.server_aborted for s in flows),
        server_packets=sum(sent),
        client_packets=sum(delivered),
        network=network,
        n_flows=n,
        flow_summaries=flows,
    )


def contended_flow_specs(agg: AggregateSpec) -> list:
    """Single-flow stand-ins for running an aggregate one flow at a time.

    This is the pre-aggregate way to ask an aggregate question with
    single-flow tools: simulate each member alone against the shared
    policing profile, with the other members' offered load standing in
    as best-effort cross traffic on every backbone hop. Cross traffic
    disqualifies the single-flow fast path, so each stand-in costs a
    full event-engine run — and the approximation is still wrong in a
    way no per-flow model can fix: the stand-in cross traffic competes
    for link capacity through the priority scheduler but never for the
    *EF token bucket*, so shared-policer drops are invisible to it.
    The flows scale benchmark uses these specs as its baseline for
    both cost and answer quality; start offsets are dropped (the
    stand-in has no notion of the other flows' phases).
    """
    total = sum(flow.encoding_rate_bps for flow in agg.flows)
    return [
        replace(
            flow,
            token_rate_bps=agg.token_rate_bps,
            bucket_depth_bytes=agg.bucket_depth_bytes,
            policer_action=agg.policer_action,
            seed=derive_flow_seed(agg.seed, i),
            cross_traffic_bps=total - flow.encoding_rate_bps,
        )
        for i, flow in enumerate(agg.flows)
    ]


def aggregate_config(agg: AggregateSpec) -> QBoneTestbedConfig:
    """The wide-area path knobs an aggregate implies."""
    return QBoneTestbedConfig(
        token_rate_bps=agg.token_rate_bps,
        bucket_depth_bytes=agg.bucket_depth_bytes,
        policer_action=_policer_action(agg.policer_action),
        cross_traffic_rate_bps=agg.cross_traffic_bps,
    )


class _PerFlowPolicerStats:
    """Trace-sink accumulator: per-flow counters on a shared policer.

    Attaching a trace sink never perturbs the token arithmetic (the
    policer pre-reads the fill, making try_consume's refill a no-op),
    so this observes the shared bucket without changing it.
    """

    def __init__(self, flow_ids: Sequence[str]):
        self.stats = {fid: PolicerStats() for fid in flow_ids}

    def __call__(self, event) -> None:
        stats = self.stats.get(event.flow_id)
        if stats is None:
            return
        if event.verdict == "conform":
            stats.conformant_packets += 1
            stats.conformant_bytes += event.size
        elif event.verdict == "drop":
            stats.dropped_packets += 1
            stats.dropped_bytes += event.size
            if event.frame_id is not None:
                stats.dropped_frame_ids.add(event.frame_id)
        else:  # remark / demote
            stats.remarked_packets += 1


def run_engine_aggregate(
    agg: AggregateSpec, vqm_tool: Optional[VqmTool] = None
) -> AggregateSummary:
    """Discrete-event lane: the bit-checked oracle for aggregates.

    Topology (fan-in over the single-flow QBone path): each flow gets
    its own campus front end — server, tap, campus LAN, jitter element
    replaying that flow's precomputed delay vector — converging on one
    border router. In ``aggregate`` mode the border carries the single
    shared policer; in ``per-flow`` mode each flow passes its own
    policer (same profile) at a per-flow edge router first. Past the
    border, flows share the Abilene chain and are demultiplexed by
    flow id to per-flow client stacks.
    """
    cfg = aggregate_config(agg)
    engine = Engine(seed=agg.seed)
    n = agg.n_flows
    flow_ids = agg.flow_ids()
    encodeds = [
        encode_clip(f.clip, f.codec, f.encoding_rate_bps) for f in agg.flows
    ]

    # Client side: per-flow stacks behind a flow-id demux. Cross
    # traffic (when enabled) exits through the default route.
    demux = Router("demux")
    demux.set_default_route(Host("cross-sink"))
    clients, client_taps = [], []
    for i, flow in enumerate(agg.flows):
        host = Host(f"client{i}")
        tap = FlowTracer(
            engine, sink=host, flow_id=flow_ids[i], name=f"client-tap{i}"
        )
        demux.add_route(flow_ids[i], tap)
        client = PlayoutClient(
            engine,
            encodeds[i],
            startup_delay=flow.startup_delay_s,
            decode_mode=flow.decode_mode,
            buffer_cap_frames=flow.client_buffer_frames,
        )
        host.attach(DatagramReassembler(engine, sink=client))
        clients.append(client)
        client_taps.append(tap)

    # Shared backbone, built back to front (same shape as qbone.py).
    next_sink: object = demux
    for hop in range(cfg.backbone_hops, 0, -1):
        link = Link(
            engine,
            rate_bps=cfg.backbone_rate_bps,
            sink=next_sink,
            queue=PriorityScheduler(),
            propagation_delay=cfg.backbone_hop_delay_s,
            name=f"abilene-{hop}",
        )
        if cfg.cross_traffic_rate_bps > 0:
            PoissonSource(
                engine,
                link,
                rate_bps=cfg.cross_traffic_rate_bps,
                flow_id=f"cross-hop{hop}",
            ).start()
        next_sink = link

    # Border router; in aggregate mode it polices the merged stream.
    border = Router("border")
    shared_policer: Optional[Policer] = None
    if agg.policing == "aggregate":
        shared_policer = Policer(
            engine,
            rate_bps=cfg.token_rate_bps,
            depth_bytes=cfg.bucket_depth_bytes,
            action=cfg.policer_action,
        )
        border.add_ingress_stage(shared_policer)
    for fid in flow_ids:
        border.add_route(fid, next_sink)
    border.set_default_route(next_sink)

    per_flow_stats: dict = {}
    if shared_policer is not None:
        accumulator = _PerFlowPolicerStats(flow_ids)
        shared_policer.set_trace_sink(accumulator)
        per_flow_stats = accumulator.stats

    # Per-flow campus front ends into the border.
    servers, server_taps = [], []
    for i, flow in enumerate(agg.flows):
        first_hop: object = border
        if agg.policing == "per-flow":
            edge = Router(f"edge{i}")
            policer = Policer(
                engine,
                rate_bps=cfg.token_rate_bps,
                depth_bytes=cfg.bucket_depth_bytes,
                action=cfg.policer_action,
            )
            edge.add_ingress_stage(policer)
            edge.set_default_route(border)
            policer.set_drop_listener(clients[i].note_policer_drop)
            per_flow_stats[flow_ids[i]] = policer.stats
            first_hop = edge
        else:
            shared_policer.add_drop_listener(
                clients[i].note_policer_drop, flow_id=flow_ids[i]
            )
        fids, _, _ = message_schedule(encodeds[i])
        delays = flow_jitter_delays(
            derive_flow_seed(agg.seed, i), len(fids), cfg
        )
        jitter = JitterElement(
            engine,
            sink=first_hop,
            base_delay=JITTER_BASE_DELAY_S,
            mean_jitter=cfg.jitter_mean_s,
            max_jitter=cfg.jitter_max_s,
            delays=delays,
        )
        campus = Link(
            engine,
            rate_bps=cfg.campus_lan_rate_bps,
            sink=jitter,
            name=f"remote-campus-lan{i}",
        )
        tap = FlowTracer(
            engine, sink=campus, flow_id=flow_ids[i], name=f"server-tap{i}"
        )
        server = VideoChargerServer(
            engine, encodeds[i], tap, flow_id=flow_ids[i]
        )
        servers.append(server)
        server_taps.append(tap)

    for i, server in enumerate(servers):
        server.start(at=agg.start_offsets[i])
    horizon = max(
        agg.start_offsets[i]
        + encodeds[i].duration_s
        + agg.flows[i].startup_delay_s
        for i in range(n)
    )
    engine.run(until=horizon + RUN_SLACK_S)

    from repro.core.netmetrics import summarize_path

    flow_summaries = []
    for i, flow in enumerate(agg.flows):
        record = clients[i].finalize()
        trace, vqm = assess_playback(flow, record, vqm_tool)
        extras = {
            "server_packets": servers[i].stats.packets_sent,
            "client_packets": getattr(clients[i], "received_packets", 0),
            "network": summarize_path(
                server_taps[i].records, client_taps[i].records
            ),
        }
        result = ExperimentResult(
            spec=flow,
            vqm=vqm,
            lost_frame_fraction=record.lost_frame_fraction,
            policer_stats=per_flow_stats[flow_ids[i]],
            trace=trace,
            client_record=record,
            server_aborted=servers[i].stats.aborted,
            extras=extras,
        )
        flow_summaries.append(ResultSummary.from_result(result))
    return rollup_summaries(flow_summaries)


def run_aggregate(
    agg: AggregateSpec, vqm_tool: Optional[VqmTool] = None
) -> AggregateSummary:
    """Dispatch an aggregate to the interleaved lane or the engine.

    ``REPRO_FASTPATH`` governs aggregates as it governs single flows:
    ``auto`` takes the interleaved lane when the aggregate qualifies,
    ``0`` forces the engine fan-in, and ``1`` raises
    :class:`~repro.core.fastlane.FastpathUnsupported` for an aggregate
    the interleaved lane cannot serve. Because the lanes are
    bit-identical the choice is invisible to caches and fingerprints.
    """
    from repro.core.fastlane import FastpathUnsupported, fastpath_mode
    from repro.flows import multipath

    mode = fastpath_mode()
    if mode != "0" and multipath.qualifies_for_flowpath(agg):
        return multipath.run_multipath(agg, vqm_tool=vqm_tool)
    if mode == "1":
        raise FastpathUnsupported(
            f"REPRO_FASTPATH=1 but the aggregate does not qualify for the "
            f"interleaved lane: {agg!r}"
        )
    return run_engine_aggregate(agg, vqm_tool=vqm_tool)
