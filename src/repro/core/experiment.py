"""Single-experiment pipeline.

One experiment = one streaming session through one network
configuration, assessed offline exactly as the paper did:

1. encode the clip (cached),
2. build the testbed and wire server → network → client,
3. run the discrete-event simulation to completion,
4. replay the client's timing record through the renderer emulation,
5. feed the display trace to the VQM tool against the chosen
   reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.client.playout import ClientRecord, PlayoutClient
from repro.client.reassembly import DatagramReassembler
from repro.client.renderer import DisplayTrace, RendererEmulation
from repro.diffserv.dscp import DSCP
from repro.diffserv.policer import PolicerAction, PolicerStats
from repro.server.largeudp import LargeDatagramServer
from repro.testbeds.af_bottleneck import AfBottleneck, AfBottleneckConfig
from repro.server.transport import TcpReceiver, TcpSender
from repro.server.videocharger import VideoChargerServer
from repro.server.wmt import WindowsMediaServer
from repro.sim.engine import Engine
from repro.testbeds.local import LocalTestbed, LocalTestbedConfig
from repro.testbeds.qbone import QBoneTestbed, QBoneTestbedConfig
from repro.units import mbps
from repro.video.clips import clip_features, encode_clip
from repro.vqm.tool import VqmResult, VqmTool

#: Extra simulated time past the nominal clip duration, covering the
#: startup buffer, retransmissions, and adaptation wobble.
RUN_SLACK_S = 45.0

#: Allowed values of the spec's closed-set string fields.
SPEC_CHOICES = {
    "server": ("videocharger", "adaptive-vc", "wmt", "largeudp"),
    "transport": ("udp", "tcp"),
    "testbed": ("qbone", "local", "af"),
    "policer_action": ("drop", "remark"),
    "reference": ("transmitted", "fixed"),
    "decode_mode": ("gop", "independent"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one run (one point on a paper figure).

    Construction rejects a token rate or bucket depth that is not
    finite and positive, and any closed-set string field outside
    :data:`SPEC_CHOICES`: such a spec would otherwise run and return a
    cacheable 100%-loss result, or fail only once simulation started.
    """

    clip: str = "lost"
    codec: str = "mpeg1"
    encoding_rate_bps: Optional[float] = None  # codec default if None
    server: str = "videocharger"  # videocharger | adaptive-vc | wmt | largeudp
    transport: str = "udp"  # udp | tcp  (tcp: wmt only)
    testbed: str = "qbone"  # qbone | local | af
    token_rate_bps: float = mbps(1.9)
    bucket_depth_bytes: float = 3000.0
    policer_action: str = "drop"  # drop | remark
    use_shaper: bool = False
    shaper_rate_bps: Optional[float] = None
    cross_traffic_bps: float = 0.0
    reference: str = "transmitted"  # transmitted | fixed
    fixed_reference_rate_bps: float = mbps(1.7)
    startup_delay_s: float = 2.0
    decode_mode: str = "gop"  # gop | independent
    adaptation: bool = False
    # --- application-layer error control (repro.recovery) ---
    arq: bool = False  # selective-repeat ARQ over the feedback channel
    fec_group: int = 0  # XOR parity per k data packets (0 = off)
    feedback_loss: float = 0.0  # loss rate of the client→server path
    feedback_rtt_s: float = 0.02  # round-trip time of that path
    client_buffer_frames: int = 0  # playout buffer cap (0 = unbounded)
    capture_trace: bool = False  # per-packet detection trace (repro.detect)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("token_rate_bps", "bucket_depth_bytes"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive (got {value!r})")
        for name, choices in SPEC_CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r} (expected one of {', '.join(choices)})"
                )

    def with_token_bucket(
        self, token_rate_bps: float, bucket_depth_bytes: float
    ) -> "ExperimentSpec":
        """Copy of this spec at a different token-bucket point."""
        return replace(
            self,
            token_rate_bps=token_rate_bps,
            bucket_depth_bytes=bucket_depth_bytes,
        )


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    spec: ExperimentSpec
    vqm: VqmResult
    lost_frame_fraction: float
    policer_stats: PolicerStats
    trace: DisplayTrace
    client_record: ClientRecord
    server_aborted: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def quality_score(self) -> float:
        """The clip-level VQM score (0 best, 1 worst)."""
        return self.vqm.clip_score

    @property
    def packet_drop_fraction(self) -> float:
        """Fraction of the flow's packets the policer discarded."""
        return self.policer_stats.drop_fraction


def _policer_action(name: str) -> PolicerAction:
    try:
        return {
            "drop": PolicerAction.DROP,
            "remark": PolicerAction.REMARK_BE,
        }[name]
    except KeyError:
        raise ValueError(f"unknown policer action {name!r}") from None


def _build_testbed(spec: ExperimentSpec, engine: Engine):
    if spec.testbed == "qbone":
        config = QBoneTestbedConfig(
            token_rate_bps=spec.token_rate_bps,
            bucket_depth_bytes=spec.bucket_depth_bytes,
            policer_action=_policer_action(spec.policer_action),
            cross_traffic_rate_bps=spec.cross_traffic_bps,
            use_shaper=spec.use_shaper,
            shaper_rate_bps=spec.shaper_rate_bps,
        )
        return QBoneTestbed(engine, config)
    if spec.testbed == "af":
        af_config = AfBottleneckConfig(
            committed_rate_bps=spec.token_rate_bps,
            cbs_bytes=spec.bucket_depth_bytes,
            cross_traffic_rate_bps=spec.cross_traffic_bps,
        )
        return AfBottleneck(engine, af_config)
    if spec.testbed == "local":
        config = LocalTestbedConfig(
            token_rate_bps=spec.token_rate_bps,
            bucket_depth_bytes=spec.bucket_depth_bytes,
            policer_action=_policer_action(spec.policer_action),
            use_shaper=spec.use_shaper,
            shaper_rate_bps=spec.shaper_rate_bps,
            cross_traffic_peak_bps=spec.cross_traffic_bps,
        )
        return LocalTestbed(engine, config)
    raise ValueError(f"unknown testbed {spec.testbed!r}")


def _build_server(
    spec: ExperimentSpec, engine, encoded, testbed, client, wire_feedback=True
):
    """Instantiate the server model and wire its feedback channels.

    ``wire_feedback=False`` skips the direct client→server loss-report
    shortcut; the recovery session owns that loop instead (reports then
    travel over the modeled, lossy feedback channel).
    """
    premark = DSCP.EF if spec.testbed == "qbone" else None
    if spec.server == "videocharger":
        if spec.transport != "udp":
            raise ValueError("the VideoCharger model streams UDP only")
        return VideoChargerServer(
            engine, encoded, testbed.ingress, premark_dscp=premark
        )
    if spec.server == "wmt":
        if spec.transport == "tcp":
            # Same flow id as UDP streaming so the edge classifier and
            # policer treat the TCP stream as the video flow.
            sender = TcpSender(engine, sink=testbed.ingress, flow_id="video")
            receiver = TcpReceiver(engine, on_deliver=client.on_tcp_deliver)
            sender.attach_receiver(receiver)
            testbed.client_host.attach(receiver)
            server = WindowsMediaServer(
                engine,
                encoded,
                testbed.ingress,
                transport="tcp",
                tcp_sender=sender,
                premark_dscp=premark,
                adaptation=spec.adaptation,
            )
        else:
            server = WindowsMediaServer(
                engine,
                encoded,
                testbed.ingress,
                transport="udp",
                premark_dscp=premark,
                adaptation=spec.adaptation,
            )
        if spec.adaptation and wire_feedback:
            client.set_feedback(lambda loss, _delay: server.report_loss(loss))
        return server
    if spec.server == "adaptive-vc":
        if spec.transport != "udp":
            raise ValueError("the adaptive VideoCharger streams UDP only")
        if spec.codec != "mpeg1":
            raise ValueError("multi-rate adaptation needs the MPEG-1 ladder")
        from repro.server.adaptive_vc import AdaptiveVideoChargerServer
        from repro.video.clips import MPEG_RATES_BPS

        ladder = [
            encode_clip(spec.clip, "mpeg1", rate) for rate in MPEG_RATES_BPS
        ]
        server = AdaptiveVideoChargerServer(
            engine, ladder, testbed.ingress, premark_dscp=premark
        )
        if wire_feedback:
            client.set_feedback(lambda loss, _delay: server.report_loss(loss))
        return server
    if spec.server == "largeudp":
        if spec.transport != "udp":
            raise ValueError("the large-datagram model streams UDP only")
        server = LargeDatagramServer(
            engine,
            encoded,
            testbed.ingress,
            premark_dscp=premark,
            adaptation=spec.adaptation,
        )
        if spec.adaptation and wire_feedback:
            client.set_feedback(server.report_feedback)
        return server
    raise ValueError(f"unknown server {spec.server!r}")


def assess_playback(
    spec: ExperimentSpec,
    record: ClientRecord,
    vqm_tool: Optional[VqmTool] = None,
    received_features=None,
):
    """Offline assessment stages shared by the engine and fast paths.

    Replays the client record through the renderer emulation and scores
    it with VQM against the spec's reference. ``received_features``
    overrides the clip-derived features (the adaptive server passes its
    per-frame composite). Returns ``(trace, vqm_result)``.
    """
    trace = RendererEmulation().replay(record)
    if received_features is None:
        received_features = clip_features(
            spec.clip, spec.codec, spec.encoding_rate_bps
        )
    if spec.reference == "transmitted":
        reference_features = received_features
    elif spec.reference == "fixed":
        reference_features = clip_features(
            spec.clip, spec.codec, spec.fixed_reference_rate_bps
        )
    else:
        raise ValueError(f"unknown reference mode {spec.reference!r}")
    tool = vqm_tool or VqmTool()
    return trace, tool.assess(reference_features, received_features, trace)


def run_experiment(spec: ExperimentSpec, vqm_tool: Optional[VqmTool] = None) -> ExperimentResult:
    """Run one full experiment and assess the received video.

    Qualifying specs (see :mod:`repro.core.fastlane`) are served by the
    vectorized fast path, which produces a bit-identical result without
    building an engine; everything else runs the discrete-event
    simulation below. ``REPRO_FASTPATH=0|1|auto`` overrides dispatch.
    """
    from repro.core import fastlane

    if fastlane.use_fastpath(spec):
        return fastlane.run_fastpath(spec, vqm_tool=vqm_tool)
    return _run_engine_experiment(spec, vqm_tool)


def _run_engine_experiment(
    spec: ExperimentSpec, vqm_tool: Optional[VqmTool] = None
) -> ExperimentResult:
    """The discrete-event path of :func:`run_experiment`."""
    engine = Engine(seed=spec.seed)
    encoded = encode_clip(spec.clip, spec.codec, spec.encoding_rate_bps)

    from repro.recovery import RecoverySession, recovery_active
    from repro.recovery.session import validate_recovery

    validate_recovery(spec)
    with_recovery = recovery_active(spec)

    testbed = _build_testbed(spec, engine)
    client = PlayoutClient(
        engine,
        encoded,
        startup_delay=spec.startup_delay_s,
        decode_mode=spec.decode_mode,
        buffer_cap_frames=spec.client_buffer_frames,
    )
    if spec.transport == "udp":
        reassembler = DatagramReassembler(engine, sink=client)
        testbed.client_host.attach(reassembler)
    # (TCP wiring happens in _build_server, which owns the sender.)

    server = _build_server(
        spec, engine, encoded, testbed, client, wire_feedback=not with_recovery
    )
    recovery = None
    if with_recovery:
        recovery = RecoverySession(
            engine,
            spec,
            encoded,
            server=server,
            client=client,
            reassembler=reassembler,
            ingress=testbed.ingress,
        )
        # The recovery receiver replaces the bare reassembler at the
        # client host; non-recovery traffic still passes through it.
        testbed.client_host.attach(recovery.receiver)
    # The policer tells the client about drops so the loss-report
    # feedback channel sees them (adaptation experiments).
    testbed.policer.set_drop_listener(client.note_policer_drop)
    trace_log = None
    if spec.capture_trace:
        from repro.sim.tracer import TraceLog

        trace_log = TraceLog()
        testbed.policer.set_trace_sink(trace_log.append)

    server.start(at=0.0)
    engine.run(until=encoded.duration_s + spec.startup_delay_s + RUN_SLACK_S)

    record = client.finalize()

    if spec.server == "adaptive-vc":
        # Multi-rate session: each frame carries the features of the
        # encoding that actually served it.
        from repro.video.clips import MPEG_RATES_BPS
        from repro.video.frames import FrameFeatures

        versions = [
            clip_features(spec.clip, "mpeg1", rate) for rate in MPEG_RATES_BPS
        ]
        received_features = FrameFeatures.composite(versions, server.selection)
    else:
        received_features = None
    trace, vqm = assess_playback(
        spec, record, vqm_tool, received_features=received_features
    )

    from repro.core.netmetrics import summarize_path

    extras = {
        "server_packets": server.stats.packets_sent,
        "client_packets": getattr(client, "received_packets", 0),
        "network": summarize_path(
            testbed.server_tap.records, testbed.client_tap.records
        ),
    }
    if recovery is not None:
        extras["recovery"] = recovery.stats.to_dict()
    if trace_log is not None:
        trace_log.extend_receiver(testbed.client_tap.records)
        extras["flow_trace"] = trace_log.to_payload()
    return ExperimentResult(
        spec=spec,
        vqm=vqm,
        lost_frame_fraction=record.lost_frame_fraction,
        policer_stats=testbed.policer.stats,
        trace=trace,
        client_record=record,
        server_aborted=server.stats.aborted,
        extras=extras,
    )
