"""The QBone wide-area testbed (paper Figure 5).

Path: video server at the remote campus (pre-marking EF) → campus LAN
(with jitter from local contention) → border Cisco router running CAR
(token-bucket policer, drop on exceed) → the Abilene backbone —
"lightly loaded, so that except at boundary nodes, the APS service was
implemented simply by means of over-provisioning" — modelled as a
chain of fast links with priority queues and optional light cross
traffic → local campus → client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.diffserv.policer import Policer, PolicerAction
from repro.diffserv.scheduler import PriorityScheduler
from repro.diffserv.shaper import Shaper
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.tracer import FlowTracer
from repro.testbeds.crosstraffic import PoissonSource
from repro.testbeds.jitter import JitterElement
from repro.units import mbps


@dataclass
class QBoneTestbedConfig:
    """Knobs of the wide-area path."""

    token_rate_bps: float = mbps(1.9)
    bucket_depth_bytes: float = 3000.0
    policer_action: PolicerAction = PolicerAction.DROP
    campus_lan_rate_bps: float = mbps(100)
    backbone_rate_bps: float = mbps(155)
    backbone_hops: int = 3
    backbone_hop_delay_s: float = 0.008
    jitter_mean_s: float = 0.0004
    jitter_max_s: float = 0.002
    cross_traffic_rate_bps: float = 0.0  # per backbone hop, best effort
    use_shaper: bool = False
    shaper_rate_bps: Optional[float] = None  # defaults to token rate
    shaper_depth_bytes: float = 3000.0
    flow_id: str = "video"


def abilene_chain(
    engine: Engine, cfg: QBoneTestbedConfig, sink: object
) -> tuple[object, list[PoissonSource]]:
    """The backbone chain into ``sink``: its first hop and cross traffic.

    One priority-queued link per hop, built back to front. With
    ``cfg.cross_traffic_rate_bps`` set, each hop gets a best-effort
    Poisson source, started as its link is built; the sources' first
    events are scheduled in that order, so event sequence numbers
    depend on it. With no hops the chain is ``sink`` itself.
    """
    next_sink = sink
    sources = []
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
            source = PoissonSource(
                engine,
                link,
                rate_bps=cfg.cross_traffic_rate_bps,
                flow_id=f"cross-hop{hop}",
            )
            source.start()
            sources.append(source)
        next_sink = link
    return next_sink, sources


@dataclass
class QBoneTestbed:
    """Assembled QBone path.

    ``ingress`` is where the server injects packets; ``client_host``
    is where the client application attaches. ``policer`` and the
    tracers are exposed for the experiment harness.
    """

    engine: Engine
    config: QBoneTestbedConfig
    ingress: object = field(init=False)
    client_host: Host = field(init=False)
    policer: Policer = field(init=False)
    server_tap: FlowTracer = field(init=False)
    client_tap: FlowTracer = field(init=False)
    shaper: Optional[Shaper] = field(init=False, default=None)
    cross_sources: list = field(default_factory=list)

    def __post_init__(self) -> None:
        engine = self.engine
        cfg = self.config

        self.client_host = Host("client")
        self.client_tap = FlowTracer(
            engine, sink=self.client_host, flow_id=cfg.flow_id, name="client-tap"
        )

        next_sink, self.cross_sources = abilene_chain(
            engine, cfg, self.client_tap
        )

        # Border router with the CAR policer at its ingress.
        border = Router("border")
        self.policer = Policer(
            engine,
            rate_bps=cfg.token_rate_bps,
            depth_bytes=cfg.bucket_depth_bytes,
            action=cfg.policer_action,
        )
        border.add_ingress_stage(self.policer)
        border.add_route(cfg.flow_id, next_sink)
        border.set_default_route(next_sink)
        self.border_router = border

        # Optional sending-side shaper smoothing the flow into the
        # policer (paper §: shaping trades policer drops for delay).
        first_hop: object = border
        if cfg.use_shaper:
            self.shaper = Shaper(
                engine,
                rate_bps=cfg.shaper_rate_bps or cfg.token_rate_bps,
                depth_bytes=cfg.shaper_depth_bytes,
                sink=border,
                name="edge-shaper",
            )
            first_hop = self.shaper

        # Remote campus: LAN then jitter, into the border router. The
        # element's defaults are this campus's base delay and bursts.
        jitter = JitterElement(
            engine,
            sink=first_hop,
            mean_jitter=cfg.jitter_mean_s,
            max_jitter=cfg.jitter_max_s,
        )
        campus_lan = Link(
            engine,
            rate_bps=cfg.campus_lan_rate_bps,
            sink=jitter,
            name="remote-campus-lan",
        )
        self.server_tap = FlowTracer(
            engine, sink=campus_lan, flow_id=cfg.flow_id, name="server-tap"
        )
        self.ingress = self.server_tap
