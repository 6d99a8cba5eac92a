"""Color-aware AF edge marker.

The AF PHB's edge behaviour (paper §2.1): instead of dropping
non-conformant packets, "it primarily calls for policing actions that
mark packets with different 'colors' (DSCPs) depending on their level
of non-conformance". An :class:`AfMarker` wraps a three-color meter
and stamps AF drop-precedence codepoints; nothing is dropped at the
edge — congestion (the WRED queue) decides downstream.
"""

from __future__ import annotations

from typing import Optional

from repro.diffserv.dscp import DSCP
from repro.diffserv.meters import Color, SrTcmMeter
from repro.diffserv.policer import PolicerStats
from repro.sim.engine import Engine
from repro.sim.packet import Packet

#: AF class-1 codepoints by meter color.
AF1_BY_COLOR = {
    Color.GREEN: DSCP.AF11,
    Color.YELLOW: DSCP.AF12,
    Color.RED: DSCP.AF13,
}


class AfMarker:
    """Ingress stage: meter + color marking (no drops).

    Exposes a :class:`PolicerStats` so experiment plumbing that reads
    drop statistics works unchanged — conformant counts green packets,
    remarked counts yellow+red.
    """

    def __init__(
        self,
        engine: Engine,
        cir_bps: float,
        cbs_bytes: float,
        ebs_bytes: float,
        colors_to_dscp: Optional[dict] = None,
    ):
        self.engine = engine
        self.meter = SrTcmMeter(cir_bps, cbs_bytes, ebs_bytes)
        self.colors_to_dscp = colors_to_dscp or dict(AF1_BY_COLOR)
        self.stats = PolicerStats()
        self._trace = None

    def add_drop_listener(self, listener, flow_id=None) -> None:
        """Accept a drop callback for API parity with ``Policer``.

        The marker never drops (it only colors), so the listener never
        fires.
        """

    def set_trace_sink(self, sink) -> None:
        """Accept a per-packet trace tap (parity with ``Policer``).

        Events carry the color verdict (green maps to ``"conform"``,
        yellow/red to ``"remark"``); the token-state fields stay zero
        because the three-color meter has no single fill level.
        """
        self._trace = sink

    def __call__(self, packet: Packet) -> Packet:
        color = self.meter.color(packet.size, self.engine.now)
        dscp_in = packet.dscp
        packet.dscp = int(self.colors_to_dscp[color])
        packet.annotations["af_color"] = color.name.lower()
        if color is Color.GREEN:
            self.stats.conformant_packets += 1
            self.stats.conformant_bytes += packet.size
        else:
            self.stats.remarked_packets += 1
        if self._trace is not None:
            from repro.sim.tracer import PacketTraceEvent

            self._trace(
                PacketTraceEvent(
                    time=self.engine.now,
                    point="policer",
                    packet_id=packet.packet_id,
                    flow_id=packet.flow_id,
                    size=packet.size,
                    frame_id=packet.frame_id,
                    dscp=dscp_in,
                    verdict="conform" if color is Color.GREEN else "remark",
                )
            )
        return packet
