"""Hosts and routers.

A :class:`Router` is a thin forwarding element: it looks up the packet's
flow in its forwarding table, runs the packet through an optional
per-flow ingress chain (classifier / policer / marker, supplied by the
``repro.diffserv`` package), and hands the result to an output link.

A :class:`Host` terminates traffic: it forwards every received packet
to a single application-level sink.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.packet import Packet, PacketSink

#: An ingress stage takes a packet and returns it (possibly re-marked)
#: or ``None`` when the stage consumed/dropped it.
IngressStage = Callable[[Packet], Optional[Packet]]


class Host:
    """Endpoint that delivers arriving packets to an application sink."""

    def __init__(self, name: str, application: Optional[PacketSink] = None):
        self.name = name
        self.application = application
        self.received_packets = 0
        self.received_bytes = 0

    def attach(self, application: PacketSink) -> None:
        """Set the application that consumes delivered packets."""
        self.application = application

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        self.received_packets += 1
        self.received_bytes += packet.size
        application = self.application
        if application is not None:
            application.receive(packet)


class Router:
    """Forwarding node with per-flow ingress processing.

    Routes are keyed by ``flow_id``; a default route catches everything
    else (cross traffic, acks). An optional ingress chain runs before
    forwarding — this is where the paper's edge policers live.
    """

    def __init__(self, name: str):
        self.name = name
        self._routes: Dict[str, PacketSink] = {}
        self._default_route: Optional[PacketSink] = None
        self._ingress: list[IngressStage] = []
        self.forwarded_packets = 0
        self.dropped_no_route = 0

    def add_route(self, flow_id: str, next_hop: PacketSink) -> None:
        """Forward packets of ``flow_id`` to ``next_hop``."""
        self._routes[flow_id] = next_hop

    def set_default_route(self, next_hop: PacketSink) -> None:
        """Forward packets with no explicit route to ``next_hop``."""
        self._default_route = next_hop

    def add_ingress_stage(self, stage: IngressStage) -> None:
        """Append a processing stage run on every arriving packet.

        Stages run in insertion order; a stage returning ``None`` ends
        processing (the packet was dropped or absorbed, e.g. by a
        shaper that will re-inject it later).
        """
        self._ingress.append(stage)

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        for stage in self._ingress:
            result = stage(packet)
            if result is None:
                return
            packet = result
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """Route lookup + handoff, skipping ingress processing.

        Shapers re-inject delayed packets here so they are not policed
        twice.
        """
        next_hop = self._routes.get(packet.flow_id, self._default_route)
        if next_hop is None:
            self.dropped_no_route += 1
            return
        self.forwarded_packets += 1
        next_hop.receive(packet)
