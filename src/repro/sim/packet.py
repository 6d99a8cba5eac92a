"""Packets and the sink protocol they flow through.

A :class:`Packet` is the unit handed between components. It carries the
addressing and marking fields the DiffServ machinery operates on
(flow id, DSCP) plus application metadata (which video frame and which
fragment of which datagram it belongs to) that the receiving client
needs for reassembly and playout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable


@runtime_checkable
class PacketSink(Protocol):
    """Anything that can accept a packet: queues, links, hosts, taps."""

    def receive(self, packet: "Packet") -> None:  # pragma: no cover - protocol
        """Accept a packet (PacketSink interface)."""
        ...


@dataclass(slots=True)
class Packet:
    """A single IP packet.

    Attributes
    ----------
    packet_id:
        Engine-unique identifier, useful for tracing and TCP acks.
    flow_id:
        Identifies the flow for classification (stands in for the
        src/dst address pair the paper's routers matched on).
    size:
        Total on-wire size in bytes, headers included.
    dscp:
        DiffServ codepoint currently marked on the packet. ``None``
        means best effort / unmarked.
    created_at:
        Simulation time at which the source emitted the packet.
    frame_id:
        Index of the video frame this packet carries data for, or
        ``None`` for non-video traffic.
    datagram_id / fragment_index / fragment_count:
        IP fragmentation bookkeeping: which application datagram the
        packet belongs to and its position within it. A datagram is
        only deliverable if all of its fragments arrive.
    sequence:
        Transport-level sequence number (used by the TCP model).
    is_retransmission:
        True when the TCP model resends a lost segment.
    """

    packet_id: int
    flow_id: str
    size: int
    dscp: Optional[int] = None
    created_at: float = 0.0
    frame_id: Optional[int] = None
    datagram_id: Optional[int] = None
    fragment_index: int = 0
    fragment_count: int = 1
    sequence: Optional[int] = None
    is_retransmission: bool = False
    annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    @property
    def is_fragmented(self) -> bool:
        """True when this packet is one piece of a multi-packet datagram."""
        return self.fragment_count > 1
