"""Common streaming-server machinery.

A server walks an :class:`~repro.video.mpeg.EncodedClip`'s transport
schedule, cuts the stream into application messages, packetizes them,
and emits the packets into the network. Subclasses decide message
sizing, pacing, transport, and adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink
from repro.video.mpeg import EncodedClip
from repro.video.packetizer import Packetizer


@dataclass
class ServerStats:
    """What the server did during a run."""

    messages_sent: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    rate_changes: int = 0
    aborted: bool = False


class StreamingServer:
    """Base class for the server models.

    Parameters
    ----------
    engine:
        Shared event engine.
    clip:
        The encoded clip to stream.
    sink:
        First network component on the path (LAN link, shaper, ...).
    flow_id:
        Flow label for classification at the edge router.
    large_datagrams:
        Packetization style (see :mod:`repro.video.packetizer`).
    """

    def __init__(
        self,
        engine: Engine,
        clip: EncodedClip,
        sink: PacketSink,
        flow_id: str = "video",
        large_datagrams: bool = False,
    ):
        self.engine = engine
        self.clip = clip
        self.sink = sink
        self.flow_id = flow_id
        self.stats = ServerStats()
        self.packetizer = Packetizer(
            engine, flow_id, large_datagrams=large_datagrams
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Schedule the streaming session to begin at time ``at``."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.engine.schedule_at(at, self._begin)

    def _begin(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _emit_packets(self, packets: list[Packet]) -> None:
        """Send a message's packets back-to-back into the network."""
        if not packets:
            return
        self.stats.messages_sent += 1
        for packet in packets:
            packet.created_at = self.engine.now
            self.stats.packets_sent += 1
            self.stats.bytes_sent += packet.size
            self.sink.receive(packet)
