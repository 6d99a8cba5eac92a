"""IP datagram reassembly at the client.

Fragmented datagrams (the large-datagram servers) are only deliverable
when *every* fragment arrives — one policer drop voids up to eleven
received packets. Unfragmented packets pass straight through.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink


class DatagramReassembler:
    """Collects fragments; forwards complete datagrams downstream.

    ``sink.receive`` is called once per completed datagram with the
    *last* fragment (its ``annotations['datagram_bytes']`` holding the
    reassembled payload size), or with the unfragmented packet as-is.
    """

    def __init__(
        self,
        engine: Engine,
        sink: PacketSink,
        timeout_s: float = 2.0,
    ):
        self.engine = engine
        self.sink = sink
        self.timeout_s = timeout_s
        self._pending: dict[int, dict[int, Packet]] = {}
        self._expiry: dict[int, float] = {}
        self.completed_datagrams = 0
        self.expired_datagrams = 0

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        if packet.fragment_count <= 1:  # not fragmented
            self.completed_datagrams += 1
            self.sink.receive(packet)
            return
        self._expire_stale()
        did = packet.datagram_id
        if did is None:
            raise ValueError("fragmented packet without a datagram id")
        fragments = self._pending.setdefault(did, {})
        fragments[packet.fragment_index] = packet
        self._expiry.setdefault(did, self.engine.now + self.timeout_s)
        if len(fragments) == packet.fragment_count:
            del self._pending[did]
            self._expiry.pop(did, None)
            self.completed_datagrams += 1
            total = sum(p.size for p in fragments.values())
            packet.annotations["datagram_bytes"] = total
            self.sink.receive(packet)

    def _expire_stale(self) -> None:
        """Drop half-assembled datagrams older than the timeout."""
        now = self.engine.now
        stale = [did for did, t in self._expiry.items() if t < now]
        for did in stale:
            del self._pending[did]
            del self._expiry[did]
            self.expired_datagrams += 1

    @property
    def pending_count(self) -> int:
        """Half-assembled datagrams currently buffered."""
        return len(self._pending)
