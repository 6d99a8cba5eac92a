"""Serial transmission links.

A :class:`Link` models the output side of a router interface: a queue
feeding a serializer of fixed rate, followed by a propagation delay.
This is where bandwidth bottlenecks (the paper's 2 Mbps V.35 hop) and
queueing delay arise.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink
from repro.sim.queues import DropTailQueue, PriorityQueueSet


class Link:
    """Point-to-point serial link with an attached output queue.

    Parameters
    ----------
    engine:
        The shared event engine.
    rate_bps:
        Serialization rate in bits per second.
    sink:
        Downstream component receiving packets after transmission +
        propagation. May be set later via :meth:`connect`.
    queue:
        Output queue. Defaults to a 1000-packet drop-tail FIFO. Pass a
        :class:`PriorityQueueSet` to get EF prioritization.
    propagation_delay:
        One-way propagation latency in seconds.
    name:
        Label used in error messages and stats dumps.
    """

    def __init__(
        self,
        engine: Engine,
        rate_bps: float,
        sink: Optional[PacketSink] = None,
        queue: Optional[Union[DropTailQueue, PriorityQueueSet]] = None,
        propagation_delay: float = 0.0,
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError(f"{name}: rate must be positive, got {rate_bps}")
        if propagation_delay < 0:
            raise ValueError(f"{name}: propagation delay cannot be negative")
        self.engine = engine
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.queue = queue if queue is not None else DropTailQueue(max_packets=1000)
        self.name = name
        self._sink = sink
        self._busy = False
        # The packet being serialized, and the (packet, sink) pairs
        # propagating, in transmission order. Every packet gets the same
        # delay, so delivery times are monotone and equal times fire in
        # schedule order: the i-th delivery event carries the i-th pair.
        self._on_wire: Optional[Packet] = None
        self._in_flight: deque[tuple[Packet, PacketSink]] = deque()
        # Bound once rather than per packet: every transmission posts them.
        self._finish_cb = self._finish_transmission
        self._deliver_cb = self._deliver
        self.transmitted_packets = 0
        self.transmitted_bytes = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    @property
    def sink(self) -> Optional[PacketSink]:
        """The downstream receiver (or None if unconnected)."""
        return self._sink

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    @property
    def utilization_bytes(self) -> int:
        """Total bytes pushed through the link so far."""
        return self.transmitted_bytes

    def receive(self, packet: Packet) -> None:
        """Accept a packet for transmission (PacketSink interface)."""
        self.queue.enqueue(packet)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._on_wire = packet
        # Serialization delay, same expression as units.transmission_time
        # (the rate was validated once, at construction).
        self.engine.post(packet.size * 8 / self.rate_bps, self._finish_cb)

    def _finish_transmission(self) -> None:
        packet = self._on_wire
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size
        sink = self._sink
        if sink is None:
            raise RuntimeError(f"{self.name}: transmitted into an unconnected link")
        if self.propagation_delay > 0:
            self._in_flight.append((packet, sink))
            self.engine.post(self.propagation_delay, self._deliver_cb)
        else:
            sink.receive(packet)
        self._start_next()

    def _deliver(self) -> None:
        packet, sink = self._in_flight.popleft()
        sink.receive(packet)
