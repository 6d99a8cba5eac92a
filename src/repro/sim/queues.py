"""Router queues: drop-tail FIFOs and strict-priority queue sets.

These are passive containers — they never schedule events themselves.
A :class:`~repro.sim.link.Link` (or any other server) drains them by
calling ``dequeue()`` whenever it has capacity. This split keeps the
queueing discipline and the service process independently testable.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.packet import Packet


class DropTailQueue:
    """Bounded FIFO that drops arrivals once full.

    Capacity may be bounded by packet count, byte count, or both;
    an unset bound is unlimited.
    """

    def __init__(
        self,
        max_packets: Optional[int] = None,
        max_bytes: Optional[int] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
    ):
        if max_packets is not None and max_packets <= 0:
            raise ValueError("max_packets must be positive if set")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive if set")
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.enqueued_packets = 0
        self._on_drop = on_drop

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        """Total bytes currently queued."""
        return self._bytes

    def enqueue(self, packet: Packet) -> bool:
        """Append the packet; returns False (and counts a drop) if full."""
        max_packets = self.max_packets
        max_bytes = self.max_bytes
        if (max_packets is not None and len(self._queue) >= max_packets) or (
            max_bytes is not None and self._bytes + packet.size > max_bytes
        ):
            self.dropped_packets += 1
            self.dropped_bytes += packet.size
            if self._on_drop is not None:
                self._on_drop(packet)
            return False
        self._queue.append(packet)
        self._bytes += packet.size
        self.enqueued_packets += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head of the queue, or None when empty."""
        queue = self._queue
        if not queue:
            return None
        packet = queue.popleft()
        self._bytes -= packet.size
        return packet

    def peek(self) -> Optional[Packet]:
        """Head of the queue without removing it."""
        return self._queue[0] if self._queue else None


class PriorityQueueSet:
    """Strict-priority set of drop-tail queues.

    This models the "simple priority queue structure" the local testbed
    routers used: EF-marked packets go to the high-priority queue and
    are always served before any best-effort packet.

    Priority 0 is the highest. The classifier function maps a packet to
    a priority level; by default DSCP-marked packets get priority 0 and
    everything else priority 1. Every level is a plain
    :class:`DropTailQueue`, so :meth:`dequeue` serves the level deques
    directly.
    """

    def __init__(
        self,
        levels: int = 2,
        max_packets_per_level: Optional[int] = 1000,
        classify: Optional[Callable[[Packet], int]] = None,
    ):
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.levels = levels
        self._queues = [
            DropTailQueue(max_packets=max_packets_per_level) for _ in range(levels)
        ]
        self._classify = classify or self._default_classify

    @staticmethod
    def _default_classify(packet: Packet) -> int:
        return 0 if packet.dscp is not None else 1

    def queue_for_level(self, level: int) -> DropTailQueue:
        """Direct access to one underlying FIFO (for inspection/tests)."""
        return self._queues[level]

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def byte_length(self) -> int:
        """Total bytes currently queued."""
        return sum(q.byte_length for q in self._queues)

    @property
    def dropped_packets(self) -> int:
        """Packets dropped so far."""
        return sum(q.dropped_packets for q in self._queues)

    def enqueue(self, packet: Packet) -> bool:
        """Place the packet in its priority class's FIFO."""
        level = self._classify(packet)
        if not 0 <= level < self.levels:
            raise ValueError(f"classifier returned invalid level {level}")
        return self._queues[level].enqueue(packet)

    def dequeue(self) -> Optional[Packet]:
        """Serve the highest-priority non-empty queue."""
        for queue in self._queues:
            fifo = queue._queue
            if fifo:
                packet = fifo.popleft()
                queue._bytes -= packet.size
                return packet
        return None

    def peek(self) -> Optional[Packet]:
        """Head packet without removing it (None when empty)."""
        for queue in self._queues:
            head = queue.peek()
            if head is not None:
                return head
        return None
