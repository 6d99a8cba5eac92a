"""Strict-priority scheduling helpers.

The testbed routers supported "different levels of service ... through
a simple priority queue structure, with the high priority queue being
assigned to traffic marked with the EF DSCP". The heavy lifting lives
in :class:`repro.sim.queues.PriorityQueueSet`; this module provides the
EF-aware classifier and a convenience factory producing a priority-
scheduled link queue.
"""

from __future__ import annotations

from typing import Optional

from repro.diffserv.dscp import DSCP
from repro.sim.packet import Packet
from repro.sim.queues import PriorityQueueSet

#: Queue levels used by the testbed routers.
EF_LEVEL = 0
BE_LEVEL = 1

#: The EF codepoint as the plain int packets carry (no enum per packet).
_EF = int(DSCP.EF)


def ef_priority_classifier(packet: Packet) -> int:
    """EF-marked packets to the high-priority queue, the rest below."""
    return EF_LEVEL if packet.dscp == _EF else BE_LEVEL


class PriorityScheduler(PriorityQueueSet):
    """Two-level strict-priority queue set keyed on the EF codepoint.

    Drop-in replacement for a link's output queue: EF packets always
    depart before best-effort packets, which is what shields the video
    stream from cross traffic in the experiments.
    """

    def __init__(self, max_packets_per_level: Optional[int] = 1000):
        super().__init__(
            levels=2,
            max_packets_per_level=max_packets_per_level,
            classify=ef_priority_classifier,
        )

    @property
    def ef_queue(self):
        """The high-priority (EF) FIFO."""
        return self.queue_for_level(EF_LEVEL)

    @property
    def be_queue(self):
        """The best-effort FIFO."""
        return self.queue_for_level(BE_LEVEL)
