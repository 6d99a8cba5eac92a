"""Weighted RED queue for the AF PHB.

The Assured Forwarding PHB needs a queue that discriminates by drop
precedence: under congestion, packets colored with higher precedence
(AFx2/AFx3 — yellow/red) are discarded earlier than committed (green)
traffic. This is a standard WRED implementation: per-precedence
(min_threshold, max_threshold, max_probability) profiles applied to an
EWMA of the queue occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.diffserv.dscp import DSCP
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


@dataclass(frozen=True)
class RedProfile:
    """One precedence class's drop curve (thresholds in packets)."""

    min_threshold: float
    max_threshold: float
    max_probability: float

    def __post_init__(self) -> None:
        if not 0 <= self.min_threshold < self.max_threshold:
            raise ValueError("need 0 <= min < max threshold")
        if not 0.0 < self.max_probability <= 1.0:
            raise ValueError("max probability must be in (0, 1]")

    def drop_probability(self, avg_queue: float) -> float:
        """RED drop curve: 0 below min, ramp to max_p, then 1."""
        if avg_queue < self.min_threshold:
            return 0.0
        if avg_queue >= self.max_threshold:
            return 1.0
        span = self.max_threshold - self.min_threshold
        return self.max_probability * (avg_queue - self.min_threshold) / span


#: Default WRED profiles per AF drop precedence (1 = committed).
DEFAULT_PROFILES = {
    1: RedProfile(min_threshold=40, max_threshold=80, max_probability=0.05),
    2: RedProfile(min_threshold=20, max_threshold=60, max_probability=0.2),
    3: RedProfile(min_threshold=5, max_threshold=30, max_probability=0.5),
}


def af_precedence_of(packet: Packet) -> int:
    """Drop precedence for WRED purposes.

    AF codepoints expose their precedence bits; unmarked (best effort)
    traffic is treated as the most droppable class.
    """
    if packet.dscp is None or packet.dscp == int(DSCP.BE):
        return 3
    try:
        from repro.diffserv.dscp import af_drop_precedence

        return af_drop_precedence(packet.dscp)
    except ValueError:
        return 1  # EF or unknown premium marking: protect it


class WredQueue(DropTailQueue):
    """Drop-tail queue with WRED early discard by AF precedence.

    Drop decisions use a deterministic per-queue random stream so runs
    stay reproducible; pass ``rng`` to control it.
    """

    def __init__(
        self,
        max_packets: int = 120,
        profiles: Optional[dict] = None,
        ewma_weight: float = 0.1,
        rng: Optional[np.random.Generator] = None,
        classify: Callable[[Packet], int] = af_precedence_of,
    ):
        super().__init__(max_packets=max_packets)
        if not 0.0 < ewma_weight <= 1.0:
            raise ValueError("ewma weight must be in (0, 1]")
        self.profiles = profiles or dict(DEFAULT_PROFILES)
        self.ewma_weight = ewma_weight
        self._rng = rng if rng is not None else np.random.default_rng(1234)
        self._classify = classify
        self._avg_queue = 0.0
        self.early_drops = {1: 0, 2: 0, 3: 0}

    def enqueue(self, packet: Packet) -> bool:
        """Enqueue with WRED early-drop applied first."""
        self._avg_queue = (
            (1.0 - self.ewma_weight) * self._avg_queue
            + self.ewma_weight * len(self)
        )
        precedence = self._classify(packet)
        profile = self.profiles.get(precedence)
        if profile is not None:
            p_drop = profile.drop_probability(self._avg_queue)
            if p_drop > 0.0 and self._rng.random() < p_drop:
                self.early_drops[precedence] += 1
                self.dropped_packets += 1
                self.dropped_bytes += packet.size
                return False
        return super().enqueue(packet)
