"""Order-preserving jitter element.

Models delay variation accumulated *before* the policing point —
campus-LAN queueing at the paper's remote site. The paper flags this
explicitly: "interactions with cross traffic prior to reaching the
router where policing actions are performed can impact the number of
frames that are found non-conformant" (the ATM cell-delay-variation
problem). Jitter clumps packets together, which costs extra tokens at
a small bucket.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink

#: Base delay of the QBone remote site's campus LAN, seconds.
CAMPUS_BASE_DELAY_S = 0.0005

#: Chance that a packet meets a contention burst on the campus LAN.
BURST_PROBABILITY = 0.004

#: A contention burst adds a delay drawn uniformly from this range,
#: seconds.
BURST_DELAY_RANGE_S = (0.001, 0.004)


class JitterElement:
    """Adds random, order-preserving delay to every packet.

    Per-packet delay is ``base_delay + Exp(mean_jitter)``, truncated at
    ``max_jitter``, plus a contention burst with probability
    ``burst_probability``; release times are made monotone so packets
    never reorder (later packets clump behind delayed earlier ones,
    exactly the effect we want to model). ``base_delay`` and
    ``burst_probability`` default to the QBone campus constants above,
    which the fast lanes replay.
    """

    def __init__(
        self,
        engine: Engine,
        sink: Optional[PacketSink] = None,
        base_delay: float = CAMPUS_BASE_DELAY_S,
        mean_jitter: float = 0.0004,
        max_jitter: float = 0.002,
        burst_probability: float = BURST_PROBABILITY,
        delays=None,
    ):
        if base_delay < 0 or mean_jitter < 0 or max_jitter < 0:
            raise ValueError("delays cannot be negative")
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError("burst probability must be in [0,1]")
        self.engine = engine
        self._sink = sink
        self.base_delay = base_delay
        self.mean_jitter = mean_jitter
        self.max_jitter = max_jitter
        self.burst_probability = burst_probability
        # Precomputed per-packet total delay sequence (base + jitter,
        # indexed by arrival order). When set, no RNG is consulted at
        # receive time — the aggregate lanes draw each flow's whole
        # delay vector up front so the vectorized fast lane can replay
        # it with array arithmetic, bit-identically.
        self._delays = delays
        self._last_release = 0.0
        self.delayed_packets = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        if self._sink is None:
            raise RuntimeError("jitter element not connected")
        if self._delays is not None:
            # Precomputed mode: delays[k] is the *total* delay (base
            # included) of the k-th packet through this element.
            delay = float(self._delays[self.delayed_packets])
            release = max(self.engine.now + delay, self._last_release)
            self._last_release = release
            self.delayed_packets += 1
            sink = self._sink
            self.engine.schedule_at(release, lambda p=packet: sink.receive(p))
            return
        rng = self.engine.rng("jitter")
        jitter = 0.0
        if self.mean_jitter > 0:
            jitter = min(
                float(rng.exponential(self.mean_jitter)), self.max_jitter
            )
        # Occasional contention bursts: someone else's traffic stalls
        # the campus queue for a few milliseconds, clumping our packets.
        if self.burst_probability > 0 and rng.random() < self.burst_probability:
            jitter += float(rng.uniform(*BURST_DELAY_RANGE_S))
        release = max(
            self.engine.now + self.base_delay + jitter, self._last_release
        )
        self._last_release = release
        self.delayed_packets += 1
        sink = self._sink
        self.engine.schedule_at(release, lambda p=packet: sink.receive(p))
