"""Generic path impairment elements (failure injection).

The paper's losses all come from one mechanism — the edge policer.
These elements let experiments inject *other* loss/delay processes at
any point of a topology, which is how the ablation benches separate
"how much loss" from "what loss pattern":

* :class:`RandomLossElement` — iid Bernoulli packet loss;
* :class:`GilbertLossElement` — two-state (Gilbert-Elliott) bursty
  loss with configurable burstiness at the same average rate;
* :class:`DelaySpikeElement` — occasional multi-millisecond delay
  spikes (order-preserving), a heavier-tailed cousin of
  :class:`~repro.testbeds.jitter.JitterElement`;
* :class:`LinkOutageElement` — on/off link flapping: total loss during
  deterministic (or RNG-drawn) outage windows, which is what recovery
  machinery has to survive — random loss thins a stream, an outage
  black-holes it.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink


class RandomLossElement:
    """Drops each packet independently with probability ``loss_rate``."""

    #: Engine RNG stream of the loss draws.
    rng_stream = "random-loss"

    def __init__(
        self,
        engine: Engine,
        sink: Optional[PacketSink] = None,
        loss_rate: float = 0.01,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.engine = engine
        self._sink = sink
        self.loss_rate = loss_rate
        self.dropped_packets = 0
        self.passed_packets = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        if self._sink is None:
            raise RuntimeError("loss element not connected")
        if self.engine.rng(self.rng_stream).random() < self.loss_rate:
            self.dropped_packets += 1
            return
        self.passed_packets += 1
        self._sink.receive(packet)

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of packets this element has dropped so far."""
        total = self.dropped_packets + self.passed_packets
        return self.dropped_packets / total if total else 0.0


class GilbertLossElement:
    """Two-state bursty loss (Gilbert-Elliott, loss only in BAD state).

    Parameters
    ----------
    mean_loss_rate:
        Long-run fraction of packets dropped.
    mean_burst_packets:
        Average run length of consecutive drops. 1.0 degenerates to
        iid loss; larger values cluster the same loss budget into
        bursts.
    """

    #: Engine RNG stream of the state-transition draws.
    rng_stream = "gilbert-loss"

    def __init__(
        self,
        engine: Engine,
        sink: Optional[PacketSink] = None,
        mean_loss_rate: float = 0.01,
        mean_burst_packets: float = 5.0,
    ):
        if not 0.0 <= mean_loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if mean_burst_packets < 1.0:
            raise ValueError("mean burst length must be >= 1 packet")
        self.engine = engine
        self._sink = sink
        # BAD state drops every packet. Exit probability fixes the
        # burst length; entry probability then fixes the average rate:
        # stationary P(bad) = p_enter / (p_enter + p_exit).
        self.p_exit = 1.0 / mean_burst_packets
        if mean_loss_rate > 0:
            self.p_enter = (
                mean_loss_rate * self.p_exit / (1.0 - mean_loss_rate)
            )
        else:
            self.p_enter = 0.0
        self._bad = False
        self.dropped_packets = 0
        self.passed_packets = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        if self._sink is None:
            raise RuntimeError("loss element not connected")
        rng = self.engine.rng(self.rng_stream)
        if self._bad:
            if rng.random() < self.p_exit:
                self._bad = False
        elif rng.random() < self.p_enter:
            self._bad = True
        if self._bad:
            self.dropped_packets += 1
            return
        self.passed_packets += 1
        self._sink.receive(packet)

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of packets this element has dropped so far."""
        total = self.dropped_packets + self.passed_packets
        return self.dropped_packets / total if total else 0.0


class DelaySpikeElement:
    """Occasional large delay spikes, order preserved.

    With probability ``spike_probability`` a packet (and, through the
    ordering constraint, everything behind it) is held for
    ``spike_delay_s`` — a route flap or burst of higher-priority
    traffic.
    """

    #: Engine RNG stream of the spike draws.
    rng_stream = "delay-spike"

    def __init__(
        self,
        engine: Engine,
        sink: Optional[PacketSink] = None,
        spike_probability: float = 0.001,
        spike_delay_s: float = 0.05,
    ):
        if not 0.0 <= spike_probability <= 1.0:
            raise ValueError("spike probability must be in [0, 1]")
        if spike_delay_s < 0:
            raise ValueError("spike delay cannot be negative")
        self.engine = engine
        self._sink = sink
        self.spike_probability = spike_probability
        self.spike_delay_s = spike_delay_s
        self._last_release = 0.0
        self.spikes = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        if self._sink is None:
            raise RuntimeError("delay element not connected")
        delay = 0.0
        if self.engine.rng(self.rng_stream).random() < self.spike_probability:
            delay = self.spike_delay_s
            self.spikes += 1
        release = max(self.engine.now + delay, self._last_release)
        self._last_release = release
        sink = self._sink
        self.engine.schedule_at(release, lambda p=packet: sink.receive(p))


class LinkOutageElement:
    """A link that flaps: up for ``up_s``, then down for ``down_s``.

    Packets arriving while the link is down are dropped; packets
    arriving while it is up pass through untouched (no added delay, so
    arrival order is preserved). Windows are half-open: a packet
    arriving exactly when an outage begins is lost, one arriving
    exactly when it ends gets through.

    Parameters
    ----------
    up_s / down_s:
        Durations of the up and down phases. With
        ``random_outages=False`` (default) the flap schedule is exactly
        periodic — boundary-timing tests rely on this.
    start_up_s:
        Length of the *first* up phase (defaults to ``up_s``), so an
        outage can be placed anywhere relative to stream start.
    random_outages:
        When True, each phase duration is drawn from an exponential
        distribution with the configured mean, from the engine RNG
        stream :attr:`rng_stream` (deterministic per seed).
    """

    #: Engine RNG stream of the random phase durations.
    rng_stream = "link-outage"

    def __init__(
        self,
        engine: Engine,
        sink: Optional[PacketSink] = None,
        up_s: float = 5.0,
        down_s: float = 1.0,
        start_up_s: Optional[float] = None,
        random_outages: bool = False,
    ):
        if up_s <= 0 or down_s <= 0:
            raise ValueError("up_s and down_s must be positive")
        if start_up_s is not None and start_up_s < 0:
            raise ValueError("start_up_s cannot be negative")
        self.engine = engine
        self._sink = sink
        self.up_s = up_s
        self.down_s = down_s
        self.random_outages = random_outages
        self._down = False
        # Time at which the current phase ends. The state machine is
        # lazy: it only advances when a packet arrives, so an idle
        # element schedules no events at all.
        self._phase_end = start_up_s if start_up_s is not None else up_s
        self.dropped_packets = 0
        self.passed_packets = 0
        self.outages = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    def _phase_duration(self, down: bool) -> float:
        mean = self.down_s if down else self.up_s
        if not self.random_outages:
            return mean
        return max(
            float(self.engine.rng(self.rng_stream).exponential(mean)), 1e-9
        )

    def _advance(self, now: float) -> None:
        while now >= self._phase_end:
            self._down = not self._down
            if self._down:
                self.outages += 1
            self._phase_end += self._phase_duration(self._down)

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        if self._sink is None:
            raise RuntimeError("outage element not connected")
        self._advance(self.engine.now)
        if self._down:
            self.dropped_packets += 1
            return
        self.passed_packets += 1
        self._sink.receive(packet)

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of packets this element has dropped so far."""
        total = self.dropped_packets + self.passed_packets
        return self.dropped_packets / total if total else 0.0
