"""Interfering traffic sources.

The paper mostly kept interference off ("dedicated video server,
absence of local interfering traffic") but ran a few experiments with
cross traffic and found "only minor variations ... primarily a
reflection of how the different routers implemented the prioritization
of EF traffic". These sources let the ablation benches reproduce that:
best-effort packets share links with the EF-marked video and lose
every contention at the priority scheduler.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink


class _SourceBase:
    """Common start/stop plumbing for the generators."""

    def __init__(
        self,
        engine: Engine,
        sink: PacketSink,
        flow_id: str,
        packet_size: int,
    ):
        if packet_size <= 0:
            raise ValueError("packet size must be positive")
        self.engine = engine
        self.sink = sink
        self.flow_id = flow_id
        self.packet_size = packet_size
        self.packets_sent = 0
        self._running = False
        self._stop_at: Optional[float] = None

    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        """Begin emitting packets at time ``at`` (stop at ``stop_at``)."""
        self._running = True
        self._stop_at = stop_at
        self.engine.schedule_at(at, self._tick)

    def stop(self) -> None:
        """Stop emitting packets."""
        self._running = False

    def _emit(self) -> None:
        self.packets_sent += 1
        self.sink.receive(
            Packet(
                packet_id=self.engine.next_packet_id(),
                flow_id=self.flow_id,
                size=self.packet_size,
                created_at=self.engine.now,
            )
        )

    def _should_continue(self) -> bool:
        if not self._running:
            return False
        if self._stop_at is not None and self.engine.now >= self._stop_at:
            return False
        return True

    def _tick(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class CbrSource(_SourceBase):
    """Constant-bit-rate interferer."""

    def __init__(
        self,
        engine: Engine,
        sink: PacketSink,
        rate_bps: float,
        flow_id: str = "cross-cbr",
        packet_size: int = 1000,
    ):
        super().__init__(engine, sink, flow_id, packet_size)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.interval = packet_size * 8.0 / rate_bps

    def _tick(self) -> None:
        if not self._should_continue():
            return
        self._emit()
        self.engine.schedule(self.interval, self._tick)


class PoissonSource(_SourceBase):
    """Poisson arrivals at a target average rate.

    Gaps come from the stream named by ``flow_id``, which the source
    owns. They are drawn :attr:`GAP_BLOCK` at a time:
    ``Generator.exponential(scale, size=n)`` returns exactly the next
    ``n`` scalar draws, so the tick times equal one scalar draw per
    tick (pinned by ``tests/test_crosstraffic_blocks.py``).
    """

    #: Gaps drawn per RNG call.
    GAP_BLOCK = 256

    def __init__(
        self,
        engine: Engine,
        sink: PacketSink,
        rate_bps: float,
        flow_id: str = "cross-poisson",
        packet_size: int = 1000,
    ):
        super().__init__(engine, sink, flow_id, packet_size)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.mean_interval = packet_size * 8.0 / rate_bps
        self._gaps: list[float] = []
        self._next_gap = 0

    def _gap(self) -> float:
        i = self._next_gap
        if i == len(self._gaps):
            rng = self.engine.rng(self.flow_id)
            self._gaps = rng.exponential(self.mean_interval, self.GAP_BLOCK).tolist()
            i = 0
        self._next_gap = i + 1
        return self._gaps[i]

    def _tick(self) -> None:
        if not self._should_continue():
            return
        self._emit()
        self.engine.post(self._gap(), self._tick)


class OnOffSource(_SourceBase):
    """Bursty on/off interferer (exponential on/off periods).

    During ON periods it transmits CBR at ``peak_rate_bps``; the duty
    cycle sets the average load.
    """

    def __init__(
        self,
        engine: Engine,
        sink: PacketSink,
        peak_rate_bps: float,
        mean_on_s: float = 0.2,
        mean_off_s: float = 0.8,
        flow_id: str = "cross-onoff",
        packet_size: int = 1000,
    ):
        super().__init__(engine, sink, flow_id, packet_size)
        if peak_rate_bps <= 0:
            raise ValueError("peak rate must be positive")
        self.interval = packet_size * 8.0 / peak_rate_bps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self._on_until = 0.0

    def _tick(self) -> None:
        if not self._should_continue():
            return
        rng = self.engine.rng(self.flow_id)
        if self.engine.now >= self._on_until:
            # Start of a new cycle: idle, then a burst window.
            off = rng.exponential(self.mean_off_s)
            on = rng.exponential(self.mean_on_s)
            self._on_until = self.engine.now + off + on
            self.engine.schedule(off, self._tick)
            return
        self._emit()
        self.engine.schedule(self.interval, self._tick)
