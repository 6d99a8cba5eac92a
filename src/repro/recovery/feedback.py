"""The client → server feedback path.

The paper's testbed carried RTSP/RTCP feedback over the same campus
network as the media, so feedback itself crossed a best-effort (and
sometimes congested) reverse path. :class:`FeedbackChannel` models
that as a fixed one-way delay (half the configured RTT) plus an
independent Bernoulli loss process drawn from a named engine RNG
stream, which keeps serial and process-pool replays bitwise equal.

Chaos testing can force the channel into a ``"drop"`` (every message
lost) or ``"garble"`` (messages delivered as the :data:`GARBLED`
sentinel) disruption mode; consumers must treat both as a silently
degraded reverse path, never as an error.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Engine

from repro.recovery.stats import RecoveryStats

#: Delivered in place of the real message when chaos garbles the
#: channel. Receivers must discard it without raising.
GARBLED = "<garbled-feedback>"

class FeedbackChannel:
    """Lossy, delayed reverse path for NACKs and receiver reports."""

    #: Engine RNG stream of the feedback loss draws.
    rng_stream = "recovery-feedback"

    def __init__(
        self,
        engine: Engine,
        stats: RecoveryStats,
        *,
        loss_rate: float = 0.0,
        rtt_s: float = 0.02,
        disruption: Optional[str] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"feedback loss_rate must be in [0, 1): {loss_rate}")
        if rtt_s < 0.0:
            raise ValueError(f"feedback rtt_s must be >= 0: {rtt_s}")
        if disruption not in (None, "drop", "garble"):
            raise ValueError(f"unknown feedback disruption: {disruption!r}")
        self.engine = engine
        self.stats = stats
        self.loss_rate = loss_rate
        self.rtt_s = rtt_s
        self.disruption = disruption
        self._on_receive: Optional[Callable[[object], None]] = None

    def connect(self, on_receive: Callable[[object], None]) -> None:
        self._on_receive = on_receive

    @property
    def one_way_delay_s(self) -> float:
        return self.rtt_s / 2.0

    def send(self, message: object) -> bool:
        """Queue ``message`` for delivery; return False if it was lost.

        The loss RNG is only consulted when ``loss_rate > 0`` so a
        loss-free channel leaves the stream untouched (determinism:
        enabling ARQ without feedback loss must not perturb any other
        named stream's draw sequence — streams are independent anyway,
        but an untouched stream is also cheap).
        """
        self.stats.feedback_sent += 1
        if self.disruption == "drop":
            self.stats.feedback_lost += 1
            return False
        if self.loss_rate > 0.0:
            if self.engine.rng(self.rng_stream).random() < self.loss_rate:
                self.stats.feedback_lost += 1
                return False
        payload = GARBLED if self.disruption == "garble" else message
        if self._on_receive is not None:
            self.engine.schedule(
                self.one_way_delay_s,
                lambda payload=payload: self._deliver(payload),
            )
        return True

    def _deliver(self, payload: object) -> None:
        if self._on_receive is not None:
            self._on_receive(payload)
