"""Edge policers.

The policer is an ingress stage: conformant packets are marked with a
DSCP (EF in all the paper's experiments) and passed on; non-conformant
packets are handled according to the configured
:class:`PolicerAction` — dropped (the paper's EF configuration),
re-marked to best effort, or demoted to a lower AF color.

This models both the policy component of the local testbed's router 1
and the Cisco CAR configuration at the QBone ingress.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.diffserv.dscp import DSCP
from repro.diffserv.token_bucket import TokenBucket
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.sim.tracer import PacketTraceEvent


class PolicerAction(enum.Enum):
    """What happens to a non-conformant packet."""

    DROP = "drop"
    REMARK_BE = "remark-be"
    DEMOTE = "demote"  # AF-style coloring to a configurable codepoint


#: Stable drop-reason taxonomy. These strings appear in drop records,
#: trace payloads, and journals alike, so the detection subsystem and
#: the chaos/journal layers classify the same event the same way.
DROP_REASON_TOKENS = "tokens-exhausted"  # bucket momentarily empty
DROP_REASON_OVERSIZE = "oversize-packet"  # larger than the bucket depth


@dataclass(frozen=True)
class PolicerDrop:
    """One non-conformant discard, with the bucket state that caused it.

    Drop listeners receive this record instead of the bare packet so
    downstream consumers (loss attribution, detection validation,
    journals) see the full taxonomy: why the packet died, what it was
    marked, and how short of tokens it was.
    """

    packet: Packet
    time: float
    reason: str  # DROP_REASON_TOKENS | DROP_REASON_OVERSIZE
    dscp: Optional[int]  # codepoint on arrival, before any restamping
    token_deficit: float  # tokens the packet was short by (> 0)
    bucket_fill: float  # tokens available at the drop instant

    @property
    def flow_id(self) -> Optional[str]:
        """Owning flow of the discarded packet.

        Multi-flow aggregates share one policer across tagged flows;
        surfacing the flow id on the record lets per-flow consumers
        (loss attribution, admission probes) filter without reaching
        into the packet.
        """
        return self.packet.flow_id


@dataclass
class PolicerStats:
    """Counters the experiments read after a run."""

    conformant_packets: int = 0
    conformant_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    remarked_packets: int = 0
    dropped_frame_ids: set = field(default_factory=set)

    @property
    def total_packets(self) -> int:
        """Total packets processed."""
        return self.conformant_packets + self.dropped_packets + self.remarked_packets

    @property
    def drop_fraction(self) -> float:
        """Dropped / total packets (0 when idle)."""
        total = self.total_packets
        return self.dropped_packets / total if total else 0.0


class Policer:
    """Token-bucket policer usable as a router ingress stage.

    Parameters
    ----------
    engine:
        Supplies arrival timestamps for the token arithmetic.
    rate_bps / depth_bytes:
        Token bucket profile (the paper's "service parameters").
    action:
        Treatment of non-conformant packets.
    conform_dscp:
        Codepoint applied to conformant packets (EF by default).
    demote_dscp:
        Codepoint for :attr:`PolicerAction.DEMOTE`.

    Drop listeners (:meth:`add_drop_listener`) receive a
    :class:`PolicerDrop` record for each dropped packet, which is how
    experiments attribute frame loss to the policer.
    """

    def __init__(
        self,
        engine: Engine,
        rate_bps: float,
        depth_bytes: float,
        action: PolicerAction = PolicerAction.DROP,
        conform_dscp: DSCP = DSCP.EF,
        demote_dscp: DSCP = DSCP.AF12,
    ):
        self.engine = engine
        self.bucket = TokenBucket(rate_bps, depth_bytes)
        self.action = action
        self.conform_dscp = conform_dscp
        self.demote_dscp = demote_dscp
        self.stats = PolicerStats()
        self._drop_listeners: list[
            tuple[Optional[str], Callable[[PolicerDrop], None]]
        ] = []
        self._trace: Optional[Callable[[PacketTraceEvent], None]] = None

    def add_drop_listener(
        self,
        listener: Callable[[PolicerDrop], None],
        flow_id: Optional[str] = None,
    ) -> None:
        """Register a drop callback, optionally flow-filtered.

        Listeners accumulate and fire in registration order: a shared
        aggregate policer carries one per flow. With ``flow_id`` set,
        the listener fires only for drops whose packet belongs to that
        flow — how each flow's client attributes its own losses on a
        bucket it shares with N-1 neighbours. Experiments wire the
        client's loss-attribution hook here once the testbed and client
        both exist.
        """
        self._drop_listeners.append((flow_id, listener))

    def clear_drop_listeners(self) -> None:
        """Remove every listener added via :meth:`add_drop_listener`."""
        self._drop_listeners.clear()

    def set_trace_sink(
        self, sink: Optional[Callable[[PacketTraceEvent], None]]
    ) -> None:
        """Install (or clear) a per-packet trace tap.

        With a sink installed, every packet produces one
        :class:`~repro.sim.tracer.PacketTraceEvent` at point
        ``"policer"`` carrying the verdict and the token state at the
        decision instant. The off path costs nothing extra.
        """
        self._trace = sink

    def _drop_reason(self, packet: Packet) -> str:
        if packet.size > self.bucket.depth_bytes:
            return DROP_REASON_OVERSIZE
        return DROP_REASON_TOKENS

    def __call__(self, packet: Packet) -> Optional[Packet]:
        """Ingress-stage interface: return the packet or None if dropped."""
        now = self.engine.now
        dscp_in = packet.dscp
        # Pre-reading the fill refills the bucket at ``now``; the
        # subsequent try_consume refill is then a no-op, so the token
        # arithmetic is bit-identical with tracing on or off.
        fill = self.bucket.tokens_at(now) if self._trace is not None else None
        if self.bucket.try_consume(packet.size, now):
            self.stats.conformant_packets += 1
            self.stats.conformant_bytes += packet.size
            packet.dscp = int(self.conform_dscp)
            if self._trace is not None:
                self._trace(
                    self._trace_event(packet, now, dscp_in, "conform", fill)
                )
            return packet
        if fill is None and (self._drop_listeners or self._trace is not None):
            # try_consume already refilled at ``now``; this only reads.
            fill = self.bucket.tokens_at(now)
        if self.action is PolicerAction.DROP:
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            if packet.frame_id is not None:
                self.stats.dropped_frame_ids.add(packet.frame_id)
            if self._trace is not None:
                self._trace(
                    self._trace_event(packet, now, dscp_in, "drop", fill)
                )
            if self._drop_listeners:
                drop = PolicerDrop(
                    packet=packet,
                    time=now,
                    reason=self._drop_reason(packet),
                    dscp=dscp_in,
                    token_deficit=packet.size - fill,
                    bucket_fill=fill,
                )
                for want_flow, listener in self._drop_listeners:
                    if want_flow is None or want_flow == packet.flow_id:
                        listener(drop)
            return None
        if self.action is PolicerAction.REMARK_BE:
            self.stats.remarked_packets += 1
            packet.dscp = int(DSCP.BE)
        else:  # PolicerAction.DEMOTE
            self.stats.remarked_packets += 1
            packet.dscp = int(self.demote_dscp)
        if self._trace is not None:
            self._trace(self._trace_event(packet, now, dscp_in, "remark", fill))
        return packet

    def _trace_event(
        self,
        packet: Packet,
        now: float,
        dscp_in: Optional[int],
        verdict: str,
        fill: float,
    ) -> PacketTraceEvent:
        return PacketTraceEvent(
            time=now,
            point="policer",
            packet_id=packet.packet_id,
            flow_id=packet.flow_id,
            size=packet.size,
            frame_id=packet.frame_id,
            dscp=dscp_in,
            verdict=verdict,
            drop_reason=self._drop_reason(packet) if verdict == "drop" else None,
            token_deficit=packet.size - fill if verdict != "conform" else 0.0,
            bucket_fill=fill,
        )
