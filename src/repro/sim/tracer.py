"""Measurement taps and the detection-trace schema.

A :class:`FlowTracer` is a transparent pass-through sink that records
(time, packet) observations for one or all flows. Experiments insert
tracers at the points the paper instrumented: the server output, the
policer output, and the client input.

:class:`PacketTraceEvent` and :class:`TraceLog` define the *stable*
per-packet trace record that trace-enabled experiments
(``ExperimentSpec.capture_trace``) export: one event per packet at the
policer (verdict plus token state) and at the receiver. The payload
format (:meth:`TraceLog.to_payload`) is plain dicts of lists so it can
ride a :class:`~repro.core.runner.ResultSummary` across process, cache,
and JSON boundaries; :mod:`repro.detect` consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from repro.sim.engine import Engine
from repro.sim.packet import Packet, PacketSink

#: Version stamped into every trace payload; bump when the schema
#: (points or columns) changes shape or meaning.
TRACE_SCHEMA_VERSION = 1

#: Column order of the per-point arrays in a trace payload.
POLICER_TRACE_COLUMNS = (
    "time",
    "packet_id",
    "size",
    "frame_id",
    "dscp",
    "verdict",
    "drop_reason",
    "token_deficit",
    "bucket_fill",
)
RECEIVER_TRACE_COLUMNS = ("time", "packet_id", "size", "frame_id", "dscp")


class TraceRecord(NamedTuple):
    """One observed packet: when it passed and what it was.

    Immutable like a frozen dataclass, but a tuple builds in a third of
    the time, and the taps build one per observed packet.
    """

    time: float
    packet_id: int
    flow_id: str
    size: int
    frame_id: Optional[int]
    datagram_id: Optional[int]
    dscp: Optional[int] = None


@dataclass(frozen=True)
class PacketTraceEvent:
    """One packet observation in the stable detection-trace schema.

    ``point`` names where the observation was made (``"policer"`` or
    ``"receiver"``). Policer events carry the conformance ``verdict``
    (``"conform"`` / ``"drop"`` / ``"remark"``), the drop reason
    taxonomy of :mod:`repro.diffserv.policer`, and the token state at
    the decision instant; receiver events use the default
    ``"forward"`` verdict and zeroed token fields. ``dscp`` is the
    codepoint observed *on arrival* at the point.
    """

    time: float
    point: str
    packet_id: int
    flow_id: str
    size: int
    frame_id: Optional[int]
    dscp: Optional[int]
    verdict: str = "forward"
    drop_reason: Optional[str] = None
    token_deficit: float = 0.0
    bucket_fill: float = 0.0


class TraceLog:
    """Collects :class:`PacketTraceEvent` records for one experiment.

    The engine path appends policer events live (via
    :meth:`repro.diffserv.policer.Policer.set_trace_sink`) and converts
    the client tap's records afterwards; the fast path builds the same
    payload directly from its arrays. Both must produce identical
    payloads for the same spec (the fastpath parity contract).
    """

    def __init__(self) -> None:
        self.events: List[PacketTraceEvent] = []

    def append(self, event: PacketTraceEvent) -> None:
        """Record one event (policer trace-sink interface)."""
        self.events.append(event)

    def extend_receiver(self, records: Iterable[TraceRecord]) -> None:
        """Append receiver-point events from a tap's trace records."""
        for r in records:
            self.events.append(
                PacketTraceEvent(
                    time=r.time,
                    point="receiver",
                    packet_id=r.packet_id,
                    flow_id=r.flow_id,
                    size=r.size,
                    frame_id=r.frame_id,
                    dscp=r.dscp,
                )
            )

    def to_payload(self) -> dict:
        """The stable, JSON-able trace payload (dicts of plain lists)."""
        policer = {column: [] for column in POLICER_TRACE_COLUMNS}
        receiver = {column: [] for column in RECEIVER_TRACE_COLUMNS}
        for e in self.events:
            if e.point == "policer":
                policer["time"].append(e.time)
                policer["packet_id"].append(e.packet_id)
                policer["size"].append(e.size)
                policer["frame_id"].append(e.frame_id)
                policer["dscp"].append(e.dscp)
                policer["verdict"].append(e.verdict)
                policer["drop_reason"].append(e.drop_reason)
                policer["token_deficit"].append(e.token_deficit)
                policer["bucket_fill"].append(e.bucket_fill)
            elif e.point == "receiver":
                receiver["time"].append(e.time)
                receiver["packet_id"].append(e.packet_id)
                receiver["size"].append(e.size)
                receiver["frame_id"].append(e.frame_id)
                receiver["dscp"].append(e.dscp)
            else:
                raise ValueError(f"unknown trace point {e.point!r}")
        return {
            "version": TRACE_SCHEMA_VERSION,
            "policer": policer,
            "receiver": receiver,
        }


class FlowTracer:
    """Pass-through observer that logs packets of interest.

    Parameters
    ----------
    engine:
        Supplies the observation timestamps.
    sink:
        Downstream component; every packet is forwarded untouched.
    flow_id:
        Restrict logging to one flow; ``None`` logs everything.
    """

    def __init__(
        self,
        engine: Engine,
        sink: Optional[PacketSink] = None,
        flow_id: Optional[str] = None,
        name: str = "tracer",
    ):
        self.engine = engine
        self._sink = sink
        self.flow_id = flow_id
        self.name = name
        self.records: List[TraceRecord] = []

    def connect(self, sink: PacketSink) -> None:
        """Attach (or replace) the downstream receiver."""
        self._sink = sink

    def receive(self, packet: Packet) -> None:
        """Accept a packet (PacketSink interface)."""
        flow_id = packet.flow_id
        if self.flow_id is None or flow_id == self.flow_id:
            self.records.append(
                TraceRecord(
                    self.engine.now,
                    packet.packet_id,
                    flow_id,
                    packet.size,
                    packet.frame_id,
                    packet.datagram_id,
                    packet.dscp,
                )
            )
        sink = self._sink
        if sink is not None:
            sink.receive(packet)

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------
    @property
    def packet_count(self) -> int:
        """Number of packets recorded."""
        return len(self.records)

    @property
    def byte_count(self) -> int:
        """Total bytes recorded."""
        return sum(r.size for r in self.records)

    def rate_timeseries(self, bin_seconds: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Instantaneous transmission rate, binned.

        Returns ``(bin_start_times, rates_bps)`` — the series behind the
        paper's Figure 6.
        """
        if not self.records:
            return np.array([]), np.array([])
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        times = np.array([r.time for r in self.records])
        sizes = np.array([r.size for r in self.records], dtype=float)
        start = times.min()
        bins = np.floor((times - start) / bin_seconds).astype(int)
        n_bins = int(bins.max()) + 1
        byte_sums = np.bincount(bins, weights=sizes, minlength=n_bins)
        rates = byte_sums * 8.0 / bin_seconds
        bin_starts = start + np.arange(n_bins) * bin_seconds
        return bin_starts, rates

    def mean_rate_bps(self) -> float:
        """Average rate over the observed span (0 if < 2 packets)."""
        if len(self.records) < 2:
            return 0.0
        span = self.records[-1].time - self.records[0].time
        if span <= 0:
            return 0.0
        return self.byte_count * 8.0 / span

    def frame_ids_seen(self) -> set[int]:
        """Distinct video frame ids observed on this tap."""
        return {r.frame_id for r in self.records if r.frame_id is not None}
