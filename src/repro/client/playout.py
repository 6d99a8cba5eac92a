"""Playout buffer and timing capture.

This is our equivalent of the paper's DirectShow "storage filter": it
sits where the renderer would, recording for every video frame its
completion (arrival) time and nominal presentation time. The renderer
emulation (:mod:`repro.client.renderer`) replays those records into a
display sequence offline, exactly as the paper's PERL script did.

Frame completion semantics:

* **UDP** — a frame is complete when all of its streamed bytes have
  arrived (packets carry byte counts per frame; fragment loss is
  resolved upstream by the reassembler). A frame with any missing
  bytes never completes.
* **TCP** — the receiver delivers bytes in order; a frame completes
  when its last byte is delivered (late, perhaps, but never lost).
* **Decodability** — completed frames are then filtered through the
  GOP prediction chain: a completed P frame whose anchor was lost is
  still undisplayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.units import UDP_IP_HEADER
from repro.video.gop import GopStructure, decodable_mask
from repro.video.mpeg import EncodedClip


@dataclass
class ClientRecord:
    """Everything the offline analysis needs about one session.

    The storage filter's per-frame timing file, as three parallel
    columns indexed by frame id: ``arrival`` (completion time, NaN
    for a frame that never arrived), ``presentation`` (nominal
    presentation time) and ``decodable``.
    """

    n_frames: int
    fps: float
    arrival: np.ndarray
    presentation: np.ndarray
    decodable: np.ndarray
    startup_delay: float
    first_arrival_time: float

    @property
    def mean_lateness_s(self) -> float:
        """Mean positive lateness of arrived frames vs their playout time.

        Repairs that beat the deadline contribute nothing; repairs (or
        congested originals) that complete a frame after its nominal
        presentation time contribute their overshoot. This is the
        delay half of the recovery trade-off.
        """
        arrived = ~np.isnan(self.arrival)
        overshoot = self.arrival[arrived] - self.presentation[arrived]
        late = np.maximum(overshoot, 0.0).tolist()
        return sum(late) / len(late) if late else 0.0

    @property
    def lost_frame_fraction(self) -> float:
        """Fraction of source frames that never became displayable.

        This is the "fraction of lost frames" series of the paper's
        figures: frames that never completed *or* completed but were
        undecodable.
        """
        lost = int(np.count_nonzero(np.isnan(self.arrival) | ~self.decodable))
        return lost / self.n_frames if self.n_frames else 0.0

    def arrival_array(self) -> np.ndarray:
        """Per-frame arrival times; NaN for lost or undecodable frames."""
        return np.where(self.decodable, self.arrival, np.nan)

    def presentation_array(self) -> np.ndarray:
        """Per-frame nominal presentation times."""
        return self.presentation.copy()


class PlayoutClient:
    """Receives video data, tracks per-frame completion, reports loss.

    Parameters
    ----------
    engine / clip:
        The shared engine and the clip being streamed (provides frame
        byte counts and the GOP structure for decodability).
    startup_delay:
        Client-side buffering before playback starts, measured from
        the first arrival.
    decode_mode:
        ``"gop"`` (default) propagates anchor loss through the GOP;
        ``"independent"`` treats every frame as self-contained (used
        by ablations).
    expected_frame_bytes:
        Override of per-frame expected payload (for thinned streams);
        defaults to the clip's frame sizes. Packets carrying a
        ``frame_total`` annotation override per frame at runtime.
    loss_report_interval:
        When a feedback callback is registered via
        :meth:`set_feedback`, loss fractions are reported at this
        period (the RTCP-ish channel the adaptive servers listen to).
    buffer_cap_frames:
        Bound on the playout buffer, in frames not yet displayed.
        ``0`` (default) models the unbounded buffer the paper's
        storage filter effectively had. With a cap, a frame completing
        while the buffer is full is discarded
        (``buffer_overflow_drops``) and never becomes displayable —
        real set-top clients drop exactly this way.
    """

    def __init__(
        self,
        engine: Engine,
        clip: EncodedClip,
        startup_delay: float = 2.0,
        decode_mode: str = "gop",
        gop: Optional[GopStructure] = None,
        expected_frame_bytes: Optional[np.ndarray] = None,
        loss_report_interval: float = 1.0,
        buffer_cap_frames: int = 0,
    ):
        if decode_mode not in ("gop", "independent"):
            raise ValueError(f"bad decode_mode {decode_mode!r}")
        if buffer_cap_frames < 0:
            raise ValueError(f"buffer_cap_frames must be >= 0: {buffer_cap_frames}")
        self.engine = engine
        self.clip = clip
        self.startup_delay = startup_delay
        self.decode_mode = decode_mode
        self.gop = gop or GopStructure()
        self.loss_report_interval = loss_report_interval

        n = clip.n_frames
        if expected_frame_bytes is None:
            expected_frame_bytes = clip.frame_sizes
        # Own copy: a ``frame_total`` annotation rewrites entries.
        self._expected = np.array(expected_frame_bytes, dtype=np.int64)
        self._received_bytes = np.zeros(n, dtype=np.int64)
        self._completion = np.full(n, np.nan)
        self._first_arrival: Optional[float] = None
        self._feedback = None
        self._interval_expected_packets = 0
        self._interval_lost_packets = 0
        self._interval_delays: list[float] = []
        self.received_packets = 0
        self.buffer_cap_frames = buffer_cap_frames
        self.buffer_overflow_drops = 0
        self._completed_count = 0

    # ------------------------------------------------------------------
    # feedback channel
    # ------------------------------------------------------------------
    def set_feedback(self, callback) -> None:
        """Register ``callback(loss_fraction, mean_delay_s)`` reports.

        The interval counts start here: register before the session
        starts for the first report to cover its first interval.
        """
        self._feedback = callback
        self.engine.schedule(self.loss_report_interval, self._report)

    def note_policer_drop(self, drop) -> None:
        """Experiment harness hook: a packet of ours died upstream.

        ``drop`` is a :class:`repro.diffserv.policer.PolicerDrop`
        record (the client only counts it; the richer fields serve the
        detection and journal layers). Loss is otherwise invisible to a
        UDP client until sequence gaps; counting at the drop point
        keeps the model simple. Only a feedback consumer reads the
        interval counts, so without one nothing is counted.
        """
        if self._feedback is not None:
            self._interval_lost_packets += 1
            self._interval_expected_packets += 1

    def _report(self) -> None:
        if self._feedback is not None:
            total = self._interval_expected_packets
            loss = (
                self._interval_lost_packets / total if total > 0 else 0.0
            )
            delays = self._interval_delays
            mean_delay = sum(delays) / len(delays) if delays else 0.0
            self._feedback(loss, mean_delay)
            self._interval_expected_packets = 0
            self._interval_lost_packets = 0
            self._interval_delays = []
            self.engine.schedule(self.loss_report_interval, self._report)

    # ------------------------------------------------------------------
    # data paths
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """UDP data path (PacketSink interface)."""
        self.received_packets += 1
        if self._feedback is not None:
            self._interval_expected_packets += 1
            self._interval_delays.append(self.engine.now - packet.created_at)
        if packet.frame_id is None:
            return
        if "datagram_bytes" in packet.annotations:
            payload = packet.annotations["datagram_bytes"] - (
                packet.fragment_count * UDP_IP_HEADER
            )
        else:
            payload = packet.size - UDP_IP_HEADER
        if "frame_total" in packet.annotations:
            self._expected[packet.frame_id] = packet.annotations["frame_total"]
        self._credit(packet.frame_id, payload)

    def on_tcp_deliver(self, frame_id: int, n_bytes: int, time: float) -> None:
        """TCP data path (wired to :class:`TcpReceiver`)."""
        if frame_id < 0:
            return
        if self._first_arrival is None:
            self._first_arrival = time
        self._received_bytes[frame_id] += n_bytes
        if (
            np.isnan(self._completion[frame_id])
            and self._received_bytes[frame_id] >= self._expected[frame_id]
        ):
            self._complete(frame_id, time)

    def _credit(self, frame_id: int, payload: int) -> None:
        if self._first_arrival is None:
            self._first_arrival = self.engine.now
        self._received_bytes[frame_id] += payload
        if (
            np.isnan(self._completion[frame_id])
            and self._received_bytes[frame_id] >= self._expected[frame_id]
        ):
            self._complete(frame_id, self.engine.now)

    def _complete(self, frame_id: int, when: float) -> None:
        """Record frame completion, subject to the buffer bound."""
        if (
            self.buffer_cap_frames
            and self._buffered_at(when) >= self.buffer_cap_frames
        ):
            self.buffer_overflow_drops += 1
            return
        self._completion[frame_id] = when
        self._completed_count += 1

    def _buffered_at(self, when: float) -> int:
        """Completed-but-undisplayed frames at time ``when``."""
        played = 0
        start = self.playback_start
        if start is not None and when > start:
            played = min(
                int((when - start) * self.clip.fps), self.clip.n_frames
            )
        return max(self._completed_count - played, 0)

    @property
    def playback_start(self) -> Optional[float]:
        """Nominal playout start time; None before any data arrives."""
        if self._first_arrival is None:
            return None
        return self._first_arrival + self.startup_delay

    # ------------------------------------------------------------------
    # offline record
    # ------------------------------------------------------------------
    def finalize(self) -> ClientRecord:
        """Close the session and emit the storage-filter record.

        The one place a :class:`ClientRecord` is built: the engine and
        every fast lane finalize through here. The record's columns
        are fresh arrays: presentation is ``(t0 + startup) + f / fps``
        elementwise, arrivals are a copy of the completion array (NaN
        where a frame never completed), and decodability follows the
        GOP chain (or completion alone in ``independent`` mode).
        """
        n = self.clip.n_frames
        t0 = self._first_arrival if self._first_arrival is not None else 0.0
        arrival = self._completion[:n].copy()
        complete = ~np.isnan(arrival)
        if self.decode_mode == "gop":
            decodable = decodable_mask(complete, self.gop)
        else:
            decodable = complete
        return ClientRecord(
            n_frames=n,
            fps=self.clip.fps,
            arrival=arrival,
            presentation=(t0 + self.startup_delay) + np.arange(n) / self.clip.fps,
            decodable=decodable,
            startup_delay=self.startup_delay,
            first_arrival_time=t0,
        )
