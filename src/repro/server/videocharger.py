"""IBM VideoCharger server model.

The paper's QBone server: streams CBR MPEG-1 over UDP with small
application messages and deliberate pacing, making it the only
standard-format server whose burstiness was low enough for EF policing
to be interesting ("the Video Charger server allows smaller message
sizes so that while some burstiness remained ... it was significantly
lower").

Model: fluid pacing against the clip's transport schedule. The
schedule defines a cumulative byte curve C(t), piecewise linear per
frame slot; each frame-aligned message (at most ``message_bytes``
payload) is released at the instant C(t) reaches the message's last
byte. The emitted packet process therefore never runs ahead of the
schedule curve — the burstiness the policer sees is the schedule's
burstiness (plus per-packet header overhead), with no packetization
phase artifacts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.diffserv.dscp import DSCP
from repro.sim.engine import Engine
from repro.sim.packet import PacketSink
from repro.video.mpeg import EncodedClip
from repro.video.packetizer import MTU_PAYLOAD, PayloadChunk
from repro.server.base import StreamingServer

#: Default application message payload: a single MTU packet. The
#: VideoCharger "allows smaller message sizes", and one-packet
#: messages are what keeps its output policeable: the token bucket's
#: depth then buys whole packets of slack (3000 B = 2 packets,
#: 4500 B = 3 packets) exactly as the EF "one or two MTUs" guidance
#: assumes.
DEFAULT_MESSAGE_BYTES = MTU_PAYLOAD


def message_schedule(
    clip: EncodedClip,
    message_bytes: int = DEFAULT_MESSAGE_BYTES,
    start_time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precompute the whole emission schedule as numpy arrays.

    Returns ``(frame_ids, payload_bytes, due_times)`` — one entry per
    application message, in emission order. The arithmetic replicates
    the scalar :meth:`VideoChargerServer._due_time` /
    :meth:`VideoChargerServer._next_chunk` pair operation-for-operation
    (same dtypes, same IEEE-754 rounding), so event-driven and
    fast-path runs see bit-identical timestamps.
    """
    sizes = clip.frame_sizes
    mb = int(message_bytes)
    counts = (sizes + mb - 1) // mb  # messages per frame (0 for empty frames)
    total = int(counts.sum())
    frame_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), counts)
    lens = np.full(total, mb, dtype=np.int64)
    if total:
        last = (np.cumsum(counts) - 1)[counts > 0]
        lens[last] = (sizes - (counts - 1) * mb)[counts > 0]
    targets = np.cumsum(lens)  # stream position after each message

    slots = np.asarray(clip.transport_slots, dtype=np.int64)
    cumulative = np.concatenate([[0], np.cumsum(slots)]).astype(np.int64)
    slot_duration = 1.0 / clip.fps
    f = np.searchsorted(cumulative, targets, "left") - 1
    f = np.clip(f, 0, max(len(slots) - 1, 0))
    slot_bytes = slots[f] if len(slots) else np.zeros(total, dtype=np.int64)
    safe = np.where(slot_bytes > 0, slot_bytes, 1)
    into_slot = np.where(
        slot_bytes > 0, (targets - cumulative[f]) / safe, 1.0
    )
    dues = start_time + (f + into_slot) * slot_duration
    beyond = cumulative[np.minimum(f + 1, len(cumulative) - 1)] < targets
    dues[beyond] = start_time + len(slots) * slot_duration
    return frame_ids, lens, dues


class VideoChargerServer(StreamingServer):
    """Paced small-message UDP streamer.

    Parameters
    ----------
    premark_dscp:
        DSCP stamped on packets at the server ("pre-marked as EF
        packets by the server" in the QBone setup); ``None`` sends
        unmarked traffic for the local edge router to mark.
    message_bytes:
        Application message payload cap.
    """

    #: Messages scheduled per batch. The whole emission schedule is
    #: precomputed at construction; batching amortizes the per-message
    #: scheduling callback without changing any event timestamp (the
    #: delay recurrence below is the one ``_send_next`` would have
    #: produced message-by-message).
    BATCH_MESSAGES = 64

    def __init__(
        self,
        engine: Engine,
        clip: EncodedClip,
        sink: PacketSink,
        flow_id: str = "video",
        premark_dscp: Optional[DSCP] = DSCP.EF,
        message_bytes: int = DEFAULT_MESSAGE_BYTES,
    ):
        super().__init__(engine, clip, sink, flow_id, large_datagrams=False)
        if message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        self.premark_dscp = premark_dscp
        self.message_bytes = message_bytes
        self._stream_pos = 0
        self._start_time = 0.0
        # Cumulative schedule curve: _cumulative[f] = stream bytes due
        # by the end of slot f-1 (so _cumulative[0] = 0).
        self._cumulative = np.concatenate(
            [[0], np.cumsum(clip.transport_slots)]
        ).astype(np.int64)
        # Precomputed emission schedule (frame id, payload, due time
        # relative to the session start) — shared with the fast path.
        self._msg_fids, self._msg_lens, self._msg_dues = message_schedule(
            clip, message_bytes
        )
        self._msg_targets = np.cumsum(self._msg_lens)
        self._next_message = 0
        self._sent_messages = 0

    def _begin(self) -> None:
        self._start_time = self.engine.now
        self._schedule_batch()

    def _schedule_batch(self) -> None:
        """Schedule the next ``BATCH_MESSAGES`` message emissions.

        Timestamps replicate the original one-callback-per-message
        recurrence exactly: each message fires at
        ``t = t_prev + max(0.0, due - t_prev)``, with ``t_prev`` the
        previous message's firing time (``engine.now`` at batch head).
        """
        i = self._next_message
        n = len(self._msg_dues)
        if i >= n:
            return
        stop = min(i + self.BATCH_MESSAGES, n)
        t = self.engine.now
        start = self._start_time
        for m in range(i, stop):
            delay = start + self._msg_dues[m] - t
            if delay < 0.0:
                delay = 0.0
            t = t + delay
            chunk = PayloadChunk(
                frame_id=int(self._msg_fids[m]), n_bytes=int(self._msg_lens[m])
            )
            self.engine.schedule_at(t, lambda c=chunk: self._send_message(c))
        self._next_message = stop
        self._stream_pos = int(self._msg_targets[stop - 1])

    def _due_time(self, target_bytes: int) -> float:
        """Absolute time at which C(t) reaches ``target_bytes``."""
        slot_duration = 1.0 / self.clip.fps
        f = int(np.searchsorted(self._cumulative, target_bytes, "left")) - 1
        f = max(0, min(f, len(self.clip.transport_slots) - 1))
        if self._cumulative[f + 1] < target_bytes:  # beyond schedule end
            return self._start_time + len(self.clip.transport_slots) * slot_duration
        slot_bytes = int(self.clip.transport_slots[f])
        into_slot = (
            (target_bytes - self._cumulative[f]) / slot_bytes
            if slot_bytes > 0
            else 1.0
        )
        return self._start_time + (f + into_slot) * slot_duration

    def _next_chunk(self) -> Optional[PayloadChunk]:
        """The next frame-aligned message payload at the stream cursor."""
        if self._stream_pos >= self.clip.total_bytes:
            return None
        frame_id = self.clip.frame_of_byte(self._stream_pos)
        _, frame_end = self.clip.byte_range_of_frame(frame_id)
        chunk_len = min(
            self.message_bytes,
            frame_end - self._stream_pos,
            self.clip.total_bytes - self._stream_pos,
        )
        return PayloadChunk(frame_id=frame_id, n_bytes=chunk_len)

    def _send_message(self, chunk: PayloadChunk) -> None:
        packets = self.packetizer.packetize_chunk(chunk, self.engine.now)
        if self.premark_dscp is not None:
            for packet in packets:
                packet.dscp = int(self.premark_dscp)
        self._emit_packets(packets)
        self._sent_messages += 1
        if self._sent_messages == self._next_message:
            self._schedule_batch()

    @property
    def finished(self) -> bool:
        """True once the whole stream has been handed to the network."""
        return self._stream_pos >= self.clip.total_bytes
