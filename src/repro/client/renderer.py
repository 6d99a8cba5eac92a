"""Renderer emulation: the paper's Figure 2 algorithm.

"The most common and simplest technique is to keep repeating the last
received frame until a new frame arrives. This is the approach we
chose to emulate." The paper's PERL script walks the storage filter's
timing records, maintains an offset between arrival and presentation
time references, and inserts copies of the previous frame whenever the
playback buffer would have run dry.

Our implementation reproduces the two behaviours that matter to VQM:

* **Lost / undecodable frames** — their presentation slots are filled
  with repeats of the last displayed frame; the playback timeline does
  not shift.
* **Late frames** — the renderer stalls (repeating the previous frame)
  until the frame completes, then *shifts the playback point* by the
  stall (rebuffering), so every subsequent frame is displayed later.
  This is what makes the per-segment temporal calibration in the VQM
  tool necessary, and what fails it outright after long stalls.

The output is a :class:`DisplayTrace`: for every display slot, the
source frame index shown (-1 for slots before anything arrived).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.client.playout import ClientRecord


@dataclass
class DisplayTrace:
    """What a viewer actually saw.

    ``display[k]`` is the source frame shown during display slot ``k``
    (slots are 1/fps long, starting at playback start); -1 denotes a
    dark screen before the first displayable frame.
    """

    display: np.ndarray
    fps: float
    n_source_frames: int
    total_stall_s: float
    rebuffer_events: int

    @property
    def n_slots(self) -> int:
        """Number of display slots in the trace."""
        return len(self.display)

    @property
    def frozen_fraction(self) -> float:
        """Fraction of slots that repeat the previous slot's frame."""
        if len(self.display) < 2:
            return 0.0
        repeats = np.sum(self.display[1:] == self.display[:-1])
        return float(repeats) / (len(self.display) - 1)

    @property
    def displayed_source_fraction(self) -> float:
        """Fraction of source frames that ever reached the screen."""
        shown = {int(f) for f in self.display if f >= 0}
        return len(shown) / self.n_source_frames if self.n_source_frames else 0.0


class RendererEmulation:
    """Offline replay of the storage-filter record (paper §3.1.2)."""

    def __init__(self, max_stall_s: float = 10.0, resume_buffer_s: float = 0.0):
        if resume_buffer_s < 0.0:
            raise ValueError(f"resume_buffer_s must be >= 0: {resume_buffer_s}")
        #: A stall longer than this means the session effectively died
        #: (the paper's clients eventually dropped the connection);
        #: the emulation gives up on the remaining frames.
        self.max_stall_s = max_stall_s
        #: Stall-then-resume recovery: after an underrun, real players
        #: keep stalling until this much extra buffer accumulates
        #: before resuming, trading a longer single stall for fewer
        #: repeat underruns. 0 resumes the instant the late frame
        #: lands (the paper's Figure 2 behaviour).
        self.resume_buffer_s = resume_buffer_s

    def replay(self, record: ClientRecord) -> DisplayTrace:
        """Replay a client record into a display trace (see class docs)."""
        fps = record.fps
        slot = 1.0 / fps
        n = record.n_frames
        playback_start = record.first_arrival_time + record.startup_delay
        shift = 0.0  # accumulated rebuffering shift of the playback point
        total_stall = 0.0
        rebuffers = 0

        display: list[int] = []
        last_shown = -1
        decodable = record.decodable.tolist()
        for f, arrival in enumerate(record.arrival.tolist()):
            scheduled = playback_start + shift + f / fps
            if arrival != arrival or not decodable[f]:
                # Lost frame (NaN: never arrived, or undecodable): its
                # slot shows a repeat; timeline moves on.
                display.append(last_shown)
                continue
            if arrival <= scheduled:
                display.append(f)
                last_shown = f
                continue
            # Late frame: stall (repeat) until it completes, then shift
            # the playback point — the "offset" going negative in the
            # paper's script, answered by inserting previous-frame
            # copies.
            stall = arrival - scheduled + self.resume_buffer_s
            if stall > self.max_stall_s:
                # Session is hopeless from here on; screen freezes.
                remaining = n - f
                display.extend([last_shown] * remaining)
                total_stall += stall
                rebuffers += 1
                break
            stall_slots = math.ceil(stall / slot)
            display.extend([last_shown] * stall_slots)
            shift += stall_slots * slot
            total_stall += stall_slots * slot
            rebuffers += 1
            display.append(f)
            last_shown = f

        return DisplayTrace(
            display=np.array(display, dtype=np.int64),
            fps=fps,
            n_source_frames=n,
            total_stall_s=total_stall,
            rebuffer_events=rebuffers,
        )
