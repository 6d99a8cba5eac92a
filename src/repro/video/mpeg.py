"""MPEG-1 constant-bit-rate encoder model (paper Table 2).

We model the two things the experiments depend on:

1. **Logical frame sizes** — GOP-weighted (I much larger than P, P
   larger than B) and scene-complexity-driven. These define which
   stream bytes belong to which frame, hence which *frame* a policer
   drop kills, and the quantizer track that sets encoding quality.

2. **The transport schedule** — how many stream bytes leave the server
   during each frame slot. Real CBR MPEG-1 system streams are mux-rate
   controlled: a VBV-style constraint keeps the cumulative transmitted
   byte curve within a small deviation ``D`` of the nominal rate line,
   while per-slot rates still spike to ~1.2-1.3x the average around I
   frames (the paper's Table 2 max/avg rates and Figure 6 wiggles).

   The burst-excess distribution is the load-bearing calibration of
   the whole reproduction: a token bucket of depth ``b`` policing at
   rate ``r`` drops nothing iff the transmission curve never exceeds
   the ``r`` line by more than ``b``. Typical per-GOP bursts well
   under 3 kB with a tail reaching ``D`` = 4.2 kB reproduce the
   paper's headline behaviour — with a 3000-byte bucket the token
   rate must approach the *maximum* instantaneous encoding rate,
   while a 4500-byte bucket is satisfied near the *average* rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.units import BITS_PER_BYTE
from repro.video.gop import FrameType, GopStructure
from repro.video.scenes import SceneScript

#: Relative bit costs of the MPEG picture types (typical MPEG-1 ratios).
FRAME_TYPE_WEIGHTS = {FrameType.I: 5.0, FrameType.P: 2.2, FrameType.B: 0.8}

#: Default cap on a single transport burst's excess over the rate line
#: (bytes). See :meth:`Mpeg1Encoder._transport_schedule`.
DEFAULT_VBV_DEVIATION = 4200.0


@dataclass(frozen=True)
class EncodedFrame:
    """One coded picture.

    ``quantizer`` is a normalized coding coarseness in [0, 1] used by
    the feature degradation model (0 = transparent).
    """

    frame_id: int
    frame_type: FrameType
    size_bytes: int
    quantizer: float


@dataclass
class EncodedClip:
    """A coded clip plus its transport schedule.

    ``frames`` are the logical pictures in display order;
    ``transport_slots[f]`` is the number of stream bytes the server
    emits during presentation slot ``f``. Both sum to the same stream
    length. ``frame_of_byte`` maps a stream byte offset to the frame
    whose data lives there.
    """

    clip_name: str
    codec: str
    target_rate_bps: float
    fps: float
    frames: list[EncodedFrame]
    transport_slots: np.ndarray

    #: Per-frame byte counts (``frames[f].size_bytes``), read-only.
    frame_sizes: np.ndarray = field(init=False, repr=False)
    _frame_byte_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = np.array([f.size_bytes for f in self.frames], dtype=np.int64)
        if int(sizes.sum()) != int(self.transport_slots.sum()):
            raise ValueError(
                "frame sizes and transport schedule disagree on stream length"
            )
        sizes.flags.writeable = False
        self.frame_sizes = sizes
        self._frame_byte_starts = np.concatenate([[0], np.cumsum(sizes)])

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return len(self.frames)

    @property
    def total_bytes(self) -> int:
        """Total stream bytes."""
        return int(self._frame_byte_starts[-1])

    @property
    def duration_s(self) -> float:
        """Clip duration in seconds."""
        return self.n_frames / self.fps

    def frame_of_byte(self, offset: int) -> int:
        """Display index of the frame owning stream byte ``offset``."""
        if not 0 <= offset < self.total_bytes:
            raise IndexError(f"byte offset {offset} outside stream")
        return int(np.searchsorted(self._frame_byte_starts, offset, "right") - 1)

    def byte_range_of_frame(self, frame_id: int) -> tuple[int, int]:
        """Half-open stream byte range ``[start, end)`` of a frame."""
        return (
            int(self._frame_byte_starts[frame_id]),
            int(self._frame_byte_starts[frame_id + 1]),
        )

    def quantizer_track(self) -> np.ndarray:
        """Per-frame degradation strengths for the feature extractor."""
        return np.array([f.quantizer for f in self.frames], dtype=np.float32)

    # ------------------------------------------------------------------
    # Table 2-style statistics
    # ------------------------------------------------------------------
    def per_slot_rates_bps(self) -> np.ndarray:
        """Instantaneous (per frame slot) transmission rates.

        This is the "rate information computed after every frame"
        of the paper's Table 2 / Figure 6.
        """
        return self.transport_slots.astype(np.float64) * self.fps * BITS_PER_BYTE

    def rate_stats(self) -> dict:
        """Max / average / min instantaneous rates plus stream totals."""
        rates = self.per_slot_rates_bps()
        return {
            "bytes_total": self.total_bytes,
            "n_frames": self.n_frames,
            "duration_s": self.duration_s,
            "avg_frame_bytes": self.total_bytes / self.n_frames,
            "rate_max_bps": float(rates.max()),
            "rate_avg_bps": float(rates.mean()),
            "rate_min_bps": float(rates.min()),
        }

    def max_burst_excess_bytes(self, rate_bps: float) -> float:
        """Largest excess of the transmission curve over a ``rate_bps`` line.

        Equals the minimum token-bucket depth (ignoring packet
        granularity) that passes this schedule without drops at that
        token rate — the empirical burstiness curve.
        """
        slot_s = 1.0 / self.fps
        per_slot_allowance = rate_bps * slot_s / BITS_PER_BYTE
        deltas = self.transport_slots.astype(np.float64) - per_slot_allowance
        # Maximum suffix-reset running sum (Kadane-style).
        running = 0.0
        worst = 0.0
        for d in deltas:
            running = max(0.0, running + d)
            worst = max(worst, running)
        return worst


class Mpeg1Encoder:
    """CBR MPEG-1 encoder model.

    Parameters
    ----------
    rate_bps:
        Target (mux) bitrate — the paper uses 1.0, 1.5 and 1.7 Mbps.
    gop:
        GOP pattern (default N=15, M=3).
    vbv_deviation_bytes:
        Bound on the transport schedule's deviation from the nominal
        rate line (see module docstring).
    quality_scale:
        Bits-per-complexity constant for the quantizer model; higher
        values make a given bitrate look worse (coarser quantizers).
    """

    def __init__(
        self,
        rate_bps: float,
        gop: Optional[GopStructure] = None,
        vbv_deviation_bytes: float = DEFAULT_VBV_DEVIATION,
        quality_scale: float = 2.6e6,
        seed: int = 99,
    ):
        if rate_bps <= 0:
            raise ValueError("encoding rate must be positive")
        self.rate_bps = rate_bps
        self.gop = gop or GopStructure()
        self.vbv_deviation_bytes = vbv_deviation_bytes
        self.quality_scale = quality_scale
        self.seed = seed

    # -- logical frame sizes -------------------------------------------
    def _frame_complexities(self, script: SceneScript) -> np.ndarray:
        """Relative coding complexity of each frame."""
        n = script.n_frames
        types = self.gop.frame_types(n)
        complexity = np.empty(n, dtype=np.float64)
        cursor = 0
        for scene in script.scenes:
            for k in range(scene.n_frames):
                f = cursor + k
                ftype = types[f]
                spatial = 0.45 + 0.55 * scene.spatial_detail
                if ftype is FrameType.I:
                    # Intra frames cost spatial detail only.
                    complexity[f] = FRAME_TYPE_WEIGHTS[ftype] * spatial
                else:
                    # Predicted frames cost residual energy: motion-
                    # dependent, and a scene's first anchor after a cut
                    # is nearly intra-cost.
                    motion = 0.35 + 0.65 * scene.motion
                    complexity[f] = FRAME_TYPE_WEIGHTS[ftype] * spatial * motion
                    if k == 0:
                        complexity[f] *= 2.5  # cut: prediction fails
            cursor += scene.n_frames
        return complexity

    def _allocate_frame_sizes(self, script: SceneScript) -> np.ndarray:
        """TM5-style per-GOP budget allocation → frame sizes in bytes."""
        n = script.n_frames
        complexity = self._frame_complexities(script)
        avg_frame_bytes = self.rate_bps / self.fps_of(script) / BITS_PER_BYTE
        sizes = np.empty(n, dtype=np.float64)
        carry = 0.0  # rate-control feedback between GOPs
        for start in range(0, n, self.gop.n):
            end = min(start + self.gop.n, n)
            budget = avg_frame_bytes * (end - start) - carry
            weights = complexity[start:end]
            sizes[start:end] = budget * weights / weights.sum()
            carry = sizes[start:end].sum() - avg_frame_bytes * (end - start)
        return np.maximum(sizes, 64.0)

    @staticmethod
    def fps_of(script: SceneScript) -> float:
        """Frame rate of a scene script."""
        return script.fps

    # -- quantizer model ------------------------------------------------
    def _quantizers(
        self, script: SceneScript, sizes: np.ndarray
    ) -> np.ndarray:
        """Normalized coding coarseness per frame.

        A frame that gets fewer bits than its complexity demands is
        quantized coarsely. The constant ``quality_scale`` converts
        scene complexity into "bits for transparent coding".
        """
        complexity = self._frame_complexities(script)
        # Bytes for near-transparent coding of one complexity unit;
        # calibrated so the paper's rates land at sensible coarseness
        # (~0.10 mean strength at 1.7 Mbps, ~0.16 at 1.5, ~0.31 at 1.0).
        transparent_bytes = complexity * 4890.0 * (self.quality_scale / 2.6e6)
        ratio = sizes / np.maximum(transparent_bytes, 1.0)
        strengths = np.clip(0.61 - 0.338 * ratio, 0.03, 0.95)
        return strengths.astype(np.float32)

    # -- transport schedule ---------------------------------------------
    def _transport_schedule(self, sizes: np.ndarray) -> np.ndarray:
        """Per-slot byte counts of the mux-smoothed transport stream.

        The model: the server/mux tracks the nominal rate closely
        (small AR(1) wobble), but each GOP's I frame pushes a short
        burst — one to three slots at up to ~1.27x the nominal rate —
        whose *cumulative excess over the rate line* is drawn from a
        skewed distribution: typically well under 3000 bytes, with a
        tail reaching ``vbv_deviation_bytes`` (~3.9 kB by default).
        Each burst is paid back by slightly slower slots immediately
        after it.

        Those excess values are the whole story of the paper's results:
        a 3000-byte bucket at the average rate drops the tail of the
        distribution every few GOPs, while a 4500-byte bucket passes
        all but the rarest events; raising the token rate toward the
        maximum instantaneous rate shrinks every burst's effective
        excess to zero.
        """
        n = len(sizes)
        total = int(sizes.sum())
        avg = total / n
        rng = np.random.default_rng(self.seed + int(self.rate_bps) % 10007)

        # Baseline wobble with a *bounded integral*: slot deviations
        # are differences of a bounded buffer-level process B, so the
        # cumulative curve never drifts more than |B| from the rate
        # line no matter how long the clip is.
        b_bound = min(400.0, 0.06 * avg)
        levels = np.empty(n + 1)
        levels[0] = 0.0
        innovations = rng.standard_normal(n) * (0.35 * b_bound)
        for f in range(n):
            levels[f + 1] = np.clip(
                0.85 * levels[f] + innovations[f], -b_bound, b_bound
            )
        deltas = np.diff(levels)

        ceiling = 1.27 * avg
        floor = 0.68 * avg
        d_max = self.vbv_deviation_bytes

        # One burst event per GOP, anchored at the I frame slot, whose
        # excess distribution is the calibration target (module
        # docstring). Paybacks make each burst locally byte-neutral.
        for gop_start in range(0, n, self.gop.n):
            roll = rng.random()
            if roll < 0.87:
                excess = rng.triangular(600, 1400, 2300)
            elif roll < 0.97:
                excess = rng.uniform(2300, 3000)
            else:
                excess = rng.uniform(3000, d_max)
            excess = min(excess, d_max, 0.75 * avg * 3)
            k = max(1, int(np.ceil(excess / (0.25 * avg))))
            k = min(k, 3, n - gop_start)
            deltas[gop_start : gop_start + k] += excess / k
            payback_len = min(9, max(1, self.gop.n - k - 1))
            start = gop_start + k
            stop = min(start + payback_len, n)
            if stop > start:
                deltas[start:stop] -= excess / (stop - start)
            else:  # burst at the very end of the clip: retract it
                deltas[gop_start : gop_start + k] -= excess / k

        # Apply per-slot rate limits with a carry so clipping never
        # loses or invents stream bytes.
        slots_int = np.empty(n, dtype=np.int64)
        carry = 0.0
        for f in range(n):
            want = avg + deltas[f] + carry
            sent = float(np.clip(want, floor, ceiling))
            carry = want - sent
            slots_int[f] = int(round(sent))
        # Rounding residue: spread one byte at a time (cannot burst).
        residue = int(total - slots_int.sum())
        direction = 1 if residue > 0 else -1
        f = 0
        step = max(1, n // max(abs(residue), 1))
        while residue != 0:
            slots_int[f % n] += direction
            residue -= direction
            f += step
        return slots_int

    # -- public API ------------------------------------------------------
    def encode(self, script: SceneScript) -> EncodedClip:
        """Encode a scene script into frames + transport schedule."""
        raw_sizes = self._allocate_frame_sizes(script)
        sizes = np.round(raw_sizes).astype(np.int64)
        quantizers = self._quantizers(script, raw_sizes)
        slots = self._transport_schedule(sizes.astype(np.float64))
        # Conserve total stream bytes exactly.
        diff = int(sizes.sum() - slots.sum())
        slots[-1] += diff
        types = self.gop.frame_types(script.n_frames)
        frames = [
            EncodedFrame(
                frame_id=f,
                frame_type=types[f],
                size_bytes=int(sizes[f]),
                quantizer=float(quantizers[f]),
            )
            for f in range(script.n_frames)
        ]
        return EncodedClip(
            clip_name=script.name,
            codec="mpeg1",
            target_rate_bps=self.rate_bps,
            fps=script.fps,
            frames=frames,
            transport_slots=slots,
        )
