"""Synthetic frame rendering and feature extraction.

The VQM methodology is *reduced reference*: quality is judged from
per-frame feature streams (spatial detail, motion, chroma), not from
full frames. We therefore render deterministic synthetic frames whose
feature statistics are controlled by the scene script, extract the
ANSI-style features once, and cache only the features.

Rendering model (per scene): two drifting sinusoidal gratings whose
spatial frequency follows ``spatial_detail`` and whose phase velocity
follows ``motion``, over a mean level set by ``brightness``, plus a
small deterministic noise texture. Chroma planes are near-constant per
scene. Frames are float32 in [0, 1], luma at 64x48 (a 5x downsample of
the paper's 320x240 — a documented substitution; features are scale-
normalized so this only reduces compute).

Encoded (decoded-after-compression) variants are produced by applying
a per-frame degradation: a blend toward a blurred frame plus
quantization noise, with strength driven by the codec model's
quantizer track. Extracting features from degraded frames gives the
encoding-quality floor seen in the paper's fixed-reference
experiments. The blurred frames and the noise do not depend on the
strength, so several versions of a clip are extracted in one pass that
renders each scene once (:meth:`FrameFeatures.extract_versions`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from repro.video.scenes import Scene, SceneScript

#: Internal analysis resolution (luma). Chroma is subsampled 2x.
FRAME_HEIGHT = 48
FRAME_WIDTH = 64

#: Seed of the degradation noise stream, drawn scene by scene.
DEGRADATION_SEED = 7

#: Per-frame features that depend on the (possibly degraded) luma.
_LUMA_FEATURES = ("y_mean", "y_std", "si", "hv", "ti")


def _scene_rng(script_name: str, scene_id: int) -> np.random.Generator:
    """Deterministic per-scene random stream (stable across processes).

    Uses CRC32 rather than ``hash()`` — Python string hashing is
    salted per process, which would make "identical" clips differ
    between runs.
    """
    seed = zlib.crc32(f"{script_name}:{scene_id}".encode()) & 0x7FFFFFFF
    return np.random.default_rng(seed)


class FrameRenderer:
    """Renders the frames of a scene script, scene by scene."""

    def __init__(
        self,
        script: SceneScript,
        height: int = FRAME_HEIGHT,
        width: int = FRAME_WIDTH,
    ):
        self.script = script
        self.height = height
        self.width = width

    def render_scene(self, scene: Scene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Render one scene.

        Returns ``(y, u, v)`` where ``y`` has shape
        ``(n_frames, height, width)`` and the chroma planes are half
        resolution.
        """
        rng = _scene_rng(self.script.name, scene.scene_id)
        n, h, w = scene.n_frames, self.height, self.width
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
        xx /= w
        yy /= h
        t = np.arange(n, dtype=np.float32)[:, None, None]

        # Spatial frequencies grow with detail; phase velocity with motion.
        f1 = 2.0 + 8.0 * scene.spatial_detail + rng.uniform(0, 1.5)
        f2 = 3.0 + 10.0 * scene.spatial_detail + rng.uniform(0, 2.0)
        angle1 = rng.uniform(0, np.pi)
        angle2 = rng.uniform(0, np.pi)
        omega1 = 0.05 + 0.45 * scene.motion
        omega2 = 0.08 + 0.6 * scene.motion

        g1 = np.sin(
            2 * np.pi * f1 * (np.cos(angle1) * xx + np.sin(angle1) * yy)
            + omega1 * t
        )
        g2 = np.sin(
            2 * np.pi * f2 * (np.cos(angle2) * xx - np.sin(angle2) * yy)
            - omega2 * t
        )
        amp1 = 0.22 * (0.3 + 0.7 * scene.spatial_detail)
        amp2 = 0.13 * (0.3 + 0.7 * scene.spatial_detail)
        noise = rng.standard_normal((n, h, w)).astype(np.float32) * 0.015
        y = scene.brightness + amp1 * g1 + amp2 * g2 + noise
        np.clip(y, 0.0, 1.0, out=y)

        ch, cw = h // 2, w // 2
        u = np.full((n, ch, cw), 0.5 + scene.chroma_u, dtype=np.float32)
        v = np.full((n, ch, cw), 0.5 + scene.chroma_v, dtype=np.float32)
        u += rng.standard_normal((n, ch, cw)).astype(np.float32) * 0.01
        v += rng.standard_normal((n, ch, cw)).astype(np.float32) * 0.01
        return y.astype(np.float32), u, v

    def render_frame(self, frame_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Render a single frame (used by exactness tests)."""
        scene = self.script.scene_of_frame(frame_id)
        offset = 0
        for s in self.script.scenes:
            if s.scene_id == scene.scene_id:
                break
            offset += s.n_frames
        y, u, v = self.render_scene(scene)
        local = frame_id - offset
        return y[local], u[local], v[local]


def degrade_stack(
    y: np.ndarray,
    strength: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply codec-style degradation to a luma stack.

    ``strength`` is per-frame in [0, 1]: 0 = transparent coding, 1 =
    coarsest quantization. Degradation blends toward a blurred frame
    (loss of spatial detail) and injects quantization noise.
    """
    if strength.shape[0] != y.shape[0]:
        raise ValueError("one strength value per frame required")
    return _degrade_versions(y, [strength], rng)[0]


def _degrade_versions(
    y: np.ndarray,
    strengths: Sequence[Optional[np.ndarray]],
    rng: np.random.Generator,
) -> list:
    """``y`` degraded at each strength track; ``None`` keeps it pristine.

    The blur and the noise do not depend on the strength, so they are
    computed once, with a single noise draw of ``y``'s shape when any
    track is given, and freed on return.
    """
    if all(strength is None for strength in strengths):
        return [y] * len(strengths)
    blurred = ndimage.uniform_filter(y, size=(1, 3, 3), mode="nearest")
    noise = rng.standard_normal(y.shape).astype(np.float32)
    out = []
    for strength in strengths:
        if strength is None:
            out.append(y)
            continue
        s = np.clip(strength, 0.0, 1.0).astype(np.float32)[:, None, None]
        degraded = (1.0 - 0.8 * s) * y + 0.8 * s * blurred + 0.03 * s * noise
        np.clip(degraded, 0.0, 1.0, out=degraded)
        out.append(degraded.astype(np.float32, copy=False))
    return out


# ----------------------------------------------------------------------
# feature extraction
# ----------------------------------------------------------------------

def edge_features(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame SI and HV ratio from one pair of Sobel gradients.

    SI is the std of the Sobel gradient magnitude, the classic ITU-T
    P.910 / ANSI T1.801.03 spatial information measure. The HV ratio
    is an ANSI T1.801.03-style edge-orientation feature: the share of
    edge energy whose gradient lies within 0.225 rad of an axis. Blur
    shifts edge energy away from crisp H/V structure. The arithmetic
    runs in place where it can and each stack is freed once used, so
    at most four frame stacks are alive at a time.
    """
    gx = ndimage.sobel(y, axis=2, mode="nearest")
    gy = ndimage.sobel(y, axis=1, mode="nearest")
    magnitude = gx * gx
    magnitude += gy * gy
    np.sqrt(magnitude, out=magnitude)
    si = magnitude.std(axis=(1, 2))
    angle = np.arctan2(np.abs(gy, out=gy), np.abs(gx, out=gx))
    del gx, gy
    hv_mask = (angle < 0.225) | (angle > np.pi / 2 - 0.225)
    del angle
    magnitude += 1e-9
    total = magnitude.sum(axis=(1, 2))
    magnitude *= hv_mask
    return si, magnitude.sum(axis=(1, 2)) / total


def temporal_information(y: np.ndarray) -> np.ndarray:
    """TI feature: rms luma difference to the previous frame.

    First frame of the stack gets TI = 0 (no predecessor inside the
    stack); callers stitch scene stacks together.
    """
    ti = np.zeros(y.shape[0], dtype=np.float32)
    if y.shape[0] > 1:
        diff = y[1:] - y[:-1]
        ti[1:] = np.sqrt((diff * diff).mean(axis=(1, 2)))
    return ti


def _take_luma_features(
    columns: dict, sl: slice, y: np.ndarray, prev_last: Optional[np.ndarray]
) -> np.ndarray:
    """Fill one version's luma feature columns for one scene stack.

    ``prev_last`` is the previous scene's last frame, for the TI across
    the cut; returns this scene's last frame.
    """
    columns["y_mean"][sl] = y.mean(axis=(1, 2))
    columns["y_std"][sl] = y.std(axis=(1, 2))
    columns["si"][sl], columns["hv"][sl] = edge_features(y)
    columns["ti"][sl] = temporal_information(y)
    if prev_last is not None:
        cut_diff = y[0] - prev_last
        columns["ti"][sl.start] = float(np.sqrt((cut_diff * cut_diff).mean()))
    return y[-1].copy()


@dataclass
class FrameFeatures:
    """Per-frame reduced-reference feature streams for one clip version.

    All arrays have length ``n_frames``. ``ti[k]`` is the temporal
    difference between frame ``k`` and frame ``k-1`` (0 for frame 0 and
    at scene cuts it is the genuine cross-cut difference).
    """

    clip_name: str
    y_mean: np.ndarray
    y_std: np.ndarray
    si: np.ndarray
    hv: np.ndarray
    ti: np.ndarray
    u_mean: np.ndarray
    v_mean: np.ndarray
    scene_ids: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return len(self.y_mean)

    @classmethod
    def extract(
        cls, script: SceneScript, degradation: Optional[np.ndarray] = None
    ) -> "FrameFeatures":
        """Render the clip scene by scene and extract features.

        ``degradation`` is an optional per-frame strength array (from a
        codec model); ``None`` extracts pristine reference features.
        """
        return cls.extract_versions(script, [degradation])[0]

    @classmethod
    def extract_versions(
        cls,
        script: SceneScript,
        degradations: Sequence[Optional[np.ndarray]],
    ) -> "list[FrameFeatures]":
        """Extract several versions of one clip in one rendering pass.

        Each entry of ``degradations`` is a per-frame strength array,
        or ``None`` for the pristine reference. Every scene is rendered
        once. Every degraded version blends the same blurred stack and
        the same noise: each version's noise stream (seed
        :data:`DEGRADATION_SEED`) is drawn in scene order with the
        scene's shape, so one draw per scene serves them all. Each
        result is bit-identical to extracting its version alone.
        The chroma means and scene ids are shared by every version.
        """
        n = script.n_frames
        for degradation in degradations:
            if degradation is not None and len(degradation) != n:
                raise ValueError(
                    f"degradation length {len(degradation)} != frames {n}"
                )
        rng = np.random.default_rng(DEGRADATION_SEED)
        columns = [
            {name: np.empty(n, dtype=np.float32) for name in _LUMA_FEATURES}
            for _ in degradations
        ]
        u_mean = np.empty(n, dtype=np.float32)
        v_mean = np.empty(n, dtype=np.float32)
        last_frames: list = [None] * len(degradations)

        renderer = FrameRenderer(script)
        cursor = 0
        for scene in script.scenes:
            y, u, v = renderer.render_scene(scene)
            sl = slice(cursor, cursor + scene.n_frames)
            u_mean[sl] = u.mean(axis=(1, 2))
            v_mean[sl] = v.mean(axis=(1, 2))
            lumas = _degrade_versions(
                y, [None if d is None else d[sl] for d in degradations], rng
            )
            del y, u, v
            for k, col in enumerate(columns):
                last_frames[k] = _take_luma_features(col, sl, lumas[k], last_frames[k])
                lumas[k] = None  # free each version's stack once used
            cursor += scene.n_frames

        scene_ids = script.scene_ids()
        return [
            cls(
                clip_name=script.name,
                u_mean=u_mean,
                v_mean=v_mean,
                scene_ids=scene_ids,
                **col,
            )
            for col in columns
        ]

    # ------------------------------------------------------------------
    # temporal feature composition for display sequences
    # ------------------------------------------------------------------
    def ti_between(self, i: int, j: int) -> float:
        """Temporal difference between displaying frame ``i`` then ``j``.

        * same frame — a freeze: TI is 0;
        * consecutive frames — the measured TI;
        * a skip within a scene — coherent motion accumulates roughly
          linearly, so we sum the per-step TIs and saturate at the
          decorrelation bound (two independent textures differ by
          about ``sqrt(std_i^2 + std_j^2)`` rms). Validated against
          directly rendered frame differences in the test suite.
        * across a scene cut — full decorrelation.
        """
        if j < i:
            i, j = j, i
        if i == j:
            return 0.0
        # Pure function of the (i, j) pair and immutable feature arrays;
        # memoized because the VQM tool re-queries the same transitions
        # for every display sequence of the same clip.
        cache = self.__dict__.get("_ti_cache")
        if cache is None:
            cache = {}
            self.__dict__["_ti_cache"] = cache
        key = (i, j)
        hit = cache.get(key)
        if hit is not None:
            return hit
        bound = float(np.sqrt(self.y_std[i] ** 2 + self.y_std[j] ** 2))
        if self.scene_ids[i] != self.scene_ids[j]:
            value = bound
        else:
            steps = self.ti[i + 1 : j + 1]
            composed = float(np.sum(np.abs(steps.astype(np.float64))))
            value = min(composed, bound)
        cache[key] = value
        return value

    @classmethod
    def composite(
        cls,
        versions: "list[FrameFeatures]",
        selection: np.ndarray,
    ) -> "FrameFeatures":
        """Per-frame mix of several versions of the same clip.

        ``selection[f]`` indexes into ``versions`` for frame ``f`` —
        what a multi-rate server's output looks like to the quality
        meter: each frame carries the features of whichever encoding
        served it.
        """
        if not versions:
            raise ValueError("need at least one version")
        n = versions[0].n_frames
        if any(v.n_frames != n for v in versions):
            raise ValueError("versions must have equal frame counts")
        selection = np.asarray(selection, dtype=np.int64)
        if selection.shape != (n,):
            raise ValueError("selection must have one entry per frame")
        if selection.min() < 0 or selection.max() >= len(versions):
            raise ValueError("selection indexes outside versions")

        def gather(attr: str) -> np.ndarray:
            stacked = np.stack([getattr(v, attr) for v in versions])
            return stacked[selection, np.arange(n)]

        return cls(
            clip_name=versions[0].clip_name,
            y_mean=gather("y_mean"),
            y_std=gather("y_std"),
            si=gather("si"),
            hv=gather("hv"),
            ti=gather("ti"),
            u_mean=gather("u_mean"),
            v_mean=gather("v_mean"),
            scene_ids=versions[0].scene_ids,
        )

    def consecutive_ti(self) -> np.ndarray:
        """``ti_between(j - 1, j)`` for every frame ``j``; entry 0 is 0.

        Built once per instance and cached on it, like the pair memo.
        Bit-identical to the scalar method: each ``y_std[i] ** 2`` is
        the same float32 *scalar* power ``ti_between`` computes (numpy's
        float32 array power rounds some inputs differently, e.g. bits
        ``0x3e7f23bf``), and the rest is elementwise float32 add and
        sqrt widened to float64, then within a scene the float64
        minimum against the measured step.
        """
        column = self.__dict__.get("_consecutive_ti")
        if column is None:
            squares = np.array([v ** 2 for v in self.y_std], dtype=np.float32)
            bound = np.sqrt(squares[:-1] + squares[1:]).astype(np.float64)
            step = np.abs(self.ti[1:].astype(np.float64))
            same_scene = self.scene_ids[1:] == self.scene_ids[:-1]
            column = np.zeros(self.n_frames, dtype=np.float64)
            column[1:] = np.where(same_scene, np.minimum(step, bound), bound)
            self.__dict__["_consecutive_ti"] = column
        return column

    def ti_for_display_sequence(self, display: np.ndarray) -> np.ndarray:
        """TI stream of a rendered display sequence (float32).

        ``display[k]`` is the source frame index shown at presentation
        slot ``k``: repeats model renderer freezes and ``-1`` a dark
        screen. Element 0 is 0. Slot ``k`` reads:

        * a frozen or dark slot — 0;
        * dark to picture — the picture's ``y_std`` (all of it is new);
        * the next frame — :meth:`consecutive_ti`;
        * any other jump — :meth:`ti_between`.
        """
        display = np.asarray(display, dtype=np.int64)
        out = np.zeros(len(display), dtype=np.float32)
        prev, cur = display[:-1], display[1:]
        slots = out[1:]  # view: slot k + 1 of ``out``
        shown = cur >= 0
        from_dark = shown & (prev < 0)
        moved = shown & (prev >= 0) & (cur != prev)
        step = moved & (cur == prev + 1)
        slots[from_dark] = self.y_std[cur[from_dark]]
        slots[step] = self.consecutive_ti()[cur[step]]
        for k in np.flatnonzero(moved & ~step).tolist():
            slots[k] = self.ti_between(int(prev[k]), int(cur[k]))
        return out
