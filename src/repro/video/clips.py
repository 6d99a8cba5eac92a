"""Clip registry and encode/feature caches.

One stop shop for "give me the Dark clip encoded at 1.5 Mbps and its
feature streams". Encoding a clip and extracting features are both
deterministic but not free, so results are cached per process — a
token-rate sweep re-running sixty experiments only pays the cost once.

The caches are guarded by a lock so concurrent callers (threaded
harnesses, pool initializers) never encode the same clip twice or
observe a half-built entry; lookups take the lock only on a miss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.units import kbps, mbps
from repro.video.frames import FrameFeatures
from repro.video.mpeg import EncodedClip, Mpeg1Encoder
from repro.video.scenes import SceneScript, scene_script_for
from repro.video.wmv import WmvEncoder


@dataclass(frozen=True)
class ClipSpec:
    """Registry entry describing a source clip."""

    name: str
    n_frames: int
    fps: float
    description: str

    @property
    def duration_s(self) -> float:
        """Clip duration in seconds."""
        return self.n_frames / self.fps


#: The paper's two clips (Table 2 gives their frame counts/durations).
CLIPS = {
    "lost": ClipSpec(
        name="lost",
        n_frames=2150,
        fps=29.97,
        description="Action-trailer clip, 71.74 s, fast cuts, high motion",
    ),
    "dark": ClipSpec(
        name="dark",
        n_frames=4219,
        fps=29.97,
        description="Moody-trailer clip, 140.77 s, longer darker scenes",
    ),
}

#: The paper's MPEG-1 encoding rates (Section 3.3.1).
MPEG_RATES_BPS = (mbps(1.0), mbps(1.5), mbps(1.7))

#: The paper's WMV requested bandwidth (Table 3).
WMV_MAX_RATE_BPS = kbps(1015.5)

_script_cache: dict[str, SceneScript] = {}
_encode_cache: dict[tuple, EncodedClip] = {}
_feature_cache: dict[tuple, FrameFeatures] = {}

# Reentrant because the builders nest (clip_features → encode_clip →
# get_script); double-checked locking keeps warm lookups lock-free.
_cache_lock = threading.RLock()


def get_clip(name: str) -> ClipSpec:
    """Look up a registered clip (raises KeyError for unknown names)."""
    if name in CLIPS:
        return CLIPS[name]
    if name.startswith("test-"):
        script = get_script(name)
        return ClipSpec(
            name=name,
            n_frames=script.n_frames,
            fps=script.fps,
            description="synthetic test clip",
        )
    raise KeyError(f"unknown clip {name!r}; known: {sorted(CLIPS)} or test-<n>")


def get_script(name: str) -> SceneScript:
    """Scene script for a clip, cached."""
    script = _script_cache.get(name)
    if script is None:
        with _cache_lock:
            script = _script_cache.get(name)
            if script is None:
                script = scene_script_for(name)
                _script_cache[name] = script
    return script


def encode_clip(
    clip_name: str,
    codec: str = "mpeg1",
    rate_bps: Optional[float] = None,
) -> EncodedClip:
    """Encode (or fetch the cached encoding of) a clip.

    ``codec`` is ``"mpeg1"`` (CBR at ``rate_bps``, default 1.7 Mbps) or
    ``"wmv"`` (VBR capped at ``rate_bps``, default 1015.5 kbps).
    """
    if codec == "mpeg1":
        rate = rate_bps if rate_bps is not None else mbps(1.7)
        encoder_cls = Mpeg1Encoder
    elif codec == "wmv":
        rate = rate_bps if rate_bps is not None else WMV_MAX_RATE_BPS
        encoder_cls = WmvEncoder
    else:
        raise ValueError(f"unknown codec {codec!r}; use 'mpeg1' or 'wmv'")
    key = (clip_name, codec, round(rate))
    encoded = _encode_cache.get(key)
    if encoded is None:
        with _cache_lock:
            encoded = _encode_cache.get(key)
            if encoded is None:
                encoded = encoder_cls(rate).encode(get_script(clip_name))
                _encode_cache[key] = encoded
    return encoded


def clip_features(
    clip_name: str,
    codec: Optional[str] = None,
    rate_bps: Optional[float] = None,
) -> FrameFeatures:
    """Feature streams of a clip version, cached.

    With ``codec=None`` this returns the pristine *reference* features
    (the original source). With a codec, the features of the decoded
    encoding — degraded by the codec's quantizer track — which is what
    a client that received every packet would display.
    """
    return clip_versions(clip_name, [(codec, rate_bps)])[0]


def _feature_key(clip_name: str, codec: Optional[str], rate_bps) -> tuple:
    if codec is None:
        return (clip_name, None, None)
    encoded = encode_clip(clip_name, codec, rate_bps)
    return (clip_name, codec, round(encoded.target_rate_bps))


def clip_versions(
    clip_name: str, versions: Iterable[tuple]
) -> list[FrameFeatures]:
    """Feature streams of several versions of one clip, cached.

    ``versions`` holds ``(codec, rate_bps)`` pairs, each as
    :func:`clip_features` takes them. The versions missing from the
    cache are extracted together, in one pass that renders the clip
    once (:meth:`FrameFeatures.extract_versions`).
    """
    versions = list(versions)
    keys = [_feature_key(clip_name, *version) for version in versions]
    found = [_feature_cache.get(key) for key in keys]
    if any(features is None for features in found):
        with _cache_lock:
            missing: dict = {}  # key -> degradation, first request wins
            for key, (codec, rate_bps) in zip(keys, versions):
                if key in _feature_cache or key in missing:
                    continue
                missing[key] = None if codec is None else encode_clip(
                    clip_name, codec, rate_bps
                ).quantizer_track()
            if missing:
                extracted = FrameFeatures.extract_versions(
                    get_script(clip_name), list(missing.values())
                )
                _feature_cache.update(zip(missing, extracted))
            found = [_feature_cache[key] for key in keys]
    return found


def warm_clip_caches(entries: Iterable[tuple]) -> None:
    """Pre-populate the caches for ``(clip, codec, rate_bps)`` triples.

    A triple with ``codec=None`` warms the pristine reference features;
    otherwise both the encoding and its degraded feature streams are
    built. The versions of one clip are extracted together, rendering
    the clip once. Intended for process-pool initializers, so every
    worker pays the encode cost once up front instead of per
    experiment; concurrent calls are safe.
    """
    by_clip: dict[str, list] = {}
    for clip_name, codec, rate_bps in entries:
        by_clip.setdefault(clip_name, []).append((codec, rate_bps))
    for clip_name, versions in by_clip.items():
        clip_versions(clip_name, versions)


def clear_caches() -> None:
    """Drop all cached scripts/encodings/features (mostly for tests)."""
    with _cache_lock:
        _script_cache.clear()
        _encode_cache.clear()
        _feature_cache.clear()
