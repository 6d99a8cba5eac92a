"""Tests for scene scripts and frame rendering/features."""

import random
import sys
import threading

import numpy as np
import pytest
from scipy import ndimage

from repro.units import mbps
from repro.video import clips
from repro.video.frames import (
    FrameFeatures,
    FrameRenderer,
    degrade_stack,
    edge_features,
    temporal_information,
)
from repro.video.scenes import Scene, scene_script_for


class TestSceneScripts:
    def test_lost_matches_paper(self):
        script = scene_script_for("lost")
        assert script.n_frames == 2150
        assert script.duration_s == pytest.approx(71.74, abs=0.05)

    def test_dark_matches_paper(self):
        script = scene_script_for("dark")
        assert script.n_frames == 4219
        assert script.duration_s == pytest.approx(140.77, abs=0.05)

    def test_dark_is_darker_and_calmer_than_lost(self):
        lost = scene_script_for("lost")
        dark = scene_script_for("dark")

        def mean(attr, script):
            total = sum(getattr(s, attr) * s.n_frames for s in script.scenes)
            return total / script.n_frames

        assert mean("brightness", dark) < mean("brightness", lost)
        assert mean("motion", dark) < mean("motion", lost)

    def test_test_clip_sizes(self):
        assert scene_script_for("test-150").n_frames == 150

    def test_unknown_clip_rejected(self):
        with pytest.raises(KeyError):
            scene_script_for("casablanca")

    def test_bad_test_name_rejected(self):
        with pytest.raises(ValueError):
            scene_script_for("test-abc")

    def test_scene_of_frame(self, small_script):
        first = small_script.scenes[0]
        assert small_script.scene_of_frame(0) is first
        assert small_script.scene_of_frame(first.n_frames).scene_id == 1

    def test_scene_of_frame_bounds(self, small_script):
        with pytest.raises(IndexError):
            small_script.scene_of_frame(small_script.n_frames)
        with pytest.raises(IndexError):
            small_script.scene_of_frame(-1)

    def test_scene_ids_cover_all_frames(self, small_script):
        ids = small_script.scene_ids()
        assert len(ids) == small_script.n_frames
        assert ids[0] == 0
        assert (np.diff(ids) >= 0).all()

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            Scene(0, 0, 0.5, 0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            Scene(0, 10, 1.5, 0.5, 0.5, 0.0, 0.0)

    def test_scripts_are_deterministic(self):
        a = scene_script_for("lost")
        b = scene_script_for("lost")
        assert [s.n_frames for s in a.scenes] == [s.n_frames for s in b.scenes]
        assert [s.motion for s in a.scenes] == [s.motion for s in b.scenes]


class TestFrameRenderer:
    def test_scene_stack_shapes(self, small_script):
        renderer = FrameRenderer(small_script)
        scene = small_script.scenes[0]
        y, u, v = renderer.render_scene(scene)
        assert y.shape == (scene.n_frames, renderer.height, renderer.width)
        assert u.shape == (scene.n_frames, renderer.height // 2, renderer.width // 2)
        assert v.shape == u.shape

    def test_pixels_in_range(self, small_script):
        renderer = FrameRenderer(small_script)
        y, _, _ = renderer.render_scene(small_script.scenes[0])
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_rendering_is_deterministic(self, small_script):
        r1 = FrameRenderer(small_script)
        r2 = FrameRenderer(small_script)
        y1, _, _ = r1.render_scene(small_script.scenes[0])
        y2, _, _ = r2.render_scene(small_script.scenes[0])
        assert (y1 == y2).all()

    def test_render_single_frame_matches_stack(self, small_script):
        renderer = FrameRenderer(small_script)
        scene = small_script.scenes[1]
        offset = small_script.scenes[0].n_frames
        y_stack, _, _ = renderer.render_scene(scene)
        y_one, _, _ = renderer.render_frame(offset + 3)
        assert np.allclose(y_stack[3], y_one)

    def test_motion_moves_pixels(self, small_script):
        renderer = FrameRenderer(small_script)
        y, _, _ = renderer.render_scene(small_script.scenes[0])
        assert not np.allclose(y[0], y[1])


class TestFeatureExtraction:
    def test_si_increases_with_detail(self):
        flat = np.full((1, 48, 64), 0.5, dtype=np.float32)
        yy, xx = np.mgrid[0:48, 0:64].astype(np.float32)
        busy = (0.5 + 0.3 * np.sin(xx) * np.sin(yy))[None].astype(np.float32)
        assert edge_features(busy)[0][0] > edge_features(flat)[0][0]

    def test_ti_zero_for_static(self):
        static = np.repeat(np.random.default_rng(0).random((1, 8, 8)), 5, axis=0)
        ti = temporal_information(static.astype(np.float32))
        assert np.allclose(ti, 0.0)

    def test_ti_positive_for_changing(self):
        stack = np.random.default_rng(0).random((5, 8, 8)).astype(np.float32)
        assert (temporal_information(stack)[1:] > 0).all()

    def test_extract_shapes(self, small_script):
        features = FrameFeatures.extract(small_script)
        n = small_script.n_frames
        for name in ("y_mean", "y_std", "si", "hv", "ti", "u_mean", "v_mean"):
            assert len(getattr(features, name)) == n
        assert features.n_frames == n

    def test_scene_cut_produces_large_ti(self, small_script):
        features = FrameFeatures.extract(small_script)
        cut = small_script.scenes[0].n_frames  # first frame of scene 1
        within = features.ti[cut - 5 : cut]
        assert features.ti[cut] > within.mean()

    def test_degradation_reduces_si(self, small_script):
        clean = FrameFeatures.extract(small_script)
        strengths = np.full(small_script.n_frames, 0.5, dtype=np.float32)
        coded = FrameFeatures.extract(small_script, degradation=strengths)
        assert coded.si.mean() < clean.si.mean()

    def test_degradation_length_checked(self, small_script):
        with pytest.raises(ValueError):
            FrameFeatures.extract(small_script, degradation=np.zeros(3))

    def test_degrade_stack_strength_zero_is_identity_blend(self):
        rng = np.random.default_rng(0)
        y = rng.random((4, 16, 16)).astype(np.float32)
        out = degrade_stack(y, np.zeros(4), rng)
        assert np.allclose(out, y, atol=1e-6)

    def test_degrade_stack_validates_shape(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            degrade_stack(np.zeros((4, 8, 8), np.float32), np.zeros(3), rng)


class TestTiComposition:
    @pytest.fixture(scope="class")
    def features(self):
        return FrameFeatures.extract(scene_script_for("test-150"))

    def test_same_frame_is_zero(self, features):
        assert features.ti_between(10, 10) == 0.0

    def test_adjacent_matches_measured(self, features):
        assert features.ti_between(9, 10) == pytest.approx(features.ti[10])

    def test_symmetric(self, features):
        assert features.ti_between(5, 9) == features.ti_between(9, 5)

    def test_skip_exceeds_single_step(self, features):
        # Within one scene, jumping 5 frames moves at least as much as
        # one frame step.
        assert features.ti_between(5, 10) >= features.ti[6] * 0.99

    def test_cross_scene_decorrelates(self, features):
        script = scene_script_for("test-150")
        cut = script.scenes[0].n_frames
        expected = np.sqrt(
            features.y_std[cut - 1] ** 2 + features.y_std[cut + 1] ** 2
        )
        assert features.ti_between(cut - 1, cut + 1) == pytest.approx(
            expected, rel=1e-5
        )

    def test_display_sequence_freeze_reads_zero(self, features):
        display = np.array([0, 1, 2, 2, 2, 3])
        ti = features.ti_for_display_sequence(display)
        assert ti[0] == 0.0
        assert ti[3] == 0.0 and ti[4] == 0.0
        assert ti[2] > 0.0

    def test_display_sequence_dark_slots(self, features):
        """Dark slots read 0 and the first picture reads its own y_std,
        never a transition from the clip's last frame."""
        ti = features.ti_for_display_sequence(np.array([-1, -1, 0, 1, 2]))
        assert ti[0] == 0.0 and ti[1] == 0.0
        assert ti[2] == features.y_std[0]
        assert ti[3] == np.float32(features.ti_between(0, 1))
        assert ti[4] == np.float32(features.ti_between(1, 2))

    def test_display_sequence_jumps_use_ti_between(self, features):
        display = np.array([3, 7, 7, 2, 3, 149])
        ti = features.ti_for_display_sequence(display)
        for k in (1, 3, 4, 5):
            want = features.ti_between(int(display[k - 1]), int(display[k]))
            assert ti[k] == np.float32(want)
        assert ti[2] == 0.0


def consecutive_ti_oracle(features):
    """``ti_between(j - 1, j)`` pair by pair, with entry 0 = 0."""
    return np.array(
        [0.0] + [features.ti_between(j - 1, j) for j in range(1, features.n_frames)]
    )


class TestConsecutiveTi:
    """The gathered TI column is ``ti_between`` on every consecutive pair."""

    @pytest.mark.parametrize("clip_name", ["test-150", "test-300"])
    def test_matches_ti_between_on_every_version(self, clip_name):
        versions = [(None, None)] + [
            ("mpeg1", rate) for rate in clips.MPEG_RATES_BPS
        ] + [("wmv", None)]
        for features in clips.clip_versions(clip_name, versions):
            column = features.consecutive_ti()
            assert column.dtype == np.float64
            assert column.tobytes() == consecutive_ti_oracle(features).tobytes()

    def test_follows_the_scalar_float32_power(self):
        """``y_std`` bits 0x3e7f23bf square differently as a float32
        scalar (0.06208060681819916) and inside a float32 array
        (0.06208060309290886) on some numpy builds; across this cut the
        difference survives the add and the sqrt, so a column built
        from the squared array would disagree with ``ti_between``."""
        y_std = np.array([0x3E7F23BF, 0x3F000000], dtype=np.uint32).view(np.float32)
        zeros = np.zeros(2, dtype=np.float32)
        features = FrameFeatures(
            clip_name="bits",
            y_mean=zeros,
            y_std=y_std,
            si=zeros,
            hv=zeros,
            ti=zeros,
            u_mean=zeros,
            v_mean=zeros,
            scene_ids=np.array([0, 1]),
        )
        assert features.consecutive_ti().tobytes() == (
            consecutive_ti_oracle(features).tobytes()
        )


class TestTiCompositionAccuracy:
    """Validate the composed TI against directly rendered frame diffs."""

    def test_composed_matches_rendered_within_scene(self):
        import numpy as np
        from repro.video.clips import get_script
        from repro.video.frames import FrameFeatures, FrameRenderer

        script = get_script("test-150")
        features = FrameFeatures.extract(script)
        renderer = FrameRenderer(script)
        for i, j in ((5, 8), (10, 15), (20, 30), (40, 41)):
            yi, _, _ = renderer.render_frame(i)
            yj, _, _ = renderer.render_frame(j)
            actual = float(np.sqrt(((yi - yj) ** 2).mean()))
            composed = features.ti_between(i, j)
            # Within a factor of ~1.5 either way of the true rms diff.
            assert 0.65 * actual <= composed <= 1.5 * actual


FEATURE_FIELDS = ("y_mean", "y_std", "si", "hv", "ti", "u_mean", "v_mean", "scene_ids")


def per_version_extract(script, degradation=None):
    """Reference oracle: the per-version pipeline that one-pass
    extraction replaced. It renders the clip for this version alone,
    draws the version's own seed-7 degradation noise, and derives SI
    and the HV ratio from separately built magnitude stacks."""
    rng = np.random.default_rng(7)
    out = {name: [] for name in FEATURE_FIELDS}
    cursor, prev_last = 0, None
    for scene in script.scenes:
        y, u, v = FrameRenderer(script).render_scene(scene)
        if degradation is not None:
            y = degrade_stack(y, degradation[cursor : cursor + scene.n_frames], rng)
        gx = ndimage.sobel(y, axis=2, mode="nearest")
        gy = ndimage.sobel(y, axis=1, mode="nearest")
        si = np.sqrt(gx * gx + gy * gy).std(axis=(1, 2))
        magnitude = np.sqrt(gx * gx + gy * gy) + 1e-9
        angle = np.arctan2(np.abs(gy), np.abs(gx))
        hv_mask = (angle < 0.225) | (angle > np.pi / 2 - 0.225)
        hv = (magnitude * hv_mask).sum(axis=(1, 2)) / magnitude.sum(axis=(1, 2))
        ti = temporal_information(y)
        if prev_last is not None:
            cut_diff = y[0] - prev_last
            ti[0] = float(np.sqrt((cut_diff * cut_diff).mean()))
        for name, values in (
            ("y_mean", y.mean(axis=(1, 2))), ("y_std", y.std(axis=(1, 2))),
            ("si", si), ("hv", hv), ("ti", ti),
            ("u_mean", u.mean(axis=(1, 2))), ("v_mean", v.mean(axis=(1, 2))),
        ):
            out[name].append(values)
        prev_last = y[-1]
        cursor += scene.n_frames
    joined = {name: np.concatenate(parts) for name, parts in out.items() if parts}
    joined["scene_ids"] = script.scene_ids()
    return joined


def assert_same_features(got, want):
    for name in FEATURE_FIELDS:
        a = getattr(got, name)
        b = want[name] if isinstance(want, dict) else getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestOnePassExtraction:
    """Versions extracted together equal versions extracted alone."""

    CLIP = "test-150"
    RATES = (mbps(1.0), mbps(1.5), mbps(1.7))

    @pytest.fixture
    def feature_cache(self, monkeypatch):
        """An empty feature cache for this test only."""
        cache: dict = {}
        monkeypatch.setattr(clips, "_feature_cache", cache)
        return cache

    def _degradation(self, codec, rate):
        if codec is None:
            return None
        return clips.encode_clip(self.CLIP, codec, rate).quantizer_track()

    def test_matches_per_version_oracle(self):
        script = clips.get_script(self.CLIP)
        assert len(set(script.scene_ids().tolist())) > 1  # has scene cuts
        degradations = [None] + [self._degradation("mpeg1", r) for r in self.RATES]
        together = FrameFeatures.extract_versions(script, degradations)
        for features, degradation in zip(together, degradations):
            assert_same_features(features, per_version_extract(script, degradation))

    def test_warm_plan_equals_single_extractions(self, feature_cache):
        """A shuffled plan, one version already cached: every version
        equals a one-version ``extract``, ``ti`` at the cuts included."""
        entries = [(self.CLIP, None, None)]
        entries += [(self.CLIP, "mpeg1", rate) for rate in self.RATES]
        random.Random(16).shuffle(entries)
        cached = clips.clip_features(*entries[1])
        clips.warm_clip_caches(entries)
        assert clips.clip_features(*entries[1]) is cached
        assert len(feature_cache) == len(entries)
        script = clips.get_script(self.CLIP)
        for _clip, codec, rate in entries:
            assert_same_features(
                clips.clip_features(self.CLIP, codec, rate),
                FrameFeatures.extract(script, self._degradation(codec, rate)),
            )

    @pytest.mark.timeout(120)
    def test_concurrent_warms_extract_each_version_once(
        self, feature_cache, monkeypatch
    ):
        extracted = []
        real = FrameFeatures.extract_versions.__func__

        def counting(cls, script, degradations):
            extracted.append(len(degradations))
            return real(cls, script, degradations)

        monkeypatch.setattr(FrameFeatures, "extract_versions", classmethod(counting))
        versions = [(None, None)] + [("mpeg1", rate) for rate in self.RATES]
        plans = [  # four overlapping plans, more threads than cores
            [(self.CLIP, *versions[i]), (self.CLIP, *versions[(i + 1) % 4])]
            for i in range(4)
        ]
        errors = []
        barrier = threading.Barrier(len(plans))

        def warm(plan):
            try:
                barrier.wait(timeout=30)
                clips.warm_clip_caches(plan)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=warm, args=(p,)) for p in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(extracted) == len(versions)
        assert len(feature_cache) == len(versions)
