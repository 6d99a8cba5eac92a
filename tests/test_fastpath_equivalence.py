"""Fast-path ↔ event-engine equivalence suite.

The fast path's contract is *bit-identity*: for every qualifying spec,
``REPRO_FASTPATH=1`` must produce a :class:`ResultSummary` equal field
for field (floats compared with ``==``, not ``pytest.approx``) to what
the event engine produces under ``REPRO_FASTPATH=0``. This module
checks that contract over the paper's own grid (both clips, all three
encodings, paper token rates and depths, drop and remark, transmitted
and fixed reference, several seeds) plus a randomized corpus of
synthetic clips, and pins down the dispatch rules for specs the fast
path cannot serve.
"""

import random
import zlib

import numpy as np
import pytest

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.fastlane import FastpathUnsupported, qualifies_for_fastpath
from repro.core.runner import ResultSummary
from repro.server.videocharger import VideoChargerServer, message_schedule
from repro.sim.engine import Engine
from repro.sim.fastpath import compute_schedule, jitter_releases
from repro.testbeds.qbone import QBoneTestbedConfig
from repro.units import mbps
from repro.video.clips import encode_clip


class _NullSink:
    def receive(self, packet):
        pass


@pytest.fixture(autouse=True)
def _reset_fastlane(monkeypatch):
    """Isolate dispatch counters and the env override per test."""
    monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
    fastlane.stats.reset()
    yield
    fastlane.stats.reset()


def _summary(spec: ExperimentSpec, mode: str, monkeypatch) -> ResultSummary:
    monkeypatch.setenv(fastlane.FASTPATH_ENV, mode)
    return ResultSummary.from_result(run_experiment(spec), elapsed_s=0.0)


def _assert_identical(engine_side: ResultSummary, fast_side: ResultSummary):
    for name in engine_side.__dataclass_fields__:
        if name == "elapsed_s":
            continue
        a = getattr(engine_side, name)
        b = getattr(fast_side, name)
        assert a == b, f"{name}: engine={a!r} fast={b!r}"


def _spec(
    clip="lost",
    encoding=1.7,
    rate=1.9,
    depth=3000.0,
    action="drop",
    reference="transmitted",
    seed=0,
    **kwargs,
) -> ExperimentSpec:
    return ExperimentSpec(
        clip=clip,
        codec="mpeg1",
        encoding_rate_bps=mbps(encoding),
        token_rate_bps=mbps(rate),
        bucket_depth_bytes=depth,
        policer_action=action,
        reference=reference,
        seed=seed,
        **kwargs,
    )


# The paper corpus: every encoding's sweep range, both depths, both
# policer actions, both reference modes, both clips, several seeds.
PAPER_CORPUS = [
    _spec("lost", 1.7, 1.65, 3000.0, "drop"),
    _spec("lost", 1.7, 1.75, 3000.0, "drop"),
    _spec("lost", 1.7, 1.9, 3000.0, "drop"),
    _spec("lost", 1.7, 2.2, 3000.0, "drop"),
    _spec("lost", 1.7, 1.7, 4500.0, "remark"),
    _spec("lost", 1.7, 2.0, 4500.0, "remark"),
    _spec("lost", 1.5, 1.45, 3000.0, "drop"),
    _spec("lost", 1.5, 1.6, 3000.0, "drop"),
    _spec("lost", 1.5, 1.9, 3000.0, "drop"),
    _spec("lost", 1.5, 1.5, 4500.0, "remark"),
    _spec("lost", 1.5, 1.8, 4500.0, "remark"),
    _spec("lost", 1.0, 0.95, 3000.0, "drop"),
    _spec("lost", 1.0, 1.1, 3000.0, "drop"),
    _spec("lost", 1.0, 1.4, 3000.0, "drop"),
    _spec("lost", 1.0, 1.2, 4500.0, "remark"),
    _spec("dark", 1.7, 1.65, 3000.0, "drop"),
    _spec("dark", 1.7, 1.9, 3000.0, "drop"),
    _spec("dark", 1.5, 1.55, 4500.0, "remark"),
    _spec("lost", 1.5, 1.7, 3000.0, "drop", reference="fixed"),
    _spec("lost", 1.0, 1.1, 4500.0, "remark", reference="fixed"),
    _spec("dark", 1.5, 1.6, 3000.0, "drop", reference="fixed"),
    _spec("lost", 1.7, 1.9, 3000.0, "drop", seed=7),
    _spec("lost", 1.7, 1.9, 3000.0, "remark", seed=11),
    # Shaped specs: admitted to the fast lane by the analytic shaper
    # recurrence (repro.sim.fastpath.shaper_releases).
    _spec("lost", 1.7, 1.7, 3000.0, "drop", use_shaper=True),
    _spec("lost", 1.7, 1.9, 3000.0, "remark", use_shaper=True, seed=3),
    _spec("dark", 1.5, 1.55, 4500.0, "drop", use_shaper=True),
]


def _corpus_id(spec: ExperimentSpec) -> str:
    rate = spec.token_rate_bps / 1e6
    enc = spec.encoding_rate_bps / 1e6
    label = (
        f"{spec.clip}-e{enc:g}-r{rate:g}-b{spec.bucket_depth_bytes:.0f}"
        f"-{spec.policer_action}-{spec.reference}-s{spec.seed}"
    )
    if spec.use_shaper:
        label += "-shaped"
    return label


class TestPaperCorpusEquivalence:
    @pytest.mark.parametrize("spec", PAPER_CORPUS, ids=_corpus_id)
    def test_bit_identical_summary(self, spec, monkeypatch):
        assert qualifies_for_fastpath(spec)
        engine_side = _summary(spec, "0", monkeypatch)
        fast_side = _summary(spec, "1", monkeypatch)
        _assert_identical(engine_side, fast_side)


class TestRandomizedEquivalence:
    """Seeded random qualifying specs over fast synthetic clips."""

    @pytest.mark.parametrize("trial", range(8))
    def test_random_spec_bit_identical(self, trial, monkeypatch):
        rng = random.Random(1000 + trial)
        encoding = rng.choice([1.0, 1.5, 1.7])
        spec = _spec(
            clip=f"test-{rng.choice([150, 300, 450])}",
            encoding=encoding,
            rate=round(encoding * rng.uniform(0.85, 1.3), 3),
            depth=float(rng.choice([1500, 3000, 4500, 9000])),
            action=rng.choice(["drop", "remark"]),
            reference=rng.choice(["transmitted", "fixed"]),
            seed=rng.randrange(1000),
            startup_delay_s=rng.choice([0.5, 2.0, 4.0]),
            decode_mode=rng.choice(["gop", "independent"]),
            use_shaper=rng.random() < 0.3,
        )
        assert qualifies_for_fastpath(spec)
        engine_side = _summary(spec, "0", monkeypatch)
        fast_side = _summary(spec, "1", monkeypatch)
        _assert_identical(engine_side, fast_side)


class TestScheduleEquivalence:
    """Vectorized emission schedule == the scalar cursor walk."""

    @pytest.mark.parametrize("clip_name", ["test-300", "test-450"])
    def test_message_schedule_matches_scalar(self, clip_name):
        clip = encode_clip(clip_name, "mpeg1", mbps(1.7))
        fids, lens, dues = message_schedule(clip)
        server = VideoChargerServer(Engine(), clip, _NullSink())
        server._stream_pos = 0
        m = 0
        while True:
            chunk = server._next_chunk()
            if chunk is None:
                break
            server._stream_pos += chunk.n_bytes
            due = server._due_time(server._stream_pos)
            assert chunk.frame_id == int(fids[m])
            assert chunk.n_bytes == int(lens[m])
            assert due == dues[m]  # bitwise, not approx
            m += 1
        assert m == len(lens)


def _jitter_releases_oracle(campus_departs, seed, cfg):
    """The jitter replay spelled as ``JitterElement.receive`` draws it:
    ``exponential(mean)``, clamped with ``min``, then the burst draws."""
    key = zlib.crc32(b"jitter") & 0x7FFFFFFF
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    )
    base = 0.0005
    mean_jitter = cfg.jitter_mean_s
    max_jitter = cfg.jitter_max_s
    burst_p = 0.004
    burst_lo, burst_hi = (0.001, 0.004)
    releases = []
    last_release = 0.0
    for a in campus_departs:
        jitter = 0.0
        if mean_jitter > 0:
            jitter = min(float(rng.exponential(mean_jitter)), max_jitter)
        if burst_p > 0 and rng.random() < burst_p:
            jitter += float(rng.uniform(burst_lo, burst_hi))
        release = a + base + jitter
        if release < last_release:
            release = last_release
        last_release = release
        releases.append(release)
    return releases


class TestJitterReplay:
    """``jitter_releases`` draws the engine's stream, float for float."""

    @pytest.mark.parametrize(
        "cfg",
        [
            QBoneTestbedConfig(),
            # Mean == max: about a third of the draws clip.
            QBoneTestbedConfig(jitter_mean_s=0.002, jitter_max_s=0.002),
            # No exponential draw: only the burst draws advance the stream.
            QBoneTestbedConfig(jitter_mean_s=0.0),
        ],
        ids=["default", "clipping", "no-exponential"],
    )
    def test_matches_engine_spelling_over_seeds(self, cfg):
        sched = compute_schedule(encode_clip("test-150", "mpeg1", mbps(1.7)), cfg)
        for seed in [*range(50), 2**31 - 1, 10**12]:
            expected = _jitter_releases_oracle(sched.campus_departs, seed, cfg)
            got = jitter_releases(sched.campus_departs, seed, cfg)
            assert got == expected, f"seed {seed}"


NON_QUALIFYING = [
    _spec(clip="test-300", arq=True, feedback_loss=0.0),
    _spec(clip="test-300", fec_group=4),
    _spec(clip="test-300", adaptation=True, server="adaptive-vc"),
    _spec(clip="test-300", cross_traffic_bps=mbps(10.0)),
    _spec(clip="test-300", transport="tcp", server="wmt", testbed="local"),
    _spec(clip="test-300", client_buffer_frames=60),
]


class TestDispatch:
    def test_non_qualifying_specs_detected(self):
        for spec in NON_QUALIFYING:
            assert not qualifies_for_fastpath(spec)

    def test_shaped_specs_qualify(self):
        # Widened coverage: the analytic shaper recurrence admits
        # use_shaper specs to both the scalar and the batch lane.
        shaped = _spec(clip="test-300", use_shaper=True)
        assert qualifies_for_fastpath(shaped)
        assert fastlane.qualifies_for_batch(shaped)

    def test_trace_capture_excluded_from_batch(self):
        traced = _spec(clip="test-300", capture_trace=True)
        assert qualifies_for_fastpath(traced)
        assert not fastlane.qualifies_for_batch(traced)

    def test_auto_mode_falls_back_silently(self, monkeypatch):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "auto")
        spec = _spec(clip="test-300", arq=True)
        result = run_experiment(spec)  # engine path, no error
        assert result.client_record.n_frames == 300
        assert fastlane.stats.fallbacks == 1
        assert fastlane.stats.hits == 0

    def test_auto_mode_takes_fast_path_when_qualifying(self, monkeypatch):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "auto")
        run_experiment(_spec(clip="test-300"))
        assert fastlane.stats.hits == 1
        assert fastlane.stats.hit_rate == 1.0

    def test_mode_zero_forces_engine_everywhere(self, monkeypatch):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        run_experiment(_spec(clip="test-300"))
        assert fastlane.stats.hits == 0
        assert fastlane.stats.fallbacks == 0

    def test_mode_one_raises_on_non_qualifying(self, monkeypatch):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "1")
        with pytest.raises(FastpathUnsupported):
            run_experiment(_spec(clip="test-300", cross_traffic_bps=mbps(5)))

    def test_cross_traffic_runs_on_engine(self, monkeypatch):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "auto")
        spec = _spec(clip="test-300", cross_traffic_bps=mbps(20.0))
        result = run_experiment(spec)
        assert fastlane.stats.fallbacks == 1
        assert result.policer_stats.conformant_packets > 0

    def test_adaptation_runs_on_engine(self, monkeypatch):
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "auto")
        spec = _spec(clip="test-300", adaptation=True, server="adaptive-vc")
        run_experiment(spec)
        assert fastlane.stats.fallbacks == 1
        assert fastlane.stats.hits == 0


class TestCacheInterchangeability:
    """Fast-path and engine runs populate the same cache entries."""

    def test_engine_cache_serves_fastpath_and_back(self, tmp_path, monkeypatch):
        from repro.core.resultstore import ResultStore
        from repro.core.runner import Runner

        specs = [
            _spec(clip="test-300", rate=2.0),
            _spec(clip="test-300", rate=2.2, action="remark"),
        ]
        store = ResultStore(tmp_path)

        # Engine populates the cache...
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        first = Runner(store=store)
        engine_side = first.run_batch(specs)
        assert first.stats.simulated == 2

        # ...and the fast path reads those exact entries back.
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "1")
        second = Runner(store=store)
        cached = second.run_batch(specs)
        assert second.stats.cache_hits == 2
        assert second.stats.simulated == 0
        for a, b in zip(engine_side, cached):
            _assert_identical(a, b)

        # A fast-path run into an empty store writes entries the
        # engine then hits: same fingerprints, same summaries.
        other = ResultStore(tmp_path / "reverse")
        third = Runner(store=other)
        fast_side = third.run_batch(specs)
        assert third.stats.simulated == 2
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        fourth = Runner(store=other)
        replayed = fourth.run_batch(specs)
        assert fourth.stats.cache_hits == 2
        for a, b in zip(fast_side, replayed):
            _assert_identical(a, b)


def _batch_grid(clip="test-300", encoding=1.5, **kwargs):
    """A small (rate x depth x seed) grid sharing one batch key."""
    return [
        _spec(
            clip=clip,
            encoding=encoding,
            rate=rate,
            depth=depth,
            seed=seed,
            **kwargs,
        )
        for rate in (1.3, 1.5, 1.8)
        for depth in (3000.0, 4500.0)
        for seed in (0, 9)
    ]


class TestBatchEquivalence:
    """The batch lane's contract: bit-identical to scalar and engine."""

    def test_batch_matches_scalar_over_paper_corpus(self, monkeypatch):
        batchable = [s for s in PAPER_CORPUS if fastlane.qualifies_for_batch(s)]
        assert batchable, "paper corpus lost its batchable population"
        batched = fastlane.run_batchpath(batchable)
        for spec, batch_side in zip(batchable, batched):
            _assert_identical(_summary(spec, "1", monkeypatch), batch_side)

    def test_three_way_identity_on_grid(self, monkeypatch):
        grid = _batch_grid()
        batched = fastlane.run_batchpath(grid)
        for spec, batch_side in zip(grid, batched):
            _assert_identical(_summary(spec, "1", monkeypatch), batch_side)
        # Engine spot checks pin the chain engine == scalar == batch.
        for index in (0, 5, 11):
            _assert_identical(
                _summary(grid[index], "0", monkeypatch), batched[index]
            )

    def test_shaped_grid_matches_scalar(self, monkeypatch):
        grid = _batch_grid(use_shaper=True)
        batched = fastlane.run_batchpath(grid)
        for spec, batch_side in zip(grid, batched):
            _assert_identical(_summary(spec, "1", monkeypatch), batch_side)

    def test_mixed_key_grid_is_grouped_correctly(self, monkeypatch):
        # Specs from different groups (clip, action, shaper) in one
        # call: grouping must route each to its own shared front end.
        mixed = [
            _spec(clip="test-300", rate=1.6),
            _spec(clip="test-300", rate=1.8, action="remark"),
            _spec(clip="test-300", rate=1.9),
            _spec(clip="test-150", rate=1.7, encoding=1.5),
            _spec(clip="test-300", rate=1.7, use_shaper=True),
        ]
        batched = fastlane.run_batchpath(mixed)
        for spec, batch_side in zip(mixed, batched):
            _assert_identical(_summary(spec, "1", monkeypatch), batch_side)

    def test_batch_cache_interchangeable_with_serial(
        self, tmp_path, monkeypatch
    ):
        from repro.core.resultstore import ResultStore
        from repro.core.runner import CACHE_SCHEMA_VERSION, Runner

        # Batch-produced entries must be read back by serial/engine
        # runs: same fingerprints, same schema, same summaries.
        assert CACHE_SCHEMA_VERSION == 3

        grid = _batch_grid()
        first = Runner(store=ResultStore(tmp_path), window=len(grid))
        batch_side = first.run_batch(grid)
        assert first.stats.simulated == len(grid)
        assert first.stats.batch_points == len(grid)
        assert first.stats.batch_groups >= 1

        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        second = Runner(store=ResultStore(tmp_path))
        replayed = second.run_batch(grid)
        assert second.stats.cache_hits == len(grid)
        assert second.stats.simulated == 0
        for a, b in zip(batch_side, replayed):
            _assert_identical(a, b)

    def test_wide_grid_lane_scan_matches_scalar_and_narrow_halves(
        self, monkeypatch
    ):
        # 16 lanes per seed in one batch call; each seed's lanes run
        # again in two 8-lane halves. All three must agree.
        rates = (1.2, 1.3, 1.4, 1.45, 1.5, 1.55, 1.6, 1.8)
        grid = [
            _spec(clip="test-150", encoding=1.5, rate=rate, depth=depth, seed=seed)
            for seed in (0, 9)
            for rate in rates
            for depth in (3000.0, 4500.0)
        ]
        per_seed = len(grid) // 2
        wide = fastlane.run_batchpath(grid)
        halves = [
            summary
            for lo in range(0, len(grid), per_seed // 2)
            for summary in fastlane.run_batchpath(grid[lo : lo + per_seed // 2])
        ]
        assert len({s.dropped_packets for s in wide}) > 2  # distinct masks
        for spec, wide_side, half_side in zip(grid, wide, halves):
            _assert_identical(wide_side, half_side)
            _assert_identical(_summary(spec, "1", monkeypatch), wide_side)

    def test_mode_zero_disables_coalescing(self, monkeypatch):
        from repro.core.runner import Runner

        # REPRO_FASTPATH=0 is the control arm: no grid reaches the
        # batch lane and no point takes the scalar fast path.
        grid = _batch_grid(clip="test-150")[:4]
        auto_runner = Runner(jobs=1)
        auto = auto_runner.run_batch(grid)
        assert auto_runner.stats.batch_points == len(grid)
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        runner = Runner(jobs=1)
        engine_side = runner.run_batch(grid)
        assert runner.stats.batch_points == 0
        assert runner.stats.fastpath_hits == 0
        for a, b in zip(auto, engine_side):
            _assert_identical(a, b)
