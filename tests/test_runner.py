"""Tests for the runner layer: fingerprints, runners, and the cache."""

import dataclasses
import json
import subprocess
import sys

import pytest

import repro.core.runner as runner_mod
from repro.core.experiment import ExperimentSpec
from repro.core.resultstore import ResultStore, default_cache_dir
from repro.core.runner import ResultSummary, Runner, spec_fingerprint
from repro.core.sweep import token_rate_sweep
from repro.units import mbps


def fast_spec(**overrides):
    base = dict(
        clip="test-300",
        codec="mpeg1",
        encoding_rate_bps=mbps(1.7),
        token_rate_bps=mbps(2.2),
        bucket_depth_bytes=4500,
        seed=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecFingerprint:
    def test_equal_specs_hash_equal(self):
        assert spec_fingerprint(fast_spec()) == spec_fingerprint(fast_spec())

    def test_any_field_change_changes_hash(self):
        """Every spec field — including the seed — is load-bearing."""
        base = fast_spec()
        base_fp = spec_fingerprint(base)
        changed = dict(
            clip="test-600",
            codec="wmv",
            encoding_rate_bps=mbps(1.5),
            server="wmt",
            transport="tcp",
            testbed="local",
            token_rate_bps=mbps(1.9),
            bucket_depth_bytes=3000,
            policer_action="remark",
            use_shaper=True,
            shaper_rate_bps=mbps(2.0),
            cross_traffic_bps=mbps(0.5),
            reference="fixed",
            fixed_reference_rate_bps=mbps(1.5),
            startup_delay_s=5.0,
            decode_mode="independent",
            adaptation=True,
            arq=True,
            fec_group=8,
            feedback_loss=0.1,
            feedback_rtt_s=0.1,
            client_buffer_frames=60,
            capture_trace=True,
            seed=4,
        )
        spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        assert set(changed) == spec_fields  # keep this test exhaustive
        for name, value in changed.items():
            mutated = dataclasses.replace(base, **{name: value})
            assert spec_fingerprint(mutated) != base_fp, name

    def test_stable_across_processes(self):
        """No salted hash(): a child interpreter gets the same digest."""
        code = (
            "from repro.core.experiment import ExperimentSpec\n"
            "from repro.core.runner import spec_fingerprint\n"
            "from repro.units import mbps\n"
            "print(spec_fingerprint(ExperimentSpec(clip='test-300',"
            " codec='mpeg1', encoding_rate_bps=mbps(1.7),"
            " token_rate_bps=mbps(2.2), bucket_depth_bytes=4500, seed=3)))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == spec_fingerprint(fast_spec())

    def test_schema_version_salts_hash(self, monkeypatch):
        before = spec_fingerprint(fast_spec())
        monkeypatch.setattr(
            runner_mod, "CACHE_SCHEMA_VERSION", runner_mod.CACHE_SCHEMA_VERSION + 1
        )
        assert spec_fingerprint(fast_spec()) != before


def make_summary(**overrides):
    base = dict(
        quality_score=0.05,
        lost_frame_fraction=0.01,
        packet_drop_fraction=0.002,
        frozen_fraction=0.01,
        rebuffer_events=0,
        total_stall_s=0.0,
        conformant_packets=1000,
        dropped_packets=2,
        remarked_packets=0,
        dropped_bytes=3000,
        server_aborted=False,
        server_packets=1002,
        client_packets=1000,
        network={"loss_fraction": 0.002},
        elapsed_s=1.5,
    )
    base.update(overrides)
    return ResultSummary(**base)


class TestResultSummary:
    def test_round_trips_through_json(self):
        summary = make_summary()
        data = json.loads(json.dumps(summary.to_dict()))
        assert ResultSummary.from_dict(data) == summary

    def test_elapsed_excluded_from_equality(self):
        assert make_summary(elapsed_s=1.0) == make_summary(elapsed_s=9.0)

    def test_from_dict_ignores_unknown_keys(self):
        data = make_summary().to_dict()
        data["future_field"] = 42
        assert ResultSummary.from_dict(data) == make_summary()


class TestRunners:
    def test_serial_matches_direct_execution(self):
        from repro.core.experiment import run_experiment

        spec = fast_spec()
        [summary] = Runner().run_batch([spec])
        direct = run_experiment(spec)
        assert summary.quality_score == direct.quality_score
        assert summary.lost_frame_fraction == direct.lost_frame_fraction
        assert summary.dropped_packets == direct.policer_stats.dropped_packets

    def test_serial_and_pool_bitwise_identical(self):
        """Acceptance: worker count must not perturb any measurement."""
        specs = [
            fast_spec(token_rate_bps=mbps(1.8)),
            fast_spec(token_rate_bps=mbps(2.2)),
            fast_spec(token_rate_bps=mbps(1.8), bucket_depth_bytes=3000),
        ]
        serial = Runner().run_batch(specs)
        pooled = Runner(jobs=2).run_batch(specs)
        assert serial == pooled

    def test_pool_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)


class TestWarmPlan:
    def test_plan_warms_only_scored_versions(self):
        """Pool workers warm the versions they encode and score, and
        never the pristine features, which no reference mode reads."""
        from repro.flows.aggregate import AggregateSpec

        transmitted = fast_spec()
        fixed = fast_spec(
            encoding_rate_bps=mbps(1.0),
            reference="fixed",
            fixed_reference_rate_bps=mbps(1.7),
        )
        adaptive = fast_spec(
            clip="test-150", server="adaptive-vc", adaptation=True
        )
        aggregate = AggregateSpec(
            flows=(
                fast_spec(clip="test-600", encoding_rate_bps=mbps(1.5)),
                fast_spec(clip="test-600", codec="wmv", encoding_rate_bps=None),
            )
        )
        plan = runner_mod._warm_plan([transmitted, fixed, adaptive, aggregate])
        assert plan == [
            ("test-300", "mpeg1", mbps(1.7)),
            ("test-300", "mpeg1", mbps(1.0)),
            ("test-150", "mpeg1", mbps(1.7)),
            ("test-150", "mpeg1", mbps(1.0)),
            ("test-150", "mpeg1", mbps(1.5)),
            ("test-600", "mpeg1", mbps(1.5)),
            ("test-600", "wmv", None),
        ]


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        summary = make_summary()
        store.put("abc123", fast_spec(), summary)
        assert store.get("abc123") == summary
        assert "abc123" in store
        assert len(store) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get("nope") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None

    def test_corrupt_entry_is_deleted(self, tmp_path):
        """Bad files are removed so the next put rewrites them cleanly."""
        store = ResultStore(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None
        assert not (tmp_path / "bad.json").exists()

    def test_truncated_entry_is_deleted(self, tmp_path):
        """A torn write (power loss mid-flush) reads as a miss, once."""
        store = ResultStore(tmp_path)
        fingerprint = spec_fingerprint(fast_spec())
        store.put(fingerprint, fast_spec(), make_summary())
        path = tmp_path / f"{fingerprint}.json"
        path.write_bytes(path.read_bytes()[:40])
        assert store.get(fingerprint) is None
        assert not path.exists()

    def test_wrong_shape_entry_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "odd.json").write_text(
            json.dumps(
                {
                    "schema_version": runner_mod.CACHE_SCHEMA_VERSION,
                    "summary": "not-a-dict",
                }
            )
        )
        assert store.get("odd") is None
        assert not (tmp_path / "odd.json").exists()

    def test_corrupted_entry_resimulated_and_healed(self, tmp_path):
        """End to end: corruption costs one re-simulation, not a crash."""
        store = ResultStore(tmp_path)
        spec = fast_spec()
        fingerprint = spec_fingerprint(spec)
        [fresh] = Runner(store=store).run_batch([spec])
        (tmp_path / f"{fingerprint}.json").write_text("\x00garbage")
        healer = Runner(store=store)
        [again] = healer.run_batch([spec])
        assert healer.stats.cache_hits == 0
        assert healer.stats.simulated == 1
        assert again == fresh
        # The entry was rewritten: a third run hits cleanly.
        third = Runner(store=store)
        third.run_batch([spec])
        assert third.stats.cache_hits == 1

    def test_schema_bump_invalidates_entries(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        fingerprint = spec_fingerprint(fast_spec())
        store.put(fingerprint, fast_spec(), make_summary())
        monkeypatch.setattr(
            runner_mod, "CACHE_SCHEMA_VERSION", runner_mod.CACHE_SCHEMA_VERSION + 1
        )
        # The same spec no longer even produces the old key, and the
        # old entry fails the stored-version check directly.
        assert spec_fingerprint(fast_spec()) != fingerprint
        assert store.get(fingerprint) is None

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", fast_spec(), make_summary())
        assert store.clear() == 1
        assert len(store) == 0

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert ResultStore().cache_dir == tmp_path / "alt"


class TestCachedSweeps:
    def test_second_sweep_is_all_hits(self, tmp_path):
        """Acceptance: a repeated sweep performs zero simulations."""
        rates = [mbps(2.0), mbps(2.2)]
        depths = (3000.0, 4500.0)
        store = ResultStore(tmp_path)

        cold = Runner(store=store)
        first = token_rate_sweep(fast_spec(), rates, depths, runner=cold)
        assert cold.stats.simulated == len(first.points) == 4
        assert cold.stats.cache_hits == 0

        warm = Runner(store=store)
        second = token_rate_sweep(fast_spec(), rates, depths, runner=warm)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(second.points) == 4
        assert warm.stats.time_saved_s > 0
        for a, b in zip(first.points, second.points):
            assert a.result == b.result

    def test_cache_is_spec_sensitive(self, tmp_path):
        store = ResultStore(tmp_path)
        Runner(store=store).run_batch([fast_spec()])
        other = Runner(store=store)
        other.run_batch([fast_spec(seed=4)])
        assert other.stats.simulated == 1
        assert other.stats.cache_hits == 0

    def test_pool_runner_uses_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [fast_spec(token_rate_bps=mbps(2.0)), fast_spec()]
        fresh = Runner(store=store).run_batch(specs)
        pooled = Runner(jobs=2, store=store)
        assert pooled.run_batch(specs) == fresh
        assert pooled.stats.simulated == 0
        assert pooled.stats.cache_hits == 2

    def test_stats_describe_mentions_counts(self, tmp_path):
        runner = Runner(store=ResultStore(tmp_path))
        runner.run_batch([fast_spec()])
        line = runner.stats.describe()
        assert "1 simulated" in line
        assert "0 cache hits" in line
