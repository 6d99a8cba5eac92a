"""Concurrent-safe result store: checksums, leases, torn writes.

Covers the campaign-refactor store hardening: checksum-verified
entries (tampering reads as a miss, not poison), single-flight leases
(two campaigns sharing a store never simulate the same fingerprint
twice), orphaned-tmp reaping, and the two-process acceptance scenario.
"""

import json
import os
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentSpec
from repro.core.resultstore import LEASE_STALE_S, Lease, ResultStore
from repro.core.runner import SerialRunner, spec_fingerprint
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


def store_one(store: ResultStore):
    """Simulate one fast spec into the store; returns (fp, summary)."""
    spec = fast_spec()
    fingerprint = spec_fingerprint(spec)
    runner = SerialRunner(store=store)
    [summary] = runner.run_batch([spec])
    return fingerprint, summary


class TestChecksums:
    def test_round_trip_carries_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint, summary = store_one(store)
        entry = json.loads((tmp_path / f"{fingerprint}.json").read_text())
        assert "checksum" in entry
        assert store.get(fingerprint) == summary

    def test_tampered_payload_is_a_discarded_miss(self, tmp_path):
        """Valid JSON + valid shape + wrong bytes: checksum catches it."""
        store = ResultStore(tmp_path)
        fingerprint, _ = store_one(store)
        path = tmp_path / f"{fingerprint}.json"
        entry = json.loads(path.read_text())
        entry["summary"]["quality_score"] = 0.123456  # silent bit-flip
        path.write_text(json.dumps(entry))
        assert store.get(fingerprint) is None
        assert not path.exists()  # deleted-as-miss

    def test_pre_checksum_entry_still_reads(self, tmp_path):
        """Old entries (no checksum key) stay valid: schema unchanged."""
        store = ResultStore(tmp_path)
        fingerprint, summary = store_one(store)
        path = tmp_path / f"{fingerprint}.json"
        entry = json.loads(path.read_text())
        del entry["checksum"]
        path.write_text(json.dumps(entry))
        assert store.get(fingerprint) == summary

    def test_torn_write_is_a_discarded_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint, _ = store_one(store)
        path = tmp_path / f"{fingerprint}.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # crash mid-write
        assert store.get(fingerprint) is None
        assert not path.exists()


class TestTmpReaping:
    def test_stale_tmp_files_reaped_fresh_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        store_one(store)
        stale = tmp_path / ".tmp-orphan1.json"
        stale.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / ".tmp-inflight.json"
        fresh.write_text("{")
        assert store.reap_tmp() == 1
        assert not stale.exists()
        assert fresh.exists()
        assert len(store) == 1  # real entries untouched

    def test_tmp_files_invisible_to_len_and_get(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / ".tmp-x.json").write_text("{")
        assert len(store) == 0


class TestLeases:
    def test_exclusive_until_released(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.acquire_lease("fp")
        assert isinstance(lease, Lease)
        assert store.acquire_lease("fp") is None
        lease.release()
        second = store.acquire_lease("fp")
        assert second is not None
        second.release()

    def test_release_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.acquire_lease("fp")
        lease.release()
        lease.release()

    def test_context_manager_releases(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.acquire_lease("fp"):
            pass
        assert store.acquire_lease("fp") is not None

    def test_dead_holder_lease_is_broken(self, tmp_path):
        store = ResultStore(tmp_path)
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        (tmp_path / "fp.lock").write_text(str(probe.pid))
        lease = store.acquire_lease("fp")
        assert lease is not None
        lease.release()

    def test_ancient_lease_is_broken(self, tmp_path):
        store = ResultStore(tmp_path)
        lock = tmp_path / "fp.lock"
        lock.write_text(str(os.getpid()))  # alive pid, but ancient
        old = time.time() - LEASE_STALE_S - 10
        os.utime(lock, (old, old))
        lease = store.acquire_lease("fp")
        assert lease is not None
        lease.release()

    def test_live_holder_lease_is_respected(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "fp.lock").write_text(str(os.getpid()))
        assert store.acquire_lease("fp") is None

    def test_lock_files_invisible_to_len(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.acquire_lease("fp")
        assert len(store) == 0
        lease.release()

    def test_clear_sweeps_leases_too(self, tmp_path):
        store = ResultStore(tmp_path)
        store_one(store)
        store.acquire_lease("fp")
        assert store.clear() == 1
        assert list(tmp_path.glob("*.lock")) == []


def _unused_pid():
    """A pid that is (almost certainly) not alive."""
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    return probe.pid


class TestLeaseHostname:
    """Lock files record ``pid hostname``; pids only count on this host."""

    def test_lease_records_pid_and_hostname(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.acquire_lease("fp")
        assert lease is not None
        content = (tmp_path / "fp.lock").read_text().split()
        assert content == [str(os.getpid()), socket.gethostname()]
        lease.release()

    def test_foreign_host_lease_ignores_local_pid_liveness(self, tmp_path):
        """A dead-looking pid from another host must NOT break the
        lease: pid namespaces don't span hosts."""
        store = ResultStore(tmp_path)
        (tmp_path / "fp.lock").write_text(f"{_unused_pid()} some-other-host")
        assert store.acquire_lease("fp") is None  # fresh + foreign: honored

    def test_foreign_host_lease_still_ages_out(self, tmp_path):
        store = ResultStore(tmp_path)
        lock = tmp_path / "fp.lock"
        lock.write_text("12345 some-other-host")
        ancient = time.time() - LEASE_STALE_S - 10
        os.utime(lock, (ancient, ancient))
        lease = store.acquire_lease("fp")
        assert lease is not None  # age bound broke the foreign lease
        lease.release()

    def test_same_host_dead_pid_is_broken(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "fp.lock").write_text(
            f"{_unused_pid()} {socket.gethostname()}"
        )
        lease = store.acquire_lease("fp")
        assert lease is not None
        lease.release()


class TestLockFilesUnavailable:
    """A store that cannot create lock files runs units unleased."""

    @pytest.fixture
    def no_lock_files(self, monkeypatch):
        real_open = os.open

        def refuse_locks(path, flags, *args, **kwargs):
            if str(path).endswith(".lock"):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse_locks)

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "rates", [(2.2,), (1.8, 2.2)], ids=["one-unit", "coalesced-grid"]
    )
    def test_campaign_completes_and_publishes(
        self, tmp_path, no_lock_files, rates
    ):
        store = ResultStore(tmp_path)
        specs = [fast_spec(token_rate_bps=mbps(r)) for r in rates]
        runner = SerialRunner(store=store)
        summaries = runner.run_batch(specs)
        assert runner.stats.simulated == len(specs)
        for spec, summary in zip(specs, summaries):
            assert store.get(spec_fingerprint(spec)) == summary
        assert list(tmp_path.glob("*.lock")) == []


WORKER_SCRIPT = textwrap.dedent(
    """
    import json, sys

    from repro.core.experiment import ExperimentSpec
    from repro.core.resultstore import ResultStore
    from repro.core.runner import SerialRunner
    from repro.core.sweep import sweep_specs
    from repro.units import mbps

    cache_dir, out_path = sys.argv[1], sys.argv[2]
    base = ExperimentSpec(
        clip="test-300", codec="mpeg1", encoding_rate_bps=mbps(1.7), seed=3
    )
    rates = [mbps(1.6), mbps(1.8), mbps(2.0)]
    specs = sweep_specs(base, rates, (3000.0, 4500.0))
    runner = SerialRunner(store=ResultStore(cache_dir))
    rows = []

    def emit(unit, outcome, source):
        rows.append({"fingerprint": unit.fingerprint, "source": source})

    runner.run_stream(specs, emit, plan_specs=specs)
    with open(out_path, "w") as handle:
        json.dump(rows, handle)
    """
)


class TestTwoProcessSingleFlight:
    def test_concurrent_campaigns_never_duplicate_a_simulation(
        self, tmp_path
    ):
        """Acceptance: two processes, one store, zero duplicate work.

        Each campaign reports per fingerprint whether it simulated
        (``fresh``) or was answered warm (``cache``/``single-flight``).
        The fresh sets must be disjoint, cover the grid exactly once
        between them, and every published entry must read back clean.
        """
        cache_dir = tmp_path / "shared-store"
        script = tmp_path / "worker.py"
        script.write_text(WORKER_SCRIPT)
        env = dict(os.environ, PYTHONPATH="src")
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(cache_dir), str(out)],
                env=env,
                cwd=Path(__file__).parents[1],
            )
            for out in outs
        ]
        for proc in procs:
            assert proc.wait(timeout=300) == 0

        reports = [json.loads(out.read_text()) for out in outs]
        fresh_sets = [
            {row["fingerprint"] for row in rows if row["source"] == "fresh"}
            for rows in reports
        ]
        all_fps = {row["fingerprint"] for rows in reports for row in rows}
        assert len(all_fps) == 6
        # No fingerprint simulated by both processes...
        assert not (fresh_sets[0] & fresh_sets[1])
        # ...every fingerprint simulated by exactly one of them...
        assert fresh_sets[0] | fresh_sets[1] == all_fps
        # ...both campaigns resolved the full grid...
        assert all(len(rows) == 6 for rows in reports)
        # ...and nothing in the store is corrupt or leftover.
        store = ResultStore(cache_dir)
        for fingerprint in all_fps:
            assert store.get(fingerprint) is not None
        assert list(cache_dir.glob("*.lock")) == []
        assert list(cache_dir.glob(".tmp-*")) == []
