"""Journal rotation/compaction: bounded logs, unchanged resume semantics."""

import json

import pytest

from repro.core.experiment import ExperimentSpec
from repro.core.journal import (
    JOURNAL_SCHEMA_VERSION,
    SweepJournal,
    sweep_fingerprint,
)
from repro.core.faults import FailureRecord
from repro.core.runner import Runner, spec_fingerprint
from repro.core.sweep import sweep_specs, token_rate_sweep
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


def make_summary(tag: float):
    from tests.test_campaign_scheduler import dummy_summary

    return dummy_summary(tag=tag)


def make_failure(fingerprint: str) -> FailureRecord:
    return FailureRecord(
        fingerprint=fingerprint,
        kind="timeout",
        message="exceeded budget",
        attempts=2,
        elapsed_s=1.0,
        spec={"clip": "test-300"},
    )


def journal_lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestCompaction:
    def test_compact_folds_log_into_header_plus_checkpoint(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal.open(path, sweep_id="s1")
        for i in range(5):
            journal.record_success(f"fp{i}", make_summary(float(i)))
        journal.record_failure("fp-bad", make_failure("fp-bad"))
        journal.compact()
        journal.close()
        lines = journal_lines(path)
        assert [line["kind"] for line in lines] == ["header", "checkpoint"]
        assert lines[0]["schema"] == JOURNAL_SCHEMA_VERSION
        assert set(lines[1]["done"]) == {f"fp{i}" for i in range(5)}
        assert set(lines[1]["failed"]) == {"fp-bad"}

    def test_resume_after_compaction_is_equivalent(self, tmp_path):
        """The satellite's proof: compacted and uncompacted journals
        reload to identical completed/failed maps."""
        plain_path = tmp_path / "plain.journal"
        compact_path = tmp_path / "compact.journal"
        for path in (plain_path, compact_path):
            journal = SweepJournal.open(path, sweep_id="s1")
            for i in range(4):
                journal.record_success(f"fp{i}", make_summary(float(i)))
            journal.record_failure("fp-bad", make_failure("fp-bad"))
            if path is compact_path:
                journal.compact()
            journal.close()

        plain = SweepJournal.open(plain_path, sweep_id="s1", resume=True)
        compacted = SweepJournal.open(compact_path, sweep_id="s1", resume=True)
        assert plain.completed == compacted.completed
        assert plain.failed == compacted.failed
        plain.close()
        compacted.close()

    def test_records_after_checkpoint_still_replay(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal.open(path, sweep_id="s1")
        journal.record_success("fp0", make_summary(0.0))
        journal.compact()
        journal.record_success("fp1", make_summary(1.0))
        # Latest-line-wins across the checkpoint boundary too.
        journal.record_failure("fp0", make_failure("fp0"))
        journal.close()

        reloaded = SweepJournal.open(path, sweep_id="s1", resume=True)
        assert set(reloaded.completed) == {"fp1"}
        assert set(reloaded.failed) == {"fp0"}
        reloaded.close()

    def test_auto_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal.open(path, sweep_id="s1", compact_every=3)
        for i in range(10):
            journal.record_success(f"fp{i}", make_summary(float(i)))
        assert journal.compactions == 3
        # header + checkpoint + at most compact_every tail lines.
        assert len(journal_lines(path)) <= 2 + 3
        journal.close()
        reloaded = SweepJournal.open(path, sweep_id="s1", resume=True)
        assert len(reloaded.completed) == 10
        reloaded.close()

    def test_compact_rejects_closed_journal(self, tmp_path):
        journal = SweepJournal.open(tmp_path / "j", sweep_id="s1")
        journal.close()
        with pytest.raises(RuntimeError):
            journal.compact()

    def test_open_rejects_bad_compact_every(self, tmp_path):
        with pytest.raises(ValueError):
            SweepJournal.open(tmp_path / "j", sweep_id="s1", compact_every=0)


class TestSweepIntegration:
    RATES = (1.7e6, 1.9e6)
    DEPTHS = (3000.0, 4500.0)

    def test_compacted_sweep_resumes_with_zero_resimulation(self, tmp_path):
        path = tmp_path / "sweep.journal"
        first = token_rate_sweep(
            fast_spec(),
            self.RATES,
            self.DEPTHS,
            journal_path=path,
            journal_compact_every=1,
        )
        lines = journal_lines(path)
        assert [line["kind"] for line in lines] == ["header", "checkpoint"]

        resumed_runner = Runner()
        again = token_rate_sweep(
            fast_spec(),
            self.RATES,
            self.DEPTHS,
            runner=resumed_runner,
            journal_path=path,
            resume=True,
        )
        assert resumed_runner.stats.submitted == 0
        assert again == first

    def test_compacted_journal_still_validates_sweep_identity(self, tmp_path):
        path = tmp_path / "sweep.journal"
        specs = sweep_specs(fast_spec(), self.RATES, self.DEPTHS)
        journal = SweepJournal.open(
            path, sweep_id=sweep_fingerprint(specs)
        )
        journal.record_success(
            spec_fingerprint(specs[0]), make_summary(0.0)
        )
        journal.compact()
        journal.close()
        from repro.core.journal import JournalMismatch

        with pytest.raises(JournalMismatch):
            SweepJournal.open(path, sweep_id="different", resume=True)
