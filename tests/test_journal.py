"""Sweep journal: durable checkpoints, torn-write tolerance, resume."""

import json

import pytest

from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord
from repro.core.journal import (
    JournalMismatch,
    SweepJournal,
    sweep_fingerprint,
)
from repro.core.runner import ResultSummary, SerialRunner
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
    )
    base.update(overrides)
    return ResultSummary(**base)


def make_failure(fingerprint="fp", kind="timeout"):
    return FailureRecord(
        fingerprint=fingerprint, kind=kind, message="boom", attempts=2
    )


class TestSweepFingerprint:
    def test_depends_on_grid_and_order(self):
        base = fast_spec()
        a = sweep_specs(base, [mbps(2.0), mbps(2.2)], (4500.0,))
        b = sweep_specs(base, [mbps(2.2), mbps(2.0)], (4500.0,))
        c = sweep_specs(base, [mbps(2.0), mbps(2.2)], (3000.0,))
        assert sweep_fingerprint(a) != sweep_fingerprint(b)
        assert sweep_fingerprint(a) != sweep_fingerprint(c)
        assert sweep_fingerprint(a) == sweep_fingerprint(list(a))


class TestJournalFile:
    def test_fresh_journal_writes_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, sweep_id="sid"):
            pass
        [header] = [json.loads(l) for l in path.read_text().splitlines()]
        assert header["kind"] == "header"
        assert header["sweep_id"] == "sid"

    def test_round_trip_success_and_failure(self, tmp_path):
        path = tmp_path / "j.jsonl"
        summary = make_summary()
        failure = make_failure("fp2")
        with SweepJournal.open(path, sweep_id="sid") as journal:
            journal.record("fp1", summary)
            journal.record("fp2", failure)
        reloaded = SweepJournal.open(path, sweep_id="sid", resume=True)
        assert reloaded.completed == {"fp1": summary}
        assert reloaded.failed == {"fp2": failure}
        reloaded.close()

    def test_latest_line_wins(self, tmp_path):
        """A failed spec that later succeeds is promoted to completed."""
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, sweep_id="sid") as journal:
            journal.record_failure("fp", make_failure())
            journal.record_success("fp", make_summary())
        reloaded = SweepJournal.open(path, sweep_id="sid", resume=True)
        assert "fp" in reloaded.completed
        assert "fp" not in reloaded.failed
        reloaded.close()

    def test_torn_tail_line_is_skipped(self, tmp_path):
        """The line a crash interrupted must not poison the reload."""
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, sweep_id="sid") as journal:
            journal.record_success("fp1", make_summary())
            journal.record_success("fp2", make_summary(quality_score=0.2))
        torn = path.read_text()[:-25]  # cut mid-record
        path.write_text(torn)
        reloaded = SweepJournal.open(path, sweep_id="sid", resume=True)
        assert set(reloaded.completed) == {"fp1"}
        reloaded.close()

    def test_failure_of_unknown_kind_is_skipped(self, tmp_path):
        """A journal written when more failure kinds existed still
        loads; the unparseable record is dropped, so resume re-runs
        that spec."""
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, sweep_id="sid") as journal:
            journal.record_success("fp1", make_summary())
        retired = make_failure("fp2").to_dict() | {"kind": "disconnect"}
        with path.open("a") as handle:
            handle.write(
                json.dumps({"kind": "failed", "fingerprint": "fp2",
                            "failure": retired}) + "\n"
            )
        reloaded = SweepJournal.open(path, sweep_id="sid", resume=True)
        assert set(reloaded.completed) == {"fp1"}
        assert reloaded.failed == {}
        reloaded.close()

    def test_resume_wrong_sweep_id_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.open(path, sweep_id="sid-a").close()
        with pytest.raises(JournalMismatch):
            SweepJournal.open(path, sweep_id="sid-b", resume=True)

    def test_resume_headerless_file_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(JournalMismatch):
            SweepJournal.open(path, sweep_id="sid", resume=True)

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        journal = SweepJournal.open(
            tmp_path / "new.jsonl", sweep_id="sid", resume=True
        )
        assert journal.completed == {}
        journal.close()

    def test_open_without_resume_overwrites(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, sweep_id="sid") as journal:
            journal.record_success("fp", make_summary())
        SweepJournal.open(path, sweep_id="sid").close()
        reloaded = SweepJournal.open(path, sweep_id="sid", resume=True)
        assert reloaded.completed == {}
        reloaded.close()

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = SweepJournal.open(tmp_path / "j.jsonl", sweep_id="sid")
        journal.close()
        with pytest.raises(RuntimeError):
            journal.record_success("fp", make_summary())


class TestSweepResume:
    def test_interrupted_campaign_resumes_from_checkpoint(self, tmp_path):
        """Drop the tail of a finished journal to fake an interruption:
        resume re-simulates exactly the missing spec."""
        base = fast_spec()
        rates = [mbps(2.0), mbps(2.2)]
        path = tmp_path / "j.jsonl"
        first = SerialRunner()
        full = token_rate_sweep(
            base, rates, (4500.0,), runner=first, journal_path=path
        )
        assert first.stats.simulated == 2
        # Remove the last checkpoint line — as if the process died
        # between finishing spec 1 and spec 2.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")

        second = SerialRunner()
        resumed = token_rate_sweep(
            base, rates, (4500.0,), runner=second, journal_path=path, resume=True
        )
        assert second.stats.submitted == 1
        assert second.stats.simulated == 1
        assert [p.result for p in resumed.points] == [
            p.result for p in full.points
        ]

    def test_resume_works_without_result_cache(self, tmp_path):
        """The journal alone answers completed specs — no store needed."""
        base = fast_spec()
        rates = [mbps(2.0), mbps(2.2)]
        path = tmp_path / "j.jsonl"
        token_rate_sweep(base, rates, (4500.0,), journal_path=path)
        idle = SerialRunner()
        token_rate_sweep(
            base, rates, (4500.0,), runner=idle, journal_path=path, resume=True
        )
        assert idle.stats.submitted == 0

    def test_resume_with_changed_grid_is_refused(self, tmp_path):
        base = fast_spec()
        path = tmp_path / "j.jsonl"
        token_rate_sweep(base, [mbps(2.0)], (4500.0,), journal_path=path)
        with pytest.raises(JournalMismatch):
            token_rate_sweep(
                base,
                [mbps(2.0), mbps(2.2)],
                (4500.0,),
                journal_path=path,
                resume=True,
            )

    def test_corrupted_journal_entry_reruns_that_spec(self, tmp_path):
        base = fast_spec()
        rates = [mbps(2.0), mbps(2.2)]
        path = tmp_path / "j.jsonl"
        token_rate_sweep(base, rates, (4500.0,), journal_path=path)
        # Corrupt the second checkpoint line in place.
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        rerun = SerialRunner()
        token_rate_sweep(
            base, rates, (4500.0,), runner=rerun, journal_path=path, resume=True
        )
        assert rerun.stats.simulated == 1
