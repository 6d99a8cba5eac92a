"""Fault tolerance: retries, timeouts, quarantine, fallback, chaos.

The scenarios here use the chaos harness (:mod:`repro.core.chaos`) to
make specs raise, hang, crash, or return garbage on demand, and assert
the runner layer's contract: bounded retries with hermetic re-execution,
per-spec timeouts, structured quarantine instead of batch abort, and
graceful degradation of the process pool.
"""

import time

import pytest

from repro.core import chaos
from repro.core.experiment import ExperimentSpec
from repro.core.faults import (
    FailureRecord,
    PoisonResult,
    RetryPolicy,
    SpecTimeout,
    WorkerCrash,
    classify_failure,
    deadline,
)
from repro.core.resultstore import ResultStore
from repro.core.runner import (
    ProcessPoolRunner,
    SerialRunner,
    spec_fingerprint,
    validate_summary,
)
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


#: A policy with near-zero backoff so failure tests stay fast.
def quick_policy(**overrides):
    base = dict(max_retries=1, backoff_base_s=0.01, backoff_factor=1.0)
    base.update(overrides)
    return RetryPolicy(**base)


class TestRetryPolicy:
    def test_attempts_is_retries_plus_one(self):
        assert RetryPolicy(max_retries=2).attempts == 3
        assert RetryPolicy(max_retries=0).attempts == 1

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=5.0
        )
        assert policy.backoff_s(1) == 1.0
        assert policy.backoff_s(2) == 2.0
        assert policy.backoff_s(3) == 4.0
        assert policy.backoff_s(4) == 5.0  # capped
        assert policy.backoff_s(0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(spec_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestFailureTaxonomy:
    def test_classification(self):
        assert classify_failure(SpecTimeout("t")) == "timeout"
        assert classify_failure(WorkerCrash("c")) == "crash"
        assert classify_failure(PoisonResult("p")) == "poison"
        assert classify_failure(RuntimeError("x")) == "exception"

    def test_record_round_trips_through_dict(self):
        record = FailureRecord(
            fingerprint="abc",
            kind="timeout",
            message="too slow",
            attempts=3,
            elapsed_s=1.5,
            spec={"clip": "test-300"},
        )
        assert FailureRecord.from_dict(record.to_dict()) == record

    def test_record_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FailureRecord(fingerprint="x", kind="gremlin", message="", attempts=1)

    def test_validate_summary_rejects_garbage(self):
        with pytest.raises(PoisonResult):
            validate_summary(chaos.GARBAGE)
        with pytest.raises(PoisonResult):
            validate_summary(None)


class TestDeadline:
    def test_interrupts_a_sleep(self):
        started = time.monotonic()
        with pytest.raises(SpecTimeout):
            with deadline(0.1):
                time.sleep(5.0)
        assert time.monotonic() - started < 1.0

    def test_no_timeout_when_fast_enough(self):
        with deadline(5.0):
            pass

    def test_none_disables_enforcement(self):
        with deadline(None):
            time.sleep(0.01)


class TestChaosPlan:
    def test_install_sets_and_restores_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_PLAN_ENV, raising=False)
        plan = chaos.ChaosPlan(tmp_path).add("fp", chaos.ChaosRule("raise"))
        assert not chaos.enabled()
        with plan.installed():
            assert chaos.enabled()
        assert not chaos.enabled()

    def test_attempts_counted_across_calls(self, tmp_path):
        plan = chaos.ChaosPlan(tmp_path).add(
            "fp", chaos.ChaosRule("raise", times=2)
        )
        with plan.installed():
            for _ in range(2):
                with pytest.raises(chaos.ChaosError):
                    chaos.maybe_inject("fp")
            # Third attempt is past the rule's budget: no injection.
            assert chaos.maybe_inject("fp") is None
            assert plan.attempts("fp") == 3

    def test_unlisted_fingerprint_untouched(self, tmp_path):
        plan = chaos.ChaosPlan(tmp_path).add("fp", chaos.ChaosRule("raise"))
        with plan.installed():
            assert chaos.maybe_inject("other") is None

    def test_garbage_rule_returns_marker(self, tmp_path):
        plan = chaos.ChaosPlan(tmp_path).add("fp", chaos.ChaosRule("garbage"))
        with plan.installed():
            assert chaos.maybe_inject("fp") == chaos.GARBAGE

    def test_in_process_crash_raises_worker_crash(self, tmp_path):
        plan = chaos.ChaosPlan(tmp_path).add("fp", chaos.ChaosRule("crash"))
        with plan.installed():
            with pytest.raises(WorkerCrash):
                chaos.maybe_inject("fp")

    def test_rule_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            chaos.ChaosRule("explode")


class TestSerialFaultTolerance:
    def test_exception_retried_to_success(self, tmp_path):
        spec = fast_spec()
        clean = SerialRunner().run_batch([spec])
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("raise", times=1)
        )
        with plan.installed():
            runner = SerialRunner(retry=quick_policy(max_retries=2))
            [summary] = runner.run_batch([spec])
        assert summary == clean[0]
        assert runner.stats.retries == 1
        assert runner.stats.quarantined == 0

    def test_crash_retried_to_success(self, tmp_path):
        spec = fast_spec()
        clean = SerialRunner().run_batch([spec])
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("crash", times=1)
        )
        with plan.installed():
            runner = SerialRunner(retry=quick_policy())
            [summary] = runner.run_batch([spec])
        assert summary == clean[0]

    def test_hang_quarantined_as_timeout(self, tmp_path):
        spec = fast_spec()
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("hang", hang_s=30.0)
        )
        started = time.monotonic()
        with plan.installed():
            runner = SerialRunner(retry=quick_policy(spec_timeout_s=0.3))
            [outcome] = runner.run_batch([spec])
        assert time.monotonic() - started < 10.0
        assert isinstance(outcome, FailureRecord)
        assert outcome.kind == "timeout"
        assert outcome.attempts == 2
        assert runner.stats.quarantined == 1

    def test_garbage_quarantined_as_poison(self, tmp_path):
        spec = fast_spec()
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("garbage")
        )
        with plan.installed():
            runner = SerialRunner(retry=quick_policy())
            [outcome] = runner.run_batch([spec])
        assert isinstance(outcome, FailureRecord)
        assert outcome.kind == "poison"
        assert outcome.spec["clip"] == "test-300"

    def test_quarantine_does_not_abort_batch(self, tmp_path):
        """The failing spec is the only slot that degrades."""
        bad, good = fast_spec(token_rate_bps=mbps(2.0)), fast_spec()
        clean = SerialRunner().run_batch([good])
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(bad), chaos.ChaosRule("raise")
        )
        with plan.installed():
            runner = SerialRunner(retry=quick_policy(max_retries=0))
            outcomes = runner.run_batch([bad, good])
        assert isinstance(outcomes[0], FailureRecord)
        assert outcomes[1] == clean[0]

    def test_failures_never_written_to_cache(self, tmp_path):
        spec = fast_spec()
        store = ResultStore(tmp_path / "cache")
        plan = chaos.ChaosPlan(tmp_path / "plan").add(
            spec_fingerprint(spec), chaos.ChaosRule("raise")
        )
        with plan.installed():
            runner = SerialRunner(store=store, retry=quick_policy(max_retries=0))
            [outcome] = runner.run_batch([spec])
        assert isinstance(outcome, FailureRecord)
        assert len(store) == 0

    def test_without_policy_failures_still_raise(self, tmp_path):
        """The historical contract survives: no policy, no swallowing."""
        spec = fast_spec()
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("raise")
        )
        with plan.installed():
            with pytest.raises(chaos.ChaosError):
                SerialRunner().run_batch([spec])

    def test_stats_describe_mentions_fault_counts(self, tmp_path):
        spec = fast_spec()
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("raise")
        )
        with plan.installed():
            runner = SerialRunner(retry=quick_policy())
            runner.run_batch([spec])
        line = runner.stats.describe()
        assert "1 retries" in line
        assert "1 quarantined" in line


class TestPoolFaultTolerance:
    def test_crash_once_succeeds_hang_quarantined(self, tmp_path):
        """Acceptance scenario, pooled: the crasher recovers on retry,
        the hanger is reaped at the deadline, the healthy spec is
        bitwise-identical to serial."""
        crasher = fast_spec(token_rate_bps=mbps(2.0))
        hanger = fast_spec(token_rate_bps=mbps(2.2))
        healthy = fast_spec(token_rate_bps=mbps(1.8))
        specs = [crasher, hanger, healthy]
        clean = SerialRunner().run_batch([crasher, healthy])

        plan = chaos.ChaosPlan(tmp_path)
        plan.add(spec_fingerprint(crasher), chaos.ChaosRule("crash", times=1))
        plan.add(spec_fingerprint(hanger), chaos.ChaosRule("hang", hang_s=60.0))
        with plan.installed():
            runner = ProcessPoolRunner(
                jobs=2, retry=quick_policy(spec_timeout_s=2.0)
            )
            outcomes = runner.run_batch(specs)
        assert outcomes[0] == clean[0]
        assert isinstance(outcomes[1], FailureRecord)
        assert outcomes[1].kind == "timeout"
        assert outcomes[1].attempts == 2
        assert outcomes[2] == clean[1]

    def test_worker_exception_carried_home(self, tmp_path):
        spec = fast_spec()
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("raise")
        )
        with plan.installed():
            runner = ProcessPoolRunner(jobs=2, retry=quick_policy(max_retries=0))
            [outcome] = runner.run_batch([spec, fast_spec(seed=4)])[:1]
        assert isinstance(outcome, FailureRecord)
        assert outcome.kind == "exception"
        assert "ChaosError" in outcome.message

    def test_broken_pool_falls_back_to_serial(self, tmp_path):
        """A worker dying mid-map degrades the batch, not the campaign."""
        specs = [fast_spec(token_rate_bps=mbps(r)) for r in (2.0, 2.2)]
        clean = SerialRunner().run_batch(specs)
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(specs[0]), chaos.ChaosRule("crash", times=1)
        )
        with plan.installed():
            runner = ProcessPoolRunner(jobs=2)  # no retry policy: plain path
            outcomes = runner.run_batch(specs)
        assert outcomes == clean
        assert runner.stats.fallbacks == 1

    def test_in_process_unit_honours_spec_timeout(self, tmp_path):
        """A one-spec pooled batch runs in-process, under its deadline."""
        spec = fast_spec()
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(spec), chaos.ChaosRule("hang", hang_s=3.0)
        )
        started = time.monotonic()
        with plan.installed():
            runner = ProcessPoolRunner(
                jobs=2, retry=RetryPolicy(max_retries=0, spec_timeout_s=0.5)
            )
            [outcome] = runner.run_batch([spec])
        assert time.monotonic() - started < 2.5
        assert isinstance(outcome, FailureRecord)
        assert outcome.kind == "timeout"

    def test_unspawnable_attempt_runs_in_process_under_deadline(
        self, tmp_path, monkeypatch
    ):
        from repro.core.campaign import backends

        class NoProcesses:
            def Pipe(self, duplex=True):
                raise OSError("cannot spawn")

        monkeypatch.setattr(backends.multiprocessing, "get_context", NoProcesses)
        hanger = fast_spec(token_rate_bps=mbps(2.0))
        healthy = fast_spec()
        clean = SerialRunner().run_batch([healthy])
        plan = chaos.ChaosPlan(tmp_path).add(
            spec_fingerprint(hanger), chaos.ChaosRule("hang", hang_s=3.0)
        )
        started = time.monotonic()
        with plan.installed():
            runner = ProcessPoolRunner(
                jobs=2, retry=RetryPolicy(max_retries=0, spec_timeout_s=0.5)
            )
            outcomes = runner.run_batch([hanger, healthy])
        assert time.monotonic() - started < 2.5
        assert isinstance(outcomes[0], FailureRecord)
        assert outcomes[0].kind == "timeout"
        assert outcomes[1:] == clean
        assert runner.stats.fallbacks == 1


class TestChaosAcceptance:
    def test_chaos_sweep_completes_and_resumes(self, tmp_path):
        """The ISSUE acceptance scenario end to end.

        A sweep containing an always-hanging spec and a crash-once
        spec completes: the crasher succeeds on retry, the hanger is
        quarantined with a FailureRecord, every other spec's summary
        is bitwise-identical to a fault-free serial run, and re-running
        with resume performs zero re-simulations of completed specs.
        """
        base = fast_spec()
        rates = [mbps(1.8), mbps(2.0), mbps(2.2)]
        depths = (4500.0,)
        journal_path = tmp_path / "sweep.journal"

        specs = sweep_specs(base, rates, depths)
        fingerprints = [spec_fingerprint(s) for s in specs]
        clean = token_rate_sweep(base, rates, depths)

        plan = chaos.ChaosPlan(tmp_path / "chaos")
        plan.add(fingerprints[0], chaos.ChaosRule("crash", times=1))
        plan.add(fingerprints[1], chaos.ChaosRule("hang", hang_s=30.0))
        with plan.installed():
            runner = SerialRunner(
                retry=quick_policy(max_retries=2, spec_timeout_s=0.5)
            )
            sweep = token_rate_sweep(
                base, rates, depths, runner=runner, journal_path=journal_path
            )

        # The hanger is quarantined with a structured record...
        assert len(sweep.failures) == 1
        record = sweep.failures[0].record
        assert record.kind == "timeout"
        assert record.attempts == 3
        assert record.fingerprint == fingerprints[1]
        assert not sweep.complete
        # ...and every surviving point matches the fault-free run bitwise.
        clean_by_rate = {p.token_rate_bps: p.result for p in clean.points}
        assert len(sweep.points) == 2
        for point in sweep.points:
            assert point.result == clean_by_rate[point.token_rate_bps]

        # Resume with the chaos gone: only the quarantined spec re-runs.
        resumed_runner = SerialRunner()
        resumed = token_rate_sweep(
            base,
            rates,
            depths,
            runner=resumed_runner,
            journal_path=journal_path,
            resume=True,
        )
        assert resumed_runner.stats.submitted == 1
        assert resumed_runner.stats.simulated == 1
        assert resumed.complete
        assert [p.result for p in resumed.points] == [
            p.result for p in clean.points
        ]

        # A second resume is pure journal replay: zero work.
        idle_runner = SerialRunner()
        replay = token_rate_sweep(
            base,
            rates,
            depths,
            runner=idle_runner,
            journal_path=journal_path,
            resume=True,
        )
        assert idle_runner.stats.submitted == 0
        assert [p.result for p in replay.points] == [
            p.result for p in clean.points
        ]
