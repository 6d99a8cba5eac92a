"""Campaign scheduler: determinism, windows, batch grouping.

The tentpole guarantee: scheduling is invisible in the results. Serial
and pooled execution of the same grid must produce field-by-field
identical :class:`SweepResult`\\ s, because every outcome is a pure
function of its spec and assembly is ordered by submission index.
"""

import asyncio
import dataclasses

import pytest

from repro.core.campaign import (
    CampaignScheduler,
    ProcessPoolBackend,
    SerialBackend,
    SweepAggregator,
    WorkUnit,
    WorkerBackend,
)
from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord, RetryPolicy
from repro.core.resultstore import ResultStore
from repro.core.runner import (
    ProcessPoolRunner,
    ResultSummary,
    Runner,
    SerialRunner,
    make_runner,
    spec_fingerprint,
)
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


def dummy_summary(tag: float = 0.0) -> ResultSummary:
    return ResultSummary(
        quality_score=tag,
        lost_frame_fraction=0.0,
        packet_drop_fraction=0.0,
        frozen_fraction=0.0,
        rebuffer_events=0,
        total_stall_s=0.0,
        conformant_packets=1,
        dropped_packets=0,
        remarked_packets=0,
        dropped_bytes=0,
        server_aborted=False,
        server_packets=1,
        client_packets=1,
    )


class InstrumentedBackend(WorkerBackend):
    """Fake backend: records concurrency, answers from the spec's rate."""

    def __init__(self, slots=1, delay_s=0.0):
        self.slots = slots
        self.delay_s = delay_s
        self.active = 0
        self.peak_active = 0
        self.executed: list[float] = []

    async def execute(self, spec, timeout_s=None):
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)
        try:
            if self.delay_s:
                await asyncio.sleep(self.delay_s)
            self.executed.append(spec.token_rate_bps)
            return dummy_summary(tag=spec.token_rate_bps)
        finally:
            self.active -= 1


def grid_rates(n):
    return [mbps(1.5) + i * 1e4 for i in range(n)]


class TestSchedulerMechanics:
    def run_units(self, scheduler, specs):
        units = [
            WorkUnit(index=i, spec=s, fingerprint=spec_fingerprint(s))
            for i, s in enumerate(specs)
        ]
        outcomes = [None] * len(specs)

        def emit(unit, outcome, source):
            outcomes[unit.index] = outcome

        asyncio.run(scheduler.run(iter(units), emit))
        return outcomes

    def test_outcomes_land_at_their_submission_index(self):
        backend = InstrumentedBackend(slots=4)
        scheduler = CampaignScheduler(backend)
        specs = [fast_spec(token_rate_bps=r) for r in grid_rates(16)]
        outcomes = self.run_units(scheduler, specs)
        assert [o.quality_score for o in outcomes] == [
            s.token_rate_bps for s in specs
        ]

    def test_window_bounds_queued_plus_inflight(self):
        backend = InstrumentedBackend(slots=2, delay_s=0.001)
        scheduler = CampaignScheduler(backend, window=2)

        fed = 0
        specs = [fast_spec(token_rate_bps=r) for r in grid_rates(20)]

        def unit_stream():
            nonlocal fed
            for i, spec in enumerate(specs):
                fed += 1
                yield WorkUnit(index=i, spec=spec, fingerprint="")

        seen = []

        def emit(unit, outcome, source):
            # The feeder may be at most `window` units ahead of the
            # slowest emission — the stream is pulled, not slurped.
            seen.append(fed - len(seen))

        asyncio.run(scheduler.run(unit_stream(), emit))
        assert max(seen) <= scheduler.window + 1
        assert len(seen) == len(specs)

    def test_backend_concurrency_tracks_slots(self):
        backend = InstrumentedBackend(slots=3, delay_s=0.005)
        scheduler = CampaignScheduler(backend, window=16)
        specs = [fast_spec(token_rate_bps=r) for r in grid_rates(12)]
        self.run_units(scheduler, specs)
        assert backend.peak_active <= 3
        assert backend.peak_active >= 2  # genuinely concurrent

    def test_duplicate_fingerprints_single_flight_within_process(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        backend = InstrumentedBackend(slots=2, delay_s=0.002)
        scheduler = CampaignScheduler(backend, store=store)
        spec = fast_spec()
        specs = [spec, spec, spec, spec]
        outcomes = self.run_units(scheduler, specs)
        assert scheduler.stats.simulated == 1
        assert scheduler.stats.cache_hits == 3
        assert len(set(map(id, outcomes))) >= 1
        assert all(o == outcomes[0] for o in outcomes)

    def test_error_propagates_without_retry_policy(self):
        class ExplodingBackend(WorkerBackend):
            async def execute(self, spec, timeout_s=None):
                raise RuntimeError("boom")

        scheduler = CampaignScheduler(ExplodingBackend())
        with pytest.raises(RuntimeError, match="boom"):
            self.run_units(scheduler, [fast_spec()])

    def test_retry_policy_turns_errors_into_quarantine(self):
        class ExplodingBackend(WorkerBackend):
            async def execute(self, spec, timeout_s=None):
                raise RuntimeError("boom")

        scheduler = CampaignScheduler(
            ExplodingBackend(),
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.001),
        )
        [outcome] = self.run_units(scheduler, [fast_spec()])
        assert isinstance(outcome, FailureRecord)
        assert outcome.kind == "exception"
        assert outcome.attempts == 2
        assert scheduler.stats.quarantined == 1
        assert scheduler.stats.retries == 1


class StubBackend(WorkerBackend):
    """Fake backend answering every spec with the same summary."""

    async def execute(self, spec, timeout_s=None):
        return dummy_summary()


class TestBackendSelection:
    def test_serial_runner_maps_to_serial_backend(self):
        runner = SerialRunner(keep_details=True)
        backend = runner.make_backend(None)
        assert isinstance(backend, SerialBackend)
        assert backend.details is runner.last_details

    def test_pool_runner_maps_to_pool_backend(self):
        runner = ProcessPoolRunner(jobs=3, retry=RetryPolicy())
        backend = runner.make_backend(None)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.slots == 3
        assert backend.supervised is True

    def test_runner_subclass_supplies_its_own_backend(self):
        class StubRunner(Runner):
            def make_backend(self, plan_specs):
                return StubBackend()

        runner = StubRunner()
        outcomes = runner.run_batch([fast_spec()])
        assert outcomes == [dummy_summary()]
        assert runner.stats.simulated == 1


class TestDeterminism:
    """Serial == pooled, bit for bit."""

    RATES = (1.6e6, 1.8e6, 2.0e6)
    DEPTHS = (3000.0, 4500.0)

    def sweep_with(self, runner):
        return token_rate_sweep(
            fast_spec(), self.RATES, self.DEPTHS, runner=runner
        )

    def test_serial_pooled_identical(self):
        serial = self.sweep_with(SerialRunner())
        pooled = self.sweep_with(ProcessPoolRunner(jobs=2))
        narrow = self.sweep_with(ProcessPoolRunner(jobs=2, window=2))
        assert serial == pooled == narrow
        assert serial.points  # not vacuous


class TestBatchGrouping:
    """How a serial sweep coalesces into batch-lane grids.

    Sweep throughput rides on this grouping (fewer, wider grids amortize
    the shared schedule/jitter front end), so a queue change that alters
    it must show up here rather than only in a benchmark.
    """

    RATES = tuple(mbps(r) for r in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2))

    def test_sixteen_point_serial_sweep_runs_as_two_grids(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        runner = make_runner(jobs=1)
        sweep = token_rate_sweep(
            fast_spec(), self.RATES, (3000.0, 4500.0), runner=runner
        )
        assert len(sweep.points) == 16
        # The default window (8 units for one slot) bounds each grid.
        assert runner.stats.batch_groups == 2
        assert runner.stats.batch_points == 16


class TestAggregator:
    def test_out_of_order_adds_finalize_in_submission_order(self):
        base = fast_spec()
        aggregator = SweepAggregator(base)
        specs = [
            base.with_token_bucket(rate, 3000.0)
            for rate in (1.6e6, 1.7e6, 1.8e6)
        ]
        for index in (2, 0, 1):
            aggregator.add(index, specs[index], dummy_summary(tag=index))
        sweep = aggregator.finalize()
        assert [p.result.quality_score for p in sweep.points] == [0, 1, 2]
        assert sweep.sampling is None

    def test_failures_split_from_points(self):
        base = fast_spec()
        aggregator = SweepAggregator(base)
        record = FailureRecord(
            fingerprint="f", kind="timeout", message="m", attempts=2,
            elapsed_s=0.1, spec=dataclasses.asdict(base),
        )
        aggregator.add(0, base, dummy_summary())
        aggregator.add(1, base.with_token_bucket(1.9e6, 3000.0), record)
        sweep = aggregator.finalize(sampling={"mode": "adaptive"})
        assert len(sweep.points) == 1
        assert len(sweep.failures) == 1
        assert not sweep.complete
        assert sweep.sampling == {"mode": "adaptive"}


class TestRunnerParityKnobs:
    def test_make_runner_threads_scheduler_knobs(self):
        runner = make_runner(jobs=2, window=9)
        assert runner.window == 9
