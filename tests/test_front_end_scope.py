"""One front end per request: the batch calls of one request share it.

A session's front end is the server schedule (with the campus-LAN
recurrence) and, per seed, the jitter replay. Both are pure functions
of the clip version, the testbed and the seed, never of the policing
profile. ``recommend_provisioning`` makes one runner call per probe
round, and a 16-point serial sweep runs as two 8-unit scheduler
windows, so without sharing every call would compute the same front
end again. The counters below wrap every binding of
``compute_schedule`` and ``jitter_releases``, so each count is a real
computation, and the outputs are checked against solo runs.
"""

import copy
from collections import Counter

import numpy as np
import pytest

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import (
    ProcessPoolRunner,
    ResultSummary,
    SerialRunner,
    make_runner,
)
from repro.core.sweep import token_rate_sweep
from repro.detect.recommend import recommend_provisioning
from repro.flows import AggregateSpec, admission_frontier, multipath
from repro.sim import batchpath, fastpath
from repro.units import mbps

BASE = ExperimentSpec(
    clip="test-150", codec="mpeg1", encoding_rate_bps=mbps(1.7), seed=4
)
ONCE = {"compute_schedule": 1, "jitter_releases": 1}


class FrontEndCalls:
    """Counts every schedule and jitter replay, and keeps a copy of each."""

    def __init__(self):
        self.counts = Counter()
        self.made = []  # (returned object, deep copy taken on return)

    def wrap(self, name, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[name] += 1
            self.made.append((out, copy.deepcopy(out)))
            return out

        return counted


@pytest.fixture
def calls(monkeypatch):
    monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
    calls = FrontEndCalls()
    for name in ("compute_schedule", "jitter_releases"):
        fn = getattr(fastpath, name)
        counted = calls.wrap(name, fn)
        for module in (fastpath, batchpath, multipath):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class RecordingRunner(SerialRunner):
    """A serial runner that keeps every call's specs and outcomes."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run_batch(self, specs):
        outcomes = super().run_batch(specs)
        self.calls.append(list(zip(specs, outcomes)))
        return outcomes


def _same(value, snapshot) -> bool:
    if isinstance(value, list):
        return value == snapshot
    return all(
        np.array_equal(getattr(value, name), getattr(snapshot, name))
        if isinstance(getattr(value, name), np.ndarray)
        else getattr(value, name) == getattr(snapshot, name)
        for name in vars(snapshot)
    )


@pytest.mark.perf_smoke
class TestOneFrontEndPerRequest:
    def test_recommend_rounds_share_it_on_the_batch_lane(self, calls):
        runner = RecordingRunner()
        recommend_provisioning(BASE, runner=runner)
        assert len(runner.calls) > 1
        assert all(len(call) == 2 for call in runner.calls)
        assert runner.stats.batch_groups == len(runner.calls)
        assert calls.counts == ONCE

    def test_recommend_rounds_share_it_on_the_scalar_lane(self, calls):
        runner = RecordingRunner()
        recommend_provisioning(BASE, depths=(4500.0,), runner=runner)
        assert len(runner.calls) > 1
        assert runner.stats.fastpath_hits == len(runner.calls)
        assert calls.counts == ONCE

    def test_sweep_windows_share_it(self, calls):
        runner = make_runner(jobs=1)
        rates = [mbps(r) for r in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2)]
        sweep = token_rate_sweep(BASE, rates, (3000.0, 4500.0), runner=runner)
        assert len(sweep.points) == 16
        assert runner.stats.batch_groups == 2
        assert calls.counts == ONCE

    def test_frontier_aggregates_share_one_schedule(self, calls):
        base = ExperimentSpec(clip="test-150", encoding_rate_bps=mbps(1.7))
        frontier = admission_frontier(
            base, 3, mbps(4.0), 9000.0, runner=make_runner(jobs=1), seed=4
        )
        assert len(frontier.points) == 3
        assert calls.counts == {"compute_schedule": 1}

    def test_a_bare_aggregate_shares_one_schedule(self, calls):
        agg = AggregateSpec.homogeneous(BASE, 4, token_rate_bps=mbps(7.0))
        multipath.run_multipath(agg)
        assert calls.counts == {"compute_schedule": 1}

    def test_the_next_request_computes_again(self, calls):
        recommend_provisioning(BASE, runner=SerialRunner())
        first = dict(calls.counts)
        recommend_provisioning(BASE, runner=SerialRunner())
        assert calls.counts == {name: 2 * n for name, n in first.items()}
        # Outside a request nothing is shared: each solo run computes.
        spec = BASE.with_token_bucket(mbps(2.0), 4500.0)
        run_experiment(spec)
        run_experiment(spec)
        assert calls.counts == {name: 2 * n + 2 for name, n in first.items()}


class TestOutputsUnchanged:
    def test_probe_summaries_equal_solo_runs(self):
        runner = RecordingRunner()
        recommend_provisioning(BASE, runner=runner)
        probes = {spec: outcome for call in runner.calls for spec, outcome in call}
        assert len(probes) > 2
        for spec, outcome in probes.items():
            assert outcome == ResultSummary.from_result(run_experiment(spec))

    def test_sweep_points_equal_solo_runs(self):
        rates = [mbps(r) for r in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2)]
        sweep = token_rate_sweep(
            BASE, rates, (3000.0, 4500.0), runner=make_runner(jobs=1)
        )
        for point in sweep.points:
            spec = BASE.with_token_bucket(
                point.token_rate_bps, point.bucket_depth_bytes
            )
            assert point.result == ResultSummary.from_result(run_experiment(spec))

    def test_table_equals_the_process_pool_one(self):
        serial = recommend_provisioning(BASE, runner=SerialRunner())
        pooled = recommend_provisioning(BASE, runner=ProcessPoolRunner(jobs=2))
        assert serial == pooled

    def test_shared_lists_are_unchanged_after_the_request(self, calls):
        recommend_provisioning(BASE, runner=SerialRunner())
        recommend_provisioning(BASE, depths=(4500.0,), runner=SerialRunner())
        assert calls.made
        for value, snapshot in calls.made:
            assert _same(value, snapshot)
