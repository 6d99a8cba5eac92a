"""Lane counts: a pooled campaign reports what a serial one reports.

``RunnerStats`` counts which lane served each simulated unit: the
scalar fast path (``fastpath_hits``), the event engine
(``fastpath_fallbacks``) or a batch grid (``batch_points`` in
``batch_groups`` calls, with ``batch_failures`` counting batch calls
that raised). Where a unit ran, in-process or in a pool
worker, plain or supervised, must not change the counts, and
``REPRO_FASTPATH=0`` sends every unit to the engine uncounted.
"""

import pytest

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec
from repro.core.faults import RetryPolicy
from repro.core.resultstore import ResultStore
from repro.core.runner import Runner
from repro.units import mbps


def _specs() -> list:
    """Three specs that never coalesce: two clips, one with cross traffic."""
    common = dict(
        codec="mpeg1",
        token_rate_bps=mbps(2.2),
        bucket_depth_bytes=4500.0,
        seed=3,
    )
    return [
        ExperimentSpec(clip="test-150", encoding_rate_bps=mbps(1.5), **common),
        ExperimentSpec(clip="test-300", encoding_rate_bps=mbps(1.7), **common),
        ExperimentSpec(
            clip="test-150",
            encoding_rate_bps=mbps(1.5),
            cross_traffic_bps=mbps(2.0),
            **common,
        ),
    ]


RUNNERS = {
    "serial": Runner,
    "pool": lambda: Runner(jobs=2),
    "supervised-pool": lambda: Runner(
        jobs=2, retry=RetryPolicy(max_retries=0)
    ),
}


def _lane_counts(stats) -> tuple:
    return (
        stats.fastpath_hits,
        stats.fastpath_fallbacks,
        stats.batch_points,
        stats.batch_groups,
        stats.batch_failures,
        stats.simulated,
    )


@pytest.mark.parametrize(
    "mode, expected",
    [("auto", (2, 1, 0, 0, 0, 3)), ("0", (0, 0, 0, 0, 0, 3))],
    ids=["auto", "engine-only"],
)
def test_pooled_lane_counts_equal_serial(monkeypatch, mode, expected):
    monkeypatch.setenv(fastlane.FASTPATH_ENV, mode)
    specs = _specs()
    outcomes = {}
    for name, make in RUNNERS.items():
        runner = make()
        outcomes[name] = runner.run_batch(specs)
        assert _lane_counts(runner.stats) == expected, name
    assert outcomes["serial"] == outcomes["pool"] == outcomes["supervised-pool"]
    assert len(outcomes["serial"]) == len(specs)


def test_serial_lane_counts_with_a_store(monkeypatch, tmp_path):
    monkeypatch.setenv(fastlane.FASTPATH_ENV, "auto")
    store = ResultStore(tmp_path / "store")
    cold = Runner(store=store)
    outcomes = cold.run_batch(_specs())
    assert _lane_counts(cold.stats) == (2, 1, 0, 0, 0, 3)
    warm = Runner(store=store)
    assert warm.run_batch(_specs()) == outcomes
    assert _lane_counts(warm.stats) == (0, 0, 0, 0, 0, 0)
    assert warm.stats.cache_hits == 3
