"""Campaign-scale bench: scheduler throughput + adaptive sampling budget.

``make bench`` runs this module, and the bench ledger
(``tools/paper_ledger.py``) writes what it records into
``BENCH_paper.json``:

* scheduler throughput (grid points/second) for a real uniform sweep
  over the paper's Figure-7 axis, cold store and then warm store (the
  warm pass measures pure scheduler + store overhead);
* the warm-hit rate of the second pass (must be 100%: every point is
  answered from the content-addressed store);
* the adaptive cliff-seeking sampler's evaluated-vs-full-grid ratio on
  a dense rate axis, together with a frontier-equality check against
  the uniform sweep it is meant to replace.

The adaptive ratio assertion is the acceptance criterion from the
campaign refactor: the sampler must reproduce the provisioning
frontier with at most half the measurements of the uniform grid.
"""

from __future__ import annotations

import time

from repro.core.campaign import adaptive_token_rate_sweep
from repro.core.experiment import ExperimentSpec
from repro.core.resultstore import ResultStore
from repro.core.runner import Runner
from repro.core.sweep import token_rate_sweep
from repro.units import mbps

#: Real-simulation axis for the throughput bench (kept small; each
#: point is a full simulated run on the synthetic clip).
THROUGHPUT_RATES = tuple(mbps(r) for r in (1.6, 1.8, 2.0, 2.2))
THROUGHPUT_DEPTHS = (3000.0, 4500.0)

#: Dense axis for the adaptive-budget bench: 33 rates x 2 depths
#: straddling both per-depth cliffs of the test clip.
DENSE_N = 33
DENSE_RATES = tuple(
    mbps(1.5) + i * (mbps(2.1) - mbps(1.5)) / (DENSE_N - 1)
    for i in range(DENSE_N)
)

QUALITY_BOUND = 0.05


def _base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        clip="test-300",
        codec="mpeg1",
        encoding_rate_bps=mbps(1.7),
        token_rate_bps=mbps(2.2),
        bucket_depth_bytes=4500.0,
        seed=3,
    )


def _frontier(sweep) -> dict:
    """Per-depth minimal token rate meeting the quality bound."""
    out = {}
    for depth in sweep.depths():
        rates, _, scores = sweep.series(depth)
        meeting = [r for r, s in zip(rates, scores) if s <= QUALITY_BOUND]
        out[depth] = min(meeting) if meeting else None
    return out


def _timed_sweep(store: ResultStore) -> tuple[float, object, Runner]:
    runner = Runner(store=store)
    started = time.perf_counter()
    sweep = token_rate_sweep(
        _base_spec(), THROUGHPUT_RATES, THROUGHPUT_DEPTHS, runner=runner
    )
    return time.perf_counter() - started, sweep, runner


def test_campaign_scale(tmp_path, record_property):
    store = ResultStore(tmp_path / "store")
    n_points = len(THROUGHPUT_RATES) * len(THROUGHPUT_DEPTHS)

    cold_s, cold_sweep, cold_runner = _timed_sweep(store)
    warm_s, warm_sweep, warm_runner = _timed_sweep(store)
    assert warm_sweep == cold_sweep  # warm answers are the cold answers
    warm_hit_rate = warm_runner.stats.cache_hits / n_points

    # Adaptive budget: uniform dense sweep vs the cliff-seeking sampler,
    # both against fresh stores so every evaluation is a real run.
    uniform_runner = Runner(store=ResultStore(tmp_path / "uniform"))
    uniform = token_rate_sweep(
        _base_spec(), DENSE_RATES, THROUGHPUT_DEPTHS, runner=uniform_runner
    )

    adaptive_runner = Runner(store=ResultStore(tmp_path / "adaptive"))
    adaptive = adaptive_token_rate_sweep(
        _base_spec(), list(DENSE_RATES), THROUGHPUT_DEPTHS,
        runner=adaptive_runner,
    )

    ratio = adaptive.sampling["ratio"]
    frontier_matches = _frontier(adaptive) == _frontier(uniform)

    record_property("cold_points_per_s", n_points / cold_s)
    record_property("warm_points_per_s", n_points / warm_s)
    record_property("warm_hit_rate", warm_hit_rate)
    record_property("adaptive_ratio", ratio)

    assert cold_runner.stats.simulated == n_points
    assert warm_runner.stats.simulated == 0
    assert warm_hit_rate == 1.0
    # Acceptance: the adaptive sampler reproduces the provisioning
    # frontier with <= 50% of the uniform grid's measurements.
    assert frontier_matches, "adaptive frontier diverged from uniform sweep"
    assert ratio <= 0.5, f"adaptive evaluated {ratio:.0%} of the grid"
