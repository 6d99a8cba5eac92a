"""Batched-execution bench: a whole sweep grid as one array program.

``make bench`` runs this with the result cache disabled, and the bench
ledger (``tools/paper_ledger.py``) writes what it records into
``BENCH_paper.json``. One 64-point paper grid —
16 token rates x 2 bucket depths x 2 seeds on the 1.7 Mbps "lost"
encoding — is timed three ways:

* the event engine, on a documented subsample (it is ~50x too slow to
  time all 64 points on every bench run);
* the scalar fast path, one spec at a time, all 64 points;
* the batch lane (:func:`repro.core.fastlane.run_batchpath`), the
  whole grid as one call with the schedule/jitter front end computed
  once per seed, each seed's lanes scanned one by one against its
  policer-input stream in ascending (depth, rate) order (a lane at or
  above, in both rate and depth, one seen to forward every packet is
  not scanned), and one downstream pass per distinct verdict mask.

The headline number is batch points/sec; the speedups only mean
anything because every batch summary is asserted bit-identical to the
scalar fast path (which the equivalence suite pins to the engine).
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import ResultSummary
from repro.units import mbps

N_RATES = 16
RATES_MBPS = [1.0 + 2.0 * i / (N_RATES - 1) for i in range(N_RATES)]
DEPTHS_BYTES = (3000.0, 4500.0)
SEEDS = (0, 1)
BATCH_REPEATS = 3
ENGINE_STRIDE = 8  # engine timed on every 8th point (8 of 64)


def _grid() -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            clip="lost",
            codec="mpeg1",
            encoding_rate_bps=mbps(1.7),
            token_rate_bps=mbps(rate),
            bucket_depth_bytes=depth,
            policer_action="drop",
            seed=seed,
        )
        for rate in RATES_MBPS
        for depth in DEPTHS_BYTES
        for seed in SEEDS
    ]


def test_batch_scale(monkeypatch, record_property):
    grid = _grid()
    n_points = len(grid)
    assert n_points == 64

    # Warm the encode/feature caches out of every timing below.
    monkeypatch.setenv(fastlane.FASTPATH_ENV, "1")
    run_experiment(grid[0])

    # Batch lane: the whole grid as one array program, median of runs.
    fastlane.stats.reset()
    batch_samples = []
    for _ in range(BATCH_REPEATS):
        started = time.perf_counter()
        batch_summaries = fastlane.run_batchpath(grid)
        batch_samples.append(time.perf_counter() - started)
    batch_s = statistics.median(batch_samples)
    assert fastlane.stats.batch_points == n_points * BATCH_REPEATS

    # Scalar fast path: same grid, one spec at a time.
    scalar_started = time.perf_counter()
    scalar_summaries = [
        ResultSummary.from_result(run_experiment(spec), elapsed_s=0.0)
        for spec in grid
    ]
    scalar_s = time.perf_counter() - scalar_started

    # The timings only mean something if the outputs are the same runs.
    for spec, batch_summary, scalar_summary in zip(
        grid, batch_summaries, scalar_summaries
    ):
        batch_summary = dataclasses.replace(batch_summary, elapsed_s=0.0)
        assert batch_summary == scalar_summary, spec

    # Event engine: a stride subsample, scaled to a per-point median.
    monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
    engine_sample = grid[::ENGINE_STRIDE]
    engine_times = []
    for spec in engine_sample:
        started = time.perf_counter()
        run_experiment(spec)
        engine_times.append(time.perf_counter() - started)
    engine_s_per_point = statistics.median(engine_times)

    batch_s_per_point = batch_s / n_points
    scalar_s_per_point = scalar_s / n_points
    points_per_sec = n_points / batch_s
    speedup_engine = engine_s_per_point / batch_s_per_point
    speedup_scalar = scalar_s_per_point / batch_s_per_point

    record_property("points_per_s", points_per_sec)
    record_property("speedup_vs_engine", speedup_engine)
    record_property("speedup_vs_scalar", speedup_scalar)

    # Regression floors: the acceptance targets are 50x/5x on an idle
    # machine; lower floors here keep the bench meaningful without
    # going flaky under load.
    assert speedup_engine >= 25.0, f"batch vs engine: {speedup_engine:.1f}x"
    assert speedup_scalar >= 3.0, f"batch vs scalar: {speedup_scalar:.1f}x"
