"""Perf-regression harness: event-loop microbench + fast-path sweep.

``make bench`` runs this module with the result cache disabled
(``REPRO_BENCH_CACHE=0``) and the bench ledger
(``tools/paper_ledger.py``) writes what it records into
``BENCH_paper.json``:

* a microbenchmark of the event engine (events/second on a synthetic
  self-rescheduling workload, including a cancel-heavy phase that
  exercises heap compaction);
* an end-to-end (token rate x bucket depth) paper sweep timed twice —
  once forced onto the event engine (``REPRO_FASTPATH=0``), once on the
  vectorized fast path (``REPRO_FASTPATH=1``) — reporting the median
  wall-clock per grid point, the speedup of the medians, and the
  fast-lane hit rate.

Results are bit-identical between the two timings (asserted per point),
so the speedup is a pure implementation delta, not a model change.
"""

from __future__ import annotations

import statistics
import time

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import ResultSummary
from repro.sim.engine import Engine
from repro.units import mbps

#: The paper's Figure-7 shape: 1.7 Mbps encoding over its sweep rates.
RATES_MBPS = (1.65, 1.75, 1.9, 2.0)
DEPTHS_BYTES = (3000.0, 4500.0)
REPEATS = 3


def _microbench(n_events: int = 200_000, chains: int = 64) -> dict:
    """Events/second on a synthetic self-rescheduling workload."""
    engine = Engine(seed=1)
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        if fired <= n_events - chains:
            engine.schedule(0.001, tick)

    for _ in range(chains):
        engine.schedule(0.001, tick)
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started

    # Cancel-heavy phase: timers that almost always get cancelled, the
    # pattern heap compaction exists for.
    engine2 = Engine(seed=2)
    n_cancel = 50_000
    cancel_started = time.perf_counter()
    pending = []
    for i in range(n_cancel):
        pending.append(engine2.schedule(1.0 + i * 1e-4, lambda: None))
        if len(pending) >= 100:
            for event in pending[:-1]:
                event.cancel()
            pending = pending[-1:]
    engine2.run()
    cancel_elapsed = time.perf_counter() - cancel_started

    return {
        "events_per_sec": fired / elapsed,
        "cancel_events_per_sec": n_cancel / cancel_elapsed,
    }


def _grid():
    for rate in RATES_MBPS:
        for depth in DEPTHS_BYTES:
            yield ExperimentSpec(
                clip="lost",
                codec="mpeg1",
                encoding_rate_bps=mbps(1.7),
                token_rate_bps=mbps(rate),
                bucket_depth_bytes=depth,
                policer_action="drop",
            )


def _point_key(spec: ExperimentSpec) -> str:
    return f"r{spec.token_rate_bps / 1e6:g}-b{spec.bucket_depth_bytes:.0f}"


def _time_grid(monkeypatch, mode: str) -> tuple[dict, dict]:
    """Median wall-clock and summary per grid point under one mode."""
    monkeypatch.setenv(fastlane.FASTPATH_ENV, mode)
    timings: dict[str, float] = {}
    summaries: dict[str, ResultSummary] = {}
    for spec in _grid():
        run_experiment(spec)  # warm encode/feature caches out of the timing
        samples = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = run_experiment(spec)
            samples.append(time.perf_counter() - started)
        timings[_point_key(spec)] = statistics.median(samples)
        summaries[_point_key(spec)] = ResultSummary.from_result(
            result, elapsed_s=0.0
        )
    return timings, summaries


def test_perf_sweep(monkeypatch, record_property):
    micro = _microbench()

    engine_times, engine_summaries = _time_grid(monkeypatch, "0")
    fastlane.stats.reset()
    fast_times, fast_summaries = _time_grid(monkeypatch, "1")
    hit_rate = fastlane.stats.hit_rate

    # The timings only mean something if the outputs are the same runs.
    for key, engine_summary in engine_summaries.items():
        assert engine_summary == fast_summaries[key], key

    engine_median = statistics.median(engine_times.values())
    fast_median = statistics.median(fast_times.values())
    speedup = engine_median / fast_median

    record_property("engine_s_per_point", engine_median)
    record_property("fastpath_s_per_point", fast_median)
    record_property("speedup", speedup)
    record_property("hit_rate", hit_rate)
    record_property("events_per_s", micro["events_per_sec"])
    record_property("cancel_events_per_s", micro["cancel_events_per_sec"])

    assert hit_rate == 1.0
    # Regression floor: the acceptance target is 5x on an idle machine;
    # 3x here keeps the bench meaningful without going flaky under load.
    assert speedup >= 3.0, f"fast-path speedup regressed to {speedup:.2f}x"
    assert micro["events_per_sec"] > 50_000
