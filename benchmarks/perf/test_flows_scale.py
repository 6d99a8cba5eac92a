"""Multi-flow scale bench: 100 flows through one interleaved scan.

``make bench`` runs this with the result cache disabled, and the bench
ledger (``tools/paper_ledger.py``) writes what it records into
``BENCH_paper.json``. One 100-flow homogeneous
aggregate (all flows starting together, worst-case interleaving for
the shared bucket) is timed against the two ways the question could
be answered before ``repro.flows`` existed:

* **the per-flow loop** (the headline baseline): each member run
  alone through the pre-existing single-flow pipeline, with the other
  99 flows' offered load standing in as best-effort cross traffic on
  the backbone hops (:func:`repro.flows.aggregate.contended_flow_specs`).
  Contention disqualifies the fast path, so every stand-in costs a
  full event-engine run; the bench times one sampled flow (the
  aggregate is homogeneous, so per-flow cost is uniform) and
  extrapolates to N. The stand-in is also *wrong*: its cross traffic
  competes for link capacity but never for the EF token bucket, so it
  reports zero policer drops while the real shared bucket is deep in
  violation — both numbers are recorded.
* **the uncontended fast-path loop**
  (:func:`repro.flows.multipath.run_flows_loop`), as a secondary
  reference: N private full-rate buckets and no link contention at
  all. Cheap, but it models no coupling whatsoever — it bounds how
  fast a per-flow decomposition could ever be, not what one costs.

The headline number is flows/sec through the interleaved lane; the
speedup means something because the flows suite pins the interleaved
lane bit-identical to the event-engine fan-in oracle.
"""

from __future__ import annotations

import statistics
import time

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.flows.aggregate import AggregateSpec, contended_flow_specs
from repro.flows.multipath import run_flows_loop, run_multipath
from repro.units import mbps

N_FLOWS = 100
INTERLEAVED_REPEATS = 3
#: Contended engine flows actually run (homogeneous aggregate: the
#: members differ only in derived seed, so one run prices them all).
ENGINE_SAMPLES = 1


def _aggregate() -> AggregateSpec:
    base = ExperimentSpec(
        clip="test-300",
        codec="mpeg1",
        encoding_rate_bps=mbps(1.7),
        policer_action="drop",
    )
    return AggregateSpec.homogeneous(
        base,
        N_FLOWS,
        token_rate_bps=mbps(1.9) * N_FLOWS / 2,
        bucket_depth_bytes=3000.0 * N_FLOWS / 2,
    )


def test_flows_scale(record_property):
    agg = _aggregate()

    # Warm the encode/schedule/feature caches out of all timings.
    run_multipath(agg)

    samples = []
    for _ in range(INTERLEAVED_REPEATS):
        started = time.perf_counter()
        summary = run_multipath(agg)
        samples.append(time.perf_counter() - started)
    interleaved_s = statistics.median(samples)
    assert summary.n_flows == N_FLOWS

    # Secondary reference: the uncontended fast-path loop.
    started = time.perf_counter()
    loop_summaries = run_flows_loop(agg)
    uncontended_s = time.perf_counter() - started
    assert len(loop_summaries) == N_FLOWS

    # Headline baseline: the contended per-flow loop, sampled. The
    # stand-ins must NOT qualify for the fast path — the whole point
    # is that contention needs the event engine.
    stand_ins = contended_flow_specs(agg)
    assert len(stand_ins) == N_FLOWS
    assert all(not fastlane.qualifies_for_fastpath(spec) for spec in stand_ins)
    engine_sample_s = []
    sample_drops = 0
    for spec in stand_ins[:ENGINE_SAMPLES]:
        started = time.perf_counter()
        result = run_experiment(spec)
        engine_sample_s.append(time.perf_counter() - started)
        sample_drops += result.policer_stats.dropped_packets
    engine_s_per_flow = statistics.mean(engine_sample_s)
    loop_s = engine_s_per_flow * N_FLOWS

    flows_per_sec = N_FLOWS / interleaved_s
    speedup = loop_s / interleaved_s
    aggregate_drops = summary.dropped_packets

    record_property("flows_per_s", flows_per_sec)
    record_property("speedup_vs_per_flow_loop", speedup)
    record_property("speedup_vs_uncontended_loop", uncontended_s / interleaved_s)
    record_property("aggregate_dropped_packets", aggregate_drops)
    record_property("stand_in_dropped_packets", sample_drops)

    # Acceptance floor: the interleaved lane must beat the per-flow
    # loop by >=10x at N=100. (It wins by orders of magnitude; the
    # floor guards against dispatch regressions that would send the
    # aggregate itself back to per-flow execution.)
    assert speedup >= 10.0, f"interleaved vs per-flow loop: {speedup:.1f}x"
    # The real aggregate must be showing the shared-bucket coupling the
    # per-flow stand-in cannot see, else the comparison is vacuous.
    assert aggregate_drops > 0
    assert sample_drops == 0
