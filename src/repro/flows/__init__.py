"""Multi-flow aggregates and QoE-aware admission control.

The paper polices *one* video flow against its negotiated token
bucket; real DiffServ deployments police an EF *aggregate* — many
concurrent sessions sharing one profile at the ingress. This package
scales the reproduction from one flow to N:

* :mod:`repro.flows.aggregate` — :class:`AggregateSpec` (N member
  flows sharing one policer), the engine fan-in lane (bit-checked
  oracle), and the shared per-flow summary rollup.
* :mod:`repro.flows.multipath` — the interleaved fast lane: per-flow
  schedules merged into one arrival stream, policed by one pass of the
  token-bucket kernel every single-stream lane uses; bit-identical to
  the engine lane and tractable at 100–1000 flows.
  :func:`run_aggregate` picks the lane under ``REPRO_FASTPATH``.
* :mod:`repro.flows.measure` — windowed aggregate-rate measurement
  from the same arrival arrays.
* :mod:`repro.flows.admission` — session-schedule replay comparing
  QoE-floor admission against a naive bandwidth budget.
"""

from repro.flows.aggregate import (
    AggregateSpec,
    AggregateSummary,
    contended_flow_specs,
    derive_flow_seed,
    flow_jitter_delays,
    rollup_summaries,
    run_aggregate,
    run_engine_aggregate,
)
from repro.flows.admission import (
    AdmissionController,
    AdmissionFrontier,
    BandwidthBudgetPolicy,
    QoeFloorPolicy,
    SessionEvent,
    admission_frontier,
)
from repro.flows.measure import RateMeasurement, measure_aggregate, measure_rate
from repro.flows.multipath import qualifies_for_flowpath, run_multipath

__all__ = [
    "AggregateSpec",
    "AggregateSummary",
    "contended_flow_specs",
    "derive_flow_seed",
    "flow_jitter_delays",
    "rollup_summaries",
    "run_aggregate",
    "run_engine_aggregate",
    "qualifies_for_flowpath",
    "run_multipath",
    "AdmissionController",
    "AdmissionFrontier",
    "BandwidthBudgetPolicy",
    "QoeFloorPolicy",
    "SessionEvent",
    "admission_frontier",
    "RateMeasurement",
    "measure_aggregate",
    "measure_rate",
]
