"""QoE-aware admission control over multi-flow aggregates.

The paper provisioned *one* flow; an operator admits *many* into one
EF profile and must decide when to stop. The naive rule — admit while
the sum of nominal encoding rates fits the token rate — ignores
per-packet wire overhead (28 bytes of UDP/IP per MTU payload) and the
burstiness the bucket actually polices, so it happily over-admits.
This module implements the alternative the reproduction makes cheap:
*probe* the candidate aggregate (through the ordinary runner/cache
machinery, like the provisioning recommender) and admit only while
every admitted flow's QoE stays above a floor.

Two policies, one controller, one frontier:

* :class:`QoeFloorPolicy` — simulate the would-be aggregate; admit iff
  the *worst* member flow's VQM score and frame loss meet the floor.
* :class:`BandwidthBudgetPolicy` — the naive yardstick; admit iff
  nominal demand fits the budget.
* :class:`AdmissionController` — replays a session schedule (arrivals
  and departures) through a policy, producing one decision per
  arrival.
* :func:`admission_frontier` — the summary figure: admitted flows vs
  aggregate and worst-flow QoE, with both policies' cutoffs marked.

Probe aggregates start every active flow at t=0 — the conservative
instantaneous worst case (all admitted flows bursting from the same
instant), and also what keeps probes cacheable: the probe for "these
K flows" is one spec fingerprint, independent of arrival history.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.faults import FailureRecord
from repro.core.runner import Runner, SerialRunner
from repro.flows.aggregate import AggregateSpec, AggregateSummary
from repro.flows.measure import DEFAULT_WINDOW_S, measure_aggregate
from repro.sim.fastpath import front_end_scope
from repro.video.clips import encode_clip

#: Default QoE floor: clip-level VQM score (0 best, 1 worst) each
#: admitted flow must stay within...
DEFAULT_FLOOR_SCORE = 0.25
#: ...and the frame-loss fraction it must stay within.
DEFAULT_FLOOR_LOSS = 0.05


def nominal_rate_bps(flow) -> float:
    """The rate a naive admission rule books for one flow.

    The flow's advertised average encoding rate — what a reservation
    request would carry. Deliberately ignores wire overhead and
    burstiness; that blindness is the point of the comparison.
    """
    encoded = encode_clip(flow.clip, flow.codec, flow.encoding_rate_bps)
    return float(encoded.rate_stats()["rate_avg_bps"])


@dataclass(frozen=True)
class AdmissionDecision:
    """One arrival's verdict."""

    time: float
    flow_label: str
    admitted: bool
    n_active: int  # active flows after this decision
    reason: str
    probe: Optional[dict] = None  # QoE probe numbers (QoE policy only)

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SessionEvent:
    """One entry of a session schedule."""

    time: float
    action: str  # "arrive" | "depart"
    label: str  # session identity (departures name an earlier arrival)
    flow: Optional[object] = None  # ExperimentSpec for arrivals

    def __post_init__(self) -> None:
        if self.action not in ("arrive", "depart"):
            raise ValueError(f"unknown session action {self.action!r}")
        if self.action == "arrive" and self.flow is None:
            raise ValueError(f"arrival {self.label!r} needs a flow spec")


def _probe_outcomes(runner: Runner, aggs: Sequence[AggregateSpec]) -> list:
    """One batch of aggregate probes; a quarantine aborts the search."""
    outcomes = runner.run_batch(list(aggs))
    for agg, outcome in zip(aggs, outcomes):
        if isinstance(outcome, FailureRecord):
            raise RuntimeError(
                f"admission probe quarantined "
                f"({agg.n_flows} flows): {outcome.describe()}"
            )
    return outcomes


def _worst_qoe(summary: AggregateSummary) -> tuple:
    """(worst VQM score, worst frame loss) over the member flows."""
    worst_score = max(fs.quality_score for fs in summary.flow_summaries)
    worst_loss = max(fs.lost_frame_fraction for fs in summary.flow_summaries)
    return worst_score, worst_loss


class QoeFloorPolicy:
    """Admit while a probe shows every member flow above the QoE floor.

    The probe is the candidate aggregate itself — active flows plus
    the arrival, sharing the profile under consideration — run through
    the normal dispatch (interleaved lane when it qualifies) and the
    runner's cache, so repeated arrivals at the same mix cost one
    simulation total.
    """

    name = "qoe-floor"

    def __init__(
        self,
        token_rate_bps: float,
        bucket_depth_bytes: float,
        floor_score: float = DEFAULT_FLOOR_SCORE,
        floor_loss: float = DEFAULT_FLOOR_LOSS,
        policing: str = "aggregate",
        policer_action: str = "drop",
        seed: int = 0,
    ):
        self.token_rate_bps = token_rate_bps
        self.bucket_depth_bytes = bucket_depth_bytes
        self.floor_score = floor_score
        self.floor_loss = floor_loss
        self.policing = policing
        self.policer_action = policer_action
        self.seed = seed

    def candidate_aggregate(self, flows: Sequence) -> AggregateSpec:
        """The probe spec for a given admitted-flow mix."""
        return AggregateSpec(
            flows=tuple(flows),
            token_rate_bps=self.token_rate_bps,
            bucket_depth_bytes=self.bucket_depth_bytes,
            policing=self.policing,
            policer_action=self.policer_action,
            seed=self.seed,
        )

    def admit(self, active: Sequence, candidate, runner: Runner) -> tuple:
        agg = self.candidate_aggregate(list(active) + [candidate])
        (summary,) = _probe_outcomes(runner, [agg])
        worst_score, worst_loss = _worst_qoe(summary)
        ok = worst_score <= self.floor_score and worst_loss <= self.floor_loss
        probe = {
            "n_flows": agg.n_flows,
            "worst_quality_score": worst_score,
            "worst_lost_frame_fraction": worst_loss,
            "aggregate_quality_score": summary.quality_score,
            "aggregate_lost_frame_fraction": summary.lost_frame_fraction,
        }
        reason = (
            f"probe worst score {worst_score:.3f} / loss {worst_loss:.3f} "
            f"vs floor {self.floor_score:.3f} / {self.floor_loss:.3f}"
        )
        return ok, reason, probe


class BandwidthBudgetPolicy:
    """Admit while the sum of nominal encoding rates fits the budget."""

    name = "bandwidth-budget"

    def __init__(self, budget_bps: float):
        if budget_bps <= 0:
            raise ValueError(f"budget must be positive, got {budget_bps}")
        self.budget_bps = budget_bps

    def admit(self, active: Sequence, candidate, runner: Runner) -> tuple:
        demand = sum(nominal_rate_bps(f) for f in active) + nominal_rate_bps(
            candidate
        )
        ok = demand <= self.budget_bps
        reason = (
            f"nominal demand {demand / 1e6:.3f} Mbps vs "
            f"budget {self.budget_bps / 1e6:.3f} Mbps"
        )
        return ok, reason, None


class AdmissionController:
    """Replay a session schedule through an admission policy.

    Events are processed in time order (ties: schedule order).
    Departures free their flow's slot unconditionally; each arrival is
    put to the policy against the then-active mix and either admitted
    (joining the mix) or rejected (leaving it unchanged).
    """

    def __init__(self, policy, runner: Optional[Runner] = None):
        self.policy = policy
        self.runner = runner or SerialRunner()
        self.active: dict = {}  # label -> flow spec, insertion-ordered

    def replay(self, events: Sequence[SessionEvent]) -> list:
        """Process a whole schedule; returns one decision per arrival."""
        decisions = []
        for event in sorted(events, key=lambda e: e.time):
            if event.action == "depart":
                self.active.pop(event.label, None)
                continue
            if event.label in self.active:
                raise ValueError(
                    f"session label {event.label!r} arrived twice"
                )
            ok, reason, probe = self.policy.admit(
                list(self.active.values()), event.flow, self.runner
            )
            if ok:
                self.active[event.label] = event.flow
            decisions.append(
                AdmissionDecision(
                    time=event.time,
                    flow_label=event.label,
                    admitted=ok,
                    n_active=len(self.active),
                    reason=reason,
                    probe=probe,
                )
            )
        return decisions


@dataclass(frozen=True)
class FrontierPoint:
    """QoE of the homogeneous aggregate at one admitted-flow count."""

    n_flows: int
    quality_score: float  # aggregate rollup (mean over flows)
    worst_quality_score: float
    lost_frame_fraction: float
    worst_lost_frame_fraction: float
    packet_drop_fraction: float
    measured_peak_rate_bps: float
    measured_mean_rate_bps: float
    qoe_admissible: bool
    bandwidth_admissible: bool

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class AdmissionFrontier:
    """Admitted-flows-vs-QoE frontier for one homogeneous scenario."""

    token_rate_bps: float
    bucket_depth_bytes: float
    budget_bps: float
    floor_score: float
    floor_loss: float
    nominal_rate_bps: float
    points: tuple
    qoe_admitted: int  # flows the QoE-floor policy admits
    bandwidth_admitted: int  # flows the naive budget admits

    @property
    def policies_disagree(self) -> bool:
        """True when the two rules stop at different flow counts."""
        return self.qoe_admitted != self.bandwidth_admitted

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary (the ``repro admit`` payload)."""
        return {
            "token_rate_bps": self.token_rate_bps,
            "bucket_depth_bytes": self.bucket_depth_bytes,
            "budget_bps": self.budget_bps,
            "floor_score": self.floor_score,
            "floor_loss": self.floor_loss,
            "nominal_rate_bps": self.nominal_rate_bps,
            "qoe_admitted": self.qoe_admitted,
            "bandwidth_admitted": self.bandwidth_admitted,
            "policies_disagree": self.policies_disagree,
            "points": [point.to_dict() for point in self.points],
        }


@front_end_scope()
def admission_frontier(
    base_flow,
    max_flows: int,
    token_rate_bps: float,
    bucket_depth_bytes: float,
    floor_score: float = DEFAULT_FLOOR_SCORE,
    floor_loss: float = DEFAULT_FLOOR_LOSS,
    budget_bps: Optional[float] = None,
    runner: Optional[Runner] = None,
    spacing_s: float = 0.0,
    policing: str = "aggregate",
    policer_action: str = "drop",
    seed: int = 0,
    window_s: float = DEFAULT_WINDOW_S,
) -> AdmissionFrontier:
    """Sweep admitted-flow count 1..N over one homogeneous scenario.

    All N probe aggregates go to the runner as one batch (pooled
    runners parallelize them; cached runners skip repeats). The
    QoE-admitted count is the largest *contiguous* prefix meeting the
    floor — admission is sequential, so a dip at K closes the door
    even if K+1 were somehow admissible again. The bandwidth count is
    the naive ``budget / nominal`` cutoff (``budget`` defaults to the
    token rate itself). The probes and the load measurements run in one
    front-end scope, so in-process they share one schedule per clip
    version and start offset.
    """
    if max_flows < 1:
        raise ValueError("max_flows must be at least 1")
    runner = runner or SerialRunner()
    budget = float(budget_bps) if budget_bps is not None else float(
        token_rate_bps
    )
    nominal = nominal_rate_bps(base_flow)
    aggs = [
        AggregateSpec.homogeneous(
            base_flow,
            n,
            spacing_s=spacing_s,
            token_rate_bps=token_rate_bps,
            bucket_depth_bytes=bucket_depth_bytes,
            policing=policing,
            policer_action=policer_action,
            seed=seed,
        )
        for n in range(1, max_flows + 1)
    ]
    outcomes = _probe_outcomes(runner, aggs)
    points = []
    for agg, summary in zip(aggs, outcomes):
        worst_score, worst_loss = _worst_qoe(summary)
        measured = measure_aggregate(agg, window_s=window_s)
        points.append(
            FrontierPoint(
                n_flows=agg.n_flows,
                quality_score=summary.quality_score,
                worst_quality_score=worst_score,
                lost_frame_fraction=summary.lost_frame_fraction,
                worst_lost_frame_fraction=worst_loss,
                packet_drop_fraction=summary.packet_drop_fraction,
                measured_peak_rate_bps=measured.peak_rate_bps,
                measured_mean_rate_bps=measured.mean_rate_bps,
                qoe_admissible=(
                    worst_score <= floor_score and worst_loss <= floor_loss
                ),
                bandwidth_admissible=agg.n_flows * nominal <= budget,
            )
        )
    qoe_admitted = 0
    for point in points:
        if not point.qoe_admissible:
            break
        qoe_admitted = point.n_flows
    bandwidth_admitted = max(
        (p.n_flows for p in points if p.bandwidth_admissible), default=0
    )
    return AdmissionFrontier(
        token_rate_bps=float(token_rate_bps),
        bucket_depth_bytes=float(bucket_depth_bytes),
        budget_bps=budget,
        floor_score=floor_score,
        floor_loss=floor_loss,
        nominal_rate_bps=nominal,
        points=tuple(points),
        qoe_admitted=qoe_admitted,
        bandwidth_admitted=bandwidth_admitted,
    )
