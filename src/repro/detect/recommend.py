"""Provisioning recommender: minimal EF parameters for a target quality.

The paper's operational finding (§4.1, Figure 7) is that the token
rate an EF flow must buy depends sharply on the bucket depth: with a
4500-byte bucket the *average* encoding rate suffices, while a
3000-byte bucket pushes the requirement toward the *maximum*
instantaneous rate. This module turns that finding into a computation:
for each candidate depth, binary-search the token rate (through the
existing runner/cache machinery, so probes are cached, poolable, and
fault-tolerant like any sweep point) for the smallest rate meeting a
quality bound, then classify each minimum against the clip's own
average and maximum encoding rates.

The search runs *lockstep*: each bisection iteration submits one probe
per still-active depth as a single batch, so a pooled runner
parallelizes across depths and a cached one re-simulates nothing. All
rounds run in one front-end scope, so in-process rounds compute the
clip's schedule and the seed's jitter replay once per recommend.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.faults import FailureRecord
from repro.core.runner import ResultSummary, Runner, SerialRunner
from repro.sim.fastpath import front_end_scope
from repro.units import mbps
from repro.video.clips import encode_clip

#: A minimum rate within this factor of the clip's average encoding
#: rate classifies as "average-rate" provisioning...
AVG_RATE_SLACK = 1.10
#: ...and one at or above this fraction of the maximum instantaneous
#: rate classifies as "maximum-rate" provisioning.
MAX_RATE_SLACK = 0.85

#: Classification labels.
CLASS_AVERAGE = "average-rate"
CLASS_MAXIMUM = "maximum-rate"
CLASS_INTERMEDIATE = "intermediate"
CLASS_UNACHIEVABLE = "unachievable"


@dataclass(frozen=True)
class ProvisioningRow:
    """Minimal-rate answer for one bucket depth."""

    bucket_depth_bytes: float
    min_token_rate_bps: Optional[float]  # None: target unmet at rate_max
    achieved_quality_score: Optional[float]
    achieved_lost_frame_fraction: Optional[float]
    classification: str
    probes: int  # simulations this depth's search submitted

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ProvisioningTable:
    """The recommender's full answer for one clip and target."""

    clip: str
    codec: str
    encoding_rate_bps: Optional[float]
    target: dict  # {"metric": ..., "bound": ...}
    avg_rate_bps: float
    max_rate_bps: float
    rows: tuple

    def findings(self) -> dict:
        """Machine-checkable summary, including the paper's finding.

        When both the paper's depths (3000 and 4500 bytes) are in the
        table, ``paper_finding_reproduced`` asserts the headline
        result: the deep bucket admits average-rate provisioning while
        the shallow one demands maximum-rate provisioning.
        """
        by_depth = {int(row.bucket_depth_bytes): row for row in self.rows}
        out = {
            "avg_rate_bps": self.avg_rate_bps,
            "max_rate_bps": self.max_rate_bps,
            "per_depth": {
                str(int(row.bucket_depth_bytes)): {
                    "min_token_rate_bps": row.min_token_rate_bps,
                    "classification": row.classification,
                }
                for row in self.rows
            },
        }
        deep = by_depth.get(4500)
        shallow = by_depth.get(3000)
        if deep is not None and shallow is not None:
            out["deep_bucket_admits_average"] = (
                deep.classification == CLASS_AVERAGE
            )
            out["shallow_bucket_needs_maximum"] = (
                shallow.classification == CLASS_MAXIMUM
            )
            out["paper_finding_reproduced"] = (
                out["deep_bucket_admits_average"]
                and out["shallow_bucket_needs_maximum"]
            )
        return out

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary (rows + findings)."""
        return {
            "clip": self.clip,
            "codec": self.codec,
            "encoding_rate_bps": self.encoding_rate_bps,
            "target": dict(self.target),
            "avg_rate_bps": self.avg_rate_bps,
            "max_rate_bps": self.max_rate_bps,
            "rows": [row.to_dict() for row in self.rows],
            "findings": self.findings(),
        }


def classify_rate(
    rate_bps: Optional[float],
    avg_rate_bps: float,
    max_rate_bps: float,
    avg_slack: float = AVG_RATE_SLACK,
    max_slack: float = MAX_RATE_SLACK,
) -> str:
    """Place a minimal rate on the paper's average↔maximum axis."""
    if rate_bps is None:
        return CLASS_UNACHIEVABLE
    if rate_bps <= avg_slack * avg_rate_bps:
        return CLASS_AVERAGE
    if rate_bps >= max_slack * max_rate_bps:
        return CLASS_MAXIMUM
    return CLASS_INTERMEDIATE


def _run_batch(runner: Runner, specs) -> list:
    """One lockstep probe round; quarantined probes abort the search."""
    outcomes = runner.run_batch(specs)
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, FailureRecord):
            raise RuntimeError(
                f"provisioning probe quarantined "
                f"(r={spec.token_rate_bps:.0f} bps, "
                f"b={spec.bucket_depth_bytes:.0f} B): {outcome.describe()}"
            )
    return outcomes


def _meets(summary: ResultSummary, metric: str, bound: float) -> bool:
    return getattr(summary, metric) <= bound


@front_end_scope()
def recommend_provisioning(
    base_spec,
    depths: Sequence[float] = (3000.0, 4500.0),
    runner: Optional[Runner] = None,
    target_quality_score: float = 0.05,
    target_lost_frames: Optional[float] = None,
    rate_min_bps: float = mbps(1.0),
    rate_max_bps: float = mbps(2.4),
    precision_bps: float = 20e3,
    avg_slack: float = AVG_RATE_SLACK,
    max_slack: float = MAX_RATE_SLACK,
) -> ProvisioningTable:
    """Minimal token rate per bucket depth meeting a quality target.

    ``base_spec`` fixes the clip, codec, and everything but the token
    bucket; each depth's rate is bisected over
    ``[rate_min_bps, rate_max_bps]`` to ``precision_bps``. The target
    is ``quality_score ≤ target_quality_score`` unless
    ``target_lost_frames`` is given, in which case
    ``lost_frame_fraction ≤ target_lost_frames`` governs. A depth whose
    target is unmet even at ``rate_max_bps`` is reported as
    ``"unachievable"`` rather than failing the table.
    """
    if not depths:
        raise ValueError("need at least one bucket depth")
    if rate_min_bps >= rate_max_bps:
        raise ValueError(
            f"rate_min_bps must be below rate_max_bps "
            f"({rate_min_bps:.0f} >= {rate_max_bps:.0f})"
        )
    if precision_bps <= 0:
        raise ValueError("precision_bps must be positive")
    if target_lost_frames is not None:
        metric, bound = "lost_frame_fraction", target_lost_frames
    else:
        metric, bound = "quality_score", target_quality_score
    runner = runner or SerialRunner()
    # Probes never need traces; keeping the flag off also keeps their
    # fingerprints shared with ordinary sweeps of the same grid.
    base = dataclasses.replace(base_spec, capture_trace=False)
    encoded = encode_clip(base.clip, base.codec, base.encoding_rate_bps)
    stats = encoded.rate_stats()

    depths = [float(d) for d in depths]
    probes = {d: 0 for d in depths}
    # Ceiling probe for every depth at once: a depth that fails at the
    # rate cap is settled in one round.
    ceiling_specs = [
        base.with_token_bucket(rate_max_bps, depth) for depth in depths
    ]
    ceiling = _run_batch(runner, ceiling_specs)
    search = {}  # depth -> [lo, hi, best_summary]
    settled = {}  # depth -> (min_rate or None, summary or None)
    for depth, summary in zip(depths, ceiling):
        probes[depth] += 1
        if _meets(summary, metric, bound):
            search[depth] = [rate_min_bps, rate_max_bps, summary]
        else:
            settled[depth] = (None, None)

    # Lockstep bisection: one probe per still-active depth per round.
    while search:
        active = [
            depth
            for depth, (lo, hi, _) in search.items()
            if hi - lo > precision_bps
        ]
        if not active:
            break
        batch = [
            base.with_token_bucket(
                0.5 * (search[depth][0] + search[depth][1]), depth
            )
            for depth in active
        ]
        outcomes = _run_batch(runner, batch)
        for depth, spec, summary in zip(active, batch, outcomes):
            probes[depth] += 1
            lo, hi, best = search[depth]
            if _meets(summary, metric, bound):
                search[depth] = [lo, spec.token_rate_bps, summary]
            else:
                search[depth] = [spec.token_rate_bps, hi, best]
    for depth, (lo, hi, best) in search.items():
        settled[depth] = (hi, best)

    rows = []
    for depth in depths:
        min_rate, summary = settled[depth]
        rows.append(
            ProvisioningRow(
                bucket_depth_bytes=depth,
                min_token_rate_bps=min_rate,
                achieved_quality_score=(
                    summary.quality_score if summary is not None else None
                ),
                achieved_lost_frame_fraction=(
                    summary.lost_frame_fraction if summary is not None else None
                ),
                classification=classify_rate(
                    min_rate,
                    stats["rate_avg_bps"],
                    stats["rate_max_bps"],
                    avg_slack=avg_slack,
                    max_slack=max_slack,
                ),
                probes=probes[depth],
            )
        )
    return ProvisioningTable(
        clip=base.clip,
        codec=base.codec,
        encoding_rate_bps=base.encoding_rate_bps,
        target={"metric": metric, "bound": bound},
        avg_rate_bps=stats["rate_avg_bps"],
        max_rate_bps=stats["rate_max_bps"],
        rows=tuple(rows),
    )
