"""Adaptive cliff-seeking sampling over a (rate × depth) grid.

The paper's provisioning curves are step functions of the token rate:
long flat plateaus (quality near-perfect above the knee, collapsed
below it) separated by a narrow cliff. A uniform sweep spends >90% of
its simulation budget re-measuring plateaus. The adaptive sampler
spends it on the cliff instead:

1. evaluate a *coarse* subset of each depth's rate axis (both
   endpoints plus every ``coarse_step``-th rate);
2. for every adjacent evaluated pair whose ``quality_score`` or
   ``lost_frame_fraction`` jumps by more than the cliff thresholds,
   evaluate the midpoint rate between them;
3. repeat until every jumping bracket is a pair of *adjacent* grid
   rates — at which point the cliff is located exactly as finely as
   the uniform grid would have located it.

Crucially the sampler only ever evaluates rates *from the given grid*
(midpoints are grid midpoints, not new values), so every probe shares
its fingerprint with the uniform sweep of the same grid: warm-store
hits transfer in both directions, and the per-depth minimal-rate
answers (the provisioning frontier) are identical to the uniform
sweep's whenever the cliff jump exceeds the thresholds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord
from repro.core.runner import Runner
from repro.core.sweep import SweepResult, validate_grid
from repro.sim.fastpath import front_end_scope

from repro.core.campaign.aggregate import SweepAggregator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.campaign.aggregate import CampaignProgress

#: A quality_score step across one bracket at least this large marks a
#: cliff worth refining (VQM impairment scale: ~0 pristine, ~1 ruined).
DEFAULT_CLIFF_QUALITY_JUMP = 0.2

#: Likewise for the lost-frame fraction.
DEFAULT_CLIFF_LOSS_JUMP = 0.05

#: Every Nth grid rate is in the coarse pass (plus both endpoints).
DEFAULT_COARSE_STEP = 4


@dataclass(frozen=True)
class AdaptiveSampleReport:
    """Coverage accounting of one adaptive sweep."""

    grid_points: int
    evaluated: int
    rounds: int
    coarse_step: int
    cliff_quality_jump: float
    cliff_loss_jump: float

    @property
    def ratio(self) -> float:
        """Fraction of the full grid actually evaluated."""
        return self.evaluated / self.grid_points if self.grid_points else 0.0

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary (``SweepResult.sampling``)."""
        data = dataclasses.asdict(self)
        data["mode"] = "adaptive"
        data["ratio"] = self.ratio
        return data


def _jumps(
    left,
    right,
    cliff_quality_jump: float,
    cliff_loss_jump: float,
) -> bool:
    """Does this bracket cross a cliff (or hide an unknown)?

    A quarantined endpoint has unknown values, so its brackets are
    refined — better to spend a few extra probes than to let a failed
    point mask the cliff.
    """
    if isinstance(left, FailureRecord) or isinstance(right, FailureRecord):
        return True
    if abs(left.quality_score - right.quality_score) >= cliff_quality_jump:
        return True
    return (
        abs(left.lost_frame_fraction - right.lost_frame_fraction)
        >= cliff_loss_jump
    )


@front_end_scope()
def adaptive_token_rate_sweep(
    base_spec: ExperimentSpec,
    token_rates_bps: Sequence[float],
    bucket_depths_bytes: Iterable[float] = (3000.0, 4500.0),
    runner: Optional[Runner] = None,
    cliff_quality_jump: float = DEFAULT_CLIFF_QUALITY_JUMP,
    cliff_loss_jump: float = DEFAULT_CLIFF_LOSS_JUMP,
    coarse_step: int = DEFAULT_COARSE_STEP,
    progress: Optional["CampaignProgress"] = None,
) -> SweepResult:
    """Sample the grid adaptively; returns a partial :class:`SweepResult`.

    Mirrors :func:`~repro.core.sweep.token_rate_sweep` (same grid
    semantics, same runner plumbing, same depth-major point ordering)
    but evaluates only the coarse pass plus cliff refinements. The
    result's ``points`` are the evaluated subset of the uniform
    sweep's points — bit-identical summaries for shared fingerprints —
    and ``sampling`` carries the :class:`AdaptiveSampleReport`. All
    rounds run in one front-end scope, so in-process they compute the
    schedule and the seed's jitter replay once.
    """
    if coarse_step < 1:
        raise ValueError(f"coarse_step must be positive (got {coarse_step})")
    if cliff_quality_jump <= 0 or cliff_loss_jump <= 0:
        raise ValueError("cliff thresholds must be positive")
    rates, depths = validate_grid(
        token_rates_bps, bucket_depths_bytes, forbid_duplicates=False
    )
    active = runner or Runner()

    n = len(rates)
    # Work in rate-sorted position space per depth; keep the original
    # grid index so emitted points preserve uniform-sweep ordering and
    # specs reuse the exact grid rate values (shared fingerprints).
    order = sorted(range(n), key=lambda i: rates[i])

    def spec_at(depth: float, pos: int) -> ExperimentSpec:
        return base_spec.with_token_bucket(rates[order[pos]], depth)

    aggregator = SweepAggregator(base_spec)
    evaluated: dict[float, dict[int, object]] = {d: {} for d in depths}

    coarse = sorted({0, n - 1} | set(range(0, n, coarse_step)))
    frontier: list[tuple[float, int]] = [
        (depth, pos) for depth in depths for pos in coarse
    ]

    rounds = 0
    while frontier:
        rounds += 1
        pending = [spec_at(depth, pos) for depth, pos in frontier]
        outcomes: list = [None] * len(pending)

        def emit(unit, outcome, source) -> None:
            outcomes[unit.index] = outcome
            if progress is not None:
                progress.update(source, outcome)

        active.run_stream(pending, emit, plan_specs=pending)

        for (depth, pos), spec, outcome in zip(frontier, pending, outcomes):
            evaluated[depth][pos] = outcome
            depth_index = depths.index(depth)
            aggregator.add(depth_index * n + order[pos], spec, outcome)

        # Refine: midpoints of non-adjacent evaluated brackets that
        # jump across a cliff threshold.
        next_frontier: list[tuple[float, int]] = []
        for depth in depths:
            positions = sorted(evaluated[depth])
            for left_pos, right_pos in zip(positions, positions[1:]):
                if right_pos - left_pos <= 1:
                    continue
                if _jumps(
                    evaluated[depth][left_pos],
                    evaluated[depth][right_pos],
                    cliff_quality_jump,
                    cliff_loss_jump,
                ):
                    next_frontier.append(
                        (depth, (left_pos + right_pos) // 2)
                    )
        frontier = next_frontier

    total_evaluated = sum(len(by_pos) for by_pos in evaluated.values())
    report = AdaptiveSampleReport(
        grid_points=n * len(depths),
        evaluated=total_evaluated,
        rounds=rounds,
        coarse_step=coarse_step,
        cliff_quality_jump=cliff_quality_jump,
        cliff_loss_jump=cliff_loss_jump,
    )
    if progress is not None:
        progress.finish()
    return aggregator.finalize(sampling=report.to_dict())
