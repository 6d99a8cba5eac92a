"""Parameter sweeps: the engine behind every figure.

The paper's figures plot video quality and frame loss against the
token rate, one curve pair per bucket depth. :func:`token_rate_sweep`
builds the full (rate × depth) cross product, streams it through a
:class:`~repro.core.runner.Runner` (and thus through the campaign
scheduler), and returns a :class:`SweepResult` exposing the series in
figure-ready form. Pass a runner with ``jobs`` above one to spread
the grid over worker processes, or a cache-backed runner to make
repeated sweeps nearly free. The result is assembled incrementally
from the outcome stream by a
:class:`~repro.core.campaign.aggregate.SweepAggregator`, ordered by
submission index — so in-process and pooled runs of the same grid
produce bit-identical results.

Fault tolerance: with a retry-policy-equipped runner, specs that fail
all retries arrive as :class:`SweepFailure` entries in
``SweepResult.failures`` while every healthy point still lands in
``points``. With ``journal_path`` set, each outcome is checkpointed to
an append-only journal the moment it resolves; ``resume=True`` reloads
that journal and re-runs only the specs it does not already answer
(previously quarantined specs run again — their failure may have been
transient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord
from repro.core.runner import ResultSummary, Runner, spec_fingerprint

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.campaign.aggregate import CampaignProgress


@dataclass(frozen=True)
class SweepPoint:
    """One (token rate, bucket depth) sample."""

    token_rate_bps: float
    bucket_depth_bytes: float
    result: ResultSummary

    @property
    def quality_score(self) -> float:
        """VQM clip score of this point."""
        return self.result.quality_score

    @property
    def lost_frame_fraction(self) -> float:
        """Frame loss fraction of this point."""
        return self.result.lost_frame_fraction


@dataclass(frozen=True)
class SweepFailure:
    """One quarantined (token rate, bucket depth) grid point."""

    token_rate_bps: float
    bucket_depth_bytes: float
    record: FailureRecord


@dataclass
class SweepResult:
    """All samples of one figure's sweep.

    ``points`` holds the healthy samples; ``failures`` the grid points
    a fault-tolerant runner quarantined. Series helpers draw from
    ``points`` only, so a partially-degraded sweep still renders — the
    missing samples are simply absent from their curve. ``sampling``
    is None for uniform sweeps; the adaptive sampler fills it with its
    coverage report (see
    :func:`repro.core.campaign.sampler.adaptive_token_rate_sweep`).
    """

    base_spec: ExperimentSpec
    points: list[SweepPoint] = field(default_factory=list)
    failures: list[SweepFailure] = field(default_factory=list)
    sampling: Optional[dict] = None

    @property
    def complete(self) -> bool:
        """True when no grid point was quarantined."""
        return not self.failures

    def depths(self) -> list[float]:
        """Distinct bucket depths, sorted."""
        return sorted({p.bucket_depth_bytes for p in self.points})

    def series(
        self, bucket_depth_bytes: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(token_rates, lost_frame_fractions, quality_scores)``.

        The two curves of one depth, sorted by token rate — exactly the
        pair of curves each paper figure draws per depth.
        """
        selected = sorted(
            (p for p in self.points if p.bucket_depth_bytes == bucket_depth_bytes),
            key=lambda p: p.token_rate_bps,
        )
        if not selected:
            raise KeyError(f"no points at depth {bucket_depth_bytes}")
        rates = np.array([p.token_rate_bps for p in selected])
        losses = np.array([p.lost_frame_fraction for p in selected])
        scores = np.array([p.quality_score for p in selected])
        return rates, losses, scores


def validate_grid(
    token_rates_bps: Sequence[float],
    bucket_depths_bytes: Iterable[float],
    forbid_duplicates: bool = True,
) -> tuple[list[float], tuple[float, ...]]:
    """Check a sweep grid before any simulation money is spent.

    Rejects empty axes, non-finite or non-positive values, and (by
    default) duplicated grid values — a duplicated rate silently doubles
    a campaign's cost, which is exactly the kind of typo worth catching
    up front. Returns the normalized ``(rates, depths)`` pair.
    """
    rates = list(token_rates_bps)
    depths = tuple(bucket_depths_bytes)
    if not rates:
        raise ValueError("need at least one token rate")
    if not depths:
        raise ValueError("need at least one bucket depth")
    for rate in rates:
        if not math.isfinite(rate) or rate <= 0:
            raise ValueError(f"token rate must be positive and finite (got {rate!r})")
    for depth in depths:
        if not math.isfinite(depth) or depth <= 0:
            raise ValueError(
                f"bucket depth must be positive and finite (got {depth!r})"
            )
    if forbid_duplicates:
        if len(set(rates)) != len(rates):
            raise ValueError("duplicate token rates in the sweep grid")
        if len(set(depths)) != len(depths):
            raise ValueError("duplicate bucket depths in the sweep grid")
    return rates, depths


def sweep_specs(
    base_spec: ExperimentSpec,
    token_rates_bps: Sequence[float],
    bucket_depths_bytes: Iterable[float],
) -> list[ExperimentSpec]:
    """The (depth-major) cross product a sweep runs, as one flat batch."""
    return [
        base_spec.with_token_bucket(rate, depth)
        for depth in bucket_depths_bytes
        for rate in token_rates_bps
    ]


def token_rate_sweep(
    base_spec: ExperimentSpec,
    token_rates_bps: Sequence[float],
    bucket_depths_bytes: Iterable[float] = (3000.0, 4500.0),
    runner: Optional[Runner] = None,
    journal_path: Union[str, Path, None] = None,
    resume: bool = False,
    progress: Optional["CampaignProgress"] = None,
    journal_compact_every: Optional[int] = None,
) -> SweepResult:
    """Run ``base_spec`` at every (rate, depth) combination.

    The whole cross product streams through ``runner`` (a fresh
    one-job :class:`Runner` by default) and the campaign scheduler, so
    parallel runners see all the work at once and cache-backed runners
    answer repeated points without simulating.

    ``journal_path`` enables incremental checkpointing (see
    :mod:`repro.core.journal`): every outcome is durably appended as it
    resolves, and ``journal_compact_every`` folds the log into a
    checkpoint record every N outcomes so long campaigns don't grow it
    without bound. ``resume=True`` additionally pre-loads completed
    specs from the journal and submits only the remainder to the
    runner — zero re-simulation of finished work, with or without a
    result cache.

    ``progress`` (a
    :class:`~repro.core.campaign.aggregate.CampaignProgress`) taps the
    outcome stream for a live one-line report; it is finished here
    regardless of how the sweep exits.
    """
    token_rates_bps, bucket_depths_bytes = validate_grid(
        token_rates_bps, bucket_depths_bytes, forbid_duplicates=False
    )
    specs = sweep_specs(base_spec, token_rates_bps, bucket_depths_bytes)
    active = runner or Runner()

    from repro.core.campaign.aggregate import SweepAggregator

    aggregator = SweepAggregator(base_spec)
    to_run = list(range(len(specs)))
    journal = None
    if journal_path is not None:
        from repro.core.journal import SweepJournal, sweep_fingerprint

        journal = SweepJournal.open(
            journal_path,
            sweep_id=sweep_fingerprint(specs),
            resume=resume,
            compact_every=journal_compact_every,
        )
        if resume:
            to_run = []
            for i, spec in enumerate(specs):
                done = journal.completed.get(spec_fingerprint(spec))
                if done is not None:
                    aggregator.add(i, spec, done)
                    if progress is not None:
                        progress.update("journal", done)
                else:
                    to_run.append(i)
    try:
        if to_run:
            pending = [specs[i] for i in to_run]

            def emit(unit, outcome, source) -> None:
                grid_index = to_run[unit.index]
                aggregator.add(grid_index, specs[grid_index], outcome)
                if journal is not None:
                    journal.record(
                        unit.fingerprint or spec_fingerprint(unit.spec), outcome
                    )
                if progress is not None:
                    progress.update(source, outcome)

            active.run_stream(pending, emit, plan_specs=pending)
    finally:
        if journal is not None:
            journal.close()
        if progress is not None:
            progress.finish()
    return aggregator.finalize()
