"""Campaign layer: streamed, single-host execution for large grids.

The paper's provisioning curves are step functions: almost every point
of a dense (rate × depth) grid lands on a flat plateau, and the few
that matter sit in a narrow token-rate cliff. This package turns the
batch-oriented runner stack into a campaign scheduler built for that
shape:

* :mod:`~repro.core.campaign.scheduler` — an asyncio scheduler that
  pulls arbitrary spec streams through one bounded queue, serves the
  units to a worker backend, coalesces batch-lane grids, and
  deduplicates concurrent campaigns through the result store's
  cross-process single-flight leases;
* :mod:`~repro.core.campaign.backends` — the worker backend API
  and the process-pool backend, which runs in-process at one slot (a
  backend only needs ``slots`` + ``execute``);
* :mod:`~repro.core.campaign.aggregate` — streaming aggregation:
  a :class:`~repro.core.sweep.SweepResult` grown incrementally from
  the outcome stream (never from a materialized grid) plus the
  one-line progress/ETA reporter;
* :mod:`~repro.core.campaign.sampler` — the adaptive cliff-seeking
  sampler: coarse grid first, recursive refinement only where quality
  or frame loss jumps across a cliff threshold;
* :mod:`~repro.core.campaign.service` — ``CampaignService``, the
  long-running query API that answers provisioning questions from the
  warm store and schedules only cache misses (``repro serve``).

The runner entry points (:meth:`repro.core.runner.Runner.run_batch`,
:func:`repro.core.sweep.token_rate_sweep`, ``recommend``) run through
the scheduler, preserving the one-job==many-jobs bit-identical
guarantee: every outcome is a pure function of its spec, so neither
scheduling order nor backend choice can perturb a result.
"""

from repro.core.campaign.aggregate import CampaignProgress, SweepAggregator
from repro.core.campaign.backends import ProcessPoolBackend, WorkerBackend
from repro.core.campaign.sampler import (
    AdaptiveSampleReport,
    adaptive_token_rate_sweep,
)
from repro.core.campaign.scheduler import (
    CampaignScheduler,
    WorkUnit,
    run_stream_through_scheduler,
)
from repro.core.campaign.service import CampaignService

__all__ = [
    "AdaptiveSampleReport",
    "CampaignProgress",
    "CampaignScheduler",
    "CampaignService",
    "ProcessPoolBackend",
    "SweepAggregator",
    "WorkUnit",
    "WorkerBackend",
    "adaptive_token_rate_sweep",
    "run_stream_through_scheduler",
]
