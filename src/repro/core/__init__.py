"""Experiment orchestration — the paper's methodology as a library.

This is the layer a "user" of the paper's study would touch: describe
a configuration (:class:`~repro.core.experiment.ExperimentSpec`), run
it end to end (stream → police → receive → render → VQM), sweep the
token-bucket parameters (`sweep`) — in-process or through a process
pool, against an on-disk result cache (`runner`, `resultstore`), with
bounded retries, per-spec timeouts, quarantine, and checkpoint/resume
(`faults`, `journal`, `chaos`) — and analyze/print the results
(`analysis`, `report`). Execution is orchestrated by the `campaign`
package: an async scheduler over one bounded queue, streaming
aggregation, cross-process single-flight, adaptive cliff-seeking
sampling, and a warm-store query service.
"""

from repro.core.experiment import ExperimentSpec, ExperimentResult, run_experiment
from repro.core.faults import FailureRecord, RetryPolicy
from repro.core.runner import (
    CACHE_SCHEMA_VERSION,
    ResultSummary,
    Runner,
    spec_fingerprint,
)
from repro.core.resultstore import ResultStore, default_cache_dir
from repro.core.journal import SweepJournal, sweep_fingerprint
from repro.core.sweep import (
    SweepFailure,
    SweepPoint,
    SweepResult,
    sweep_specs,
    token_rate_sweep,
    validate_grid,
)
from repro.core.campaign import (
    CampaignProgress,
    CampaignScheduler,
    CampaignService,
    SweepAggregator,
    adaptive_token_rate_sweep,
)
from repro.core.analysis import (
    find_quality_cutoff,
    nonlinearity_index,
    empirical_burst_excess,
)
from repro.core.report import render_table, render_sweep, render_rate_series

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "FailureRecord",
    "RetryPolicy",
    "SweepFailure",
    "SweepJournal",
    "SweepPoint",
    "SweepResult",
    "sweep_fingerprint",
    "sweep_specs",
    "token_rate_sweep",
    "validate_grid",
    "CACHE_SCHEMA_VERSION",
    "CampaignProgress",
    "CampaignScheduler",
    "CampaignService",
    "SweepAggregator",
    "adaptive_token_rate_sweep",
    "Runner",
    "ResultSummary",
    "ResultStore",
    "default_cache_dir",
    "spec_fingerprint",
    "find_quality_cutoff",
    "nonlinearity_index",
    "empirical_burst_excess",
    "render_table",
    "render_sweep",
    "render_rate_series",
]
