"""Streaming aggregation: grow a SweepResult from an outcome stream.

The scheduler never hands back a batch — outcomes arrive one at a time
through the emit callback, in whatever order the workers resolve them. The
:class:`SweepAggregator` folds that stream into a
:class:`~repro.core.sweep.SweepResult` incrementally, keyed by each
unit's submission index so the finalized result is identical no matter
how scheduling interleaved the arrivals. :class:`CampaignProgress`
taps the same stream for a one-line live report (done/total, hit and
quarantine counts, throughput, ETA) without ever holding more than a
handful of counters.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Optional, TextIO

from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import BatchOutcome
    from repro.core.sweep import SweepResult


class SweepAggregator:
    """Incremental :class:`SweepResult` builder.

    ``add`` accepts outcomes in any order; ``finalize`` assembles the
    result with points and failures in submission order, which is what
    makes serial and pooled runs of the same grid compare
    bit-identical. Only resolved (index, spec, outcome) triples are
    held — the grid itself is never materialized here.
    """

    def __init__(self, base_spec: ExperimentSpec):
        self.base_spec = base_spec
        self._resolved: dict[int, tuple[ExperimentSpec, "BatchOutcome"]] = {}

    def add(
        self, index: int, spec: ExperimentSpec, outcome: "BatchOutcome"
    ) -> None:
        """Record one resolved grid point (idempotent per index)."""
        self._resolved[index] = (spec, outcome)

    def __len__(self) -> int:
        return len(self._resolved)

    def finalize(self, sampling: Optional[dict] = None) -> "SweepResult":
        """The assembled sweep, points ordered by submission index."""
        from repro.core.sweep import SweepFailure, SweepPoint, SweepResult

        sweep = SweepResult(base_spec=self.base_spec, sampling=sampling)
        for index in sorted(self._resolved):
            spec, outcome = self._resolved[index]
            if isinstance(outcome, FailureRecord):
                sweep.failures.append(
                    SweepFailure(
                        token_rate_bps=spec.token_rate_bps,
                        bucket_depth_bytes=spec.bucket_depth_bytes,
                        record=outcome,
                    )
                )
            else:
                sweep.points.append(
                    SweepPoint(
                        token_rate_bps=spec.token_rate_bps,
                        bucket_depth_bytes=spec.bucket_depth_bytes,
                        result=outcome,
                    )
                )
        return sweep


class CampaignProgress:
    """One-line streaming progress/ETA report for a campaign.

    Fed from the scheduler's emit stream: ``update(source, outcome)``
    per resolved unit, ``finish()`` once at the end. Renders a single
    carriage-return-refreshed line (``N/total`` or plain ``N`` when the
    total is unknown, cache-hit and quarantine counts, points/sec, and
    an ETA extrapolated from fresh-point throughput). Writes to
    ``stderr`` by default so figure/CSV output on stdout stays clean.
    """

    #: Re-render at most this often, so huge cache-hit bursts don't
    #: spend their time painting the terminal.
    MIN_INTERVAL_S = 0.1

    def __init__(
        self,
        total: Optional[int] = None,
        label: str = "sweep",
        stream: Optional[TextIO] = None,
    ):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.cache_hits = 0
        self.quarantined = 0
        self._started = time.perf_counter()
        self._last_render = 0.0
        self._dirty = False

    def update(self, source: str, outcome: "BatchOutcome") -> None:
        """Fold one resolved outcome into the counters and re-render."""
        self.done += 1
        if source in ("cache", "single-flight", "journal"):
            self.cache_hits += 1
        if isinstance(outcome, FailureRecord):
            self.quarantined += 1
        self._dirty = True
        now = time.perf_counter()
        if now - self._last_render >= self.MIN_INTERVAL_S:
            self._render(now)

    def _line(self, now: float) -> str:
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        head = (
            f"{self.label}: {self.done}/{self.total}"
            if self.total is not None
            else f"{self.label}: {self.done}"
        )
        parts = [head, f"{rate:.1f} pts/s"]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} warm")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.total is not None and 0 < self.done < self.total and rate > 0:
            eta = (self.total - self.done) / rate
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)

    def _render(self, now: float) -> None:
        self.stream.write("\r\x1b[K" + self._line(now))
        self.stream.flush()
        self._last_render = now
        self._dirty = False

    def finish(self) -> None:
        """Final render plus the newline that releases the line."""
        if self.done or self._dirty:
            self._render(time.perf_counter())
            self.stream.write("\n")
            self.stream.flush()
