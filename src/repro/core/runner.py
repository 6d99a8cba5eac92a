"""Experiment runners: batch execution, fingerprints, and summaries.

Every paper figure is a batch of :class:`ExperimentSpec` points, and
until this module existed each consumer ran them one by one through
:func:`repro.core.experiment.run_experiment`. The runner layer makes
the batch the unit of work:

* :func:`spec_fingerprint` gives each spec a stable content hash so a
  result can be cached on disk and recognized across processes and
  sessions (see :mod:`repro.core.resultstore`).
* :class:`ResultSummary` is the compact, picklable measurement record
  that crosses process and cache boundaries — the headline numbers of
  one run without the traces and client records that make
  :class:`~repro.core.experiment.ExperimentResult` heavyweight.
* :class:`Runner` runs a batch in-process at one job and fans it out
  over worker processes above that. Each run builds its own engine
  from the spec, so a spec's result is a pure function of the spec and
  every job count produces bitwise-identical summaries.

Since the campaign refactor, a runner no longer executes its batch
directly: :meth:`Runner.run_batch` and :meth:`Runner.run_stream` feed
the :class:`~repro.core.campaign.scheduler.CampaignScheduler`, which
queues the work, bounds the in-flight window, coalesces batch-lane
grids, and (with a store attached) deduplicates concurrent campaigns
through cross-process single-flight leases. The runner object remains
the user-facing handle: it owns the execution strategy (the worker
backend it builds in :meth:`Runner.make_backend`), the result store,
the retry policy, and the stats. The scheduler fills the stats in the
calling process, lane counts included, so a pooled campaign reports
exactly what an in-process one does.

Fault tolerance (see :mod:`repro.core.faults`): attach a
:class:`~repro.core.faults.RetryPolicy` and a batch survives its own
specs. Each failing spec is retried with exponential backoff — every
attempt rebuilds the engine from the spec's seed, so retries are
RNG-safe replays — under a per-attempt wall-clock timeout (``SIGALRM``
in-process, process termination in the pool). A spec that exhausts its
budget is *quarantined*: its slot in the returned batch carries a
structured :class:`~repro.core.faults.FailureRecord` instead of a
summary, and the rest of the sweep completes. A pool whose workers die
degrades to in-process execution rather than aborting the campaign.
Quarantined specs are never written to the result cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.core import chaos
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.core.faults import (
    FailureRecord,
    PoisonResult,
    RetryPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.campaign.backends import WorkerBackend
    from repro.core.resultstore import ResultStore

#: Bump whenever the shape or meaning of :class:`ResultSummary` (or of
#: the simulation outputs feeding it) changes. The version salts every
#: fingerprint, so old on-disk cache entries simply stop matching.
CACHE_SCHEMA_VERSION = 3  # v3: capture_trace spec field + flow_trace payload

#: One batch slot: a summary on success, a failure record on quarantine.
BatchOutcome = Union["ResultSummary", FailureRecord]


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Stable content hash of a spec (hex SHA-256).

    Fields are serialized canonically (sorted names, compact JSON) and
    salted with :data:`CACHE_SCHEMA_VERSION`; the digest is identical
    across processes and interpreter restarts, unlike ``hash()``.

    ``dataclasses.asdict`` recurses into nested dataclasses, so a
    multi-flow :class:`~repro.flows.aggregate.AggregateSpec` (whose
    ``flows`` tuple holds :class:`ExperimentSpec` members) fingerprints
    the same way; for a flat spec the payload is byte-identical to the
    historical field-by-field form.
    """
    payload = dataclasses.asdict(spec)
    canonical = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "spec": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ResultSummary:
    """Headline measurements of one run, small enough to ship anywhere.

    Unlike :class:`ExperimentResult` this carries no display trace,
    client record, or per-segment VQM detail — just the numbers the
    figures, CSVs, and reports consume. ``elapsed_s`` (the wall-clock
    cost of producing the result) is excluded from equality so cached
    and fresh results of the same spec compare equal.
    """

    quality_score: float
    lost_frame_fraction: float
    packet_drop_fraction: float
    frozen_fraction: float
    rebuffer_events: int
    total_stall_s: float
    conformant_packets: int
    dropped_packets: int
    remarked_packets: int
    dropped_bytes: int
    server_aborted: bool
    server_packets: int
    client_packets: int
    network: dict = field(default_factory=dict)
    # Recovery counters (all zero unless the spec enables ARQ / FEC /
    # feedback loss; see repro.recovery).
    nacks_sent: int = 0
    repairs_sent: int = 0
    repairs_arrived_late: int = 0
    fec_repaired: int = 0
    feedback_lost: int = 0
    # Per-packet detection trace; populated only when the spec set
    # ``capture_trace`` (and omitted from to_dict() when None, so
    # flags-off payloads are byte-identical to the previous schema).
    flow_trace: Optional[dict] = None
    elapsed_s: float = field(default=0.0, compare=False)

    @classmethod
    def from_result(
        cls, result: ExperimentResult, elapsed_s: float = 0.0
    ) -> "ResultSummary":
        """Condense a full experiment result."""
        stats = result.policer_stats
        recovery = result.extras.get("recovery", {})
        return cls(
            quality_score=result.quality_score,
            lost_frame_fraction=result.lost_frame_fraction,
            packet_drop_fraction=result.packet_drop_fraction,
            frozen_fraction=result.trace.frozen_fraction,
            rebuffer_events=result.trace.rebuffer_events,
            total_stall_s=result.trace.total_stall_s,
            conformant_packets=stats.conformant_packets,
            dropped_packets=stats.dropped_packets,
            remarked_packets=stats.remarked_packets,
            dropped_bytes=stats.dropped_bytes,
            server_aborted=result.server_aborted,
            server_packets=result.extras.get("server_packets", 0),
            client_packets=result.extras.get("client_packets", 0),
            network=dict(result.extras.get("network", {})),
            nacks_sent=recovery.get("nacks_sent", 0),
            repairs_sent=recovery.get("repairs_sent", 0),
            repairs_arrived_late=recovery.get("repairs_arrived_late", 0),
            fec_repaired=recovery.get("fec_repaired", 0),
            feedback_lost=recovery.get("feedback_lost", 0),
            flow_trace=result.extras.get("flow_trace"),
            elapsed_s=elapsed_s,
        )

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary (the cache file payload).

        ``flow_trace`` appears only when a trace was captured, so
        trace-off payloads keep the pre-trace shape exactly.
        """
        data = dataclasses.asdict(self)
        if data.get("flow_trace") is None:
            data.pop("flow_trace", None)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ResultSummary":
        """Inverse of :meth:`to_dict`; ignores unknown keys.

        Aggregate payloads (multi-flow runs) carry a
        ``flow_summaries`` key; dispatch those to the subclass so a
        cache entry written by a multi-flow run deserializes back to
        the same type it was stored as.
        """
        if cls is ResultSummary and "flow_summaries" in data:
            from repro.flows.aggregate import AggregateSummary

            return AggregateSummary.from_dict(data)
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


def validate_summary(candidate) -> ResultSummary:
    """Reject results a broken worker might hand back.

    Raises :class:`~repro.core.faults.PoisonResult` unless ``candidate``
    is a :class:`ResultSummary` whose headline numbers are finite and
    sane — the cheap structural check that keeps one garbage-returning
    worker from poisoning a cache or a figure.
    """
    import math

    if not isinstance(candidate, ResultSummary):
        raise PoisonResult(
            f"worker returned {type(candidate).__name__}, not a ResultSummary"
        )
    for name in ("quality_score", "lost_frame_fraction", "packet_drop_fraction"):
        value = getattr(candidate, name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise PoisonResult(f"summary field {name} is not finite: {value!r}")
    if candidate.dropped_packets < 0 or candidate.server_packets < 0:
        raise PoisonResult("summary packet counts are negative")
    return candidate


@dataclass
class RunnerStats:
    """What one runner (one scheduler, one service) did so far."""

    submitted: int = 0
    simulated: int = 0
    cache_hits: int = 0
    time_saved_s: float = 0.0
    retries: int = 0
    quarantined: int = 0
    fallbacks: int = 0
    # Waits spent on another process's single-flight lease.
    single_flight_waits: int = 0
    # The lane that served each simulated unit, counted by the campaign
    # scheduler where it chose the lane: the scalar fast path, the
    # event engine, or a batch grid (points, and one group per call).
    # Aggregates count as neither, and REPRO_FASTPATH=0 counts nothing.
    fastpath_hits: int = 0
    fastpath_fallbacks: int = 0
    batch_points: int = 0
    batch_groups: int = 0
    # Batch calls that raised; their members then ran one by one.
    batch_failures: int = 0

    def describe(self) -> str:
        """One-line cache/throughput report."""
        line = (
            f"{self.submitted} specs: {self.simulated} simulated, "
            f"{self.cache_hits} cache hits "
            f"(~{self.time_saved_s:.1f} s simulation saved)"
        )
        if self.retries:
            line += f", {self.retries} retries"
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        if self.fallbacks:
            line += f", {self.fallbacks} pool fallbacks"
        if self.single_flight_waits:
            line += f", {self.single_flight_waits} single-flight waits"
        if self.fastpath_hits or self.fastpath_fallbacks:
            line += (
                f", {self.fastpath_hits} fast-path"
                f" ({self.fastpath_fallbacks} engine)"
            )
        if self.batch_points:
            line += (
                f", {self.batch_points} batched"
                f" in {self.batch_groups} grids"
            )
        if self.batch_failures:
            line += f", {self.batch_failures} failed batch calls"
        return line


def _summarize_run(spec: ExperimentSpec) -> BatchOutcome:
    """Run one unit and summarize it: the single-unit worker entry point.

    Backends call it in-process or in a pool worker; it builds its own
    engine from the spec, so the outcome is the same either way.
    """
    started = time.perf_counter()
    if chaos.enabled():
        injected = chaos.maybe_inject(spec_fingerprint(spec))
        if injected is not None:
            # A garbage rule: hand the poison to the caller's validator.
            return injected
    if getattr(spec, "is_aggregate", False):
        # Multi-flow aggregate unit: the flows layer owns execution
        # (engine fan-in or interleaved fast lane) and returns a
        # summary directly — there is no single ExperimentResult.
        from repro.flows.aggregate import run_aggregate

        summary = run_aggregate(spec)
        elapsed = time.perf_counter() - started
        return dataclasses.replace(summary, elapsed_s=elapsed)
    result = run_experiment(spec)
    elapsed = time.perf_counter() - started
    return ResultSummary.from_result(result, elapsed_s=elapsed)


def _batch_run(specs: Sequence[ExperimentSpec]) -> list[BatchOutcome]:
    """Run a coalesced grid through the batch lane, chaos rules intact.

    Chaos injection is consulted per member — exactly as the per-unit
    path does in :func:`_summarize_run` — so fault-injection tests see
    the same poison outcomes whether or not coalescing is on. The
    surviving members run as one array program.
    """
    outcomes: list[Optional[BatchOutcome]] = [None] * len(specs)
    live: list[int] = []
    for i, spec in enumerate(specs):
        if chaos.enabled():
            injected = chaos.maybe_inject(spec_fingerprint(spec))
            if injected is not None:
                outcomes[i] = injected
                continue
        live.append(i)
    if live:
        from repro.core.fastlane import run_batchpath

        summaries = run_batchpath([specs[i] for i in live])
        for i, summary in zip(live, summaries):
            outcomes[i] = summary
    return outcomes  # type: ignore[return-value]


def _warm_plan(specs: Sequence[ExperimentSpec]) -> list[tuple]:
    """Unique ``(clip, codec, rate)`` warm-up triples covering a batch.

    Covers every version a worker will encode and score: the streamed
    version, a fixed-rate reference when one is requested, and the
    whole MPEG-1 ladder for adaptive runs. The pristine features are
    not warmed: both reference modes score against a codec version.
    """
    from repro.video.clips import MPEG_RATES_BPS

    plan: list[tuple] = []
    seen: set[tuple] = set()

    def add(entry: tuple) -> None:
        if entry not in seen:
            seen.add(entry)
            plan.append(entry)

    def expand(spec) -> None:
        if getattr(spec, "is_aggregate", False):
            for flow in spec.flows:
                expand(flow)
            return
        add((spec.clip, spec.codec, spec.encoding_rate_bps))
        if spec.reference == "fixed":
            add((spec.clip, spec.codec, spec.fixed_reference_rate_bps))
        if spec.adaptation:
            for rate in MPEG_RATES_BPS:
                add((spec.clip, "mpeg1", rate))

    for spec in specs:
        expand(spec)
    return plan


def _warm_worker_caches(plan: list[tuple]) -> None:
    """Pool initializer: pre-encode the batch's clips once per worker."""
    from repro.video.clips import warm_clip_caches

    warm_clip_caches(plan)


def _supervised_worker(conn, spec: ExperimentSpec) -> None:
    """Entry point of one supervised worker process.

    Sends ``("ok", outcome)`` or ``("error", type_name, message)``
    back over the pipe; a worker that dies without sending anything
    (crash, kill, ``os._exit``) is detected by the supervisor through
    its exit code, and one that never sends is reaped at the deadline.
    """
    try:
        conn.send(("ok", _summarize_run(spec)))
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        except Exception:
            pass
    finally:
        conn.close()


class Runner:
    """The user-facing handle on campaign execution.

    A runner bundles ``jobs`` execution slots with the result store,
    the retry policy, and a stats object; :meth:`run_batch` and
    :meth:`run_stream` hand all of it to the campaign scheduler, which
    owns the bounded in-flight window, batch coalescing, cache lookups,
    single-flight leases, retries, and quarantine. ``window`` bounds
    queued+in-flight units.

    :meth:`make_backend` builds a
    :class:`~repro.core.campaign.backends.ProcessPoolBackend` with
    ``jobs`` slots: at one slot every unit runs in-process, above it in
    worker processes (the backend says how a dying or hung worker
    degrades). Each run builds its own engine from the spec, so results
    are bitwise-identical at every job count. Subclasses may override
    :meth:`make_backend` to supply another execution strategy.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional["ResultStore"] = None,
        retry: Optional[RetryPolicy] = None,
        window: Optional[int] = None,
    ):
        if jobs < 1:
            raise ValueError(f"need at least one worker (jobs={jobs})")
        self.jobs = jobs
        self.store = store
        self.retry = retry
        self.window = window
        self.stats = RunnerStats()

    def run_batch(self, specs: Sequence[ExperimentSpec]) -> list[BatchOutcome]:
        """Run every spec; returns outcomes in submission order.

        Cached points never re-simulate. Without a retry policy any
        spec failure propagates (the historical behaviour). With one,
        each slot resolves to either a summary or a
        :class:`FailureRecord` and the batch always returns.
        """
        from repro.core.campaign.scheduler import run_stream_through_scheduler

        specs = list(specs)
        outcomes: list[Optional[BatchOutcome]] = [None] * len(specs)

        def emit(unit, outcome, source) -> None:
            outcomes[unit.index] = outcome

        run_stream_through_scheduler(self, specs, emit, plan_specs=specs)
        return outcomes  # type: ignore[return-value]

    def run_stream(
        self,
        specs,
        emit,
        plan_specs: Optional[Sequence[ExperimentSpec]] = None,
    ) -> None:
        """Stream a (possibly lazy) spec iterable; emit each outcome.

        Unlike :meth:`run_batch` nothing is accumulated: ``emit(unit,
        outcome, source)`` is the only place results surface, so a
        million-point grid flows through a bounded window instead of
        materializing. ``source`` is one of
        :data:`repro.core.campaign.scheduler.SOURCES`.
        """
        from repro.core.campaign.scheduler import run_stream_through_scheduler

        run_stream_through_scheduler(self, specs, emit, plan_specs=plan_specs)

    def make_backend(
        self, plan_specs: Optional[Sequence[ExperimentSpec]]
    ) -> "WorkerBackend":
        """Build this runner's worker backend for one campaign.

        ``plan_specs`` (the batch about to run, when known) lets the
        pool size itself and pre-warm worker caches. The scheduler
        closes the backend when the campaign ends.
        """
        from repro.core.campaign.backends import ProcessPoolBackend

        return ProcessPoolBackend(
            jobs=self.jobs,
            supervised=self.retry is not None,
            stats=self.stats,
            plan_specs=plan_specs,
        )


#: Another name for :class:`Runner`, which ``perfbench/workloads.py`` imports.
make_runner = Runner
