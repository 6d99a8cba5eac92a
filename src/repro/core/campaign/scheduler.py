"""The asyncio campaign scheduler: one bounded queue, single-flight.

One scheduler run turns a stream of :class:`WorkUnit`\\ s into a
stream of outcomes:

* units are fed into one shared queue, at most ``window`` of them
  queued-or-in-flight at any moment, so a million-point grid is
  pulled through lazily instead of materialized;
* ``backend.slots`` worker coroutines take units from the front of
  that queue (every take runs under one condition on one event loop,
  so a single queue is as contention-free as any split of it);
* a unit is answered by the result store when possible (a warm hit
  costs one file read), otherwise executed through the backend under
  the retry policy's attempt loop;
* a taken unit's queued batch-mates (same grid, see
  :func:`~repro.core.fastlane.batch_key`) come along with it, and the
  members that miss the store run as one batch call; a lone unit and
  such a group go through the same resolution, so each unit's probe,
  lease, publish and emit are written once;
* when a store is attached, execution happens under a cross-process
  single-flight lease: two campaigns that reach the same fingerprint
  concurrently produce exactly one simulation — the loser waits on
  the winner's cache publish instead of re-simulating.

Outcomes are emitted through a callback as they resolve, which is
what the streaming aggregator, journal checkpointing, and progress
reporting all hang off. Because every outcome is a pure function of
its spec, emission order is free to vary with scheduling while the
assembled results stay bit-identical.

The scheduler also keeps the runner's
:class:`~repro.core.runner.RunnerStats`, in the calling process. It
chooses between a lone unit and a batch grid, so it counts the lane of
each fresh outcome there: an outcome of a batch call as a batch point,
a flat unit run on its own (alone, or after its grid's batch call
raised) as a fast-path hit or an engine fallback by
:func:`~repro.core.fastlane.qualifies_for_fastpath`. Where the unit
then ran, in-process or in a worker, does not change the counts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord, RetryPolicy, classify_failure
from repro.core.runner import (
    ResultSummary,
    RunnerStats,
    spec_fingerprint,
    validate_summary,
)
from repro.sim.fastpath import front_end_scope

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.campaign.backends import WorkerBackend
    from repro.core.resultstore import Lease, ResultStore
    from repro.core.runner import BatchOutcome, Runner

#: How an outcome was obtained: a result-store read (``cache``), a
#: wait on another process's single-flight lease (``single-flight``),
#: or an actual execution (``fresh`` — quarantines included).
SOURCES = ("cache", "single-flight", "fresh")

#: Streaming callback: ``(unit, outcome, source)`` as each resolves.
EmitCallback = Callable[["WorkUnit", "BatchOutcome", str], None]

#: Poll interval while waiting on another process's lease.
LEASE_POLL_S = 0.05

#: Upper bound on units coalesced into one batch-lane grid. Keeps a
#: single batch call's latency (and its lease-hold time) bounded on
#: huge sweeps; wider grids simply run as several batches.
MAX_BATCH_UNITS = 64


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable point: a spec plus its submission position.

    ``fingerprint`` keys the result store.
    :func:`run_stream_through_scheduler` computes it only when a store
    is attached and leaves it empty otherwise.
    """

    index: int
    spec: ExperimentSpec
    fingerprint: str = ""


class CampaignScheduler:
    """Async executor over a pluggable worker backend.

    ``window`` bounds queued + in-flight units (the streaming knob:
    small windows keep memory flat on huge grids, large ones let the
    batch lane coalesce wider grids).
    """

    def __init__(
        self,
        backend: "WorkerBackend",
        store: Optional["ResultStore"] = None,
        retry: Optional[RetryPolicy] = None,
        stats: Optional["RunnerStats"] = None,
        window: Optional[int] = None,
    ):
        self.backend = backend
        self.store = store
        self.retry = retry
        self.stats = stats if stats is not None else RunnerStats()
        slots = max(1, backend.slots)
        self.window = max(
            slots, window if window is not None else max(4 * slots, 8)
        )
        self._cond: Optional[asyncio.Condition] = None
        self._queue: deque = deque()
        self._exhausted = False
        self._inflight = 0

    # ------------------------------------------------------------------
    # The run loop

    async def run(self, units: Iterable[WorkUnit], emit: EmitCallback) -> None:
        """Drain ``units`` through the backend, emitting each outcome.

        Raises the first execution error when no retry policy is
        attached (the historical "no policy, no swallowing" contract);
        with a policy, failures become quarantine records and the run
        always completes.
        """
        self._cond = asyncio.Condition()
        self._queue = deque()
        self._exhausted = False
        self._inflight = 0
        try:
            async with asyncio.TaskGroup() as group:
                group.create_task(self._feed(iter(units)))
                for _ in range(max(1, self.backend.slots)):
                    group.create_task(self._work(emit))
        except BaseExceptionGroup as group_exc:
            # Surface the original failure, not the group wrapper, so
            # callers keep catching the exception type they always did.
            raise group_exc.exceptions[0] from None
        finally:
            self.backend.close()

    async def _feed(self, units: Iterator[WorkUnit]) -> None:
        assert self._cond is not None
        try:
            for unit in units:
                async with self._cond:
                    while len(self._queue) + self._inflight >= self.window:
                        await self._cond.wait()
                    self._queue.append(unit)
                    self._cond.notify_all()
        finally:
            async with self._cond:
                self._exhausted = True
                self._cond.notify_all()

    async def _work(self, emit: EmitCallback) -> None:
        assert self._cond is not None
        while True:
            async with self._cond:
                while not self._queue:
                    if self._exhausted:
                        return
                    await self._cond.wait()
                unit = self._queue.popleft()
                units = [unit] + self._drain_batch_mates(unit)
                self._inflight += len(units)
            try:
                await self._resolve(units, emit)
            finally:
                async with self._cond:
                    self._inflight -= len(units)
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # Resolution: a lone unit or a coalesced group

    def _answer_from_store(
        self, unit: WorkUnit, emit: EmitCallback, source: str = "cache"
    ) -> bool:
        """Emit the unit's stored outcome, if the store has one."""
        cached = self.store.get(unit.fingerprint)
        if cached is None:
            return False
        self.stats.cache_hits += 1
        self.stats.time_saved_s += cached.elapsed_s
        emit(unit, cached, source)
        return True

    async def _resolve(self, units: list[WorkUnit], emit: EmitCallback) -> None:
        """Resolve a lone unit or a coalesced group, emitting each once.

        With a store attached, a unit is answered from the store when it
        can be, and otherwise runs under its single-flight lease: the
        store is probed again once the lease is held, and a fresh result
        is published before the lease is released.

        A group's members that still need a run go to the backend as one
        batch call, even when cache hits leave a single one; each batch
        call that returns counts one batch group. If the call raises, it
        counts one batch failure and each member runs on its own under
        the lease already held, where a genuine per-spec failure still
        surfaces. A group member whose
        lease another process holds is resolved after the rest, as a
        lone unit: probed and contended once more, it counts a
        single-flight wait and polls the store only if the lease is
        still held.
        """
        store = self.store
        coalesced = len(units) > 1
        pending: list[WorkUnit] = []
        held_elsewhere: list[WorkUnit] = []
        leases: dict[int, "Lease"] = {}
        try:
            for unit in units:
                if store is not None:
                    if self._answer_from_store(unit, emit):
                        continue
                    lease = store.acquire_lease(unit.fingerprint)
                    if lease is None and coalesced:
                        held_elsewhere.append(unit)
                        continue
                    if lease is None:
                        # Someone else is simulating this fingerprint
                        # right now. Wait for their publish instead of
                        # duplicating the work; if their lease vanishes
                        # without an entry (they failed or quarantined),
                        # contend for the lease ourselves.
                        self.stats.single_flight_waits += 1
                        while lease is None:
                            await asyncio.sleep(LEASE_POLL_S)
                            if self._answer_from_store(unit, emit, "single-flight"):
                                break
                            lease = store.acquire_lease(unit.fingerprint)
                        if lease is None:
                            continue
                    # The prior holder may have published between our
                    # miss and our acquire.
                    if self._answer_from_store(unit, emit):
                        lease.release()
                        continue
                    leases[unit.index] = lease
                pending.append(unit)

            outcomes = None
            if coalesced and pending:
                try:
                    outcomes = await self.backend.execute_batch(
                        [unit.spec for unit in pending]
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:
                    # The call failed, not one spec: run each alone.
                    self.stats.batch_failures += 1
                else:
                    self.stats.batch_groups += 1
            for i, unit in enumerate(pending):
                if outcomes is None:
                    outcome = await self._execute(unit)
                else:
                    outcome = outcomes[i]
                self._count_fresh(unit, outcome, batched=outcomes is not None)
                if store is not None:
                    # Publish before releasing so waiters always find
                    # the entry once the lease is gone.
                    if not isinstance(outcome, FailureRecord):
                        store.put(unit.fingerprint, unit.spec, outcome)
                    leases.pop(unit.index).release()
                emit(unit, outcome, "fresh")
        finally:
            for lease in leases.values():
                lease.release()

        for unit in held_elsewhere:
            await self._resolve([unit], emit)

    # ------------------------------------------------------------------
    # Batch coalescing (the array-program lane)

    def _drain_batch_mates(self, unit: WorkUnit) -> list[WorkUnit]:
        """Pull this unit's batch-mates out of the queue.

        Called with ``self._cond`` held, immediately after ``unit`` was
        taken. Returns no mates when coalescing does not apply
        (``REPRO_FASTPATH=0``, a retry policy, incapable backend or
        non-qualifying spec) or no mate is queued. A retry policy's
        deadline, retries and quarantine hold per unit, so it keeps
        every unit on its own.

        Queued units that share the unit's :func:`~repro.core.fastlane.
        batch_key` are removed from the queue (relative order of the
        survivors is preserved); the caller moves them to in-flight
        accounting, so the feeder's window sees no change in
        queued+inflight totals.
        """
        if (
            self.retry is not None
            or fastlane.fastpath_mode() == "0"
            or not self.backend.batch_capable
            or not fastlane.qualifies_for_batch(unit.spec)
        ):
            return []
        key = fastlane.batch_key(unit.spec)
        mates: list[WorkUnit] = []
        kept: deque = deque()
        while self._queue:
            candidate = self._queue.popleft()
            if (
                len(mates) < MAX_BATCH_UNITS - 1
                and fastlane.qualifies_for_batch(candidate.spec)
                and fastlane.batch_key(candidate.spec) == key
            ):
                mates.append(candidate)
            else:
                kept.append(candidate)
        self._queue = kept
        return mates

    def _count_fresh(
        self, unit: WorkUnit, outcome: "BatchOutcome", batched: bool = False
    ) -> None:
        """Count one executed unit and the lane that served its summary."""
        stats = self.stats
        if isinstance(outcome, FailureRecord):
            stats.quarantined += 1
            return
        stats.simulated += 1
        if not isinstance(outcome, ResultSummary):
            return  # a poisoned result, passed through without a policy
        if batched:
            stats.batch_points += 1
        elif fastlane.fastpath_mode() != "0" and not getattr(
            unit.spec, "is_aggregate", False
        ):
            if fastlane.qualifies_for_fastpath(unit.spec):
                stats.fastpath_hits += 1
            else:
                stats.fastpath_fallbacks += 1

    async def _execute(self, unit: WorkUnit) -> "BatchOutcome":
        """One unit through the backend, under the retry policy if any."""
        policy = self.retry
        if policy is None:
            return await self.backend.execute(unit.spec, timeout_s=None)

        started = time.perf_counter()
        failure_kind = "exception"
        failure_message = "no attempt ran"
        for attempt in range(1, policy.attempts + 1):
            if attempt > 1:
                self.stats.retries += 1
                await asyncio.sleep(policy.backoff_s(attempt - 1))
            try:
                candidate = await self.backend.execute(
                    unit.spec, timeout_s=policy.spec_timeout_s
                )
                return validate_summary(candidate)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - classified below
                failure_kind = classify_failure(exc)
                failure_message = f"{type(exc).__name__}: {exc}"
        return FailureRecord(
            fingerprint=unit.fingerprint or spec_fingerprint(unit.spec),
            kind=failure_kind,
            message=failure_message,
            attempts=policy.attempts,
            elapsed_s=time.perf_counter() - started,
            spec=dataclasses.asdict(unit.spec),
        )


# ----------------------------------------------------------------------
# Synchronous driver used by the runner entry points


def run_stream_through_scheduler(
    runner: "Runner",
    specs: Iterable[ExperimentSpec],
    emit: EmitCallback,
    plan_specs: Optional[Sequence[ExperimentSpec]] = None,
) -> None:
    """Stream ``specs`` through a scheduler built from a runner.

    The bridge the rewired entry points use: the runner contributes
    its store, retry policy, stats object, and execution strategy (as
    a backend); the scheduler contributes the bounded window, batch
    coalescing, single-flight, and the stats counts. ``emit`` fires as
    each outcome resolves; nothing is accumulated here, so callers
    decide whether to stream (sweeps) or collect (batches).

    ``plan_specs`` optionally names the full batch up front so a pool
    backend can pre-warm worker caches; when omitted (a lazy spec
    stream), workers warm lazily instead. Units are fingerprinted only
    when the runner has a store to key.

    The whole call runs in one front-end scope
    (:func:`~repro.sim.fastpath.front_end_scope`), so the batch calls
    of its scheduler windows compute each schedule and jitter replay
    once; a caller's enclosing scope stretches that over its calls.
    """
    store = runner.store
    if store is not None:
        # Campaign-startup hygiene: a previous campaign that crashed
        # mid-publish leaves ``.tmp-*`` litter no read path ever sees.
        store.reap_tmp()

    def unit_stream() -> Iterator[WorkUnit]:
        for index, spec in enumerate(specs):
            runner.stats.submitted += 1
            yield WorkUnit(
                index=index,
                spec=spec,
                fingerprint=spec_fingerprint(spec) if store is not None else "",
            )

    scheduler = CampaignScheduler(
        runner.make_backend(plan_specs),
        store=store,
        retry=runner.retry,
        stats=runner.stats,
        window=runner.window,
    )
    with front_end_scope():
        asyncio.run(scheduler.run(unit_stream(), emit))
