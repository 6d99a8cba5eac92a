"""Worker backends: where one work unit actually executes.

A backend answers exactly one question for the scheduler: "run this
spec, give me its outcome". Everything else — queueing, retries,
quarantine, caching, single-flight, and counting which lane served a
unit — lives in the scheduler, so a backend only implements ``slots``
and ``execute`` (plus ``execute_batch`` when it can run a coalesced
grid as one program).

Two backends ship, one per built-in runner (each runner builds its
own in :meth:`~repro.core.runner.Runner.make_backend`):

* :class:`SerialBackend` — in-process, one unit at a time;
* :class:`ProcessPoolBackend` — worker processes; a persistent
  ``ProcessPoolExecutor`` on the plain path, one supervised process
  per attempt when a retry policy needs hang/crash containment.

Both run the same two entry points of :mod:`repro.core.runner`,
``_summarize_run`` for one unit and ``_batch_run`` for a grid, and
return only outcomes. Every backend preserves the bit-identical
guarantee: each run builds its own engine from the spec, so an
outcome is a pure function of the spec, independent of which backend
(or how many slots) produced it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.experiment import ExperimentSpec
from repro.core.faults import SpecTimeout, WorkerCrash, deadline
from repro.core.runner import (
    _batch_run,
    _summarize_run,
    _supervised_worker,
    _warm_plan,
    _warm_worker_caches,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import BatchOutcome, RunnerStats


#: What a supervised attempt returns when it cannot spawn a process;
#: the unit then runs in-process, under its deadline.
_NO_PROCESS = object()


class RemoteWorkerError(Exception):
    """An exception a supervised worker reported over its pipe.

    The original type cannot be re-raised faithfully across the
    process boundary, so the message carries ``Type: text`` and
    failure classification folds this into ``exception``.
    """


class WorkerBackend:
    """Minimal execution substrate the scheduler drives.

    ``slots`` is the number of units the backend can usefully run at
    once (the scheduler spawns that many worker coroutines).
    ``execute`` runs one spec and either returns its outcome or raises
    — retries, classification, and quarantine are the scheduler's job.
    """

    slots: int = 1

    #: Whether :meth:`execute_batch` is available. The scheduler only
    #: drains batch-mates out of its queue when the backend can run
    #: them as one array program.
    batch_capable: bool = False

    async def execute(
        self, spec: ExperimentSpec, timeout_s: Optional[float] = None
    ) -> "BatchOutcome":
        raise NotImplementedError

    async def execute_batch(
        self,
        specs: Sequence[ExperimentSpec],
        timeout_s: Optional[float] = None,
    ) -> list["BatchOutcome"]:
        """Run a coalesced grid of qualifying specs as one program.

        Returns one outcome per spec in input order. Called only when
        :attr:`batch_capable` is true.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/processes; called once per campaign, always."""


class SerialBackend(WorkerBackend):
    """In-process execution, one unit at a time.

    Timeouts are enforced with ``SIGALRM`` (the execution happens
    synchronously on the event-loop thread, which is the main thread,
    so the deadline context works exactly as in the pre-async runner).
    """

    slots = 1
    batch_capable = True

    async def execute(
        self, spec: ExperimentSpec, timeout_s: Optional[float] = None
    ) -> "BatchOutcome":
        with deadline(timeout_s):
            return _summarize_run(spec)

    async def execute_batch(
        self,
        specs: Sequence[ExperimentSpec],
        timeout_s: Optional[float] = None,
    ) -> list["BatchOutcome"]:
        with deadline(timeout_s):
            return _batch_run(list(specs))


class ProcessPoolBackend(WorkerBackend):
    """Worker-process execution with two containment modes.

    Plain mode (no retry policy): a persistent ``ProcessPoolExecutor``
    warmed with the batch's clip encodes. A pool broken by a dying
    worker degrades the rest of the campaign to in-process execution
    (counted once in ``stats.fallbacks``) instead of aborting.

    Supervised mode (retry policy attached): each attempt runs in its
    own supervised process so a hung worker can be terminated at the
    deadline and a dead one detected by exit code. Failures surface as
    exceptions (:class:`SpecTimeout`, :class:`WorkerCrash`,
    :class:`RemoteWorkerError`) for the scheduler's attempt loop to
    classify.

    Single-spec batches and ``jobs=1`` run in-process, which keeps
    them usable in environments without working multiprocessing. An
    in-process unit runs on the event-loop thread under the same
    ``SIGALRM`` deadline as :class:`SerialBackend`, so a retry policy's
    ``spec_timeout_s`` holds there too.
    """

    #: Seconds between supervision polls of a worker's pipe/liveness.
    POLL_S = 0.02

    def __init__(
        self,
        jobs: int,
        supervised: bool = False,
        stats: Optional["RunnerStats"] = None,
        plan_specs: Optional[Sequence[ExperimentSpec]] = None,
    ):
        if jobs < 1:
            raise ValueError(f"need at least one worker (jobs={jobs})")
        self.jobs = jobs
        self.slots = jobs
        self.supervised = supervised
        self.stats = stats
        self._pool = None
        self._broken = False
        # The batch about to run, when known: sizes the pool and
        # pre-warms worker clip caches.
        self._plan_specs = plan_specs
        self._total_hint = len(plan_specs) if plan_specs is not None else None

    def _note_fallback(self) -> None:
        if not self._broken:
            self._broken = True
            if self.stats is not None:
                self.stats.fallbacks += 1

    def _in_process_mode(self) -> bool:
        return (
            self.jobs == 1
            or self._broken
            or (self._total_hint is not None and self._total_hint <= 1)
        )

    async def _run(self, entry, work, timeout_s: Optional[float]):
        """``entry(work)`` in the pool, or in-process when there is none.

        ``entry`` is one of the runner's worker entry points. In-process
        it runs on the event-loop thread, where ``SIGALRM`` can enforce
        ``timeout_s``. A pool broken by a dying worker (segfault, OOM
        kill) degrades this and every later call to in-process
        execution: outcomes are pure functions of their specs, so the
        campaign completes, slower.
        """
        if not self._in_process_mode():
            from concurrent.futures.process import BrokenProcessPool

            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    self._ensure_pool(), entry, work
                )
            except BrokenProcessPool:
                self._note_fallback()
        with deadline(timeout_s):
            return entry(work)

    async def execute(
        self, spec: ExperimentSpec, timeout_s: Optional[float] = None
    ) -> "BatchOutcome":
        if self.supervised and not self._in_process_mode():
            outcome = await asyncio.to_thread(
                self._run_supervised, spec, timeout_s
            )
            if outcome is not _NO_PROCESS:
                return outcome
        return await self._run(_summarize_run, spec, timeout_s)

    @property
    def batch_capable(self) -> bool:  # type: ignore[override]
        # Supervised mode runs one attempt per process under per-unit
        # hang/crash containment; coalescing would break that unit of
        # supervision, so batching stays off there.
        return not self.supervised

    async def execute_batch(
        self,
        specs: Sequence[ExperimentSpec],
        timeout_s: Optional[float] = None,
    ) -> list["BatchOutcome"]:
        return await self._run(_batch_run, list(specs), timeout_s)

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            workers = self.jobs
            if self._total_hint is not None:
                workers = min(workers, max(self._total_hint, 1))
            plan = _warm_plan(self._plan_specs) if self._plan_specs else []
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_warm_worker_caches,
                initargs=(plan,),
            )
        return self._pool

    def _run_supervised(
        self, spec: ExperimentSpec, timeout_s: Optional[float]
    ) -> "BatchOutcome":
        """One supervised attempt: spawn, watch, reap.

        Runs on a worker thread, so supervision never blocks the event
        loop; up to ``jobs`` of these are in flight at once. Returns
        :data:`_NO_PROCESS` when no process can be spawned.
        """
        ctx = multiprocessing.get_context()
        try:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_supervised_worker, args=(child_conn, spec), daemon=True
            )
            process.start()
        except OSError:
            # Cannot spawn processes at all (fd/PID exhaustion,
            # restricted sandbox): degrade to in-process execution.
            self._note_fallback()
            return _NO_PROCESS
        child_conn.close()
        deadline_at = (
            time.monotonic() + timeout_s if timeout_s else None
        )
        try:
            while True:
                if parent_conn.poll(self.POLL_S):
                    try:
                        message = parent_conn.recv()
                    except (EOFError, OSError):
                        message = None
                    if message is None:
                        raise WorkerCrash("worker pipe closed mid-send")
                    if message[0] == "ok":
                        return message[1]
                    _, exc_type, text = message
                    if exc_type == "SpecTimeout":
                        raise SpecTimeout(text)
                    raise RemoteWorkerError(f"{exc_type}: {text}")
                if not process.is_alive():
                    raise WorkerCrash(
                        f"worker died with exit code {process.exitcode}"
                    )
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    process.terminate()
                    process.join(timeout=1.0)
                    if process.is_alive():  # pragma: no cover - stubborn
                        process.kill()
                        process.join(timeout=1.0)
                    raise SpecTimeout(
                        f"exceeded {timeout_s:.3g} s wall-clock budget "
                        f"(worker terminated)"
                    )
        finally:
            parent_conn.close()
            process.join(timeout=5.0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
