"""Event loop for the discrete-event simulator.

A single :class:`Engine` instance owns the simulation clock and a heap
of pending events. Components schedule callbacks with
:meth:`Engine.schedule` (relative delay) or :meth:`Engine.schedule_at`
(absolute time) and the engine fires them in timestamp order.
Components that never cancel what they schedule use
:meth:`Engine.post`, which skips building the cancellable handle.

Determinism: ties on the timestamp are broken by insertion order, so a
run with the same seed and the same schedule calls replays identically.
Randomness is centralized in :meth:`Engine.rng`, which hands out named,
independently-seeded ``numpy`` generators; two components drawing from
differently named streams never perturb each other's sequences.
"""

from __future__ import annotations

import itertools
import zlib
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Optional

import numpy as np


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event(list):
    """Cancellable handle of a scheduled callback, and its heap entry.

    The handle *is* the heap entry ``[time, seq, callback, engine]``:
    heap order compares ``(time, seq)`` in C and never reaches the
    callback because ``seq`` is unique. The callback slot is cleared
    once the event fires or is cancelled, which is how the loop skips
    dead entries and how a late :meth:`cancel` becomes a no-op.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Absolute firing time.")

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped.

        Idempotent, and harmless after the event fired: only the first
        cancel of a still-pending event counts.
        """
        if self[2] is not None:
            self[2] = None
            self[3]._note_cancel()


class Engine:
    """Discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Master seed for all random streams handed out by :meth:`rng`.
    """

    #: Heaps smaller than this are never compacted: rebuilding a
    #: handful of entries costs more than carrying the dead weight.
    COMPACT_MIN_HEAP = 64

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        # Heap entries are lists ``[time, seq, callback, ...]`` (an
        # Event, or a plain list from post()); list comparison runs in
        # C and stops at the unique seq. A fired or cancelled entry has
        # its callback cleared.
        self._heap: list[list] = []
        # Cancelled entries still in the heap; pending = len - dead.
        self._dead = 0
        self._seq = itertools.count()
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self._packet_ids = itertools.count()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event((self.now + delay, next(self._seq), callback, self))
        heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event((time, next(self._seq), callback, self))
        heappush(self._heap, event)
        return event

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """:meth:`schedule` without a handle, for callers that never cancel.

        Same event, same sequence number, same firing time; only the
        cancellable :class:`Event` is not built.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heappush(self._heap, [self.now + delay, next(self._seq), callback])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event. Returns False if none remain."""
        return self._dispatch(float("inf"), 1) == 1

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run events until the heap drains or the clock passes ``until``.

        ``max_events`` is a runaway guard: a simulation that schedules
        itself forever without advancing time raises instead of hanging.
        """
        horizon = float("inf") if until is None else until
        if self._dispatch(horizon, max_events + 1) > max_events:
            raise SimulationError(
                f"exceeded {max_events} events; likely a scheduling loop"
            )
        # Either the heap drained or its head lies past ``until``.
        if until is not None and (self._heap or self.now < until):
            self.now = until

    def _dispatch(self, horizon: float, limit: int) -> int:
        """Fire events in order; return how many fired.

        Stops when the heap drains, when the next entry lies past
        ``horizon`` (it stays queued), or after ``limit`` events. The
        one loop behind :meth:`run` and :meth:`step`.
        """
        heap = self._heap
        fired = 0
        while heap:
            entry = heappop(heap)
            time = entry[0]
            if time > horizon:
                heappush(heap, entry)
                break
            callback = entry[2]
            if callback is None:
                self._dead -= 1
                continue
            entry[2] = None
            self.now = time
            callback()
            fired += 1
            if fired == limit:
                break
        return fired

    def _note_cancel(self) -> None:
        """Bookkeeping for a cancelled event, with lazy heap compaction.

        Cancel-heavy workloads (ARQ timers that almost always get
        cancelled by the ACK) would otherwise grow the heap without
        bound: dead events are only discarded when popped, which may be
        arbitrarily far in the future. When more than half the heap is
        dead and the heap is non-trivial, rebuild it from the live
        entries — amortized O(1) per cancel. The rebuild is in place:
        a running :meth:`_dispatch` holds a reference to the list.
        """
        self._dead += 1
        heap = self._heap
        if len(heap) > self.COMPACT_MIN_HEAP and 2 * self._dead > len(heap):
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._dead = 0

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the heap.

        O(1): the heap length minus the cancelled entries it still
        carries, a count kept on cancel, pop, and compaction.
        """
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # shared services
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> np.random.Generator:
        """Return the named random stream, creating it on first use.

        Streams are derived from the master seed and the stream name, so
        adding a new consumer never changes the draws seen by existing
        ones.
        """
        if stream not in self._rngs:
            # CRC32, not hash(): Python string hashing is salted per
            # process and would break run-to-run reproducibility.
            key = zlib.crc32(stream.encode()) & 0x7FFFFFFF
            child = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(key,)
            )
            self._rngs[stream] = np.random.default_rng(child)
        return self._rngs[stream]

    def next_packet_id(self) -> int:
        """Globally unique packet identifier for this engine."""
        return next(self._packet_ids)
