"""Failure taxonomy and retry policy for campaign execution.

A multi-hour sweep is only as robust as its weakest spec: one hung
simulation or one crashed worker used to abort the whole batch and
discard every in-flight result. This module defines the vocabulary the
runner layer uses to keep going instead:

* the exception types a failed attempt is reported through
  (:class:`SpecTimeout`, :class:`WorkerCrash`, :class:`PoisonResult`),
* :func:`classify_failure`, which folds any attempt error into one of
  the failure kinds (``timeout`` / ``crash`` / ``exception`` /
  ``poison``),
* :class:`FailureRecord`, the structured, JSON-able quarantine record
  carried in batch results in place of a summary, and
* :class:`RetryPolicy`, the bounded retry/backoff/timeout budget one
  spec gets before it is quarantined.

Everything here is standard-library only so the rest of the core can
import it without cycles.
"""

from __future__ import annotations

import contextlib
import math
import signal
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

#: The failure kinds a :class:`FailureRecord` can carry.
FAILURE_KINDS = ("timeout", "crash", "exception", "poison")


class SpecTimeout(Exception):
    """One attempt exceeded its wall-clock budget."""


class WorkerCrash(Exception):
    """A worker process died without reporting a result."""


class PoisonResult(Exception):
    """A worker returned something that is not a valid summary."""


def classify_failure(exc: BaseException) -> str:
    """Fold an attempt's exception into one of :data:`FAILURE_KINDS`."""
    if isinstance(exc, SpecTimeout):
        return "timeout"
    if isinstance(exc, WorkerCrash):
        return "crash"
    if isinstance(exc, PoisonResult):
        return "poison"
    return "exception"


@dataclass(frozen=True)
class FailureRecord:
    """Why one spec was quarantined, carried in place of its summary.

    ``kind`` is one of :data:`FAILURE_KINDS`; ``attempts`` counts every
    execution tried (initial run plus retries); ``elapsed_s`` is the
    total wall clock spent on the spec including backoff sleeps;
    ``spec`` is a plain-dict snapshot of the spec for forensics, so the
    record stays meaningful in a journal file long after the sweep.
    """

    fingerprint: str
    kind: str
    message: str
    attempts: int
    elapsed_s: float = 0.0
    spec: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r} (expected one of {FAILURE_KINDS})"
            )

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary (the journal payload)."""
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "spec": dict(self.spec),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def describe(self) -> str:
        """Compact one-phrase rendering for CLI summaries."""
        return f"[{self.kind} after {self.attempts} attempt(s)] {self.message}"


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try one spec before quarantining it.

    A spec gets ``max_retries + 1`` attempts. Each attempt is hermetic
    — the engine is rebuilt from the spec's seed, so a retry replays
    the exact same simulation rather than resuming RNG state mid-run.
    Failed attempts are separated by exponential backoff
    (``backoff_base_s * backoff_factor ** (failures - 1)``, capped at
    ``backoff_max_s``). ``spec_timeout_s`` is the per-attempt
    wall-clock budget; ``None`` disables timeout enforcement.
    """

    max_retries: int = 2
    spec_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative (got {self.max_retries})")
        if self.spec_timeout_s is not None and self.spec_timeout_s <= 0:
            raise ValueError(
                f"spec timeout must be positive (got {self.spec_timeout_s})"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")

    @property
    def attempts(self) -> int:
        """Total executions allowed per spec."""
        return self.max_retries + 1

    def backoff_s(self, failures: int) -> float:
        """Sleep before the next attempt, after ``failures`` failures."""
        if failures < 1:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (failures - 1)
        return min(delay, self.backoff_max_s)


def _sigalrm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextlib.contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`SpecTimeout` if the body runs longer than ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it interrupts even a
    simulation stuck in a tight loop or a blocking sleep. Off the main
    thread (or on platforms without ``SIGALRM``) enforcement silently
    degrades to "no timeout" — worker-process runners enforce their
    deadline by terminating the process instead, which needs no signal.

    Nesting is supported: an enclosing timer (e.g. a per-test timeout)
    is re-armed with its remaining budget on exit.
    """
    if not seconds or not math.isfinite(seconds) or not _sigalrm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise SpecTimeout(f"exceeded {seconds:.3g} s wall-clock budget")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    outer_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))
