"""Fault-injection harness for the campaign runners.

Proving fault tolerance needs faults on demand: workers that raise,
hang, crash, or return garbage, and cache files that rot on disk. A
:class:`ChaosPlan` maps spec fingerprints to :class:`ChaosRule`
behaviours and is installed through an environment variable, so the
injection point (:func:`maybe_inject`, called at the top of every spec
execution) fires identically in-process and inside forked/spawned
worker processes. Attempt counts live in per-fingerprint files next to
the plan, so "fail the first N attempts" semantics survive process
boundaries — exactly what a crash-once-then-succeed test needs.

The hot path costs one environment lookup when no plan is installed;
production sweeps never notice the hook exists.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.faults import WorkerCrash

#: Environment variable pointing at an installed plan's JSON file.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Supported injected behaviours. The ``feedback-*`` actions do not
#: fail the run: they disrupt the in-simulation recovery feedback
#: channel (every NACK/report dropped, or delivered garbled), proving
#: a broken reverse path degrades to no-ARQ behaviour instead of
#: wedging the experiment.
ACTIONS = (
    "raise",
    "hang",
    "crash",
    "garbage",
    "feedback-drop",
    "feedback-garble",
)

#: Actions consumed by the recovery feedback channel rather than the
#: runner's injection point.
FEEDBACK_ACTIONS = ("feedback-drop", "feedback-garble")

#: What a ``garbage`` rule makes the worker return in place of a
#: summary — anything that is not a ResultSummary works; a string makes
#: failure messages readable.
GARBAGE = "<chaos-garbage>"

#: Exit status of an injected worker crash (visible in FailureRecords).
CRASH_EXIT_CODE = 73


class ChaosError(RuntimeError):
    """The exception an injected ``raise`` rule throws."""


@dataclass(frozen=True)
class ChaosRule:
    """One fingerprint's injected behaviour.

    ``times`` limits the injection to the first N attempts (``None``
    means every attempt), which is how a crash-once/succeed-on-retry
    scenario is written. ``hang_s`` only matters for ``hang`` rules and
    should comfortably exceed the spec timeout under test.
    """

    action: str
    times: Optional[int] = None
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r} (expected one of {ACTIONS})"
            )


class ChaosPlan:
    """A set of fingerprint → rule injections plus cross-process state."""

    def __init__(self, plan_dir: Union[str, Path]):
        self.plan_dir = Path(plan_dir)
        self.rules: dict[str, ChaosRule] = {}

    @property
    def plan_path(self) -> Path:
        return self.plan_dir / "plan.json"

    @property
    def attempts_dir(self) -> Path:
        return self.plan_dir / "attempts"

    def add(self, fingerprint: str, rule: ChaosRule) -> "ChaosPlan":
        """Register (or replace) the rule for one fingerprint."""
        self.rules[fingerprint] = rule
        return self

    def save(self) -> Path:
        """Write the plan file the injection hook reads."""
        self.attempts_dir.mkdir(parents=True, exist_ok=True)
        payload = {fp: asdict(rule) for fp, rule in self.rules.items()}
        self.plan_path.write_text(json.dumps(payload, indent=2))
        return self.plan_path

    def attempts(self, fingerprint: str) -> int:
        """How many attempts of this fingerprint have started so far."""
        try:
            return (self.attempts_dir / fingerprint).stat().st_size
        except OSError:
            return 0

    def reset(self) -> None:
        """Forget attempt history (rules stay)."""
        if self.attempts_dir.is_dir():
            for path in self.attempts_dir.iterdir():
                path.unlink(missing_ok=True)

    @contextmanager
    def installed(self) -> Iterator["ChaosPlan"]:
        """Activate the plan for this process and all child workers."""
        path = self.save()
        previous = os.environ.get(CHAOS_PLAN_ENV)
        os.environ[CHAOS_PLAN_ENV] = str(path)
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(CHAOS_PLAN_ENV, None)
            else:
                os.environ[CHAOS_PLAN_ENV] = previous


def enabled() -> bool:
    """True when a plan is installed (one env lookup; the fast path)."""
    return bool(os.environ.get(CHAOS_PLAN_ENV))


def _load_rules(plan_path: Path) -> dict[str, ChaosRule]:
    try:
        raw = json.loads(plan_path.read_text())
    except (OSError, ValueError):
        return {}
    names = {f.name for f in fields(ChaosRule)}
    rules = {}
    for fingerprint, data in raw.items():
        if isinstance(data, dict):
            rules[fingerprint] = ChaosRule(
                **{k: v for k, v in data.items() if k in names}
            )
    return rules


def _count_attempt(attempts_dir: Path, fingerprint: str) -> int:
    """Record one attempt start; returns its 1-based ordinal."""
    attempts_dir.mkdir(parents=True, exist_ok=True)
    path = attempts_dir / fingerprint
    with open(path, "ab") as handle:
        handle.write(b"x")
        handle.flush()
    return path.stat().st_size


def maybe_inject(fingerprint: str) -> Optional[str]:
    """Fire the installed rule for this fingerprint, if any.

    Called at the top of every spec execution. Returns ``None`` to
    proceed normally, or :data:`GARBAGE` when a ``garbage`` rule wants
    the caller to return a poisoned result. ``raise`` rules throw
    :class:`ChaosError`; ``hang`` rules sleep; ``crash`` rules kill the
    worker process outright (``os._exit``) when running inside a child
    process, and raise :class:`~repro.core.faults.WorkerCrash` when
    in-process, where taking down the interpreter would take the
    campaign with it.
    """
    plan_path = os.environ.get(CHAOS_PLAN_ENV)
    if not plan_path:
        return None
    plan_path = Path(plan_path)
    rule = _load_rules(plan_path).get(fingerprint)
    if rule is None:
        return None
    if rule.action in FEEDBACK_ACTIONS:
        # Not a simulation fault: the recovery session picks these up
        # via feedback_disruption(). Don't burn an attempt slot here.
        return None
    attempt = _count_attempt(plan_path.parent / "attempts", fingerprint)
    if rule.times is not None and attempt > rule.times:
        return None
    if rule.action == "raise":
        raise ChaosError(f"injected exception (attempt {attempt})")
    if rule.action == "hang":
        time.sleep(rule.hang_s)
        return None
    if rule.action == "crash":
        if multiprocessing.parent_process() is not None:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrash(f"injected worker crash (attempt {attempt})")
    if rule.action == "garbage":
        return GARBAGE
    return None  # pragma: no cover - ACTIONS is exhaustive


def feedback_disruption(fingerprint: str) -> Optional[str]:
    """Disruption mode for this spec's recovery feedback channel.

    Returns ``"drop"`` or ``"garble"`` when a ``feedback-*`` rule
    matches the fingerprint (or the ``"*"`` wildcard entry, which lets
    a sweep disrupt every spec without enumerating fingerprints);
    ``None`` otherwise.
    """
    plan_path = os.environ.get(CHAOS_PLAN_ENV)
    if not plan_path:
        return None
    rules = _load_rules(Path(plan_path))
    rule = rules.get(fingerprint) or rules.get("*")
    if rule is None or rule.action not in FEEDBACK_ACTIONS:
        return None
    return rule.action.removeprefix("feedback-")


def truncate_cache_entry(path: Union[str, Path], keep_bytes: int = 20) -> None:
    """Chop a cache/journal file mid-record (a torn write)."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: min(keep_bytes, len(data))])


def corrupt_cache_entry(
    path: Union[str, Path], payload: bytes = b'{"schema_version": "\x00garbage'
) -> None:
    """Overwrite a cache/journal file with non-JSON bytes (bit rot)."""
    Path(path).write_bytes(payload)
