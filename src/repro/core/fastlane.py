"""Fast-lane dispatch: when can a spec skip the event engine?

:func:`repro.core.experiment.run_experiment` consults this module
before building an engine. A *qualifying* spec — the plain QBone
VideoCharger session that dominates every paper figure — is routed to
:mod:`repro.sim.fastpath`, which produces a bit-identical
:class:`~repro.core.experiment.ExperimentResult` at a fraction of the
cost. Everything else (recovery, adaptation, cross traffic, other
testbeds/servers) falls back to the event engine unchanged.

The one override knob is the ``REPRO_FASTPATH`` environment variable.
It governs every fast lane: this scalar path, the batch lane below,
and the interleaved multi-flow lane
(:func:`repro.flows.aggregate.run_aggregate`).

``auto`` (default)
    Use a fast lane when the spec qualifies, the engine otherwise.
``0``
    Never use a fast lane: the event engine runs every spec and every
    aggregate, and the campaign scheduler stops coalescing grids (the
    equivalence tests and the bench harness use this as the control).
``1``
    Require a fast lane: a non-qualifying spec, or an aggregate with
    cross traffic, raises :class:`FastpathUnsupported` instead of
    silently degrading. Debug/bench knob — it guarantees a fast lane
    actually ran.

Because results are bit-identical, dispatch is invisible to the cache
layer: fingerprints are unchanged and fast-path/engine runs populate
the same cache entries interchangeably.

The *batch* lane sits one level up: the campaign scheduler coalesces
adjacent qualifying work units that differ only in
``(token_rate_bps, bucket_depth_bytes, seed)`` and hands the whole
grid to :func:`run_batchpath`, which scans the whole rate×depth grid
at once — still bit-identical per point. A lone qualifying unit runs
on the scalar path. Every lane call of one request, batched or not,
reads the same shared front end (schedule, jitter replay per seed):
:func:`repro.sim.fastpath.front_end_scope` computes each once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    assess_playback,
)
from repro.client.playout import PlayoutClient
from repro.sim.fastpath import simulate_qbone_session
from repro.video.clips import encode_clip

#: Environment variable controlling dispatch (see module docstring).
FASTPATH_ENV = "REPRO_FASTPATH"

#: Spec fields along which a batch grid may vary; everything else must
#: match for two units to share a schedule/jitter front end.
BATCH_AXES = ("token_rate_bps", "bucket_depth_bytes", "seed")


class FastpathUnsupported(RuntimeError):
    """``REPRO_FASTPATH=1`` met a spec or aggregate no fast lane serves."""


@dataclass
class FastlaneStats:
    """Dispatch counters of this process (the bench harness reads these).

    They count where each lane actually ran, so a pool worker's runs
    land in the worker's copy. A runner's stats line does not read
    them: the campaign scheduler counts lanes itself, in the calling
    process (:class:`repro.core.runner.RunnerStats`).
    """

    hits: int = 0
    fallbacks: int = 0
    batch_points: int = 0  # grid points served by the batch lane
    batch_groups: int = 0  # batched calls (one per coalesced grid)

    @property
    def dispatches(self) -> int:
        """Total dispatch decisions taken."""
        return self.hits + self.fallbacks

    @property
    def hit_rate(self) -> float:
        """Fraction of dispatches served by the fast path (0 when idle)."""
        total = self.dispatches
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero the counters (test/bench isolation)."""
        self.hits = 0
        self.fallbacks = 0
        self.batch_points = 0
        self.batch_groups = 0

    def as_dict(self) -> dict:
        """Counter snapshot, for :meth:`delta_since`."""
        return {
            "hits": self.hits,
            "fallbacks": self.fallbacks,
            "batch_points": self.batch_points,
            "batch_groups": self.batch_groups,
        }

    def delta_since(self, snapshot: dict) -> dict:
        """Counters accumulated since ``snapshot`` (an :meth:`as_dict`)."""
        return {
            key: value - snapshot.get(key, 0)
            for key, value in self.as_dict().items()
        }


#: Module-level counters; ``REPRO_FASTPATH=0`` runs count as neither.
stats = FastlaneStats()


def fastpath_mode() -> str:
    """Current override mode: ``"auto"``, ``"0"``, or ``"1"``."""
    mode = os.environ.get(FASTPATH_ENV, "auto").strip().lower()
    if mode in ("0", "1"):
        return mode
    return "auto"


def qualifies_for_fastpath(spec: ExperimentSpec) -> bool:
    """True when the analytic pipeline models this spec exactly.

    The fast path covers the default QBone topology end to end: a
    VideoCharger CBR server over UDP, a drop or remark policer, an
    optional edge shaper (replayed by the analytic recurrence in
    :func:`repro.sim.fastpath.shaper_releases`), no cross traffic, and
    none of the stateful machinery (ARQ, FEC, adaptation, feedback,
    bounded client buffers) that needs the event loop's feedback
    cycles.
    """
    if getattr(spec, "is_aggregate", False):
        # Multi-flow aggregates have their own lanes (repro.flows);
        # guard first — AggregateSpec lacks the flat spec fields.
        return False
    return (
        spec.testbed == "qbone"
        and spec.server == "videocharger"
        and spec.transport == "udp"
        and spec.policer_action in ("drop", "remark")
        and spec.cross_traffic_bps == 0
        and not spec.adaptation
        and not spec.arq
        and not spec.fec_group
        and not spec.feedback_loss
        and spec.client_buffer_frames == 0
    )


def use_fastpath(spec: ExperimentSpec) -> bool:
    """Dispatch decision for one spec, honouring ``REPRO_FASTPATH``."""
    mode = fastpath_mode()
    if mode == "0":
        return False
    if qualifies_for_fastpath(spec):
        stats.hits += 1
        return True
    if mode == "1":
        raise FastpathUnsupported(
            f"REPRO_FASTPATH=1 but spec does not qualify for the fast path: "
            f"{spec!r}"
        )
    stats.fallbacks += 1
    return False


def qualifies_for_batch(spec: ExperimentSpec) -> bool:
    """True when the spec can join a coalesced batch grid.

    Batchable specs are the fast-path population minus trace capture
    (per-packet traces are inherently per-point and would defeat the
    shared-outcome dedup).
    """
    if getattr(spec, "is_aggregate", False):
        return False
    return qualifies_for_fastpath(spec) and not spec.capture_trace


_batch_key_fields = attrgetter(
    *(f.name for f in fields(ExperimentSpec) if f.name not in BATCH_AXES)
)


def batch_key(spec: ExperimentSpec) -> tuple:
    """Grouping key: the spec's fields other than the grid axes.

    Two qualifying specs with equal keys share their message schedule,
    emission/link recurrences, and (per seed) the jitter RNG replay, so
    the scheduler may run them as one array program. The key is a plain
    tuple, not a spec: a spec with the axes zeroed would be invalid.
    """
    return _batch_key_fields(spec)


def run_batchpath(specs: Sequence[ExperimentSpec]):
    """Run a grid of qualifying specs as one array program.

    Returns one :class:`~repro.core.runner.ResultSummary` per spec, in
    input order, each bit-identical to what the engine or the scalar
    fast path would have produced for that spec alone.
    """
    from repro.sim.batchpath import run_batch_specs

    summaries = run_batch_specs(specs)
    stats.batch_points += len(specs)
    stats.batch_groups += 1
    return summaries


def result_from_session(spec: ExperimentSpec, encoded, session) -> ExperimentResult:
    """Offline stages shared by the scalar and batched fast lanes.

    A real PlayoutClient finalizes the session, so the columnar
    :class:`~repro.client.playout.ClientRecord` and GOP decodability
    come from literally the same code as the engine path (only the
    per-packet bookkeeping was vectorized), and the renderer and VQM
    read its arrays exactly as they read an engine session's.
    """
    client = PlayoutClient(
        None,
        encoded,
        startup_delay=spec.startup_delay_s,
        decode_mode=spec.decode_mode,
        buffer_cap_frames=spec.client_buffer_frames,
    )
    client._received_bytes = session.received_bytes
    client._completion = session.completion
    client._first_arrival = session.first_arrival
    client.received_packets = session.received_packets
    record = client.finalize()

    trace, vqm = assess_playback(spec, record)
    extras = {
        "server_packets": session.server_packets,
        "client_packets": session.received_packets,
        "network": session.network_summary(),
    }
    if session.trace_payload is not None:
        extras["flow_trace"] = session.trace_payload
    return ExperimentResult(
        spec=spec,
        vqm=vqm,
        lost_frame_fraction=record.lost_frame_fraction,
        policer_stats=session.policer_stats,
        trace=trace,
        client_record=record,
        server_aborted=False,
        extras=extras,
    )


def run_fastpath(spec: ExperimentSpec) -> ExperimentResult:
    """Produce the full :class:`ExperimentResult` without an engine.

    The network timeline comes from
    :func:`repro.sim.fastpath.simulate_qbone_session`; the offline
    stages (playout finalize, renderer replay, VQM, path metrics) are
    the same code the engine path runs, fed identical inputs.
    """
    encoded = encode_clip(spec.clip, spec.codec, spec.encoding_rate_bps)
    session = simulate_qbone_session(spec, encoded)
    return result_from_session(spec, encoded, session)
