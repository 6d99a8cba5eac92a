"""Observer's view of a trace payload.

A :class:`FlowTrace` wraps the payload emitted by trace-enabled
experiments (see :mod:`repro.sim.tracer`) and exposes only what a
detecting endpoint could legitimately observe:

* the *send-side* record — every packet's pre-decision timestamp and
  size at the bottleneck ingress (the policer point's ``time``/``size``
  columns, which are recorded before the verdict exists);
* the *receive-side* record — which packet ids arrived, and with which
  DSCP.

The policer point's ``verdict`` / ``drop_reason`` / token-state columns
are ground truth: the detector never reads them, and this class only
surfaces them through the explicitly named :meth:`ground_truth_verdicts`
accessor that the validation suite and the CLI's accuracy report use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sim.tracer import TRACE_SCHEMA_VERSION


@dataclass(frozen=True)
class FlowTrace:
    """One flow's observable send/receive history.

    ``times`` / ``sizes`` / ``packet_ids`` are parallel arrays in send
    order; ``received_dscp`` maps delivered packet id → observed
    codepoint (absence means loss).
    """

    times: np.ndarray  # ingress observation time per sent packet
    sizes: np.ndarray  # wire bytes per sent packet
    packet_ids: np.ndarray  # send-order packet ids
    received_dscp: dict  # delivered id -> DSCP at the receiver

    @classmethod
    def from_payload(cls, payload: dict) -> "FlowTrace":
        """Build the observer view from a trace payload dict."""
        version = payload.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace schema version {version!r} "
                f"(expected {TRACE_SCHEMA_VERSION})"
            )
        policer = payload["policer"]
        receiver = payload["receiver"]
        return cls(
            times=np.asarray(policer["time"], dtype=np.float64),
            sizes=np.asarray(policer["size"], dtype=np.float64),
            packet_ids=np.asarray(policer["packet_id"], dtype=np.int64),
            received_dscp=dict(
                zip(receiver["packet_id"], receiver["dscp"])
            ),
        )

    @property
    def n_sent(self) -> int:
        """Packets observed entering the bottleneck."""
        return len(self.packet_ids)

    @cached_property
    def _received_view(self) -> tuple:
        """Send-order ``(delivered, dscp)``; NaN DSCP where not delivered.

        One sorted-id lookup of ``received_dscp``, so a receiver id seen
        twice keeps the dict's rule (the last DSCP wins). DSCPs are held
        as float64 (exact for any codepoint) with a missing codepoint as
        NaN, which compares like ``None``: equal to nothing, unequal to
        everything.
        """
        ids = np.fromiter(
            self.received_dscp.keys(), dtype=np.int64, count=len(self.received_dscp)
        )
        dscps = np.array(list(self.received_dscp.values()), dtype=np.float64)
        order = np.argsort(ids)
        ids, dscps = ids[order], dscps[order]
        delivered = np.zeros(self.n_sent, dtype=bool)
        dscp = np.full(self.n_sent, np.nan)
        if len(ids):
            pos = np.minimum(np.searchsorted(ids, self.packet_ids), len(ids) - 1)
            delivered = ids[pos] == self.packet_ids
            dscp[delivered] = dscps[pos[delivered]]
        return delivered, dscp

    def delivered_mask(self) -> np.ndarray:
        """Send-order mask: did the packet reach the receiver?"""
        return self._received_view[0].copy()

    def conformance_mask(self, conform_dscp: int) -> np.ndarray:
        """Send-order mask: delivered *and* carrying the conform DSCP.

        This is the detector's working definition of conformance: a
        dropped packet is missing, a remarked one arrives with a
        different codepoint, and both count as non-conformant.
        """
        return self._received_view[1] == conform_dscp

    def remarked_mask(self, conform_dscp: int) -> np.ndarray:
        """Send-order mask: delivered but with a non-conform DSCP."""
        delivered, dscp = self._received_view
        return delivered & (dscp != conform_dscp)


def ground_truth_verdicts(payload: dict) -> list:
    """The policer's actual per-packet verdicts, in send order.

    Validation-only accessor: this reads the ground-truth columns the
    detector itself is forbidden to touch. Used by the closed-loop
    suite and the CLI's accuracy report to score the inference.
    """
    return list(payload["policer"]["verdict"])
