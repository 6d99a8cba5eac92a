"""Was this flow policed? The yes/no layer over the estimator.

In the spirit of the USC-NSL ``policing_detector`` (see
``/root/related``): losses that a token-bucket policer produced leave
a recoverable signature — they happen exactly when the bucket runs
dry, so a depth-free replay of every candidate rate either finds a
consistent ``(r, b)`` region (policed) or proves the loss pattern
could not have come from any token bucket (congestion, random loss).
Remark-mode policing leaves the same signature in the received DSCPs
instead of in the loss set; the detector folds both into one
"non-conformant" outcome per packet and runs the same inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.detect.estimator import TokenBucketEstimate, estimate_token_bucket
from repro.detect.trace import FlowTrace
from repro.diffserv.dscp import DSCP
from repro.units import ETHERNET_MTU

#: Detection outcome codes.
CODE_POLICED = "policed"
CODE_NO_LOSS = "no-loss"
CODE_INSUFFICIENT = "insufficient-loss"
CODE_NONCONFORMANT = "nonconformant-loss"

#: Fewer non-conformant events than this and the inference is refused
#: rather than risked (the USC-NSL detector draws the same line).
MIN_EVENTS_DEFAULT = 5

#: The estimator needs at least one inter-event pair, so below two
#: events the answer is insufficient loss whatever ``min_events`` says.
MIN_EVENTS_FLOOR = 2


@dataclass(frozen=True)
class DetectionVerdict:
    """The detector's answer for one flow trace.

    ``code`` is one of ``"policed"`` (a consistent token bucket was
    found), ``"no-loss"`` (every packet conformed — nothing to infer),
    ``"insufficient-loss"`` (too few events to call), and
    ``"nonconformant-loss"`` (losses exist but no token bucket explains
    them). ``action`` says how the policer treated excess traffic
    (``"drop"`` or ``"remark"``) when any non-conformance was seen.
    """

    policed: bool
    code: str
    action: Optional[str]
    n_packets: int
    n_lost: int
    n_remarked: int
    nonconform_fraction: float
    estimate: Optional[TokenBucketEstimate]

    def to_dict(self) -> dict:
        """Plain JSON-able dictionary (the CLI's --json shape)."""
        return {
            "policed": self.policed,
            "code": self.code,
            "action": self.action,
            "n_packets": self.n_packets,
            "n_lost": self.n_lost,
            "n_remarked": self.n_remarked,
            "nonconform_fraction": self.nonconform_fraction,
            "estimate": (
                self.estimate.to_dict() if self.estimate is not None else None
            ),
        }


def detect_policing(
    payload,
    conform_dscp: int = int(DSCP.EF),
    mtu_bytes: float = float(ETHERNET_MTU),
    min_events: int = MIN_EVENTS_DEFAULT,
) -> DetectionVerdict:
    """Decide whether the traced flow was token-bucket policed.

    ``payload`` is a trace payload dict (or a ready
    :class:`FlowTrace`). ``conform_dscp`` is the codepoint conformant
    traffic is expected to carry (EF for the paper's experiments);
    packets delivered with any other codepoint count as remarked.
    Fewer than ``max(min_events, 2)`` non-conformant events answer
    ``insufficient-loss``.
    """
    trace = (
        payload
        if isinstance(payload, FlowTrace)
        else FlowTrace.from_payload(payload)
    )
    delivered = trace.delivered_mask()
    conform = trace.conformance_mask(conform_dscp)
    remarked = trace.remarked_mask(conform_dscp)
    n_packets = trace.n_sent
    n_lost = int((~delivered).sum())
    n_remarked = int(remarked.sum())
    n_nonconform = n_lost + n_remarked
    fraction = n_nonconform / n_packets if n_packets else 0.0
    action = None
    if n_nonconform:
        action = "drop" if n_lost >= n_remarked else "remark"

    if n_nonconform == 0:
        return DetectionVerdict(
            policed=False,
            code=CODE_NO_LOSS,
            action=None,
            n_packets=n_packets,
            n_lost=0,
            n_remarked=0,
            nonconform_fraction=0.0,
            estimate=None,
        )
    if n_nonconform < max(min_events, MIN_EVENTS_FLOOR):
        return DetectionVerdict(
            policed=False,
            code=CODE_INSUFFICIENT,
            action=action,
            n_packets=n_packets,
            n_lost=n_lost,
            n_remarked=n_remarked,
            nonconform_fraction=fraction,
            estimate=None,
        )
    estimate = estimate_token_bucket(
        trace.times, trace.sizes, conform, mtu_bytes=mtu_bytes
    )
    if estimate is None:
        return DetectionVerdict(
            policed=False,
            code=CODE_NONCONFORMANT,
            action=action,
            n_packets=n_packets,
            n_lost=n_lost,
            n_remarked=n_remarked,
            nonconform_fraction=fraction,
            estimate=None,
        )
    return DetectionVerdict(
        policed=True,
        code=CODE_POLICED,
        action=action,
        n_packets=n_packets,
        n_lost=n_lost,
        n_remarked=n_remarked,
        nonconform_fraction=fraction,
        estimate=estimate,
    )
