"""Network-level quality metrics.

The paper contrasts *network-level* measures (loss, delay, jitter —
its refs [11][22] are the IPPM-style measurement literature) with the
*user-level* VQM score. This module computes the standard network
metrics from a pair of tracer taps, so experiments can report both
sides of that contrast:

* one-way delay statistics (mean / percentiles),
* RFC 3550 interarrival jitter,
* loss run-length statistics (how clustered the loss process is).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.tracer import TraceRecord


@dataclass(frozen=True)
class DelayStats:
    """One-way delay summary between two taps (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    rfc3550_jitter: float


@dataclass(frozen=True)
class LossRunStats:
    """Structure of the loss process between two taps."""

    sent: int
    delivered: int
    loss_fraction: float
    loss_runs: int
    mean_run_length: float
    max_run_length: int


def delay_stats(
    sent: Sequence[TraceRecord],
    received: Sequence[TraceRecord],
) -> DelayStats:
    """Per-packet one-way delays, matched by packet id.

    Packets missing at the receiver (lost) simply don't contribute.
    RFC 3550 jitter is the EWMA (1/16 gain) of |D(i,j)| over
    consecutive delivered packets. The three percentiles come from one
    ``np.percentile`` pass, which equals one call per percentile bit
    for bit.
    """
    sent_times = {r.packet_id: r.time for r in sent}
    delays = []
    jitter = 0.0
    previous_transit = None
    for record in received:
        if record.packet_id not in sent_times:
            continue
        transit = record.time - sent_times[record.packet_id]
        delays.append(transit)
        if previous_transit is not None:
            d = abs(transit - previous_transit)
            jitter += (d - jitter) / 16.0
        previous_transit = transit
    if not delays:
        return DelayStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(delays)
    p50, p95, p99 = np.percentile(arr, [50, 95, 99]).tolist()
    return DelayStats(
        count=len(arr),
        mean=float(arr.mean()),
        p50=p50,
        p95=p95,
        p99=p99,
        max=float(arr.max()),
        rfc3550_jitter=float(jitter),
    )


def loss_run_stats(
    sent: Sequence[TraceRecord],
    received: Sequence[TraceRecord],
) -> LossRunStats:
    """Loss fraction plus run-length structure, in send order."""
    received_ids = {r.packet_id for r in received}
    runs = []
    current = 0
    delivered = 0
    for record in sent:
        if record.packet_id in received_ids:
            delivered += 1
            if current:
                runs.append(current)
                current = 0
        else:
            current += 1
    if current:
        runs.append(current)
    total = len(sent)
    lost = total - delivered
    return LossRunStats(
        sent=total,
        delivered=delivered,
        loss_fraction=lost / total if total else 0.0,
        loss_runs=len(runs),
        mean_run_length=float(np.mean(runs)) if runs else 0.0,
        max_run_length=max(runs) if runs else 0,
    )


def summarize_path(
    sent: Sequence[TraceRecord],
    received: Sequence[TraceRecord],
) -> dict:
    """Both metric families as one flat dict (for reports/exports)."""
    delay = delay_stats(sent, received)
    loss = loss_run_stats(sent, received)
    return {
        "delay_mean_s": delay.mean,
        "delay_p95_s": delay.p95,
        "delay_p99_s": delay.p99,
        "delay_max_s": delay.max,
        "jitter_rfc3550_s": delay.rfc3550_jitter,
        "loss_fraction": loss.loss_fraction,
        "loss_runs": loss.loss_runs,
        "loss_mean_run": loss.mean_run_length,
        "loss_max_run": loss.max_run_length,
    }
