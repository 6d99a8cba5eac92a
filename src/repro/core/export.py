"""Result export: dictionaries, JSON, and CSV.

Experiments and sweeps are in-memory objects; these helpers flatten
them into data interchange formats so results can leave the process —
for notebooks, spreadsheets, or regression baselines.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional

from repro.core.experiment import ExperimentResult
from repro.core.sweep import SweepResult
from repro.units import to_mbps


def spec_to_dict(spec) -> dict:
    """Flatten an ExperimentSpec into plain JSON-able values.

    Recovery fields only appear when engaged, so documents for
    recovery-free specs are byte-identical to what earlier versions
    emitted (regression baselines keep matching). Multi-flow aggregate
    specs nest one flat document per member flow.
    """
    if getattr(spec, "is_aggregate", False):
        return {
            "flows": [spec_to_dict(flow) for flow in spec.flows],
            "start_offsets": list(spec.start_offsets),
            "token_rate_bps": spec.token_rate_bps,
            "bucket_depth_bytes": spec.bucket_depth_bytes,
            "policing": spec.policing,
            "policer_action": spec.policer_action,
            "cross_traffic_bps": spec.cross_traffic_bps,
            "seed": spec.seed,
        }
    data = {
        "clip": spec.clip,
        "codec": spec.codec,
        "encoding_rate_bps": spec.encoding_rate_bps,
        "server": spec.server,
        "transport": spec.transport,
        "testbed": spec.testbed,
        "token_rate_bps": spec.token_rate_bps,
        "bucket_depth_bytes": spec.bucket_depth_bytes,
        "policer_action": spec.policer_action,
        "use_shaper": spec.use_shaper,
        "cross_traffic_bps": spec.cross_traffic_bps,
        "reference": spec.reference,
        "decode_mode": spec.decode_mode,
        "adaptation": spec.adaptation,
        "seed": spec.seed,
    }
    if spec.arq or spec.fec_group or spec.feedback_loss:
        data["arq"] = spec.arq
        data["fec_group"] = spec.fec_group
        data["feedback_loss"] = spec.feedback_loss
        data["feedback_rtt_s"] = spec.feedback_rtt_s
    if spec.client_buffer_frames:
        data["client_buffer_frames"] = spec.client_buffer_frames
    if spec.capture_trace:
        data["capture_trace"] = spec.capture_trace
    return data


def result_to_dict(result: ExperimentResult) -> dict:
    """Flatten one result (spec + headline measurements + segments)."""
    return {
        "spec": spec_to_dict(result.spec),
        "quality_score": result.quality_score,
        "lost_frame_fraction": result.lost_frame_fraction,
        "packet_drop_fraction": result.packet_drop_fraction,
        "frozen_fraction": result.trace.frozen_fraction,
        "rebuffer_events": result.trace.rebuffer_events,
        "total_stall_s": result.trace.total_stall_s,
        "server_aborted": result.server_aborted,
        "network": result.extras.get("network", {}),
        **(
            {"recovery": result.extras["recovery"]}
            if "recovery" in result.extras
            else {}
        ),
        **(
            {"flow_trace": result.extras["flow_trace"]}
            if "flow_trace" in result.extras
            else {}
        ),
        "segments": [
            {
                "index": s.segment.index,
                "start": s.segment.start,
                "score": s.score,
                "calibrated": s.calibrated,
                "lag": s.lag,
            }
            for s in result.vqm.segments
        ],
    }


def result_to_json(result: ExperimentResult, indent: Optional[int] = 2) -> str:
    """JSON document for one experiment result."""
    return json.dumps(result_to_dict(result), indent=indent)


#: Column order of the sweep CSV.
SWEEP_CSV_COLUMNS = (
    "token_rate_mbps",
    "bucket_depth_bytes",
    "lost_frame_fraction",
    "quality_score",
    "packet_drop_fraction",
    "frozen_fraction",
)


def sweep_to_csv(sweep: SweepResult) -> str:
    """CSV with one row per sweep point (the figures' raw data)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_CSV_COLUMNS)
    for point in sweep.points:
        result = point.result
        writer.writerow(
            [
                f"{to_mbps(point.token_rate_bps):.6f}",
                f"{point.bucket_depth_bytes:.0f}",
                f"{result.lost_frame_fraction:.6f}",
                f"{result.quality_score:.6f}",
                f"{result.packet_drop_fraction:.6f}",
                f"{result.frozen_fraction:.6f}",
            ]
        )
    return buffer.getvalue()


def csv_to_rows(text: str) -> list[dict]:
    """Parse a sweep CSV back into dictionaries of floats."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for raw in reader:
        rows.append({key: float(value) for key, value in raw.items()})
    return rows
