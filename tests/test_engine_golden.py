"""Golden record of the event engine's own outputs.

One ``test-300`` spec per feature only the engine models (cross
traffic, the local WMT testbed, shaping with TCP, the AF testbed,
ARQ/FEC with a lossy feedback path, large datagrams with adaptation,
multi-rate adaptation). Each entry pins the SHA-256 of the run's
:class:`~repro.core.runner.ResultSummary` (``elapsed_s`` excluded) and
the number of events the run scheduled. Any change to which events
the engine schedules, in what order, or at what times moves one of
the two; a pure speed-up of the engine moves neither.

Parameters sit where the path loses some but not all packets, so the
digests pin the loss path as well as the clean one.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import experiment
from repro.core.experiment import ExperimentSpec
from repro.core.runner import ResultSummary
from repro.units import mbps

_MPEG = dict(clip="test-300", codec="mpeg1", encoding_rate_bps=mbps(1.7))
_WMT = dict(clip="test-300", codec="wmv", server="wmt", testbed="local")

#: name -> (spec, summary SHA-256, scheduled events)
GOLDEN = {
    "qbone-poisson-cross": (
        ExperimentSpec(
            **_MPEG,
            token_rate_bps=mbps(1.8),
            bucket_depth_bytes=3000.0,
            cross_traffic_bps=mbps(1.0),
            seed=3,
        ),
        "094ce963bd96ff66e02bb99d3901bfff3ce920bb6457c7cf74b6ae6b9e65ab77",
        123260,
    ),
    "local-wmt-udp": (
        ExperimentSpec(
            **_WMT,
            transport="udp",
            token_rate_bps=mbps(1.0),
            bucket_depth_bytes=3000.0,
            seed=3,
        ),
        "05bde17cb8e210faeb642228e5683f4a4ee19afe9e83c312d5ef17cf5a16621b",
        5603,
    ),
    "local-wmt-udp-shaper-onoff": (
        ExperimentSpec(
            **_WMT,
            transport="udp",
            use_shaper=True,
            shaper_rate_bps=mbps(1.1),
            cross_traffic_bps=mbps(1.5),
            token_rate_bps=mbps(1.0),
            bucket_depth_bytes=3000.0,
            seed=3,
        ),
        "5d3379efd21eb10fe6675892d9d48375fe7c76186db5e2e925c743d116d27c92",
        14967,
    ),
    "local-wmt-tcp-shaper": (
        ExperimentSpec(
            **_WMT,
            transport="tcp",
            use_shaper=True,
            shaper_rate_bps=mbps(1.2),
            token_rate_bps=mbps(1.0),
            bucket_depth_bytes=3000.0,
            seed=3,
        ),
        "ed650f8fa29849817b4427ba175f4d632c8f90a0d96da3521270d3c8bac19c5e",
        9232,
    ),
    "af-testbed": (
        ExperimentSpec(
            **_MPEG,
            testbed="af",
            token_rate_bps=mbps(1.2),
            bucket_depth_bytes=3000.0,
            cross_traffic_bps=mbps(4.0),
            seed=3,
        ),
        "eb2e8c74bbfa3e8073b9cca8df9c01e8bd40646fe12a49f646868599f15b06f7",
        93595,
    ),
    "arq-fec-feedback-loss": (
        ExperimentSpec(
            **_MPEG,
            token_rate_bps=mbps(1.9),
            bucket_depth_bytes=3000.0,
            arq=True,
            fec_group=4,
            feedback_loss=0.2,
            seed=3,
        ),
        "dac5ea918eda1dde7fe9a1e9a825b07ea5c402c995e7cfc2444d3d9005532fbe",
        16228,
    ),
    "largeudp-adaptation": (
        ExperimentSpec(
            **_MPEG,
            server="largeudp",
            testbed="local",
            adaptation=True,
            token_rate_bps=mbps(3.0),
            bucket_depth_bytes=20000.0,
            seed=5,
        ),
        "f935723cf22c450b7e80721a517bbb7229dcf8d396863aed179c1fabcb816bb0",
        9948,
    ),
    "adaptive-vc": (
        ExperimentSpec(
            **_MPEG,
            server="adaptive-vc",
            reference="fixed",
            token_rate_bps=mbps(1.3),
            bucket_depth_bytes=4500.0,
            seed=2,
        ),
        "a02512c83a72281194008a6669e3a7511e1401490e5b5c6f74426051ff622229",
        9566,
    ),
}


def summary_digest(summary: ResultSummary) -> str:
    """SHA-256 of the summary's canonical JSON, ``elapsed_s`` excluded."""
    data = summary.to_dict()
    data.pop("elapsed_s")
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_engine(spec: ExperimentSpec, monkeypatch) -> tuple[ResultSummary, int]:
    """Run ``spec`` on the event engine; return its summary and events."""
    engines = []

    class RecordingEngine(experiment.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(experiment, "Engine", RecordingEngine)
    result = experiment._run_engine_experiment(spec)
    assert len(engines) == 1
    # Events scheduled over the run, read from the sequence counter
    # (``repr`` of an itertools.count) without advancing it.
    scheduled = int(repr(engines[0]._seq)[len("count(") : -1])
    return ResultSummary.from_result(result), scheduled


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_output_matches_golden_record(name, monkeypatch):
    spec, expected_digest, expected_events = GOLDEN[name]
    summary, scheduled = run_engine(spec, monkeypatch)
    # The loss path is exercised: some packets lost on the path, not all.
    assert 0.0 < summary.network["loss_fraction"] < 1.0
    assert (summary_digest(summary), scheduled) == (
        expected_digest,
        expected_events,
    )
