"""Golden record of the token-bucket estimator's outputs.

Each entry pins every field of the :class:`TokenBucketEstimate` that
:func:`estimate_token_bucket` returns for one fixed trace, floats by
``float.hex``, or pins ``None`` where no token bucket explains the
trace. The traces: ``test-300`` drop and remark traces at two rate and
depth points, one ``lost`` drop trace, synthetic token-bucket traces
with zero-gap bursts and with depths below the MTU, and one
random-loss trace. The record was taken from the full-grid zoom
search; any faster search must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.detect import estimate_token_bucket
from repro.detect.trace import FlowTrace
from repro.diffserv.dscp import DSCP
from repro.units import mbps
from tests.test_detect import synthetic_trace


def spec_trace(clip, rate_mbps, depth, action):
    """``(times, sizes, conform)`` as the detector sees a policed run."""
    spec = ExperimentSpec(
        clip=clip,
        codec="mpeg1",
        encoding_rate_bps=mbps(1.7),
        token_rate_bps=mbps(rate_mbps),
        bucket_depth_bytes=depth,
        policer_action=action,
        seed=3,
        capture_trace=True,
    )
    trace = FlowTrace.from_payload(run_experiment(spec).extras["flow_trace"])
    return trace.times, trace.sizes, trace.conformance_mask(int(DSCP.EF))


def random_loss_trace():
    """A policed trace's send record with its losses shuffled."""
    times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
    rng = np.random.default_rng(9)
    return times, sizes, rng.random(len(times)) > (~conform).mean()


TRACES = {
    "test300-drop-1.5-3000": lambda: spec_trace("test-300", 1.5, 3000.0, "drop"),
    "test300-remark-1.5-3000": lambda: spec_trace(
        "test-300", 1.5, 3000.0, "remark"
    ),
    "test300-drop-1.3-4500": lambda: spec_trace("test-300", 1.3, 4500.0, "drop"),
    "test300-remark-1.3-4500": lambda: spec_trace(
        "test-300", 1.3, 4500.0, "remark"
    ),
    "lost-drop-1.6-3000": lambda: spec_trace("lost", 1.6, 3000.0, "drop"),
    "synthetic-bursts": lambda: synthetic_trace(mbps(1.5), 3000.0, seed=1),
    "synthetic-depth-below-mtu": lambda: synthetic_trace(
        mbps(1.0), 1450.0, seed=2
    ),
    "synthetic-oversize-only": lambda: synthetic_trace(
        mbps(1.2), 1000.0, seed=2
    ),
    "random-loss": random_loss_trace,
}

#: name -> (rate_bps, rate_ci_bps, depth_bytes, depth_ci_bytes,
#: margin_bytes, n_conformant, n_nonconformant, pairs_used), or None.
GOLDEN = {
    "test300-drop-1.5-3000": (
        "0x1.6e3555252fc34p+20",
        ("0x1.6e3423e93b26ap+20", "0x1.6e368661245fep+20"),
        "0x1.777f1d22528c1p+11",
        ("0x1.77358d0ac177cp+11", "0x1.77c8ad39e3a06p+11"),
        "0x1.26405e4451400p+2",
        1409, 205, 204,
    ),
    "test300-remark-1.5-3000": (
        "0x1.6e3555252fc34p+20",
        ("0x1.6e3423e93b26ap+20", "0x1.6e368661245fep+20"),
        "0x1.777f1d22528c1p+11",
        ("0x1.77358d0ac177cp+11", "0x1.77c8ad39e3a06p+11"),
        "0x1.26405e4451400p+2",
        1409, 205, 204,
    ),
    "test300-drop-1.3-4500": (
        "0x1.3d6207f3315fep+20",
        ("0x1.3d61a43d9adeep+20", "0x1.3d626ba8c7e0fp+20"),
        "0x1.1943e1e396931p+12",
        ("0x1.1934926577e21p+12", "0x1.19533161b5441p+12"),
        "0x1.e9efc3d620000p+0",
        1239, 375, 374,
    ),
    "test300-remark-1.3-4500": (
        "0x1.3d6207f3315fep+20",
        ("0x1.3d61a43d9adeep+20", "0x1.3d626ba8c7e0fp+20"),
        "0x1.1943e1e396931p+12",
        ("0x1.1934926577e21p+12", "0x1.19533161b5441p+12"),
        "0x1.e9efc3d620000p+0",
        1239, 375, 374,
    ),
    "lost-drop-1.6-3000": (
        "0x1.869ff3f93a518p+20",
        ("0x1.869fbdd74d5dap+20", "0x1.86a02a1b27456p+20"),
        "0x1.77061dc8049c9p+11",
        ("0x1.7701502bb4aeep+11", "0x1.770aeb64548a4p+11"),
        "0x1.336713fb6c000p-2",
        10631, 875, 874,
    ),
    "synthetic-bursts": (
        "0x1.6e35454d910abp+20",
        ("0x1.6e1a3a54ff333p+20", "0x1.6e50504622e23p+20"),
        "0x1.77132a2154a5dp+11",
        ("0x1.76fa6b3427546p+11", "0x1.772be90e81f74p+11"),
        "0x1.8beed2d517000p+0",
        1518, 482, 440,
    ),
    "synthetic-depth-below-mtu": (
        "0x1.e89f03f2ba590p+19",
        ("0x1.e805e2d442d29p+19", "0x1.e938251131df6p+19"),
        "0x1.6a5d554988a4dp+10",
        ("0x1.6a3a0891de070p+10", "0x1.6a80a2013342ap+10"),
        "0x1.1a65bd54ee800p+0",
        829, 1171, 1150,
    ),
    "synthetic-oversize-only": None,
    "random-loss": None,
}


def pinned(est):
    """The estimate's fields in :data:`GOLDEN`'s shape."""
    if est is None:
        return None
    return (
        est.rate_bps.hex(),
        tuple(x.hex() for x in est.rate_ci_bps),
        est.depth_bytes.hex(),
        tuple(x.hex() for x in est.depth_ci_bytes),
        est.margin_bytes.hex(),
        est.n_conformant,
        est.n_nonconformant,
        est.pairs_used,
    )


def test_golden_covers_every_trace():
    assert set(GOLDEN) == set(TRACES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_estimate_matches_golden(name):
    times, sizes, conform = TRACES[name]()
    assert pinned(estimate_token_bucket(times, sizes, conform)) == GOLDEN[name]
