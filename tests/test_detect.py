"""Unit tests for the policing-detection subsystem (``repro.detect``).

Estimator accuracy on synthetic token-bucket traces, the observer-view
:class:`FlowTrace`, detector verdict codes, enriched policer drop
records, trace plumbing through the summary/export layers, and the
provisioning recommender's search logic (against a fake runner — the
full closed loop lives in ``test_detect_closedloop.py``).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.export import result_to_dict, spec_to_dict
from repro.core.runner import ResultSummary
from repro.detect import (
    FlowTrace,
    detect_policing,
    estimate_token_bucket,
    recommend_provisioning,
    replay_depth_bounds,
)
from repro.detect.detector import (
    CODE_INSUFFICIENT,
    CODE_NO_LOSS,
    CODE_NONCONFORMANT,
    CODE_POLICED,
)
from repro.detect.recommend import (
    CLASS_AVERAGE,
    CLASS_INTERMEDIATE,
    CLASS_MAXIMUM,
    CLASS_UNACHIEVABLE,
    ProvisioningRow,
    ProvisioningTable,
    classify_rate,
)
from repro.detect.trace import ground_truth_verdicts
from repro.diffserv.dscp import DSCP
from repro.diffserv.policer import (
    DROP_REASON_OVERSIZE,
    DROP_REASON_TOKENS,
    Policer,
    PolicerAction,
    PolicerDrop,
)
from repro.diffserv.token_bucket import TokenBucket
from repro.sim.packet import Packet
from repro.sim.tracer import TRACE_SCHEMA_VERSION
from repro.units import mbps


EF = int(DSCP.EF)
BE = int(DSCP.BE)


def synthetic_trace(rate_bps, depth_bytes, seed=0, n=2000, mean_gap=0.006):
    """Arrivals pushed through a real token bucket — exact ground truth."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap, size=n)
    gaps[::40] = 0.0  # occasional back-to-back bursts
    times = np.cumsum(gaps)
    sizes = rng.choice([1500.0, 1200.0, 900.0], size=n)
    bucket = TokenBucket(rate_bps, depth_bytes)
    conform = np.array(
        [bucket.try_consume(s, t) for t, s in zip(times, sizes)], dtype=bool
    )
    return times, sizes, conform


class TestReplayDepthBounds:
    def test_truth_rate_is_feasible_and_brackets_depth(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        b_lo, b_hi = replay_depth_bounds(times, sizes, conform, 1.5e6 / 8.0)
        assert b_lo < b_hi
        assert b_lo <= 3000.0 <= b_hi

    def test_wrong_rate_is_infeasible(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        b_lo, b_hi = replay_depth_bounds(
            times, sizes, conform, 0.5 * 1.5e6 / 8.0
        )
        assert not b_lo < b_hi

    def test_all_conformant_leaves_upper_bound_open(self):
        times = np.array([0.0, 1.0, 2.0])
        sizes = np.array([1000.0, 1000.0, 1000.0])
        conform = np.array([True, True, True])
        b_lo, b_hi = replay_depth_bounds(times, sizes, conform, 1e6)
        assert b_lo == 1000.0
        assert b_hi == math.inf


class TestEstimator:
    @pytest.mark.parametrize(
        "rate_mbps,depth", [(1.5, 3000.0), (2.0, 4500.0), (1.2, 3000.0)]
    )
    def test_recovers_rate_and_depth(self, rate_mbps, depth):
        rate = mbps(rate_mbps)
        times, sizes, conform = synthetic_trace(rate, depth, seed=1)
        est = estimate_token_bucket(times, sizes, conform)
        assert est is not None
        assert abs(est.rate_bps - rate) / rate < 0.01
        assert abs(est.depth_bytes - depth) < 1500.0

    def test_confidence_intervals_contain_point_estimate(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        est = estimate_token_bucket(times, sizes, conform)
        lo, hi = est.rate_ci_bps
        assert lo <= est.rate_bps <= hi
        d_lo, d_hi = est.depth_ci_bytes
        assert d_lo <= est.depth_bytes <= d_hi
        assert est.margin_bytes == pytest.approx(d_hi - d_lo)

    def test_counts_match_trace(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        est = estimate_token_bucket(times, sizes, conform)
        assert est.n_conformant == int(conform.sum())
        assert est.n_nonconformant == int((~conform).sum())
        assert est.pairs_used > 0

    def test_random_loss_is_infeasible(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        rng = np.random.default_rng(9)
        shuffled = rng.random(len(times)) > (~conform).mean()
        assert estimate_token_bucket(times, sizes, shuffled) is None

    def test_single_drop_refuses_inference(self):
        times, sizes, _ = synthetic_trace(mbps(1.5), 3000.0)
        conform = np.ones(len(times), dtype=bool)
        conform[100] = False
        assert estimate_token_bucket(times, sizes, conform) is None

    def test_to_dict_is_json_serializable(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        est = estimate_token_bucket(times, sizes, conform)
        payload = json.loads(json.dumps(est.to_dict()))
        assert payload["rate_bps"] == est.rate_bps
        assert payload["rate_ci_bps"] == list(est.rate_ci_bps)


def tiny_payload():
    """Three packets: conform, remark, drop — by-hand trace payload."""
    return {
        "version": TRACE_SCHEMA_VERSION,
        "policer": {
            "time": [0.0, 0.001, 0.002],
            "packet_id": [0, 1, 2],
            "size": [1500.0, 1500.0, 1500.0],
            "frame_id": [0, 0, 0],
            "dscp": [None, None, None],
            "verdict": ["conform", "remark", "drop"],
            "drop_reason": [None, None, DROP_REASON_TOKENS],
            "token_deficit": [0.0, 1200.0, 1400.0],
            "bucket_fill": [3000.0, 300.0, 100.0],
        },
        "receiver": {
            "time": [0.01, 0.011],
            "packet_id": [0, 1],
            "size": [1500.0, 1500.0],
            "frame_id": [0, 0],
            "dscp": [EF, BE],
        },
    }


class TestFlowTrace:
    def test_masks(self):
        trace = FlowTrace.from_payload(tiny_payload())
        assert trace.n_sent == 3
        assert trace.delivered_mask().tolist() == [True, True, False]
        assert trace.conformance_mask(EF).tolist() == [True, False, False]
        assert trace.remarked_mask(EF).tolist() == [False, True, False]

    def test_masks_last_receiver_dscp_wins(self):
        """A receiver id seen twice keeps its last DSCP, as a dict does."""
        payload = tiny_payload()
        receiver = payload["receiver"]
        receiver["time"] += [0.012, 0.013]
        receiver["packet_id"] += [1, 0]
        receiver["size"] += [1500.0, 1500.0]
        receiver["frame_id"] += [0, 0]
        receiver["dscp"] += [EF, BE]
        trace = FlowTrace.from_payload(payload)
        assert trace.delivered_mask().tolist() == [True, True, False]
        assert trace.conformance_mask(EF).tolist() == [False, True, False]
        assert trace.remarked_mask(EF).tolist() == [True, False, False]

    def test_masks_unsorted_ids_and_unmarked_arrivals(self):
        trace = FlowTrace(
            times=np.zeros(4),
            sizes=np.full(4, 1500.0),
            packet_ids=np.array([7, 2, 9, 5], dtype=np.int64),
            received_dscp={9: EF, 2: None, 7: BE},
        )
        assert trace.delivered_mask().tolist() == [True, True, True, False]
        assert trace.conformance_mask(EF).tolist() == [False, False, True, False]
        assert trace.remarked_mask(EF).tolist() == [True, True, False, False]

    @pytest.mark.parametrize("action", ["drop", "remark"])
    def test_masks_match_per_packet_lookup(self, action):
        spec = dataclasses.replace(TRACE_SPEC, policer_action=action)
        trace = FlowTrace.from_payload(run_experiment(spec).extras["flow_trace"])
        seen = trace.received_dscp
        ids = [int(pid) for pid in trace.packet_ids]
        assert trace.delivered_mask().tolist() == [pid in seen for pid in ids]
        assert trace.conformance_mask(EF).tolist() == [
            seen.get(pid) == EF for pid in ids
        ]
        assert trace.remarked_mask(EF).tolist() == [
            pid in seen and seen[pid] != EF for pid in ids
        ]
        assert not trace.conformance_mask(EF).all()

    def test_rejects_unknown_schema_version(self):
        payload = tiny_payload()
        payload["version"] = 999
        with pytest.raises(ValueError, match="trace schema version"):
            FlowTrace.from_payload(payload)

    def test_ground_truth_accessor_reads_verdicts(self):
        assert ground_truth_verdicts(tiny_payload()) == [
            "conform", "remark", "drop",
        ]


def flow_trace_from_arrays(times, sizes, conform, lose=True):
    """Observer view of a synthetic trace: losses or remarks, no truth."""
    packet_ids = np.arange(len(times), dtype=np.int64)
    received = {}
    for pid, ok in zip(packet_ids, conform):
        if ok:
            received[int(pid)] = EF
        elif not lose:
            received[int(pid)] = BE
    return FlowTrace(
        times=np.asarray(times, dtype=np.float64),
        sizes=np.asarray(sizes, dtype=np.float64),
        packet_ids=packet_ids,
        received_dscp=received,
    )


class TestDetector:
    def test_no_loss(self):
        times, sizes, _ = synthetic_trace(mbps(1.5), 3000.0, n=200)
        conform = np.ones(len(times), dtype=bool)
        verdict = detect_policing(flow_trace_from_arrays(times, sizes, conform))
        assert not verdict.policed
        assert verdict.code == CODE_NO_LOSS
        assert verdict.action is None
        assert verdict.n_lost == 0

    def test_insufficient_loss(self):
        times, sizes, _ = synthetic_trace(mbps(1.5), 3000.0, n=200)
        conform = np.ones(len(times), dtype=bool)
        conform[[10, 20]] = False
        verdict = detect_policing(flow_trace_from_arrays(times, sizes, conform))
        assert not verdict.policed
        assert verdict.code == CODE_INSUFFICIENT
        assert verdict.n_lost == 2

    def test_single_event_is_insufficient_whatever_min_events(self):
        """One event has no inter-event pair: never "no bucket explains it"."""
        times, sizes, _ = synthetic_trace(mbps(1.5), 3000.0, n=200)
        conform = np.ones(len(times), dtype=bool)
        conform[50] = False
        for lose in (True, False):
            verdict = detect_policing(
                flow_trace_from_arrays(times, sizes, conform, lose=lose),
                min_events=1,
            )
            assert not verdict.policed
            assert verdict.code == CODE_INSUFFICIENT
            assert verdict.n_lost + verdict.n_remarked == 1

    def test_policed_drop_action(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        verdict = detect_policing(flow_trace_from_arrays(times, sizes, conform))
        assert verdict.policed
        assert verdict.code == CODE_POLICED
        assert verdict.action == "drop"
        assert verdict.estimate is not None
        assert abs(verdict.estimate.rate_bps - 1.5e6) / 1.5e6 < 0.01
        assert verdict.nonconform_fraction == pytest.approx(
            (~conform).mean()
        )

    def test_policed_remark_action(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        trace = flow_trace_from_arrays(times, sizes, conform, lose=False)
        verdict = detect_policing(trace)
        assert verdict.policed
        assert verdict.action == "remark"
        assert verdict.n_lost == 0
        assert verdict.n_remarked == int((~conform).sum())

    def test_random_loss_rejected(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        rng = np.random.default_rng(9)
        shuffled = rng.random(len(times)) > (~conform).mean()
        verdict = detect_policing(
            flow_trace_from_arrays(times, sizes, shuffled)
        )
        assert not verdict.policed
        assert verdict.code == CODE_NONCONFORMANT
        assert verdict.estimate is None

    def test_verdict_to_dict_json_serializable(self):
        times, sizes, conform = synthetic_trace(mbps(1.5), 3000.0)
        verdict = detect_policing(flow_trace_from_arrays(times, sizes, conform))
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["policed"] is True
        assert payload["estimate"]["rate_bps"] == verdict.estimate.rate_bps

    def test_accepts_raw_payload_dict(self):
        verdict = detect_policing(tiny_payload(), min_events=1)
        assert verdict.n_lost == 1
        assert verdict.n_remarked == 1


def make_packet(engine, size=1500, frame_id=None):
    return Packet(
        packet_id=engine.next_packet_id(),
        flow_id="video",
        size=size,
        frame_id=frame_id,
        created_at=engine.now,
    )


class TestPolicerDropRecords:
    def test_drop_record_carries_bucket_state(self, engine):
        drops = []
        policer = Policer(engine, mbps(1), 3000, on_drop=drops.append)
        for _ in range(3):
            policer(make_packet(engine))
        assert len(drops) == 1
        record = drops[0]
        assert isinstance(record, PolicerDrop)
        assert record.reason == DROP_REASON_TOKENS
        assert record.time == engine.now
        assert record.dscp is None  # unmarked on arrival
        assert record.bucket_fill == pytest.approx(0.0)
        assert record.token_deficit == pytest.approx(1500.0)

    def test_oversize_reason(self, engine):
        drops = []
        policer = Policer(engine, mbps(1), 3000, on_drop=drops.append)
        policer(make_packet(engine, size=4000))
        assert drops[0].reason == DROP_REASON_OVERSIZE
        assert drops[0].bucket_fill == pytest.approx(3000.0)
        assert drops[0].token_deficit == pytest.approx(1000.0)

    def test_remark_emits_no_drop_records(self, engine):
        drops = []
        policer = Policer(
            engine, mbps(1), 3000,
            action=PolicerAction.REMARK_BE, on_drop=drops.append,
        )
        for _ in range(4):
            policer(make_packet(engine))
        assert drops == []
        assert policer.stats.remarked_packets == 2


TRACE_SPEC = ExperimentSpec(
    clip="test-300",
    codec="mpeg1",
    encoding_rate_bps=mbps(1.7),
    token_rate_bps=mbps(1.5),
    bucket_depth_bytes=3000.0,
    seed=3,
    capture_trace=True,
)


class TestTracePlumbing:
    def test_flags_off_summary_has_no_trace(self):
        spec = dataclasses.replace(TRACE_SPEC, capture_trace=False)
        summary = ResultSummary.from_result(run_experiment(spec))
        assert summary.flow_trace is None
        assert "flow_trace" not in summary.to_dict()

    def test_summary_round_trips_trace(self):
        summary = ResultSummary.from_result(run_experiment(TRACE_SPEC))
        assert summary.flow_trace is not None
        data = summary.to_dict()
        assert data["flow_trace"]["version"] == TRACE_SCHEMA_VERSION
        assert ResultSummary.from_dict(json.loads(json.dumps(data))) == summary

    def test_trace_payload_shape(self):
        result = run_experiment(TRACE_SPEC)
        payload = result.extras["flow_trace"]
        policer, receiver = payload["policer"], payload["receiver"]
        n_sent = len(policer["time"])
        assert n_sent == result.policer_stats.total_packets
        verdicts = set(policer["verdict"])
        assert verdicts <= {"conform", "drop", "remark"}
        assert "drop" in verdicts
        assert len(receiver["packet_id"]) < n_sent
        assert set(receiver["dscp"]) == {EF}

    def test_detect_closes_loop_on_experiment_trace(self):
        result = run_experiment(TRACE_SPEC)
        verdict = detect_policing(result.extras["flow_trace"])
        assert verdict.policed
        assert verdict.action == "drop"
        assert abs(verdict.estimate.rate_bps - 1.5e6) / 1.5e6 < 0.05
        assert abs(verdict.estimate.depth_bytes - 3000.0) < 1500.0

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"policer_action": "remark"},
            {"use_shaper": True},
            {"use_shaper": True, "policer_action": "remark"},
            {"bucket_depth_bytes": 1000.0},  # oversize drops
        ],
        ids=["drop", "remark", "shaped-drop", "shaped-remark", "oversize"],
    )
    def test_engine_and_fastpath_traces_identical(self, monkeypatch, changes):
        from repro.core import fastlane

        spec = dataclasses.replace(TRACE_SPEC, **changes)
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        engine_trace = run_experiment(spec).extras["flow_trace"]
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "1")
        fast_trace = run_experiment(spec).extras["flow_trace"]
        assert engine_trace == fast_trace

    def test_export_includes_trace_only_when_captured(self):
        data = result_to_dict(run_experiment(TRACE_SPEC))
        assert data["spec"]["capture_trace"] is True
        assert data["flow_trace"]["version"] == TRACE_SCHEMA_VERSION

        plain = dataclasses.replace(TRACE_SPEC, capture_trace=False)
        data = result_to_dict(run_experiment(plain))
        assert "capture_trace" not in data["spec"]
        assert "flow_trace" not in data
        assert "capture_trace" not in spec_to_dict(plain)


class TestClassifyRate:
    def test_axis(self):
        avg, peak = 1.0e6, 2.0e6
        assert classify_rate(1.05e6, avg, peak) == CLASS_AVERAGE
        assert classify_rate(1.3e6, avg, peak) == CLASS_INTERMEDIATE
        assert classify_rate(1.8e6, avg, peak) == CLASS_MAXIMUM
        assert classify_rate(None, avg, peak) == CLASS_UNACHIEVABLE

    def test_slacks_are_tunable(self):
        assert classify_rate(1.3e6, 1.0e6, 2.0e6, avg_slack=1.4) == CLASS_AVERAGE
        assert classify_rate(1.3e6, 1.0e6, 2.0e6, max_slack=0.6) == CLASS_MAXIMUM


def fake_summary(quality_score):
    return ResultSummary(
        quality_score=quality_score,
        lost_frame_fraction=quality_score,
        packet_drop_fraction=0.0,
        frozen_fraction=0.0,
        rebuffer_events=0,
        total_stall_s=0.0,
        conformant_packets=0,
        dropped_packets=0,
        remarked_packets=0,
        dropped_bytes=0,
        server_aborted=False,
        server_packets=0,
        client_packets=0,
    )


class ThresholdRunner:
    """Fake runner: quality meets the target iff rate >= threshold(depth)."""

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self.batches = []

    def run_batch(self, specs, on_outcome=None):
        self.batches.append(list(specs))
        return [
            fake_summary(
                0.01
                if spec.token_rate_bps >= self.thresholds[spec.bucket_depth_bytes]
                else 0.5
            )
            for spec in specs
        ]


BASE_SPEC = ExperimentSpec(
    clip="test-300",
    codec="mpeg1",
    encoding_rate_bps=mbps(1.7),
    token_rate_bps=mbps(2.4),
    bucket_depth_bytes=3000.0,
    seed=3,
)


class TestRecommendSearch:
    def test_bisection_finds_each_threshold(self):
        thresholds = {3000.0: mbps(2.0), 4500.0: mbps(1.75)}
        runner = ThresholdRunner(thresholds)
        table = recommend_provisioning(
            BASE_SPEC, depths=(3000.0, 4500.0), runner=runner
        )
        for row in table.rows:
            threshold = thresholds[row.bucket_depth_bytes]
            assert threshold <= row.min_token_rate_bps <= threshold + 20e3
            assert row.achieved_quality_score == pytest.approx(0.01)

    def test_unachievable_depth_settles_in_one_probe(self):
        runner = ThresholdRunner({3000.0: mbps(99)})
        table = recommend_provisioning(BASE_SPEC, depths=(3000.0,), runner=runner)
        (row,) = table.rows
        assert row.min_token_rate_bps is None
        assert row.classification == CLASS_UNACHIEVABLE
        assert row.achieved_quality_score is None
        assert row.probes == 1

    def test_lockstep_batching(self):
        runner = ThresholdRunner({3000.0: mbps(2.0), 4500.0: mbps(1.75)})
        recommend_provisioning(BASE_SPEC, depths=(3000.0, 4500.0), runner=runner)
        ceiling = runner.batches[0]
        assert len(ceiling) == 2
        assert {s.token_rate_bps for s in ceiling} == {mbps(2.4)}
        # Every later round probes each still-active depth exactly once.
        for batch in runner.batches[1:]:
            depths = [s.bucket_depth_bytes for s in batch]
            assert len(depths) == len(set(depths)) <= 2

    def test_probes_never_capture_traces(self):
        runner = ThresholdRunner({3000.0: mbps(2.0)})
        base = dataclasses.replace(BASE_SPEC, capture_trace=True)
        recommend_provisioning(base, depths=(3000.0,), runner=runner)
        assert all(
            not spec.capture_trace
            for batch in runner.batches
            for spec in batch
        )

    def test_validation_errors(self):
        runner = ThresholdRunner({})
        with pytest.raises(ValueError, match="at least one bucket depth"):
            recommend_provisioning(BASE_SPEC, depths=(), runner=runner)
        with pytest.raises(ValueError, match="rate_min_bps"):
            recommend_provisioning(
                BASE_SPEC, depths=(3000.0,), runner=runner,
                rate_min_bps=mbps(3), rate_max_bps=mbps(2),
            )
        with pytest.raises(ValueError, match="precision_bps"):
            recommend_provisioning(
                BASE_SPEC, depths=(3000.0,), runner=runner, precision_bps=0.0
            )


def make_table(shallow_class, deep_class):
    row = lambda depth, cls: ProvisioningRow(
        bucket_depth_bytes=depth,
        min_token_rate_bps=2.0e6,
        achieved_quality_score=0.01,
        achieved_lost_frame_fraction=0.0,
        classification=cls,
        probes=5,
    )
    return ProvisioningTable(
        clip="lost",
        codec="mpeg1",
        encoding_rate_bps=1.7e6,
        target={"metric": "quality_score", "bound": 0.05},
        avg_rate_bps=1.7e6,
        max_rate_bps=2.2e6,
        rows=(row(3000.0, shallow_class), row(4500.0, deep_class)),
    )


class TestProvisioningFindings:
    def test_paper_finding_requires_both_sides(self):
        table = make_table(CLASS_MAXIMUM, CLASS_AVERAGE)
        findings = table.findings()
        assert findings["paper_finding_reproduced"] is True
        assert findings["deep_bucket_admits_average"] is True
        assert findings["shallow_bucket_needs_maximum"] is True

        assert not make_table(CLASS_AVERAGE, CLASS_AVERAGE).findings()[
            "paper_finding_reproduced"
        ]
        assert not make_table(CLASS_MAXIMUM, CLASS_MAXIMUM).findings()[
            "paper_finding_reproduced"
        ]

    def test_finding_absent_without_paper_depths(self):
        table = make_table(CLASS_MAXIMUM, CLASS_AVERAGE)
        table = dataclasses.replace(table, rows=table.rows[:1])
        assert "paper_finding_reproduced" not in table.findings()

    def test_to_dict_json_serializable(self):
        payload = json.loads(json.dumps(make_table(
            CLASS_MAXIMUM, CLASS_AVERAGE
        ).to_dict()))
        assert payload["findings"]["paper_finding_reproduced"] is True
        assert payload["rows"][0]["classification"] == CLASS_MAXIMUM
