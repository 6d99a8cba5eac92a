"""Closed-loop validation of the detection & provisioning subsystem.

Simulate → trace → infer → compare to the spec's ground truth, over a
grid of policed and unpoliced configurations, in both policer modes,
and through the serial and pooled runners. These are the acceptance
criteria of the subsystem (no false negatives where policing bit, no
false positives where it could not have, parameter recovery within
tolerance, and the paper's 3000-vs-4500-byte provisioning finding),
so they run under the ``detect`` marker: ``make test-detect``.
"""

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import Runner
from repro.detect import detect_policing, recommend_provisioning
from repro.detect.detector import CODE_NO_LOSS, CODE_POLICED
from repro.units import mbps

pytestmark = pytest.mark.detect


def grid_spec(rate_mbps, depth, action="drop"):
    return ExperimentSpec(
        clip="test-300",
        codec="mpeg1",
        encoding_rate_bps=mbps(1.7),
        token_rate_bps=mbps(rate_mbps),
        bucket_depth_bytes=depth,
        policer_action=action,
        seed=3,
        capture_trace=True,
    )


#: Loss floor above which a miss counts as a false negative.
MIN_LOSS = 0.005
#: Recovery tolerances: r̂ within 5%, b̂ within one Ethernet MTU.
RATE_TOL = 0.05
DEPTH_TOL_BYTES = 1500.0


class TestClosedLoopGrid:
    RATES = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8)
    DEPTHS = (3000.0, 4500.0)

    def test_policed_grid_is_flagged_and_recovered(self):
        flagged = 0
        accurate = 0
        for rate_mbps in self.RATES:
            for depth in self.DEPTHS:
                spec = grid_spec(rate_mbps, depth)
                result = run_experiment(spec)
                verdict = detect_policing(result.extras["flow_trace"])
                if result.packet_drop_fraction < MIN_LOSS:
                    continue  # not enough policing to demand detection
                assert verdict.policed, (
                    f"false negative at r={rate_mbps} b={depth}: "
                    f"{verdict.code} with "
                    f"{result.packet_drop_fraction:.1%} drops"
                )
                assert verdict.action == "drop"
                flagged += 1
                rate_err = (
                    abs(verdict.estimate.rate_bps - spec.token_rate_bps)
                    / spec.token_rate_bps
                )
                depth_err = abs(
                    verdict.estimate.depth_bytes - spec.bucket_depth_bytes
                )
                if rate_err < RATE_TOL and depth_err < DEPTH_TOL_BYTES:
                    accurate += 1
        assert flagged >= 10  # the grid must actually exercise policing
        assert accurate >= 0.9 * flagged, (
            f"only {accurate}/{flagged} flagged points recovered (r, b) "
            f"within tolerance"
        )

    def test_unpoliced_flow_is_not_flagged(self):
        spec = grid_spec(5.0, 50_000.0)
        result = run_experiment(spec)
        assert result.packet_drop_fraction == 0.0
        verdict = detect_policing(result.extras["flow_trace"])
        assert not verdict.policed
        assert verdict.code == CODE_NO_LOSS

    def test_remark_mode_closed_loop(self):
        spec = grid_spec(1.5, 3000.0, action="remark")
        result = run_experiment(spec)
        verdict = detect_policing(result.extras["flow_trace"])
        assert verdict.policed
        assert verdict.code == CODE_POLICED
        assert verdict.action == "remark"
        assert verdict.n_lost == 0
        assert verdict.n_remarked > 0
        rate_err = (
            abs(verdict.estimate.rate_bps - spec.token_rate_bps)
            / spec.token_rate_bps
        )
        assert rate_err < RATE_TOL


class TestRunnerTraceTransport:
    SPECS = [grid_spec(1.4, 3000.0), grid_spec(1.5, 4500.0)]

    def test_serial_runner_carries_trace(self):
        summaries = Runner().run_batch(self.SPECS)
        for summary in summaries:
            assert summary.flow_trace is not None
            assert detect_policing(summary.flow_trace).policed

    def test_pooled_runner_matches_serial(self):
        serial = Runner().run_batch(self.SPECS)
        pooled = Runner(jobs=2).run_batch(self.SPECS)
        assert serial == pooled  # includes the flow_trace payloads


class TestPaperFinding:
    def test_recommender_reproduces_depth_asymmetry(self):
        base = ExperimentSpec(
            clip="lost",
            codec="mpeg1",
            encoding_rate_bps=mbps(1.7),
            token_rate_bps=mbps(2.4),
            bucket_depth_bytes=3000.0,
            seed=3,
        )
        table = recommend_provisioning(base, depths=(3000.0, 4500.0))
        findings = table.findings()
        assert findings["paper_finding_reproduced"], findings
        by_depth = {row.bucket_depth_bytes: row for row in table.rows}
        # The deeper bucket strictly lowers the rate the flow must buy.
        assert (
            by_depth[4500.0].min_token_rate_bps
            < by_depth[3000.0].min_token_rate_bps
        )
        for row in table.rows:
            assert row.achieved_quality_score <= 0.05
