"""End-to-end recovery experiments: the paper's trade-off, reproduced.

Retransmission on a policed DiffServ path buys decodable frames with
delay: repairs drain the same token bucket as the media and arrive a
round-trip late, so the decodable-frame fraction and VQM improve while
stalls and mean frame lateness worsen. These tests pin that trade-off
on the QBone testbed (three hops of real propagation delay, so repair
transit genuinely exceeds the server's deadline estimate), plus the
determinism and flags-off-inertness acceptance criteria.
"""

import dataclasses

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.export import result_to_dict, spec_to_dict
from repro.core.runner import Runner
from repro.units import mbps

pytestmark = pytest.mark.recovery

# Sub-max token rate on QBone: the policer discards enough of the WMT
# stream that ARQ has real work, and 3x8ms propagation puts repair
# transit above the server's 20 ms deadline estimate.
QBONE_SPEC = ExperimentSpec(
    clip="test-300",
    codec="wmv",
    server="wmt",
    transport="udp",
    testbed="qbone",
    token_rate_bps=mbps(1.4),
    bucket_depth_bytes=4500.0,
    startup_delay_s=0.25,
    seed=3,
)


class TestPaperTradeoff:
    """ARQ converts frame loss into delay — the paper's core tension."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_experiment(QBONE_SPEC)

    @pytest.fixture(scope="class")
    def with_arq(self):
        return run_experiment(
            dataclasses.replace(QBONE_SPEC, arq=True, feedback_rtt_s=0.3)
        )

    def test_arq_recovers_frames(self, baseline, with_arq):
        assert baseline.lost_frame_fraction > 0.3  # plenty to recover
        assert with_arq.lost_frame_fraction < baseline.lost_frame_fraction
        recovery = with_arq.extras["recovery"]
        assert recovery["nacks_sent"] > 0
        assert recovery["repairs_sent"] > 0

    def test_arq_improves_vqm(self, baseline, with_arq):
        assert with_arq.quality_score < baseline.quality_score

    def test_repairs_cost_timeliness(self, baseline, with_arq):
        # Repaired frames complete a NACK round-trip late: playout
        # stalls appear and mean frame lateness rises.
        assert with_arq.trace.total_stall_s > baseline.trace.total_stall_s
        assert (
            with_arq.client_record.mean_lateness_s
            > baseline.client_record.mean_lateness_s
        )
        assert with_arq.extras["recovery"]["repairs_arrived_late"] >= 1

    def test_repairs_drain_the_token_bucket(self, baseline, with_arq):
        # Retransmissions are policed like any other byte: the bucket
        # sees strictly more traffic than the baseline run offered.
        assert (
            with_arq.policer_stats.conformant_packets
            + with_arq.policer_stats.dropped_packets
            > baseline.policer_stats.conformant_packets
            + baseline.policer_stats.dropped_packets
        )


class TestDeadlineAwareness:
    def test_tight_playout_suppresses_all_repairs(self):
        # With a 0.2 s startup delay and a 0.3 s feedback RTT every
        # NACK arrives after the frame's playout time has passed, so
        # the server sends nothing: suppression, not futile traffic.
        result = run_experiment(
            dataclasses.replace(
                QBONE_SPEC, arq=True, feedback_rtt_s=0.3, startup_delay_s=0.2
            )
        )
        recovery = result.extras["recovery"]
        assert recovery["nacks_sent"] > 0
        assert recovery["repairs_sent"] == 0
        assert recovery["repairs_suppressed"] > 0


class TestDeterminism:
    def test_serial_and_pool_bitwise_equal_with_recovery(self):
        """Acceptance: ARQ+FEC+lossy feedback stays replayable."""
        specs = [
            dataclasses.replace(
                QBONE_SPEC,
                arq=True,
                fec_group=10,
                feedback_loss=0.2,
                feedback_rtt_s=0.15,
            ),
            dataclasses.replace(
                QBONE_SPEC,
                testbed="local",
                token_rate_bps=mbps(1.2),
                bucket_depth_bytes=3000.0,
                arq=True,
                fec_group=10,
                feedback_loss=0.2,
                adaptation=True,
            ),
        ]
        serial = Runner().run_batch(specs)
        pooled = Runner(jobs=2).run_batch(specs)
        assert serial == pooled
        assert any(s.repairs_sent > 0 for s in serial)

    def test_repeat_runs_identical(self):
        spec = dataclasses.replace(
            QBONE_SPEC, arq=True, fec_group=8, feedback_loss=0.1
        )
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.extras["recovery"] == second.extras["recovery"]
        assert first.quality_score == second.quality_score


class TestFlagsOffInert:
    """Recovery must be invisible until asked for."""

    @pytest.fixture(scope="class")
    def plain(self):
        return run_experiment(QBONE_SPEC)

    def test_no_recovery_extras(self, plain):
        assert "recovery" not in plain.extras

    def test_summary_counters_zero(self, plain):
        from repro.core.runner import ResultSummary

        summary = ResultSummary.from_result(plain)
        assert summary.nacks_sent == 0
        assert summary.repairs_sent == 0
        assert summary.repairs_arrived_late == 0
        assert summary.fec_repaired == 0
        assert summary.feedback_lost == 0

    def test_export_dicts_lack_recovery_keys(self, plain):
        spec_dict = spec_to_dict(QBONE_SPEC)
        for key in ("arq", "fec_group", "feedback_loss", "feedback_rtt_s",
                    "client_buffer_frames"):
            assert key not in spec_dict
        assert "recovery" not in result_to_dict(plain)

    def test_export_dicts_carry_recovery_when_enabled(self):
        spec = dataclasses.replace(QBONE_SPEC, arq=True, fec_group=10)
        result = run_experiment(spec)
        spec_dict = spec_to_dict(spec)
        assert spec_dict["arq"] is True
        assert spec_dict["fec_group"] == 10
        assert "recovery" in result_to_dict(result)

    def test_recovery_rejects_tcp_transport(self):
        with pytest.raises(ValueError, match="UDP"):
            run_experiment(
                dataclasses.replace(
                    QBONE_SPEC,
                    server="wmt",
                    transport="tcp",
                    token_rate_bps=mbps(1.0),
                    arq=True,
                )
            )
