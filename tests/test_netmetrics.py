"""Tests for the network-metrics analyzer."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.netmetrics import delay_stats, loss_run_stats, summarize_path
from repro.diffserv.policer import PolicerStats
from repro.sim.fastpath import FastPathSession
from repro.sim.tracer import TraceRecord
from repro.units import mbps


def record(time, pid, size=1500):
    return TraceRecord(time, pid, "v", size, None, None)


class TestDelayStats:
    def test_constant_delay(self):
        sent = [record(i * 0.01, i) for i in range(10)]
        received = [record(i * 0.01 + 0.05, i) for i in range(10)]
        stats = delay_stats(sent, received)
        assert stats.count == 10
        assert stats.mean == pytest.approx(0.05)
        assert stats.p99 == pytest.approx(0.05)
        assert stats.rfc3550_jitter == pytest.approx(0.0)

    def test_jitter_grows_with_variation(self):
        sent = [record(i * 0.01, i) for i in range(100)]
        smooth = [record(i * 0.01 + 0.05, i) for i in range(100)]
        jittery = [
            record(i * 0.01 + 0.05 + (0.01 if i % 2 else 0.0), i)
            for i in range(100)
        ]
        assert (
            delay_stats(sent, jittery).rfc3550_jitter
            > delay_stats(sent, smooth).rfc3550_jitter
        )

    def test_lost_packets_ignored(self):
        sent = [record(i * 0.01, i) for i in range(10)]
        received = [record(i * 0.01 + 0.05, i) for i in range(0, 10, 2)]
        stats = delay_stats(sent, received)
        assert stats.count == 5

    def test_percentiles_ordered(self):
        sent = [record(i * 0.01, i) for i in range(50)]
        received = [record(i * 0.01 + 0.01 * (i % 7), i) for i in range(50)]
        stats = delay_stats(sent, received)
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max

    def test_empty_received(self):
        sent = [record(0.0, 0)]
        stats = delay_stats(sent, [])
        assert stats.count == 0
        assert stats.mean == 0.0


# Transit times drawn from a few values as well as freely, so that
# ties and constant arrays are common.
TRANSITS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.0125, 0.05, 0.05000000000000001, 1.5]),
        st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False),
    ),
    min_size=1,
    max_size=60,
)


class TestOnePercentilePass:
    """Both summaries take their delay percentiles from one
    ``np.percentile`` pass; each must equal a call per percentile bit
    for bit, on both the record-based and the fast-path summary."""

    @staticmethod
    def _separate(transits, q):
        return float(np.percentile(np.asarray(transits), q)).hex()

    @given(transits=TRANSITS)
    @example(transits=[0.05])
    @example(transits=[0.05, 0.0125])
    @example(transits=[0.0125, 1.5, 0.05])
    @example(transits=[0.05] * 3)
    @example(transits=[0.05] * 40)
    @settings(max_examples=200, deadline=None)
    def test_equals_one_call_per_percentile(self, transits):
        n = len(transits)
        stats = delay_stats(
            [record(0.0, i) for i in range(n)],
            [record(t, i) for i, t in enumerate(transits)],
        )
        for q, got in ((50, stats.p50), (95, stats.p95), (99, stats.p99)):
            assert got.hex() == self._separate(transits, q)

        session = FastPathSession(
            send_times=np.zeros(n),
            recv_ids=np.arange(n, dtype=np.int64),
            recv_times=np.asarray(transits, dtype=np.float64),
            policer_stats=PolicerStats(),
            server_packets=n,
            received_packets=n,
            received_bytes=np.zeros(0, dtype=np.int64),
            completion=np.zeros(0),
            first_arrival=transits[0],
        )
        summary = session.network_summary()
        for q in (95, 99):
            got = summary[f"delay_p{q}_s"]
            assert got.hex() == self._separate(transits, q)


class TestLossRunStats:
    def test_no_loss(self):
        sent = [record(i * 0.01, i) for i in range(10)]
        stats = loss_run_stats(sent, sent)
        assert stats.loss_fraction == 0.0
        assert stats.loss_runs == 0
        assert stats.mean_run_length == 0.0

    def test_single_run(self):
        sent = [record(i * 0.01, i) for i in range(10)]
        received = [r for r in sent if r.packet_id not in (3, 4, 5)]
        stats = loss_run_stats(sent, received)
        assert stats.loss_fraction == pytest.approx(0.3)
        assert stats.loss_runs == 1
        assert stats.mean_run_length == 3.0
        assert stats.max_run_length == 3

    def test_scattered_runs(self):
        sent = [record(i * 0.01, i) for i in range(10)]
        received = [r for r in sent if r.packet_id not in (1, 5, 6, 9)]
        stats = loss_run_stats(sent, received)
        assert stats.loss_runs == 3
        assert stats.max_run_length == 2

    def test_trailing_run_counted(self):
        sent = [record(i * 0.01, i) for i in range(5)]
        received = sent[:3]
        stats = loss_run_stats(sent, received)
        assert stats.loss_runs == 1
        assert stats.max_run_length == 2


class TestExperimentIntegration:
    def test_experiment_reports_network_metrics(self):
        result = run_experiment(
            ExperimentSpec(
                clip="test-300",
                codec="mpeg1",
                encoding_rate_bps=mbps(1.7),
                token_rate_bps=mbps(1.85),
                bucket_depth_bytes=3000,
                seed=2,
            )
        )
        network = result.extras["network"]
        assert network["loss_fraction"] == pytest.approx(
            result.packet_drop_fraction, abs=0.01
        )
        assert network["delay_mean_s"] > 0.0
        # Policer losses are clustered, not sprayed.
        if network["loss_runs"] > 0:
            assert network["loss_mean_run"] >= 1.0

    def test_summarize_path_keys(self):
        sent = [record(i * 0.01, i) for i in range(5)]
        summary = summarize_path(sent, sent)
        assert {
            "delay_mean_s",
            "jitter_rfc3550_s",
            "loss_fraction",
            "loss_max_run",
        } <= set(summary)
