"""Edge-case tests across module boundaries."""

import numpy as np
import pytest

from repro.client.playout import PlayoutClient
from repro.client.renderer import DisplayTrace, RendererEmulation
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.report import render_sweep
from repro.core.sweep import token_rate_sweep
from repro.sim.packet import Packet
from repro.units import UDP_IP_HEADER, mbps
from repro.video.clips import clip_features
from repro.vqm.tool import VqmTool


class TestVqmDarkScreen:
    """A stream whose first frames never arrive shows a dark screen;
    the quality meter must charge the missing picture."""

    @pytest.fixture(scope="class")
    def features(self):
        return clip_features("test-600", "mpeg1", mbps(1.7))

    def test_dark_open_scores_worse_than_clean(self, features):
        display = np.arange(600)
        dark_open = display.copy()
        dark_open[:120] = -1  # four seconds of nothing
        tool = VqmTool()

        def trace(d):
            return DisplayTrace(
                display=d,
                fps=29.97,
                n_source_frames=600,
                total_stall_s=0.0,
                rebuffer_events=0,
            )

        clean = tool.assess(features, features, trace(display))
        dark = tool.assess(features, features, trace(dark_open))
        assert dark.clip_score > clean.clip_score

    def test_entirely_dark_is_worst(self, features):
        trace = DisplayTrace(
            display=np.full(600, -1, dtype=np.int64),
            fps=29.97,
            n_source_frames=600,
            total_stall_s=0.0,
            rebuffer_events=0,
        )
        result = VqmTool().assess(features, features, trace)
        assert result.clip_score >= 0.9
        assert result.failed_segments == len(result.segments)


class TestClientRecordViews:
    def test_arrival_array_marks_lost_as_nan(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg, decode_mode="independent")
        client.on_tcp_deliver(0, small_clip_mpeg.frames[0].size_bytes, 1.0)
        record = client.finalize()
        arr = record.arrival_array()
        assert arr[0] == 1.0
        assert np.isnan(arr[1:]).all()

    def test_presentation_array_monotone(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg)
        client.on_tcp_deliver(0, small_clip_mpeg.frames[0].size_bytes, 0.0)
        record = client.finalize()
        times = record.presentation_array()
        assert (np.diff(times) > 0).all()

    def test_duplicate_bytes_do_not_double_complete(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg)
        size = small_clip_mpeg.frames[0].size_bytes
        client.on_tcp_deliver(0, size, 1.0)
        client.on_tcp_deliver(0, size, 2.0)  # retransmitted duplicate
        record = client.finalize()
        assert record.arrival[0] == 1.0


class TestRendererDegenerate:
    def test_single_frame_clip(self):
        from repro.client.playout import ClientRecord

        record = ClientRecord(
            n_frames=1,
            fps=30.0,
            arrival=np.array([0.0]),
            presentation=np.array([1.0]),
            decodable=np.array([True]),
            startup_delay=1.0,
            first_arrival_time=0.0,
        )
        trace = RendererEmulation().replay(record)
        assert list(trace.display) == [0]
        assert trace.displayed_source_fraction == 1.0


class TestReportRendering:
    def test_render_sweep_af_testbed(self):
        spec = ExperimentSpec(
            clip="test-300",
            codec="mpeg1",
            encoding_rate_bps=mbps(1.7),
            testbed="af",
            seed=2,
        )
        sweep = token_rate_sweep(spec, [mbps(1.2)], (3000.0,))
        text = render_sweep(sweep, title="AF sweep")
        assert "testbed=af" in text


class TestPlayoutIgnoresForeignPackets:
    def test_packet_without_frame_id_counted_not_credited(
        self, engine, small_clip_mpeg
    ):
        client = PlayoutClient(engine, small_clip_mpeg)
        client.receive(
            Packet(packet_id=0, flow_id="v", size=500 + UDP_IP_HEADER)
        )
        assert client.received_packets == 1
        record = client.finalize()
        assert np.isnan(record.arrival).all()


class TestSpecValidationSurface:
    def test_adaptive_vc_runs_on_af_testbed(self):
        """Server/testbed combinations compose freely."""
        result = run_experiment(
            ExperimentSpec(
                clip="test-300",
                codec="mpeg1",
                server="adaptive-vc",
                testbed="af",
                token_rate_bps=mbps(1.7),
                bucket_depth_bytes=3000,
                seed=2,
            )
        )
        assert 0.0 <= result.quality_score <= 1.15

    def test_wmt_on_qbone_premarks_ef(self):
        result = run_experiment(
            ExperimentSpec(
                clip="test-300",
                codec="wmv",
                server="wmt",
                testbed="qbone",
                token_rate_bps=mbps(2.0),
                bucket_depth_bytes=4500,
                seed=2,
            )
        )
        assert result.policer_stats.total_packets > 0
