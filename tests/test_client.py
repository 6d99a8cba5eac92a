"""Tests for reassembly, playout capture, and the renderer emulation."""

import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.client.playout import ClientRecord, PlayoutClient
from repro.client.reassembly import DatagramReassembler
from repro.core import experiment
from repro.core.experiment import ExperimentSpec
from repro.client.renderer import RendererEmulation
from repro.diffserv.policer import DROP_REASON_TOKENS, PolicerDrop
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.units import UDP_IP_HEADER, mbps
from repro.video.gop import decodable_mask


def fragment(engine, datagram_id, index, count, size=1500, frame_id=0):
    return Packet(
        packet_id=engine.next_packet_id(),
        flow_id="video",
        size=size,
        frame_id=frame_id,
        datagram_id=datagram_id,
        fragment_index=index,
        fragment_count=count,
        created_at=engine.now,
    )


class TestReassembly:
    def test_unfragmented_passes_through(self, engine):
        host = Host("h")
        reassembler = DatagramReassembler(engine, sink=host)
        reassembler.receive(
            Packet(packet_id=0, flow_id="v", size=500, datagram_id=1)
        )
        assert host.received_packets == 1
        assert reassembler.completed_datagrams == 1

    def test_datagram_completes_on_last_fragment(self, engine):
        host = Host("h")
        reassembler = DatagramReassembler(engine, sink=host)
        reassembler.receive(fragment(engine, 7, 0, 3))
        reassembler.receive(fragment(engine, 7, 1, 3))
        assert host.received_packets == 0
        reassembler.receive(fragment(engine, 7, 2, 3))
        assert host.received_packets == 1

    def test_completed_annotation_carries_total(self, engine):
        seen = []

        class Sink:
            def receive(self, p):
                seen.append(p)

        reassembler = DatagramReassembler(engine, sink=Sink())
        reassembler.receive(fragment(engine, 7, 0, 2, size=1500))
        reassembler.receive(fragment(engine, 7, 1, 2, size=800))
        assert seen[0].annotations["datagram_bytes"] == 2300

    def test_missing_fragment_never_delivers(self, engine):
        host = Host("h")
        reassembler = DatagramReassembler(engine, sink=host)
        reassembler.receive(fragment(engine, 7, 0, 3))
        reassembler.receive(fragment(engine, 7, 2, 3))
        assert host.received_packets == 0
        assert reassembler.pending_count == 1

    def test_out_of_order_fragments_ok(self, engine):
        host = Host("h")
        reassembler = DatagramReassembler(engine, sink=host)
        reassembler.receive(fragment(engine, 7, 2, 3))
        reassembler.receive(fragment(engine, 7, 0, 3))
        reassembler.receive(fragment(engine, 7, 1, 3))
        assert host.received_packets == 1

    def test_stale_datagrams_expire(self, engine):
        host = Host("h")
        reassembler = DatagramReassembler(engine, sink=host, timeout_s=1.0)
        reassembler.receive(fragment(engine, 7, 0, 2))
        engine.schedule(5.0, lambda: None)
        engine.run()
        reassembler.receive(fragment(engine, 8, 0, 2))  # triggers expiry scan
        assert reassembler.expired_datagrams == 1

    def test_fragment_without_id_rejected(self, engine):
        reassembler = DatagramReassembler(engine, sink=Host("h"))
        with pytest.raises(ValueError):
            reassembler.receive(
                Packet(packet_id=0, flow_id="v", size=100, fragment_count=2)
            )


class TestPlayoutClient:
    def test_frame_completes_when_all_bytes_arrive(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg)
        frame0_bytes = small_clip_mpeg.frames[0].size_bytes
        sent = 0
        while sent < frame0_bytes:
            payload = min(1472, frame0_bytes - sent)
            client.receive(
                Packet(
                    packet_id=engine.next_packet_id(),
                    flow_id="v",
                    size=payload + UDP_IP_HEADER,
                    frame_id=0,
                )
            )
            sent += payload
        record = client.finalize()
        assert not np.isnan(record.arrival[0])

    def test_partial_frame_never_completes(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg)
        client.receive(
            Packet(packet_id=0, flow_id="v", size=100 + UDP_IP_HEADER, frame_id=0)
        )
        record = client.finalize()
        assert np.isnan(record.arrival[0])

    def test_gop_propagation_in_finalize(self, engine, small_clip_mpeg):
        """Deliver every frame except the first I: entire GOP is lost."""
        client = PlayoutClient(engine, small_clip_mpeg)
        for frame in small_clip_mpeg.frames[1:]:
            client.on_tcp_deliver(frame.frame_id, frame.size_bytes, 0.1)
        record = client.finalize()
        decodable = record.decodable.tolist()
        assert not any(decodable[:15])
        assert all(decodable[15:])

    def test_independent_mode_ignores_gop(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg, decode_mode="independent")
        for frame in small_clip_mpeg.frames[1:]:
            client.on_tcp_deliver(frame.frame_id, frame.size_bytes, 0.1)
        record = client.finalize()
        assert not record.decodable[0]
        assert record.decodable[1:].all()

    def test_lost_frame_fraction(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg, decode_mode="independent")
        # Deliver only the first half of the clip.
        half = small_clip_mpeg.n_frames // 2
        for frame in small_clip_mpeg.frames[:half]:
            client.on_tcp_deliver(frame.frame_id, frame.size_bytes, 0.1)
        record = client.finalize()
        assert record.lost_frame_fraction == pytest.approx(0.5, abs=0.01)

    def test_presentation_schedule(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg, startup_delay=2.0)
        client.on_tcp_deliver(0, small_clip_mpeg.frames[0].size_bytes, 5.0)
        record = client.finalize()
        assert record.presentation[0] == pytest.approx(7.0)
        assert record.presentation[30] == pytest.approx(
            7.0 + 30 / small_clip_mpeg.fps
        )

    def test_frame_total_annotation_overrides_expected(self, engine, small_clip_mpeg):
        client = PlayoutClient(engine, small_clip_mpeg)
        packet = Packet(
            packet_id=0, flow_id="v", size=500 + UDP_IP_HEADER, frame_id=0
        )
        packet.annotations["frame_total"] = 500
        client.receive(packet)
        record = client.finalize()
        assert not np.isnan(record.arrival[0])

    def test_feedback_reports_loss_fraction(self, engine, small_clip_mpeg):
        reports = []
        client = PlayoutClient(engine, small_clip_mpeg, loss_report_interval=1.0)
        client.set_feedback(lambda loss, delay: reports.append(loss))
        packet = Packet(
            packet_id=0, flow_id="v", size=1500, frame_id=0, created_at=0.0
        )
        client.receive(packet)
        client.note_policer_drop(
            PolicerDrop(
                packet=packet,
                time=0.0,
                reason=DROP_REASON_TOKENS,
                dscp=None,
                token_deficit=1500.0,
                bucket_fill=0.0,
            )
        )
        engine.run(until=1.5)
        assert reports and reports[0] == pytest.approx(0.5)

    def test_no_interval_counts_without_feedback(self, monkeypatch):
        # Only a feedback consumer reads the interval counts. With cross
        # traffic the client host takes thousands of best-effort packets
        # besides the policed video; none may pile up in the client.
        clients = []

        class Recorded(PlayoutClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clients.append(self)

        monkeypatch.setattr(experiment, "PlayoutClient", Recorded)
        spec = ExperimentSpec(
            clip="test-150",
            codec="mpeg1",
            encoding_rate_bps=mbps(1.7),
            token_rate_bps=mbps(1.6),
            bucket_depth_bytes=3000.0,
            cross_traffic_bps=mbps(1.0),
            seed=3,
        )
        result = experiment.run_experiment(spec)
        [client] = clients
        assert result.policer_stats.dropped_packets > 0
        assert client.received_packets > result.extras["server_packets"]
        assert client._interval_delays == []
        assert client._interval_expected_packets == 0
        assert client._interval_lost_packets == 0

    def test_invalid_decode_mode(self, engine, small_clip_mpeg):
        with pytest.raises(ValueError):
            PlayoutClient(engine, small_clip_mpeg, decode_mode="magic")


def make_record(arrivals, fps=30.0, startup=1.0, decodable=None):
    """Build a ClientRecord from a list of arrival times (None = lost)."""
    n = len(arrivals)
    decodable = decodable if decodable is not None else [a is not None for a in arrivals]
    t0 = min(a for a in arrivals if a is not None)
    return ClientRecord(
        n_frames=n,
        fps=fps,
        arrival=np.array([np.nan if a is None else a for a in arrivals]),
        presentation=(t0 + startup) + np.arange(n) / fps,
        decodable=np.array(decodable, dtype=bool),
        startup_delay=startup,
        first_arrival_time=t0,
    )


class TestRenderer:
    def test_perfect_stream_displays_every_frame(self):
        arrivals = [i / 30.0 for i in range(30)]
        trace = RendererEmulation().replay(make_record(arrivals))
        assert (trace.display == np.arange(30)).all()
        assert trace.frozen_fraction == 0.0
        assert trace.rebuffer_events == 0

    def test_lost_frame_repeats_previous(self):
        arrivals = [i / 30.0 for i in range(10)]
        arrivals[5] = None
        trace = RendererEmulation().replay(make_record(arrivals))
        assert trace.display[5] == 4
        assert trace.display[6] == 6
        assert len(trace.display) == 10

    def test_burst_loss_freezes(self):
        arrivals = [i / 30.0 for i in range(20)]
        for i in range(5, 10):
            arrivals[i] = None
        trace = RendererEmulation().replay(make_record(arrivals))
        assert (trace.display[5:10] == 4).all()
        assert trace.displayed_source_fraction == pytest.approx(15 / 20)

    def test_late_frame_stalls_and_shifts(self):
        fps = 30.0
        arrivals = [i / fps for i in range(20)]
        # Frame 10 arrives 0.5 s late relative to its schedule.
        arrivals[10] = 1.0 + 10 / fps + 0.5
        trace = RendererEmulation().replay(make_record(arrivals, startup=1.0))
        assert trace.rebuffer_events == 1
        assert trace.total_stall_s >= 0.5
        assert len(trace.display) == 20 + int(np.ceil(0.5 * fps))
        # After the stall the remaining frames play normally (shifted).
        assert trace.display[-1] == 19

    def test_undecodable_frame_treated_as_lost(self):
        arrivals = [i / 30.0 for i in range(10)]
        decodable = [True] * 10
        decodable[3] = False
        trace = RendererEmulation().replay(
            make_record(arrivals, decodable=decodable)
        )
        assert trace.display[3] == 2

    def test_giant_stall_abandons_session(self):
        fps = 30.0
        arrivals = [i / fps for i in range(20)]
        arrivals[10] = 1000.0  # hopeless
        trace = RendererEmulation(max_stall_s=10.0).replay(make_record(arrivals))
        assert (trace.display[10:] == 9).all()

    def test_frame_zero_lost_shows_dark_screen(self):
        arrivals = [None] + [i / 30.0 for i in range(1, 5)]
        trace = RendererEmulation().replay(make_record(arrivals))
        assert trace.display[0] == -1

    def test_frozen_fraction_counts_repeats(self):
        arrivals = [i / 30.0 for i in range(10)]
        arrivals[4] = None
        arrivals[5] = None
        trace = RendererEmulation().replay(make_record(arrivals))
        assert trace.frozen_fraction == pytest.approx(2 / 9)


# ----------------------------------------------------------------------
# Columnar record vs the per-frame record it replaced
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleFrameRecord:
    """One row of the per-frame record the columnar one replaced."""

    frame_id: int
    arrival_time: Optional[float]  # None = never arrived
    presentation_time: float
    decodable: bool


def oracle_records(completion, t0, startup, fps, decodable):
    """The per-frame ``finalize`` bookkeeping, row by row."""
    presentation = ((t0 + startup) + np.arange(len(completion)) / fps).tolist()
    return [
        OracleFrameRecord(
            frame_id=f,
            arrival_time=None if c != c else c,
            presentation_time=presentation[f],
            decodable=d,
        )
        for f, (c, d) in enumerate(zip(completion.tolist(), decodable.tolist()))
    ]


def oracle_views(records):
    """``(lost_frame_fraction, mean_lateness_s, arrival_array)`` per row."""
    n = len(records)
    lost = sum(1 for r in records if r.arrival_time is None or not r.decodable)
    late = [
        max(0.0, r.arrival_time - r.presentation_time)
        for r in records
        if r.arrival_time is not None
    ]
    arrivals = np.full(n, np.nan)
    for r in records:
        if r.arrival_time is not None and r.decodable:
            arrivals[r.frame_id] = r.arrival_time
    return (
        lost / n if n else 0.0,
        sum(late) / len(late) if late else 0.0,
        arrivals,
    )


def oracle_replay(records, fps, t0, startup, max_stall_s, resume_buffer_s):
    """The renderer's Figure 2 walk over per-frame rows."""
    slot = 1.0 / fps
    n = len(records)
    playback_start = t0 + startup
    shift = total_stall = 0.0
    rebuffers = 0
    display = []
    last_shown = -1
    for rec in records:
        f = rec.frame_id
        scheduled = playback_start + shift + f / fps
        if rec.arrival_time is None or not rec.decodable:
            display.append(last_shown)
            continue
        if rec.arrival_time <= scheduled:
            display.append(f)
            last_shown = f
            continue
        stall = rec.arrival_time - scheduled + resume_buffer_s
        if stall > max_stall_s:
            display.extend([last_shown] * (n - f))
            total_stall += stall
            rebuffers += 1
            break
        stall_slots = math.ceil(stall / slot)
        display.extend([last_shown] * stall_slots)
        shift += stall_slots * slot
        total_stall += stall_slots * slot
        rebuffers += 1
        display.append(f)
        last_shown = f
    return np.array(display, dtype=np.int64), total_stall, rebuffers


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(
    completion=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
        min_size=1,
        max_size=75,
    ),
    lead=st.floats(min_value=0.0, max_value=1.0),
    startup=st.floats(min_value=0.0, max_value=5.0),
    fps=st.sampled_from([25.0, 29.97, 30.0]),
    decode_mode=st.sampled_from(["gop", "independent"]),
    max_stall_s=st.sampled_from([0.5, 2.0, 10.0]),
    resume_buffer_s=st.sampled_from([0.0, 0.1, 1.5]),
)
@example(  # a late frame past max_stall_s ends the session
    completion=[0.0, 0.01, 30.0, 30.1],
    lead=0.0, startup=1.0, fps=30.0, decode_mode="independent",
    max_stall_s=10.0, resume_buffer_s=0.0,
)
@example(  # undecodable arrivals behind a lost anchor, stall with resume buffer
    completion=[None] + [0.5 + 0.04 * f for f in range(1, 20)] + [3.0, 3.1],
    lead=0.2, startup=0.5, fps=25.0, decode_mode="gop",
    max_stall_s=2.0, resume_buffer_s=0.1,
)
@settings(max_examples=150, deadline=None)
def test_columnar_record_matches_per_frame_oracle(
    completion, lead, startup, fps, decode_mode, max_stall_s, resume_buffer_s
):
    """Columnar finalize and replay are bit-identical to the per-frame rows."""
    n = len(completion)
    completion = np.array([np.nan if c is None else c for c in completion])
    arrived = completion[~np.isnan(completion)]
    first = float(arrived.min()) - lead if len(arrived) else None
    clip = SimpleNamespace(
        n_frames=n, fps=fps, frame_sizes=np.ones(n, dtype=np.int64)
    )
    client = PlayoutClient(None, clip, startup_delay=startup, decode_mode=decode_mode)
    client._completion = completion.copy()
    client._first_arrival = first
    record = client.finalize()

    t0 = first if first is not None else 0.0
    complete = ~np.isnan(completion)
    decodable = decodable_mask(complete) if decode_mode == "gop" else complete
    rows = oracle_records(completion, t0, startup, fps, decodable)
    lost, lateness, arrivals = oracle_views(rows)

    assert float_bits(record.lost_frame_fraction) == float_bits(lost)
    assert float_bits(record.mean_lateness_s) == float_bits(lateness)
    assert record.arrival_array().tobytes() == arrivals.tobytes()
    assert record.presentation_array().tobytes() == np.array(
        [r.presentation_time for r in rows]
    ).tobytes()

    trace = RendererEmulation(
        max_stall_s=max_stall_s, resume_buffer_s=resume_buffer_s
    ).replay(record)
    display, total_stall, rebuffers = oracle_replay(
        rows, fps, t0, startup, max_stall_s, resume_buffer_s
    )
    assert trace.display.dtype == display.dtype
    assert np.array_equal(trace.display, display)
    assert float_bits(trace.total_stall_s) == float_bits(total_stall)
    assert trace.rebuffer_events == rebuffers
