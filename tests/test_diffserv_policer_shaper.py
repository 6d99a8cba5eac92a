"""Tests for policers and shapers."""

import pytest

from repro.diffserv.dscp import DSCP
from repro.diffserv.policer import (
    DROP_REASON_TOKENS,
    Policer,
    PolicerAction,
    PolicerDrop,
)
from repro.diffserv.shaper import Shaper
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.tracer import FlowTracer
from repro.units import mbps


def make_packet(engine, size=1500, frame_id=None):
    return Packet(
        packet_id=engine.next_packet_id(),
        flow_id="video",
        size=size,
        frame_id=frame_id,
        created_at=engine.now,
    )


class TestPolicerDrop:
    def test_conformant_marked_ef(self, engine):
        policer = Policer(engine, mbps(1), 3000)
        out = policer(make_packet(engine))
        assert out is not None
        assert out.dscp == int(DSCP.EF)

    def test_nonconformant_dropped(self, engine):
        policer = Policer(engine, mbps(1), 3000)
        results = [policer(make_packet(engine)) for _ in range(3)]
        assert results[0] is not None
        assert results[1] is not None
        assert results[2] is None

    def test_stats_track_both_sides(self, engine):
        policer = Policer(engine, mbps(1), 3000)
        for _ in range(5):
            policer(make_packet(engine))
        assert policer.stats.conformant_packets == 2
        assert policer.stats.dropped_packets == 3
        assert policer.stats.total_packets == 5
        assert policer.stats.drop_fraction == pytest.approx(0.6)

    def test_dropped_frame_ids_recorded(self, engine):
        policer = Policer(engine, mbps(1), 3000)
        for fid in (1, 2, 3):
            policer(make_packet(engine, frame_id=fid))
        assert policer.stats.dropped_frame_ids == {3}

    def test_on_drop_callback(self, engine):
        dropped = []
        policer = Policer(engine, mbps(1), 3000)
        policer.add_drop_listener(dropped.append)
        for _ in range(3):
            policer(make_packet(engine))
        assert len(dropped) == 1
        record = dropped[0]
        assert isinstance(record, PolicerDrop)
        assert record.packet.size == 1500
        assert record.reason == DROP_REASON_TOKENS

    def test_set_drop_listener_after_construction(self, engine):
        dropped = []
        policer = Policer(engine, mbps(1), 3000)
        policer.add_drop_listener(dropped.append)
        for _ in range(3):
            policer(make_packet(engine))
        assert len(dropped) == 1
        policer.clear_drop_listeners()
        policer(make_packet(engine))
        assert len(dropped) == 1  # cleared listener no longer fires

    def test_refill_restores_conformance(self, engine):
        policer = Policer(engine, mbps(12), 3000)  # 1.5 kB per ms
        policer(make_packet(engine, size=3000))
        assert policer(make_packet(engine)) is None
        engine.schedule(0.001, lambda: None)
        engine.run()
        assert policer(make_packet(engine)) is not None

    def test_empty_stats_drop_fraction_zero(self, engine):
        assert Policer(engine, mbps(1), 3000).stats.drop_fraction == 0.0


class TestPolicerRemark:
    def test_remark_be(self, engine):
        policer = Policer(engine, mbps(1), 3000, action=PolicerAction.REMARK_BE)
        policer(make_packet(engine))
        policer(make_packet(engine))
        out = policer(make_packet(engine))
        assert out is not None
        assert out.dscp == int(DSCP.BE)
        assert policer.stats.remarked_packets == 1

    def test_demote_colors_af(self, engine):
        policer = Policer(
            engine,
            mbps(1),
            3000,
            action=PolicerAction.DEMOTE,
            demote_dscp=DSCP.AF13,
        )
        policer(make_packet(engine))
        policer(make_packet(engine))
        out = policer(make_packet(engine))
        assert out.dscp == int(DSCP.AF13)


class TestShaper:
    def test_conformant_passes_immediately(self, engine):
        host = Host("h")
        shaper = Shaper(engine, mbps(1), 3000, sink=host)
        shaper.receive(make_packet(engine))
        assert host.received_packets == 1

    def test_nonconformant_delayed_not_dropped(self, engine):
        host = Host("h")
        tracer = FlowTracer(engine, sink=host)
        shaper = Shaper(engine, mbps(12), 3000, sink=tracer)  # 1.5 kB/ms
        for _ in range(4):
            shaper.receive(make_packet(engine))
        assert host.received_packets == 2  # two pass on the full bucket
        engine.run()
        assert host.received_packets == 4
        # Releases spaced at the token arrival rate (1 ms per packet).
        times = [r.time for r in tracer.records]
        assert times[2] == pytest.approx(0.001, abs=1e-4)
        assert times[3] == pytest.approx(0.002, abs=1e-4)

    def test_order_preserved(self, engine):
        tracer = FlowTracer(engine, sink=Host("h"))
        shaper = Shaper(engine, mbps(1), 3000, sink=tracer)
        pkts = [make_packet(engine) for _ in range(5)]
        for p in pkts:
            shaper.receive(p)
        engine.run()
        assert [r.packet_id for r in tracer.records] == [p.packet_id for p in pkts]

    def test_output_conforms_to_downstream_policer(self, engine):
        """A policer with the same profile never drops shaped traffic."""
        policer = Policer(engine, mbps(2), 3000)

        class PolicedHost:
            drops = 0
            passes = 0

            def receive(self, packet):
                if policer(packet) is None:
                    self.drops += 1
                else:
                    self.passes += 1

        sink = PolicedHost()
        shaper = Shaper(engine, mbps(2), 3000, sink=sink)
        for _ in range(50):
            shaper.receive(make_packet(engine))
        engine.run()
        assert sink.drops == 0
        assert sink.passes == 50

    def test_queue_overflow_drops(self, engine):
        shaper = Shaper(engine, mbps(1), 3000, sink=Host("h"), max_queue_packets=3)
        for _ in range(10):
            shaper.receive(make_packet(engine))
        assert shaper.queue.dropped_packets > 0

    def test_oversized_packet_discarded_not_deadlocked(self, engine):
        host = Host("h")
        shaper = Shaper(engine, mbps(1), 3000, sink=host)
        shaper.receive(make_packet(engine, size=3000))  # drain bucket
        shaper.receive(make_packet(engine, size=5000))  # can never conform
        shaper.receive(make_packet(engine, size=1000))
        engine.run()
        assert host.received_packets == 2

    def test_unconnected_raises(self, engine):
        shaper = Shaper(engine, mbps(1), 3000)
        with pytest.raises(RuntimeError):
            shaper.receive(make_packet(engine))

    def test_backlog_property(self, engine):
        shaper = Shaper(engine, mbps(1), 3000, sink=Host("h"))
        for _ in range(4):
            shaper.receive(make_packet(engine))
        assert shaper.backlog == 2
        engine.run()
        assert shaper.backlog == 0
