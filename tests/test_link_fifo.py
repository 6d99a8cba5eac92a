"""Differential test: the closure-free link against the closure link.

:class:`~repro.sim.link.Link` keeps the packet being serialized as link
state and its propagating packets in a per-link FIFO, and schedules
argument-free callbacks. That is exact because every packet on a link
gets the same propagation delay: delivery times are monotone, and the
engine fires equal times in schedule order, so the i-th delivery event
always belongs to the i-th transmitted packet. This test pits it
against the previous implementation (one closure per transmission and
per propagation hop) on random arrival patterns with same-time ties,
two links in series, priority queues, and a sink swapped mid-run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffserv.dscp import DSCP
from repro.diffserv.scheduler import PriorityScheduler
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.units import mbps, transmission_time


class ClosureLink(Link):
    """Reference: the link as it was, closures and all."""

    def _start_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = transmission_time(packet.size, self.rate_bps)
        self.engine.schedule(tx_time, lambda p=packet: self._finish_closure(p))

    def _finish_closure(self, packet: Packet) -> None:
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size
        if self.propagation_delay > 0:
            sink = self._sink
            self.engine.schedule(
                self.propagation_delay, lambda p=packet, s=sink: s.receive(p)
            )
        else:
            self._sink.receive(packet)
        self._start_next()


class Recorder:
    def __init__(self, engine, name, log):
        self.engine, self.name, self.log = engine, name, log

    def receive(self, packet):
        self.log.append((self.name, self.engine.now, packet.packet_id))


_arrival = st.tuples(
    st.integers(0, 40),  # arrival slot: few values, many ties
    st.sampled_from((40, 576, 1000, 1500)),
    st.booleans(),  # EF-marked?
)


def _run(link_cls, arrivals, rates, delays, swap_slot):
    engine = Engine()
    log = []
    first, second = Recorder(engine, "a", log), Recorder(engine, "b", log)
    tail = link_cls(
        engine,
        rate_bps=rates[1],
        sink=first,
        queue=PriorityScheduler(),
        propagation_delay=delays[1],
    )
    head = link_cls(engine, rate_bps=rates[0], sink=tail, propagation_delay=delays[0])
    for slot, size, ef in arrivals:
        packet = Packet(
            packet_id=engine.next_packet_id(),
            flow_id="f",
            size=size,
            dscp=int(DSCP.EF) if ef else None,
        )
        engine.schedule_at(slot * 4e-4, lambda p=packet: head.receive(p))
    if swap_slot is not None:
        engine.schedule_at(swap_slot * 4e-4, lambda: tail.connect(second))
    engine.run()
    seq = int(repr(engine._seq)[len("count(") : -1])
    counters = [(link.transmitted_packets, link.transmitted_bytes) for link in (head, tail)]
    return log, seq, engine.now, counters


@settings(max_examples=120, deadline=None)
@given(
    arrivals=st.lists(_arrival, max_size=60),
    rates=st.tuples(
        st.sampled_from((mbps(2.0), mbps(10.0))),
        st.sampled_from((mbps(1.5), mbps(2.0), mbps(155.0))),
    ),
    delays=st.tuples(
        st.sampled_from((0.0, 0.001)), st.sampled_from((0.0, 0.001, 0.008))
    ),
    swap_slot=st.none() | st.integers(0, 45),
)
def test_fifo_link_matches_closure_link(arrivals, rates, delays, swap_slot):
    assert _run(Link, arrivals, rates, delays, swap_slot) == _run(
        ClosureLink, arrivals, rates, delays, swap_slot
    )
