"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.diffserv.token_bucket import TokenBucket
from repro.sim.engine import Engine
from repro.sim.fastpath import (
    _fifo_departs,
    _priority_link,
    backbone,
    forwarded_run,
)
from repro.sim.queues import DropTailQueue, PriorityQueueSet
from repro.sim.packet import Packet
from repro.video.gop import GopStructure, decodable_frames
from repro.vqm.segments import SCORING_FRAMES, SEGMENT_OVERLAP, segment_plan
from repro.client.renderer import RendererEmulation
from repro.client.playout import ClientRecord
from repro.testbeds.qbone import QBoneTestbedConfig


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
@given(
    rate=st.floats(min_value=1e4, max_value=1e8),
    depth=st.floats(min_value=100, max_value=1e6),
    sizes=st.lists(st.integers(min_value=1, max_value=20000), max_size=50),
    gaps=st.lists(st.floats(min_value=0, max_value=1.0), max_size=50),
)
@settings(max_examples=80, deadline=None)
def test_token_level_always_within_bounds(rate, depth, sizes, gaps):
    """Token level stays in [0, depth] under any arrival pattern."""
    bucket = TokenBucket(rate, depth)
    now = 0.0
    for size, gap in zip(sizes, gaps):
        now += gap
        bucket.try_consume(size, now)
        level = bucket.tokens_at(now)
        assert 0.0 <= level <= depth + 1e-6


@given(
    rate=st.floats(min_value=1e5, max_value=1e7),
    depth=st.floats(min_value=1500, max_value=20000),
    sizes=st.lists(st.integers(min_value=1, max_value=1500), min_size=1, max_size=80),
    gaps=st.lists(st.floats(min_value=0, max_value=0.05), min_size=1, max_size=80),
)
@settings(max_examples=80, deadline=None)
def test_accepted_traffic_conforms_to_arrival_curve(rate, depth, sizes, gaps):
    """Accepted bytes over any prefix never exceed depth + rate * time —
    the defining property of a token-bucket policer."""
    bucket = TokenBucket(rate, depth)
    now = 0.0
    accepted = 0
    for size, gap in zip(sizes, gaps):
        now += gap
        if bucket.try_consume(size, now):
            accepted += size
        assert accepted <= depth + rate / 8 * now + 1e-6


@given(
    rate=st.floats(min_value=1e5, max_value=1e7),
    depth=st.floats(min_value=1500, max_value=20000),
    size=st.integers(min_value=1, max_value=1500),
    drain=st.integers(min_value=0, max_value=20000),
)
@settings(max_examples=80, deadline=None)
def test_time_until_conformant_is_exact(rate, depth, size, drain):
    """Waiting exactly the reported time makes the packet conformant."""
    bucket = TokenBucket(rate, depth)
    bucket.force_consume(drain, 0.0)
    wait = bucket.time_until_conformant(size, 0.0)
    if wait != float("inf"):
        assert bucket.conforms(size, wait + 1e-9)


# ----------------------------------------------------------------------
# queues
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9000), max_size=60),
    max_packets=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_droptail_conservation(sizes, max_packets):
    """enqueued = dequeued + still-queued + dropped, bytes conserved."""
    queue = DropTailQueue(max_packets=max_packets)
    for i, size in enumerate(sizes):
        queue.enqueue(Packet(packet_id=i, flow_id="f", size=size))
    drained = []
    while True:
        packet = queue.dequeue()
        if packet is None:
            break
        drained.append(packet)
    assert len(drained) + queue.dropped_packets == len(sizes)
    assert sum(p.size for p in drained) + queue.dropped_bytes == sum(sizes)


@given(
    marks=st.lists(st.booleans(), min_size=1, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_priority_set_serves_all_marked_first(marks):
    from repro.diffserv.dscp import DSCP

    queue = PriorityQueueSet()
    for i, marked in enumerate(marks):
        queue.enqueue(
            Packet(
                packet_id=i,
                flow_id="f",
                size=100,
                dscp=int(DSCP.EF) if marked else None,
            )
        )
    out = []
    while True:
        packet = queue.dequeue()
        if packet is None:
            break
        out.append(packet.dscp is not None)
    # All marked packets precede all unmarked ones.
    if True in out and False in out:
        assert out.index(False) > max(i for i, m in enumerate(out) if m)
    assert len(out) == len(marks)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(min_value=0, max_value=100), max_size=50))
@settings(max_examples=60, deadline=None)
def test_engine_fires_in_nondecreasing_time_order(delays):
    engine = Engine(seed=0)
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# GOP decodability
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=1, max_value=90),
    lost=st.sets(st.integers(min_value=0, max_value=89)),
    gop_n=st.sampled_from([6, 15, 30]),
    gop_m=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=80, deadline=None)
def test_decodable_is_subset_of_received(n, lost, gop_n, gop_m):
    gop = GopStructure(n=gop_n, m=gop_m)
    received = [f for f in range(n) if f not in lost]
    mask = decodable_frames(received, n, gop)
    for f in range(n):
        if mask[f]:
            assert f in received
    # Monotonicity: receiving strictly more never decodes less.
    mask_all = decodable_frames(range(n), n, gop)
    assert (mask_all >= mask).all()


@given(
    n=st.integers(min_value=2, max_value=90),
    anchor=st.integers(min_value=0, max_value=89),
)
@settings(max_examples=60, deadline=None)
def test_losing_one_frame_never_helps(n, anchor):
    anchor = anchor % n
    gop = GopStructure()
    full = decodable_frames(range(n), n, gop)
    damaged = decodable_frames([f for f in range(n) if f != anchor], n, gop)
    assert damaged.sum() <= full.sum()
    assert not damaged[anchor]


# ----------------------------------------------------------------------
# segmentation
# ----------------------------------------------------------------------
@given(n=st.integers(min_value=SCORING_FRAMES + SEGMENT_OVERLAP, max_value=20000))
@settings(max_examples=80, deadline=None)
def test_segment_plan_invariants(n):
    plan = segment_plan(n)
    assert plan, "at least one segment"
    for segment in plan:
        assert segment.start >= 0
        assert segment.end <= n
        # Every segment can host a scoring window.
        assert segment.length >= SEGMENT_OVERLAP + SCORING_FRAMES or len(plan) == 1
    starts = [s.start for s in plan]
    assert starts == sorted(starts)
    # Fixed stride.
    for a, b in zip(starts, starts[1:]):
        assert b - a == 200


# ----------------------------------------------------------------------
# renderer
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=120),
    lost=st.sets(st.integers(min_value=0, max_value=119)),
    late=st.dictionaries(
        st.integers(min_value=0, max_value=119),
        st.floats(min_value=0.0, max_value=3.0),
        max_size=5,
    ),
)
@settings(max_examples=80, deadline=None)
def test_renderer_invariants(n, lost, late):
    fps = 30.0
    arrival = np.array(
        [np.nan if f in lost else f / fps + late.get(f, 0.0) for f in range(n)]
    )
    arrived = ~np.isnan(arrival)
    if not arrived.any():
        return  # nothing ever arrives; replay needs a first arrival
    record = ClientRecord(
        n_frames=n,
        fps=fps,
        arrival=arrival,
        presentation=1.0 + np.arange(n) / fps,
        decodable=arrived,
        startup_delay=1.0,
        first_arrival_time=float(arrival[arrived].min()),
    )
    trace = RendererEmulation().replay(record)
    # 1. At least as many display slots as source frames.
    assert trace.n_slots >= n
    # 2. Display indices only reference lost-free frames or -1.
    shown = set(int(x) for x in trace.display)
    shown.discard(-1)
    assert shown.issubset({f for f in range(n) if f not in lost})
    # 3. Display sequence is non-decreasing (repeats allowed).
    displayed = trace.display
    assert (np.diff(displayed) >= 0).all() or displayed[0] == -1 and (
        np.diff(displayed[displayed >= 0]) >= 0
    ).all()
    # 4. Frozen fraction within [0, 1].
    assert 0.0 <= trace.frozen_fraction <= 1.0


# ----------------------------------------------------------------------
# backbone hops
# ----------------------------------------------------------------------
@st.composite
def one_class_stream(draw):
    """Time-ordered arrivals with their transmission times.

    Each arrival either lands exactly on the previous packet's finish
    instant, joins a busy queue, or follows an idle gap; transmission
    times include zero.
    """
    n = draw(st.integers(min_value=0, max_value=40))
    tx = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.01)),
        min_size=n, max_size=n,
    ))
    arrivals: list = []
    now, free = 0.0, float("-inf")
    for t in tx:
        kind = draw(st.sampled_from(["tie", "queued", "idle"]))
        if kind == "tie" and arrivals:
            now = free
        elif kind == "idle":
            now = max(now, free) + draw(st.floats(min_value=1e-6, max_value=0.05))
        else:
            now = now + draw(st.sampled_from([0.0, 1e-4]))
        arrivals.append(now)
        free = (now if now > free else free) + t
    return arrivals, tx


@given(stream=one_class_stream(), ef=st.booleans())
@settings(max_examples=400, deadline=None)
@example(stream=([], []), ef=True)
@example(stream=([0.0, 0.001, 0.001], [0.001, 0.0, 0.002]), ef=False)
def test_priority_link_serves_one_class_as_fifo(stream, ef):
    # The backbone serves a one-class stream with FIFO hops; this is
    # the identity that makes that exact.
    arrivals, tx = stream
    departs, order = _priority_link(arrivals, tx, [ef] * len(arrivals))
    assert order == list(range(len(arrivals)))
    assert departs == _fifo_departs(arrivals, tx)


@given(stream=one_class_stream(), ef=st.sampled_from([None, True, False]))
@settings(max_examples=400, deadline=None)
@example(stream=([], []), ef=None)
@example(stream=([0.0, 0.001, 0.001], [0.001, 0.0, 0.002]), ef=False)
def test_backbone_one_pass_equals_three_fifo_hops(stream, ef):
    # The one-pass loop carries all three hops' finish times; it must
    # give the floats of three _fifo_departs passes plus propagation.
    arrivals, tx = stream
    cfg = QBoneTestbedConfig()
    expected = arrivals
    for _hop in range(3):
        expected = [
            d + cfg.backbone_hop_delay_s for d in _fifo_departs(expected, tx)
        ]
    is_ef = None if ef is None else [ef] * len(arrivals)
    times, order = backbone(cfg, arrivals, tx, is_ef)
    assert times.tolist() == expected
    assert order.tolist() == list(range(len(arrivals)))


@st.composite
def forwarded_subsets(draw):
    """A one-class stream and which of its packets the policer keeps:
    none or all dropped, runs of drops, or any pattern, with the first
    or last packet dropped half the time each."""
    arrivals, tx = draw(one_class_stream())
    n = len(arrivals)
    kind = draw(st.sampled_from(["any", "runs", "none", "all"]))
    if kind == "none":
        keep = [True] * n
    elif kind == "all":
        keep = [False] * n
    elif kind == "runs":
        keep = []
        while len(keep) < n:
            keep += [draw(st.booleans())] * draw(st.integers(1, 6))
        keep = keep[:n]
    else:
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        keep[0] = False
    if n and draw(st.booleans()):
        keep[-1] = False
    return arrivals, tx, keep


@given(stream=forwarded_subsets())
@settings(max_examples=300, deadline=None, derandomize=True)
@example(stream=([], [], []))
@example(stream=([0.0, 0.001, 0.001], [0.001, 0.0, 0.002], [False, True, True]))
@example(  # hop 3 back in step at packet 3 while hops 1 and 2 are not
    stream=(
        [0.0105, 0.0106, 0.0107, 0.0127, 0.012799999999999999,
         0.012799999999999999, 0.012899999999999998],
        [0.0002, 0.001, 0.001, 0.0002, 0.0002, 0.001, 0.003],
        [True, True, False, True, True, True, True],
    )
)
def test_replayed_drops_equal_a_backbone_pass(stream):
    # A drop outcome copies the all-forwarded run and re-runs the hops
    # only after each drop, until they are back in step; it must give
    # the floats of a backbone pass over the kept packets.
    arrivals, tx, keep = stream
    cfg = QBoneTestbedConfig()
    run = forwarded_run(cfg, arrivals, tx)
    assert run.client.tolist() == backbone(cfg, arrivals, tx)[0].tolist()
    kept = [i for i, k in enumerate(keep) if k]
    expected, _order = backbone(
        cfg, [arrivals[i] for i in kept], [tx[i] for i in kept]
    )
    got = run.arrivals(np.array(keep, dtype=bool))
    assert got.tolist() == expected.tolist()


def test_backbone_rejects_other_hop_counts():
    cfg = QBoneTestbedConfig(backbone_hops=2)
    with pytest.raises(ValueError, match="3 backbone hops"):
        backbone(cfg, [0.0], [0.001])
    with pytest.raises(ValueError, match="3 backbone hops"):
        forwarded_run(cfg, [0.0], [0.001])
