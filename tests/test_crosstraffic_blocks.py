"""Block-drawn Poisson gaps equal one scalar draw per tick.

:class:`~repro.testbeds.crosstraffic.PoissonSource` draws its
inter-arrival gaps :attr:`~PoissonSource.GAP_BLOCK` at a time. That is
exact only because ``Generator.exponential(scale, size=n)`` returns the
same values as ``n`` scalar draws from the same state; the first test
pins that property of the installed numpy, so a numpy change that
breaks it fails here instead of silently moving cross-traffic results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.testbeds.crosstraffic import PoissonSource
from repro.units import mbps


class ScalarPoissonSource(PoissonSource):
    """Reference: one scalar exponential draw per tick."""

    def _tick(self) -> None:
        if not self._should_continue():
            return
        self._emit()
        gap = self.engine.rng(self.flow_id).exponential(self.mean_interval)
        self.engine.schedule(gap, self._tick)


class TimeSink:
    def __init__(self, engine):
        self.engine = engine
        self.times = []

    def receive(self, packet):
        self.times.append((self.engine.now, packet.packet_id))


def _tick_times(source_cls, seed, rate_bps, script):
    """Run one source under a start/stop ``script``; return what it saw."""
    engine = Engine(seed=seed)
    sink = TimeSink(engine)
    source = source_cls(engine, sink, rate_bps=rate_bps)
    for time, action, *args in script:
        engine.schedule_at(time, lambda a=action, x=args: getattr(source, a)(*x))
    engine.run()
    seq = int(repr(engine._seq)[len("count(") : -1])
    return sink.times, source.packets_sent, seq, engine.now


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("scale", [1e-3, 0.25, 3.0])
@pytest.mark.parametrize("n", [1, PoissonSource.GAP_BLOCK, 1000])
def test_block_draw_equals_scalar_draws(seed, scale, n):
    block = np.random.default_rng(seed).exponential(scale, n)
    rng = np.random.default_rng(seed)
    scalars = [rng.exponential(scale) for _ in range(n)]
    assert block.tolist() == scalars


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("rate_mbps", [0.5, 2.0, 3.0])
def test_ticks_match_scalar_reference_across_blocks(seed, rate_mbps):
    # 4 s at 250-375 packets/s crosses several GAP_BLOCK boundaries.
    script = [(0.0, "start", 0.0, 4.0)]
    block = _tick_times(PoissonSource, seed, mbps(rate_mbps), script)
    scalar = _tick_times(ScalarPoissonSource, seed, mbps(rate_mbps), script)
    assert block == scalar
    if rate_mbps >= 2.0:
        assert block[1] > 2 * PoissonSource.GAP_BLOCK


@pytest.mark.parametrize("seed", [2, 5])
def test_ticks_match_scalar_reference_across_stop_start(seed):
    script = [
        (0.0, "start", 0.0),
        (0.7, "stop"),
        (1.3, "start", 1.5, 3.0),
        (2.2, "stop"),
        (2.5, "start", 2.5, 4.0),
    ]
    block = _tick_times(PoissonSource, seed, mbps(3.0), script)
    scalar = _tick_times(ScalarPoissonSource, seed, mbps(3.0), script)
    assert block == scalar
    times = [t for t, _ in block[0]]
    assert not any(0.7 < t < 1.5 for t in times)  # stopped window is silent
    assert block[1] > PoissonSource.GAP_BLOCK
