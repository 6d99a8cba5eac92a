"""Adaptive cliff-seeking sampler: frontier fidelity on a budget.

The sampler's contract: on a step-shaped quality curve it must locate
the cliff exactly as finely as the uniform grid would (same per-depth
minimal-rate frontier) while evaluating a fraction of the points. The
tests drive it with a stub runner whose fake backend answers with a
synthetic step function of the token rate, so every claim is exact
and fast.
"""

import dataclasses

import pytest

from repro.core.campaign import adaptive_token_rate_sweep
from repro.core.campaign import WorkerBackend
from repro.core.campaign.sampler import AdaptiveSampleReport
from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord
from repro.core.resultstore import ResultStore
from repro.core.runner import ResultSummary, Runner
from repro.core.sweep import token_rate_sweep
from repro.units import mbps

#: Depth-dependent cliff: the deep bucket's cliff sits at a lower rate
#: (the paper's Figure 7 shape).
CLIFFS = {3000.0: mbps(1.9), 4500.0: mbps(1.7)}


def step_summary(spec: ExperimentSpec) -> ResultSummary:
    """Quality 0 above the depth's cliff rate, collapsed below it."""
    good = spec.token_rate_bps >= CLIFFS[spec.bucket_depth_bytes]
    return ResultSummary(
        quality_score=0.0 if good else 1.0,
        lost_frame_fraction=0.0 if good else 0.9,
        packet_drop_fraction=0.0,
        frozen_fraction=0.0,
        rebuffer_events=0,
        total_stall_s=0.0,
        conformant_packets=100,
        dropped_packets=0,
        remarked_packets=0,
        dropped_bytes=0,
        server_aborted=False,
        server_packets=100,
        client_packets=100,
    )


class StepBackend(WorkerBackend):
    """Fake backend: answers from :func:`step_summary`, counting calls."""

    def __init__(self, runner: "StubRunner"):
        self.runner = runner

    async def execute(self, spec, timeout_s=None):
        self.runner.calls += 1
        return self.runner.outcome(spec)


class StubRunner(Runner):
    """Runner whose backend evaluates the synthetic step curve."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def make_backend(self, plan_specs):
        return StepBackend(self)

    def outcome(self, spec):
        return step_summary(spec)


def grid(n: int = 33):
    """A dense rate axis straddling both cliffs."""
    lo, hi = mbps(1.5), mbps(2.1)
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def frontier(sweep, threshold: float = 0.05):
    """Per-depth minimal rate meeting the quality bound."""
    out = {}
    for depth in sweep.depths():
        rates, _, scores = sweep.series(depth)
        meeting = [r for r, s in zip(rates, scores) if s <= threshold]
        out[depth] = min(meeting) if meeting else None
    return out


class TestAdaptiveSampler:
    def test_reproduces_uniform_frontier_with_half_the_points(self):
        rates = grid(33)
        depths = (3000.0, 4500.0)
        uniform = token_rate_sweep(
            ExperimentSpec(), rates, depths, runner=StubRunner()
        )
        adaptive_runner = StubRunner()
        adaptive = adaptive_token_rate_sweep(
            ExperimentSpec(), rates, depths, runner=adaptive_runner
        )
        assert frontier(adaptive) == frontier(uniform)
        assert adaptive.sampling["mode"] == "adaptive"
        assert adaptive.sampling["grid_points"] == 66
        assert adaptive.sampling["evaluated"] == adaptive_runner.calls
        assert adaptive.sampling["ratio"] <= 0.5

    def test_points_are_a_subset_of_the_uniform_sweep(self):
        rates = grid(17)
        uniform = token_rate_sweep(
            ExperimentSpec(), rates, (3000.0,), runner=StubRunner()
        )
        adaptive = adaptive_token_rate_sweep(
            ExperimentSpec(), rates, (3000.0,), runner=StubRunner()
        )
        assert all(point in uniform.points for point in adaptive.points)
        assert len(adaptive.points) < len(uniform.points)

    def test_cliff_bracketed_to_grid_adjacency(self):
        """Refinement stops only when the cliff bracket is adjacent."""
        rates = sorted(grid(33))
        adaptive = adaptive_token_rate_sweep(
            ExperimentSpec(), rates, (3000.0,), runner=StubRunner()
        )
        sampled = sorted(p.token_rate_bps for p in adaptive.points)
        cliff = CLIFFS[3000.0]
        below = max(r for r in sampled if r < cliff)
        above = min(r for r in sampled if r >= cliff)
        # The two evaluated rates straddling the cliff are grid
        # neighbours: no finer answer exists on this grid.
        assert rates.index(above) - rates.index(below) == 1

    def test_flat_curve_needs_only_the_coarse_pass(self):
        rates = grid(33)
        runner = StubRunner()
        flat_spec = ExperimentSpec(
            token_rate_bps=mbps(2.0), bucket_depth_bytes=3000.0
        )
        # All rates above the cliff: zero jumps, zero refinement.
        high_rates = [r + mbps(0.5) for r in rates]
        adaptive = adaptive_token_rate_sweep(
            flat_spec, high_rates, (3000.0,), runner=runner
        )
        coarse = len({0, 32} | set(range(0, 33, 4)))
        assert runner.calls == coarse
        assert adaptive.sampling["rounds"] == 1

    def test_warm_store_hits_transfer_from_uniform_sweep(self, tmp_path):
        """Shared fingerprints: adaptive re-simulates nothing warm."""
        rates = grid(9)
        store = ResultStore(tmp_path)
        token_rate_sweep(
            ExperimentSpec(),
            rates,
            (3000.0,),
            runner=StubRunner(store=store),
        )
        warm = StubRunner(store=store)
        adaptive_token_rate_sweep(
            ExperimentSpec(), rates, (3000.0,), runner=warm
        )
        assert warm.calls == 0
        assert warm.stats.cache_hits > 0

    def test_quarantined_endpoint_brackets_are_refined(self):
        class FlakyRunner(StubRunner):
            def outcome(self, spec):
                # Kill exactly one mid-plateau point.
                if abs(spec.token_rate_bps - mbps(2.025)) < 1e3:
                    return FailureRecord(
                        fingerprint="x",
                        kind="crash",
                        message="boom",
                        attempts=1,
                        elapsed_s=0.0,
                        spec=dataclasses.asdict(spec),
                    )
                return step_summary(spec)

        rates = grid(33)
        runner = FlakyRunner()
        adaptive = adaptive_token_rate_sweep(
            ExperimentSpec(), rates, (3000.0,), runner=runner
        )
        # The failed point's neighbourhood was probed rather than the
        # unknown being trusted as flat.
        flat_runner = StubRunner()
        adaptive_token_rate_sweep(
            ExperimentSpec(), rates, (3000.0,), runner=flat_runner
        )
        assert runner.calls > flat_runner.calls
        assert len(adaptive.failures) >= 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            adaptive_token_rate_sweep(
                ExperimentSpec(), grid(9), (3000.0,),
                runner=StubRunner(), coarse_step=0,
            )
        with pytest.raises(ValueError):
            adaptive_token_rate_sweep(
                ExperimentSpec(), grid(9), (3000.0,),
                runner=StubRunner(), cliff_quality_jump=0.0,
            )

    def test_report_ratio(self):
        report = AdaptiveSampleReport(
            grid_points=40, evaluated=10, rounds=3, coarse_step=4,
            cliff_quality_jump=0.2, cliff_loss_jump=0.05,
        )
        assert report.ratio == 0.25
        assert report.to_dict()["mode"] == "adaptive"
