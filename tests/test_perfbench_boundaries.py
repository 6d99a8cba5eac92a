"""Every layer boundary the benchmark's tracer wraps still exists, and
the span tree its traced pass checks still holds.

``perfbench/tracing.py`` wraps a method only where the class's own
``__dict__`` defines it and skips a missing one without an error, so a
renamed or moved boundary (``VqmTool._calibrate``, say) would make its
span read zero in the traced pass. The traced pass also compares
``batchpath.outcomes`` (``build_session`` spans under
``run_batch_specs``) with a recorded value per seed, and fails if a
spec the fast lanes refuse records any fast-lane span. The tracer
module is read from the benchmark's files and executed here; nothing
under ``perfbench/`` is written.
"""

import types
from pathlib import Path

import pytest

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.flows import AggregateSpec, multipath, run_aggregate
from repro.units import mbps

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def boundaries(tracing):
    return tracing.boundaries()


def test_every_boundary_exists_where_the_tracer_looks(boundaries):
    assert boundaries
    for span, owner, attr, _observe, _pre in boundaries:
        if isinstance(owner, type):
            found = owner.__dict__.get(attr)
        else:
            found = getattr(owner, attr, None)
        assert callable(found), f"{span}: {owner.__name__}.{attr} is gone"


class TestTracedSpans:
    @pytest.fixture
    def tracer(self, tracing, monkeypatch):
        monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            yield tracer
        finally:
            tracer.uninstall()

    @staticmethod
    def _spec(**kwargs):
        return ExperimentSpec(
            clip="test-150", codec="mpeg1", encoding_rate_bps=mbps(1.5), **kwargs
        )

    @staticmethod
    def _children(tracer, parent, name):
        [root] = [i for i, span in enumerate(tracer.spans) if span[0] == parent]
        return [span for span in tracer.spans if span[0] == name and span[3] == root]

    def test_scalar_run_builds_one_session(self, tracer):
        run_experiment(self._spec(token_rate_bps=mbps(1.4)))
        sessions = self._children(tracer, "fastpath.scan_s", "fastpath.backbone_s")
        assert len(sessions) == 1

    def test_batch_grid_builds_one_session_per_unique_outcome(self, tracer):
        grid = [
            self._spec(token_rate_bps=mbps(rate), bucket_depth_bytes=3000.0)
            for rate in (1.4, 1.5, 2.4, 2.6)
        ]
        fastlane.run_batchpath(grid)
        sessions = self._children(tracer, "batchpath.scan_s", "fastpath.backbone_s")
        assert len(sessions) == 3

    def test_refused_spec_records_no_fast_lane_span(self, tracer):
        run_experiment(self._spec(cross_traffic_bps=mbps(2.0)))
        names = {span[0] for span in tracer.spans}
        assert "engine.run_s" in names
        assert not [n for n in names if n.startswith(("fastpath.", "batchpath."))]

    def test_aggregate_calibrates_every_flow_segment(self, tracer):
        # The memo shares one calibration across the 4 flows, but the
        # traced pass pins vqm.segments and vqm.calibration_failed per
        # session, so every flow segment must still record its span.
        agg = AggregateSpec.homogeneous(
            self._spec(), 4, token_rate_bps=mbps(20.0), bucket_depth_bytes=150000.0
        )
        summary = run_aggregate(agg)
        assert summary.packet_drop_fraction == 0.0
        aggregate = [s[5] for s in tracer.spans if s[0] == "vqm.calibrate_s"]
        del tracer.spans[:]
        multipath.run_flows_loop(agg)  # four solo runs
        solo = [s[5] for s in tracer.spans if s[0] == "vqm.calibrate_s"]
        assert len(solo) == 4
        assert aggregate == solo
