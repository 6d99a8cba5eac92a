"""Multi-flow aggregate / admission suite (``make test-flows``).

Pins the :mod:`repro.flows` contracts:

* the interleaved fast lane is *bit-identical* to the engine fan-in
  lane — every :class:`AggregateSummary` field, including each member
  flow's summary, compared with ``==``;
* per-flow seeds are independent of set membership and ordering;
* the shared policer's multi-flow surface (tagged drops, filtered
  listeners, trace sinks) observes without perturbing token state;
* aggregate summaries survive JSON/caching round trips and come back
  identical from serial and pooled runners;
* the admission frontier reproduces the documented scenario where the
  QoE floor and the naive bandwidth budget admit different flow counts.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import fastlane
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.runner import (
    ResultSummary,
    SerialRunner,
    make_runner,
    spec_fingerprint,
)
from repro.core.resultstore import ResultStore
from repro.diffserv.policer import Policer, PolicerAction
from repro.flows import (
    AdmissionController,
    AggregateSpec,
    AggregateSummary,
    BandwidthBudgetPolicy,
    SessionEvent,
    admission_frontier,
    contended_flow_specs,
    derive_flow_seed,
    measure_aggregate,
    measure_rate,
    run_aggregate,
    run_engine_aggregate,
)
from repro.flows import multipath
from repro.flows.multipath import (
    qualifies_for_flowpath,
    run_flows_loop,
    run_multipath,
)
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.units import mbps

pytestmark = pytest.mark.flows


def _flow(clip="test-150", encoding=1.7, seed=0, **kwargs) -> ExperimentSpec:
    return ExperimentSpec(
        clip=clip,
        codec="mpeg1",
        encoding_rate_bps=mbps(encoding),
        seed=seed,
        **kwargs,
    )


def _assert_identical(engine_side: ResultSummary, fast_side: ResultSummary):
    for name in engine_side.__dataclass_fields__:
        if name in ("elapsed_s", "flow_summaries"):
            continue
        a = getattr(engine_side, name)
        b = getattr(fast_side, name)
        assert a == b, f"{name}: engine={a!r} fast={b!r}"


def _assert_aggregate_identical(
    engine_side: AggregateSummary, fast_side: AggregateSummary
):
    _assert_identical(engine_side, fast_side)
    assert len(engine_side.flow_summaries) == len(fast_side.flow_summaries)
    for i, (ef, ff) in enumerate(
        zip(engine_side.flow_summaries, fast_side.flow_summaries)
    ):
        for name in ef.__dataclass_fields__:
            if name == "elapsed_s":
                continue
            a = getattr(ef, name)
            b = getattr(ff, name)
            assert a == b, f"flow {i} {name}: engine={a!r} fast={b!r}"


class TestSeedDerivation:
    def test_pure_function_of_base_and_index(self):
        assert derive_flow_seed(7, 3) == derive_flow_seed(7, 3)

    def test_distinct_across_indices_and_bases(self):
        seeds = {
            derive_flow_seed(base, i)
            for base in range(8)
            for i in range(64)
        }
        assert len(seeds) == 8 * 64

    def test_additive_seeds_do_not_alias(self):
        # base_seed+index schemes collide: (0, 1) vs (1, 0). The hash
        # derivation must not.
        assert derive_flow_seed(0, 1) != derive_flow_seed(1, 0)

    def test_independent_of_set_membership_and_order(self):
        # A flow's stream depends only on (base, index): the same flow
        # at the same index draws the same seed whether the aggregate
        # has 2 or 200 members, and reordering the *other* members
        # cannot move it.
        solo = [derive_flow_seed(5, i) for i in range(2)]
        crowd = [derive_flow_seed(5, i) for i in range(200)]
        assert crowd[:2] == solo


class TestAggregateSpec:
    def test_rejects_empty_flow_set(self):
        with pytest.raises(ValueError, match="at least one flow"):
            AggregateSpec(flows=())

    def test_rejects_offset_length_mismatch(self):
        with pytest.raises(ValueError, match="start offsets"):
            AggregateSpec(flows=(_flow(),), start_offsets=(0.0, 1.0))

    def test_rejects_negative_offsets(self):
        with pytest.raises(ValueError, match="negative"):
            AggregateSpec(flows=(_flow(),), start_offsets=(-1.0,))

    def test_rejects_recovery_flows(self):
        with pytest.raises(ValueError, match="not supported"):
            AggregateSpec(flows=(_flow(arq=True),))

    def test_rejects_non_qbone_flows(self):
        with pytest.raises(ValueError, match="QBone"):
            AggregateSpec(flows=(_flow(testbed="local"),))

    def test_homogeneous_lifts_profile_from_base(self):
        base = _flow(token_rate_bps=mbps(2.5), bucket_depth_bytes=4500.0)
        agg = AggregateSpec.homogeneous(base, 3, spacing_s=0.5)
        assert agg.n_flows == 3
        assert agg.token_rate_bps == mbps(2.5)
        assert agg.bucket_depth_bytes == 4500.0
        assert agg.start_offsets == (0.0, 0.5, 1.0)

    def test_with_token_bucket_sweep_interface(self):
        agg = AggregateSpec.homogeneous(_flow(), 2)
        moved = agg.with_token_bucket(mbps(3.0), 6000.0)
        assert moved.token_rate_bps == mbps(3.0)
        assert moved.bucket_depth_bytes == 6000.0
        assert moved.flows == agg.flows

    def test_fingerprint_is_stable_and_profile_sensitive(self):
        agg = AggregateSpec.homogeneous(_flow(), 2)
        assert spec_fingerprint(agg) == spec_fingerprint(
            AggregateSpec.homogeneous(_flow(), 2)
        )
        assert spec_fingerprint(agg) != spec_fingerprint(
            agg.with_token_bucket(mbps(3.0), 6000.0)
        )

    def test_aggregates_do_not_qualify_for_single_flow_lanes(self):
        agg = AggregateSpec.homogeneous(_flow(), 2)
        assert not fastlane.qualifies_for_fastpath(agg)
        assert not fastlane.qualifies_for_batch(agg)

    def test_contended_stand_ins_need_the_engine(self):
        # The per-flow stand-ins carry the shared policing profile and
        # the other members' load as cross traffic — which keeps them
        # off the single-flow fast path (the scale bench's baseline
        # depends on exactly this).
        agg = AggregateSpec.homogeneous(
            _flow(encoding=1.7),
            3,
            token_rate_bps=mbps(2.5),
            bucket_depth_bytes=4500.0,
        )
        stand_ins = contended_flow_specs(agg)
        assert len(stand_ins) == 3
        for i, spec in enumerate(stand_ins):
            assert spec.token_rate_bps == mbps(2.5)
            assert spec.bucket_depth_bytes == 4500.0
            assert spec.seed == derive_flow_seed(agg.seed, i)
            assert spec.cross_traffic_bps == pytest.approx(2 * mbps(1.7))
            assert not fastlane.qualifies_for_fastpath(spec)


class TestPolicerMultiFlow:
    """Satellite: tagged multi-flow traffic through one policer."""

    def _policer(self, action=PolicerAction.DROP):
        engine = Engine(seed=0)
        # 8000 bps = 1000 bytes/s of tokens; depth 1000 B.
        policer = Policer(
            engine, rate_bps=8000.0, depth_bytes=1000.0, action=action
        )
        return engine, policer

    def _packet(self, flow_id, size, frame_id=None):
        return Packet(
            packet_id=0,
            flow_id=flow_id,
            size=size,
            created_at=0.0,
            frame_id=frame_id,
        )

    def test_interleaved_flows_share_exact_token_boundary(self):
        # Two flows interleave on one bucket that starts full at
        # 1000 B. a:600 conforms (400 left), b:400 consumes the bucket
        # to *exactly* zero and must conform, a:1 then finds an empty
        # bucket and drops.
        engine, policer = self._policer()
        assert policer(self._packet("a", 600)) is not None
        assert policer(self._packet("b", 400)) is not None
        assert policer.bucket.tokens_at(engine.now) == 0.0
        assert policer(self._packet("a", 1)) is None
        assert policer.stats.conformant_packets == 2
        assert policer.stats.dropped_packets == 1

    def test_exact_refill_boundary_across_flows(self):
        # After draining to zero, 0.1 s of refill at 1000 B/s yields
        # exactly 100 tokens: a 100 B packet from the *other* flow
        # conforms, and the next 1 B packet drops again.
        engine, policer = self._policer()
        assert policer(self._packet("a", 1000)) is not None
        engine.now = 0.1
        assert policer(self._packet("b", 100)) is not None
        assert policer.bucket.tokens_at(engine.now) == 0.0
        assert policer(self._packet("a", 1)) is None

    def test_drop_records_carry_flow_id(self):
        engine, policer = self._policer()
        drops = []
        policer.add_drop_listener(drops.append)
        policer(self._packet("a", 1000))
        policer(self._packet("b", 10, frame_id=4))
        assert [d.flow_id for d in drops] == ["b"]
        assert drops[0].reason == "tokens-exhausted"
        assert drops[0].packet.frame_id == 4

    def test_flow_filtered_listeners_only_see_their_flow(self):
        engine, policer = self._policer()
        seen_a, seen_b, seen_all = [], [], []
        policer.add_drop_listener(seen_a.append, flow_id="a")
        policer.add_drop_listener(seen_b.append, flow_id="b")
        policer.add_drop_listener(seen_all.append)
        policer(self._packet("a", 1000))  # conform, drains bucket
        policer(self._packet("b", 10))  # drop
        policer(self._packet("a", 10))  # drop
        policer(self._packet("b", 10))  # drop
        assert [d.flow_id for d in seen_a] == ["a"]
        assert [d.flow_id for d in seen_b] == ["b", "b"]
        assert [d.flow_id for d in seen_all] == ["b", "a", "b"]

    def test_clear_drop_listeners(self):
        engine, policer = self._policer()
        seen = []
        policer.add_drop_listener(seen.append)
        policer.clear_drop_listeners()
        policer(self._packet("a", 1000))
        policer(self._packet("a", 10))
        assert seen == []

    def test_trace_sink_does_not_perturb_verdicts(self):
        # Identical interleaved sequences with and without a sink must
        # produce identical stats and token trajectories.
        sequence = [("a", 600), ("b", 300), ("a", 200), ("b", 100)]
        engine_plain, plain = self._policer()
        engine_traced, traced = self._policer()
        events = []
        traced.set_trace_sink(events.append)
        for t, (fid, size) in enumerate(sequence):
            engine_plain.now = engine_traced.now = 0.05 * t
            plain(self._packet(fid, size))
            traced(self._packet(fid, size))
        assert plain.stats == traced.stats
        assert plain.bucket.tokens_at(engine_plain.now) == traced.bucket.tokens_at(engine_traced.now)
        assert [e.verdict for e in events] == [
            "conform", "conform", "conform", "drop",
        ]
        assert [e.flow_id for e in events] == ["a", "b", "a", "b"]

    def test_remark_keeps_flow_tag(self):
        engine, policer = self._policer(action=PolicerAction.REMARK_BE)
        policer(self._packet("a", 1000))
        out = policer(self._packet("b", 10))
        assert out is not None and out.flow_id == "b"
        assert policer.stats.remarked_packets == 1


@pytest.fixture(autouse=True)
def _reset_fastpath(monkeypatch):
    monkeypatch.delenv(fastlane.FASTPATH_ENV, raising=False)
    yield


#: Bit-identity corpus: ≥2 flows, both policer actions, both policing
#: modes, nonzero offsets, heterogeneous members.
IDENTITY_CORPUS = [
    AggregateSpec.homogeneous(
        _flow(), 2, token_rate_bps=mbps(1.9), bucket_depth_bytes=3000.0
    ),
    AggregateSpec.homogeneous(
        _flow(seed=3), 3, spacing_s=0.5,
        token_rate_bps=mbps(2.6), bucket_depth_bytes=3000.0,
    ),
    AggregateSpec(
        flows=(_flow(encoding=1.7), _flow(encoding=1.1, seed=1)),
        start_offsets=(0.0, 1.0),
        token_rate_bps=mbps(2.2),
        bucket_depth_bytes=4500.0,
        policer_action="remark",
        seed=11,
    ),
    AggregateSpec.homogeneous(
        _flow(), 2, policing="per-flow",
        token_rate_bps=mbps(1.5), bucket_depth_bytes=3000.0,
    ),
    # Saturated deep bucket: 6.8 Mbps offered against 0.8 Mbps, so the
    # bucket sits near empty and most packets drop, in runs.
    AggregateSpec.homogeneous(
        _flow(), 4, spacing_s=0.25,
        token_rate_bps=mbps(0.8), bucket_depth_bytes=30000.0,
    ),
    # Over-provisioned: about half the refills clip at the brim.
    AggregateSpec.homogeneous(
        _flow(seed=5), 2,
        token_rate_bps=mbps(12.0), bucket_depth_bytes=4500.0,
    ),
    AggregateSpec.homogeneous(
        _flow(seed=2), 3, spacing_s=0.3, policing="per-flow",
        policer_action="remark",
        token_rate_bps=mbps(1.5), bucket_depth_bytes=3000.0,
    ),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "agg", IDENTITY_CORPUS,
        ids=[
            "2flow-drop", "3flow-offsets", "hetero-remark", "per-flow",
            "saturated-deep", "brim", "per-flow-remark",
        ],
    )
    def test_engine_and_interleaved_lanes_match(self, agg):
        engine_side = run_engine_aggregate(agg)
        fast_side = run_multipath(agg)
        _assert_aggregate_identical(engine_side, fast_side)

    def test_per_flow_loop_is_a_documented_approximation(self):
        # The naive baseline ignores bucket sharing, so on a corpus
        # point where flows contend it must differ from the true
        # aggregate — that gap is what the shared scan models.
        agg = IDENTITY_CORPUS[0]
        shared = run_multipath(agg)
        looped = run_flows_loop(agg)
        assert shared.dropped_packets > sum(
            s.dropped_packets for s in looped
        )


class TestFlowpathDispatch:
    def test_qualification_rejects_cross_traffic(self):
        clean = AggregateSpec.homogeneous(_flow(), 2)
        crossed = dataclasses.replace(clean, cross_traffic_bps=mbps(5.0))
        assert qualifies_for_flowpath(clean)
        assert not qualifies_for_flowpath(crossed)

    def test_env_modes(self, monkeypatch):
        agg = AggregateSpec.homogeneous(_flow(), 2)
        lanes = []
        monkeypatch.setattr(
            multipath, "run_multipath",
            lambda agg, vqm_tool=None: lanes.append("interleaved"),
        )
        run_aggregate(agg)  # auto
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "1")
        run_aggregate(agg)
        assert lanes == ["interleaved", "interleaved"]
        crossed = dataclasses.replace(agg, cross_traffic_bps=mbps(5.0))
        with pytest.raises(fastlane.FastpathUnsupported):
            run_aggregate(crossed)

    def test_mode_zero_never_reaches_interleaved_lane(self, monkeypatch):
        def refuse(agg, vqm_tool=None):
            raise AssertionError("REPRO_FASTPATH=0 reached run_multipath")

        monkeypatch.setattr(multipath, "run_multipath", refuse)
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        summary = run_aggregate(IDENTITY_CORPUS[0])
        assert summary.n_flows == IDENTITY_CORPUS[0].n_flows

    def test_forced_engine_matches_auto(self, monkeypatch):
        agg = IDENTITY_CORPUS[0]
        auto = run_aggregate(agg)
        monkeypatch.setenv(fastlane.FASTPATH_ENV, "0")
        forced = run_aggregate(agg)
        _assert_aggregate_identical(forced, auto)


class TestSummaryExport:
    def _summary(self) -> AggregateSummary:
        return run_multipath(IDENTITY_CORPUS[0])

    def test_json_round_trip(self):
        summary = self._summary()
        payload = json.loads(json.dumps(summary.to_dict()))
        back = ResultSummary.from_dict(payload)
        assert isinstance(back, AggregateSummary)
        assert back.n_flows == summary.n_flows
        _assert_aggregate_identical(summary, back)

    def test_from_dict_dispatches_on_flow_summaries_key(self):
        plain = ResultSummary.from_dict(
            ResultSummary.from_result(run_experiment(_flow())).to_dict()
        )
        assert not isinstance(plain, AggregateSummary)

    def test_cache_round_trip_preserves_type(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = SerialRunner(store=store)
        agg = IDENTITY_CORPUS[0]
        first = runner.run_batch([agg])[0]
        again = runner.run_batch([agg])[0]
        assert runner.stats.cache_hits >= 1
        assert isinstance(again, AggregateSummary)
        _assert_aggregate_identical(first, again)

    def test_serial_pool_determinism(self, tmp_path):
        batch = [IDENTITY_CORPUS[0], IDENTITY_CORPUS[2]]
        serial = SerialRunner().run_batch(batch)
        pooled = make_runner(jobs=2).run_batch(batch)
        for a, b in zip(serial, pooled):
            _assert_aggregate_identical(a, b)


class TestMeasure:
    def test_tumbling_windows_and_peak(self):
        # Three 0.5 s windows: 1000 B, idle, 500 B.
        times = [0.0, 0.1, 0.4, 1.2]
        sizes = [400, 400, 200, 500]
        m = measure_rate(times, sizes, window_s=0.5)
        assert m.n_windows == 3
        assert m.total_bytes == 1500
        assert m.peak_rate_bps == 1000 * 8 / 0.5
        assert m.mean_rate_bps == 1500 * 8 / 1.5

    def test_ewma_converges_toward_steady_rate(self):
        times = np.arange(0.0, 10.0, 0.01)
        sizes = np.full(times.shape, 125.0)  # 100 kbps steady
        m = measure_rate(times, sizes, window_s=0.5)
        assert m.ewma_rate_bps == pytest.approx(100_000.0, rel=1e-6)

    def test_empty_stream(self):
        m = measure_rate([], [])
        assert m.n_windows == 0
        assert m.mean_rate_bps == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            measure_rate([0.0], [1], window_s=0.0)
        with pytest.raises(ValueError, match="gain"):
            measure_rate([0.0], [1], alpha=0.0)
        with pytest.raises(ValueError, match="align"):
            measure_rate([0.0], [1, 2])

    def test_aggregate_offered_load_exceeds_nominal(self):
        # Wire overhead means the measured mean sits above the nominal
        # encoding sum; the peak sits above the mean.
        agg = AggregateSpec.homogeneous(_flow(), 2)
        m = measure_aggregate(agg)
        assert m.mean_rate_bps > 2 * mbps(1.7) * 0.9
        assert m.peak_rate_bps > m.mean_rate_bps


class TestAdmission:
    def test_frontier_scenario_where_policies_disagree(self, tmp_path):
        # Documented scenario (EXPERIMENTS.md): two 1.7 Mbps flows fit
        # a 3.5 Mbps budget on paper, but sharing the 3.5 Mbps / 3000 B
        # EF bucket drops enough packets to blow the QoE floor — the
        # bandwidth rule admits 2, the QoE floor stops at 1.
        frontier = admission_frontier(
            _flow(clip="test-300"),
            max_flows=2,
            token_rate_bps=mbps(3.5),
            bucket_depth_bytes=3000.0,
            runner=SerialRunner(store=ResultStore(tmp_path)),
        )
        assert frontier.qoe_admitted == 1
        assert frontier.bandwidth_admitted == 2
        assert frontier.policies_disagree
        one, two = frontier.points
        assert one.qoe_admissible and one.bandwidth_admissible
        assert not two.qoe_admissible
        assert two.bandwidth_admissible
        assert two.packet_drop_fraction > 0.01

    def test_frontier_json_shape(self, tmp_path):
        frontier = admission_frontier(
            _flow(clip="test-300"),
            max_flows=1,
            token_rate_bps=mbps(3.5),
            bucket_depth_bytes=3000.0,
            runner=SerialRunner(store=ResultStore(tmp_path)),
        )
        payload = json.loads(json.dumps(frontier.to_dict()))
        assert payload["qoe_admitted"] == 1
        assert payload["points"][0]["n_flows"] == 1
        assert payload["nominal_rate_bps"] > 0

    def test_controller_replay_with_departures(self):
        # A pure-bandwidth policy needs no probes, so the replay logic
        # is tested without simulation: the third arrival exceeds the
        # budget until a departure frees its slot.
        flow = _flow()
        policy = BandwidthBudgetPolicy(budget_bps=mbps(3.5))
        controller = AdmissionController(policy)
        decisions = controller.replay(
            [
                SessionEvent(time=0.0, action="arrive", label="s0", flow=flow),
                SessionEvent(time=1.0, action="arrive", label="s1", flow=flow),
                SessionEvent(time=2.0, action="arrive", label="s2", flow=flow),
                SessionEvent(time=3.0, action="depart", label="s0"),
                SessionEvent(time=4.0, action="arrive", label="s3", flow=flow),
            ]
        )
        assert [d.admitted for d in decisions] == [True, True, False, True]
        assert [d.n_active for d in decisions] == [1, 2, 2, 2]
        assert set(controller.active) == {"s1", "s3"}

    def test_replay_rejects_duplicate_labels(self):
        flow = _flow()
        controller = AdmissionController(BandwidthBudgetPolicy(mbps(99)))
        with pytest.raises(ValueError, match="twice"):
            controller.replay(
                [
                    SessionEvent(time=0.0, action="arrive", label="x", flow=flow),
                    SessionEvent(time=1.0, action="arrive", label="x", flow=flow),
                ]
            )

    def test_session_event_validation(self):
        with pytest.raises(ValueError):
            SessionEvent(time=0.0, action="linger", label="x")
        with pytest.raises(ValueError):
            SessionEvent(time=0.0, action="arrive", label="x", flow=None)
