"""The benchmark's four closed-loop workloads.

Each generator takes the seed and returns a :class:`Workload`: the
clips to prepare in set-up, a warm-up call, and the fixed request mix
of one *round*. The seed draws spec parameters (token rates, depths,
spec seeds, which point queries repeat); it never changes the request
kinds or their counts, so totals stay comparable across seeds. Every
round of a run repeats the same requests, so a round is a fixed unit of
work and per-round counts must repeat exactly.

Requests go through the public API a ``repro`` verb calls, from one
client in one process (serial runner, ``jobs=1``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import ExperimentSpec, ResultStore, make_runner, run_experiment
from repro.core.campaign import CampaignService
from repro.core.runner import ResultSummary
from repro.core.sweep import token_rate_sweep
from repro.detect import detect_policing
from repro.flows import AggregateSpec, admission_frontier, run_aggregate
from repro.units import mbps
from repro.video.clips import clip_features

#: Token-rate grids of the QBone figures (Mbps), per encoding rate.
QBONE_RATES = {
    1.0: (0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4),
    1.5: (1.45, 1.5, 1.55, 1.6, 1.7, 1.8, 1.9, 2.0),
    1.7: (1.65, 1.7, 1.75, 1.8, 1.9, 2.0, 2.1, 2.2),
}
PAPER_DEPTHS = (3000.0, 4500.0)


@dataclass
class Request:
    """One request: ``run`` performs it and returns its output."""

    kind: str
    run: Callable[[], Any]
    sessions: Callable[[Any], int]  # sessions the output answered
    canon: Callable[[Any], Any]  # JSON-able form of the output
    nominal_sessions: int  # sessions counted as failed if it raises


@dataclass
class Workload:
    clips: list  # (clip, codec, rate_bps) triples prepared in set-up
    warmup: Callable[[], Any]
    round: Callable[[int], list]  # round index -> requests
    oracle: Callable[[list], list]  # round-0 outputs -> mismatch notes
    close: Callable[[], None] = lambda: None
    counters: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Output canonicalization and hashing


def _strip_elapsed(value):
    if isinstance(value, dict):
        return {k: _strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_strip_elapsed(v) for v in value]
    return value


def summary_dict(summary: ResultSummary) -> dict:
    """A summary without its wall-clock field (aggregates included)."""
    return _strip_elapsed(summary.to_dict())


def digest(canon) -> str:
    """SHA-256 of the canonical JSON of an output."""
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextmanager
def engine_oracle():
    """Force the event engine for single flows and aggregates."""
    saved = {k: os.environ.get(k) for k in ("REPRO_FASTPATH", "REPRO_FLOWPATH")}
    os.environ["REPRO_FASTPATH"] = "0"
    os.environ["REPRO_FLOWPATH"] = "0"
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _engine_summary(spec: ExperimentSpec) -> dict:
    with engine_oracle():
        return summary_dict(ResultSummary.from_result(run_experiment(spec)))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def jitter(rng: random.Random) -> float:
    """A factor within 1% of 1: seeds vary parameters, not the work."""
    return rng.uniform(0.99, 1.01)


# ----------------------------------------------------------------------
# qbone_sweeps: figure-shaped sweeps on the batch lane (Figs 7-14)


def _sweep_request(spec: ExperimentSpec, rates, depths) -> Request:
    def run():
        return token_rate_sweep(spec, rates, depths, runner=make_runner(jobs=1))

    def canon(sweep):
        return [
            [p.token_rate_bps, p.bucket_depth_bytes, summary_dict(p.result)]
            for p in sweep.points
        ] + [["failure", f.token_rate_bps, f.bucket_depth_bytes] for f in sweep.failures]

    return Request(
        kind="sweep",
        run=run,
        sessions=lambda sweep: len(sweep.points),
        canon=canon,
        nominal_sessions=len(rates) * len(depths),
    )


def qbone_sweeps(seed: int) -> Workload:
    rng = _rng("qbone_sweeps", seed)
    shapes = [  # (clip, encoding Mbps, reference): Figs 7, 11, 13
        ("lost", 1.7, "transmitted"),
        ("dark", 1.5, "transmitted"),
        ("lost", 1.0, "fixed"),
    ]
    sweeps = []
    for clip, encoding, reference in shapes:
        scale = jitter(rng)
        rates = [mbps(r * scale) for r in QBONE_RATES[encoding]]
        depths = [d * jitter(rng) for d in PAPER_DEPTHS]
        spec = ExperimentSpec(
            clip=clip,
            codec="mpeg1",
            encoding_rate_bps=mbps(encoding),
            reference=reference,
            fixed_reference_rate_bps=mbps(1.7),
            seed=rng.randrange(1000),
        )
        sweeps.append((spec, rates, depths))
    # Oracle sample: one grid point of each lost sweep.
    picks = [(0, rng.randrange(16)), (2, rng.randrange(16))]

    def oracle(outputs):
        notes = []
        for request_index, point_index in picks:
            point = outputs[request_index].points[point_index]
            spec = sweeps[request_index][0].with_token_bucket(
                point.token_rate_bps, point.bucket_depth_bytes
            )
            if _engine_summary(spec) != summary_dict(point.result):
                notes.append(f"sweep {request_index} point {point_index}")
        return notes

    base0 = sweeps[0][0]
    return Workload(
        clips=[
            ("lost", "mpeg1", mbps(1.7)),
            ("lost", "mpeg1", mbps(1.0)),
            ("dark", "mpeg1", mbps(1.5)),
        ],
        warmup=lambda: token_rate_sweep(
            base0, [mbps(1.8), mbps(2.2)], [3000.0], runner=make_runner(jobs=1)
        ),
        round=lambda _r: [_sweep_request(*s) for s in sweeps],
        oracle=oracle,
    )


# ----------------------------------------------------------------------
# engine_tail: specs the fast lanes refuse (cross traffic, WMT testbed)


def _engine_request(spec: ExperimentSpec) -> Request:
    return Request(
        kind="spec",
        run=lambda: run_experiment(spec),
        sessions=lambda _result: 1,
        canon=lambda result: summary_dict(ResultSummary.from_result(result)),
        nominal_sessions=1,
    )


def engine_tail(seed: int) -> Workload:
    rng = _rng("engine_tail", seed)
    specs = []
    for cross in (2.0, 3.0):  # QBone with light per-hop cross traffic
        specs.append(
            ExperimentSpec(
                clip="lost",
                codec="mpeg1",
                encoding_rate_bps=mbps(1.7),
                token_rate_bps=mbps(2.0 * jitter(rng)),
                bucket_depth_bytes=4500.0 * jitter(rng),
                cross_traffic_bps=mbps(cross),
                seed=rng.randrange(1000),
            )
        )
    # Local testbed, WMT server, at both paper depths (Figs 15-16). Six
    # cheap specs against two costly ones put the median request inside
    # one cluster of similar latencies instead of on its edge.
    for depth in PAPER_DEPTHS:
        for transport, shaper in (("udp", False), ("udp", True), ("tcp", True)):
            specs.append(
                ExperimentSpec(
                    clip="lost",
                    codec="wmv",
                    server="wmt",
                    transport=transport,
                    testbed="local",
                    use_shaper=shaper,
                    token_rate_bps=mbps(1.1 * jitter(rng)),
                    bucket_depth_bytes=depth * jitter(rng),
                    seed=rng.randrange(1000),
                )
            )
    return Workload(
        clips=[("lost", "mpeg1", mbps(1.7)), ("lost", "wmv", None)],
        warmup=lambda: run_experiment(specs[3]),
        round=lambda _r: [_engine_request(spec) for spec in specs],
        oracle=lambda _outputs: [],  # every request already runs the engine
    )


# ----------------------------------------------------------------------
# service_queries: one client against one CampaignService


def service_queries(seed: int, scratch: Path) -> Workload:
    rng = _rng("service_queries", seed)

    def point_spec(slot: int) -> dict:
        # Each fresh slot keeps its own profile; the seed only jitters
        # it, so the work of a round barely depends on the seed.
        return {
            "clip": "lost",
            "encoding_rate_bps": mbps(1.7),
            "token_rate_bps": mbps((1.6 + 0.1 * slot) * jitter(rng)),
            "bucket_depth_bytes": PAPER_DEPTHS[slot % 2] * jitter(rng),
            "seed": rng.randrange(1000),
        }

    # Fixed mix: P = fresh point, R = repeated point (store hit),
    # C = recommend, D/M = detect under the drop/remark action.
    mix = "PPPRPDPPRCM"
    points: list = []
    plan: list = []
    for kind in mix:
        if kind == "P":
            points.append(point_spec(len(points)))
            plan.append(("point", points[-1]))
        elif kind == "R":
            plan.append(("point", rng.choice(points)))
        elif kind == "C":
            plan.append(
                (
                    "recommend",
                    {"clip": "lost", "encoding_rate_bps": mbps(1.7),
                     "seed": rng.randrange(1000)},
                )
            )
        else:
            plan.append(
                (
                    "detect",
                    ExperimentSpec(
                        clip="lost",
                        encoding_rate_bps=mbps(1.7),
                        token_rate_bps=mbps(1.6 * jitter(rng)),
                        bucket_depth_bytes=3000.0 * jitter(rng),
                        policer_action="drop" if kind == "D" else "remark",
                        capture_trace=True,
                        seed=rng.randrange(1000),
                    ),
                )
            )
    counters = {"recommends": 0, "recommend_probes": 0}
    stores: list = []

    def detect(spec):
        result = run_experiment(spec)
        return result, detect_policing(result.extras["flow_trace"])

    def detect_canon(output):
        result, verdict = output
        return {
            "summary": summary_dict(ResultSummary.from_result(result)),
            "verdict": verdict.to_dict(),
        }

    def recommend(service, spec):
        response = service.query({"kind": "recommend", "spec": spec})
        counters["recommends"] += 1
        counters["recommend_probes"] += sum(
            row["probes"] for row in response["table"]["rows"]
        )
        return response

    def make_round(index: int) -> list:
        # Every round starts a fresh on-disk store, so all rounds do
        # the same work: their repeats hit, their fresh points miss.
        path = scratch / f"store-{index}"
        shutil.rmtree(path, ignore_errors=True)
        stores.append(path)
        service = CampaignService(ResultStore(path))
        requests = []
        for kind, payload in plan:
            if kind == "point":
                requests.append(
                    Request(
                        kind="point",
                        run=lambda p=payload: service.query(
                            {"kind": "point", "spec": p}
                        ),
                        sessions=lambda _r: 1,
                        canon=_strip_elapsed,
                        nominal_sessions=1,
                    )
                )
            elif kind == "recommend":
                requests.append(
                    Request(
                        kind="recommend",
                        run=lambda p=payload: recommend(service, p),
                        sessions=lambda r: sum(
                            row["probes"] for row in r["table"]["rows"]
                        ),
                        canon=lambda r: r["table"],
                        nominal_sessions=16,
                    )
                )
            else:
                requests.append(
                    Request(
                        kind="detect",
                        run=lambda s=payload: detect(s),
                        sessions=lambda _r: 1,
                        canon=detect_canon,
                        nominal_sessions=1,
                    )
                )
        return requests

    # Oracle sample: one fresh point query and the drop-action detect.
    point_index = rng.choice([i for i, k in enumerate(mix) if k == "P"])
    detect_index = mix.index("D")

    def oracle(outputs):
        notes = []
        spec = ExperimentSpec(**plan[point_index][1])
        if _engine_summary(spec) != _strip_elapsed(outputs[point_index]["summary"]):
            notes.append(f"point query {point_index}")
        with engine_oracle():
            engine = detect(plan[detect_index][1])
        if detect_canon(engine) != detect_canon(outputs[detect_index]):
            notes.append(f"detect request {detect_index}")
        return notes

    def warmup():
        path = scratch / "store-warmup"
        shutil.rmtree(path, ignore_errors=True)
        stores.append(path)
        CampaignService(ResultStore(path)).query(
            {"kind": "point", "spec": point_spec(0)}
        )

    def close():
        for path in stores:
            shutil.rmtree(path, ignore_errors=True)

    return Workload(
        clips=[("lost", "mpeg1", mbps(1.7))],
        warmup=warmup,
        round=make_round,
        oracle=oracle,
        close=close,
        counters=counters,
    )


# ----------------------------------------------------------------------
# flow_aggregates: ~100-flow aggregates and one admission frontier

N_FLOWS = 100
FRONTIER_FLOWS = 8
FRONTIER_ORACLE_FLOWS = (2, 3)


def _aggregate_request(agg: AggregateSpec) -> Request:
    def run():  # the `repro sweep --flows N` path, one grid point
        sweep = token_rate_sweep(
            agg,
            [agg.token_rate_bps],
            [agg.bucket_depth_bytes],
            runner=make_runner(jobs=1),
        )
        if sweep.failures:
            raise RuntimeError("aggregate quarantined")
        return sweep.points[0].result

    return Request(
        kind="aggregate",
        run=run,
        sessions=lambda summary: summary.n_flows,
        canon=summary_dict,
        nominal_sessions=agg.n_flows,
    )


def flow_aggregates(seed: int) -> Workload:
    rng = _rng("flow_aggregates", seed)
    base = ExperimentSpec(clip="test-300", codec="mpeg1", encoding_rate_bps=mbps(1.7))
    aggs = []
    # (policing, per-flow token rate Mbps, depth bytes): heavy
    # shared-bucket drops, and none, under both policing modes.
    for policing, per_flow_rate, depth in (
        ("aggregate", 0.95, 150000.0),
        ("aggregate", 2.5, 150000.0),
        ("per-flow", 1.6, 3000.0),
        ("per-flow", 2.5, 4500.0),
    ):
        n_rate = N_FLOWS if policing == "aggregate" else 1
        aggs.append(
            AggregateSpec.homogeneous(
                base,
                N_FLOWS,
                policing=policing,
                token_rate_bps=mbps(n_rate * per_flow_rate * jitter(rng)),
                bucket_depth_bytes=depth * jitter(rng),
                seed=rng.randrange(1000),
            )
        )
    frontier_args = dict(
        token_rate_bps=mbps(8.0 * jitter(rng)),
        bucket_depth_bytes=12000.0 * jitter(rng),
        seed=rng.randrange(1000),
    )

    def frontier():
        return admission_frontier(
            base, FRONTIER_FLOWS, runner=make_runner(jobs=1), **frontier_args
        )

    frontier_request = Request(
        kind="frontier",
        run=frontier,
        sessions=lambda f: sum(p.n_flows for p in f.points),
        canon=lambda f: f.to_dict(),
        nominal_sessions=FRONTIER_FLOWS * (FRONTIER_FLOWS + 1) // 2,
    )

    def oracle(outputs):
        # Small frontier probes on the engine fan-in lane; their rollup
        # fields must equal the fast lane's frontier points bit for bit.
        notes = []
        points = {p.n_flows: p for p in outputs[-1].points}
        for n in FRONTIER_ORACLE_FLOWS:
            agg = AggregateSpec.homogeneous(
                base,
                n,
                token_rate_bps=frontier_args["token_rate_bps"],
                bucket_depth_bytes=frontier_args["bucket_depth_bytes"],
                seed=frontier_args["seed"],
            )
            with engine_oracle():
                summary = run_aggregate(agg)
            point = points[n]
            got = (
                summary.quality_score,
                max(f.quality_score for f in summary.flow_summaries),
                summary.lost_frame_fraction,
                max(f.lost_frame_fraction for f in summary.flow_summaries),
                summary.packet_drop_fraction,
            )
            want = (
                point.quality_score,
                point.worst_quality_score,
                point.lost_frame_fraction,
                point.worst_lost_frame_fraction,
                point.packet_drop_fraction,
            )
            if got != want:
                notes.append(f"frontier probe of {n} flows")
        return notes

    warm = dataclasses.replace(aggs[0], flows=aggs[0].flows[:2], start_offsets=())
    return Workload(
        clips=[("test-300", "mpeg1", mbps(1.7))],
        warmup=lambda: make_runner(jobs=1).run_batch([warm]),
        round=lambda _r: [_aggregate_request(a) for a in aggs] + [frontier_request],
        oracle=oracle,
    )


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    """The named workload's generator, fed the seed."""
    if name == "service_queries":
        return service_queries(seed, scratch)
    return {
        "qbone_sweeps": qbone_sweeps,
        "engine_tail": engine_tail,
        "flow_aggregates": flow_aggregates,
    }[name](seed)


def prepare_clips(workload: Workload) -> None:
    """Encode and extract features of the workload's clips."""
    for clip, codec, rate in workload.clips:
        clip_features(clip, codec, rate)
