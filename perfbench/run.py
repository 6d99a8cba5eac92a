"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout. ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass. Progress lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record`` stores one round's output digests and deterministic counts
for the seed in ``perfbench/expected/``; later runs at that seed must
reproduce them.
"""

import time

T0 = time.perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected"
WORKLOADS = ("qbone_sweeps", "engine_tail", "service_queries", "flow_aggregates")

#: Extra fresh processes that only set up; setup_s is the median of
#: these and the measuring process's own set-up.
SETUP_PROBES = 2

#: Counts that must repeat exactly across rounds and runs at one seed.
DETERMINISTIC = (
    "batchpath.outcomes",
    "fastlane.engine_share",
    "store.hit_ratio",
    "vqm.segments",
    "vqm.calibration_failed",
    "engine.events",
    "detect.recommend_probes",
    "flows.flows",
)

ALL = frozenset(WORKLOADS)
FAST = frozenset({"qbone_sweeps", "service_queries"})

#: Boundary span -> (workloads where it must record calls, workloads
#: where it must record none), from the layer table of the README.
EXERCISE = {
    "video.encode_s": (ALL, ()),
    "video.features_s": (ALL, ()),
    "fastpath.schedule_s": (FAST, {"engine_tail"}),
    "fastpath.jitter_s": (FAST, {"engine_tail"}),
    "fastpath.scan_s": ({"service_queries"}, {"engine_tail"}),
    "fastpath.backbone_s": (FAST, {"engine_tail"}),
    "batchpath.scan_s": ({"qbone_sweeps"}, {"engine_tail"}),
    "engine.run_s": ({"engine_tail"}, ALL - {"engine_tail"}),
    "client.finalize_s": ({"qbone_sweeps", "flow_aggregates"}, ()),
    "client.render_s": ({"qbone_sweeps", "flow_aggregates"}, ()),
    "vqm.calibrate_s": (ALL - {"engine_tail"}, ()),
    "vqm.score_s": (ALL - {"engine_tail"}, ()),
    "netmetrics.summary_s": ({"qbone_sweeps"}, ()),
    "campaign.self_s": (FAST, ()),
    "store.get_s": ({"service_queries"}, ALL - {"service_queries"}),
    "store.put_s": ({"service_queries"}, ALL - {"service_queries"}),
    "flows.multipath_s": ({"flow_aggregates"}, ALL - {"flow_aggregates"}),
    "flows.measure_s": ({"flow_aggregates"}, ALL - {"flow_aggregates"}),
    "flows.admission_s": ({"flow_aggregates"}, ALL - {"flow_aggregates"}),
    "detect.detect_s": ({"service_queries"}, ALL - {"service_queries"}),
    "detect.estimate_s": ({"service_queries"}, ALL - {"service_queries"}),
}

#: Values (not spans) that must be non-zero on exactly these workloads.
NONZERO_ONLY = {
    "fastlane.engine_share": {"engine_tail"},
    "detect.recommend_probes": {"service_queries"},
}

#: Per-layer metric -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "video.encode_s": "s", "video.features_s": "s",
    "fastpath.schedule_s": "s", "fastpath.jitter_s": "s", "fastpath.scan_s": "s",
    "fastpath.backbone_s": "s",
    "batchpath.scan_s": "s", "batchpath.points": "count",
    "batchpath.outcomes": "count", "batchpath.outcome_ratio": "ratio",
    "engine.run_s": "s", "engine.events": "count", "engine.us_per_event": "us",
    "fastlane.engine_share": "ratio",
    "client.finalize_s": "s", "client.render_s": "s",
    "vqm.calibrate_s": "s", "vqm.score_s": "s", "vqm.segments": "count",
    "vqm.calibration_failed": "count",
    "netmetrics.summary_s": "s",
    "campaign.self_s": "s", "campaign.units": "count",
    "campaign.batch_units_mean": "count",
    "store.get_s": "s", "store.put_s": "s", "store.hit_ratio": "ratio",
    "flows.multipath_s": "s", "flows.measure_s": "s", "flows.admission_s": "s",
    "flows.flows": "count",
    "detect.detect_s": "s", "detect.estimate_s": "s",
    "detect.recommend_probes": "count",
}


def log(message: str) -> None:
    print(message, flush=True)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Set-up


#: Seconds the calibration kernel takes on the reference host, a
#: 2-vCPU Intel Xeon VM at 2.1 GHz with no other tenant busy.
REFERENCE_KERNEL_S = 0.0070


def kernel_seconds() -> float:
    """Time one run of a fixed calibration kernel.

    The host's speed drifts by tens of percent for minutes at a time as
    other tenants load the shared cores, and every workload slows with
    it. The kernel mixes interpreter-loop, dict and numpy work like the
    workloads do, so its time next to a request gauges the host's speed
    at that moment; timings are scaled by ``REFERENCE_KERNEL_S`` over
    it, i.e. reported in seconds of the uncontended reference host.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    table: dict = {}
    for i in range(20_000):
        table[i % 97] = table.get(i % 97, 0) + i
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(5):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


def host_scale(samples: int = 3) -> float:
    """Reference-host seconds per host second, right now."""
    return REFERENCE_KERNEL_S / statistics.median(
        kernel_seconds() for _ in range(samples)
    )


def set_up(workload_name: str, seed: int, scratch: Path):
    """Build the workload, prepare its clips and run its warm-up."""
    import workloads

    workload = workloads.make_workload(workload_name, seed, scratch)
    workloads.prepare_clips(workload)
    workload.warmup()
    return workload


def setup_probes(args) -> list:
    """Set-up seconds of fresh processes that do nothing else."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
# Timed pass


def timed_pass(workload, seconds: float, tracer=None):
    """Whole rounds of the mix until ``seconds`` of request time passed.

    Returns one record per round plus the outputs of round 0 (for the
    engine oracle). Request time excludes output hashing; the
    calibration kernel runs just before and after every request.
    """
    import workloads
    from repro.core import fastlane

    rounds = []
    first_outputs = []
    busy = 0.0
    while not rounds or busy < seconds:
        index = len(rounds)
        requests = workload.round(index)
        lane_before = fastlane.stats.as_dict()
        counters_before = dict(workload.counters)
        record = {
            "kinds": [], "latency": [], "scale": [], "sessions": [], "hashes": []
        }
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request = (index, i)
            output = None
            before = kernel_seconds()
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("request"):
                        output = request.run()
                else:
                    output = request.run()
            except Exception:  # noqa: BLE001 - a failed request is counted
                elapsed = time.perf_counter() - start
                traceback.print_exc(file=sys.stderr)
                digest = None
                sessions = request.nominal_sessions
            else:
                elapsed = time.perf_counter() - start
                digest = workloads.digest(request.canon(output))
                sessions = request.sessions(output)
            busy += elapsed
            after = kernel_seconds()
            record["kinds"].append(request.kind)
            record["latency"].append(elapsed)
            record["scale"].append(2 * REFERENCE_KERNEL_S / (before + after))
            record["sessions"].append(sessions)
            record["hashes"].append(digest)
            if index == 0:
                first_outputs.append(output)
        record["lane"] = fastlane.stats.delta_since(lane_before)
        record["counters"] = {
            k: v - counters_before.get(k, 0) for k, v in workload.counters.items()
        }
        rounds.append(record)
    return rounds, first_outputs


def request_times(rounds) -> list:
    """Each request's median over the rounds, in reference-host seconds."""
    return [
        statistics.median(latency * scale for latency, scale in pairs)
        for pairs in zip(*(zip(r["latency"], r["scale"]) for r in rounds))
    ]


def failed_sessions(rounds, expected) -> int:
    """Sessions of requests that raised or whose output hash differs.

    Outputs are compared with the digests recorded for this seed when
    there are any, and always with round 0 (rounds repeat one mix).
    """
    reference = rounds[0]["hashes"]
    failed = 0
    for record in rounds:
        for i, (digest, sessions) in enumerate(
            zip(record["hashes"], record["sessions"])
        ):
            bad = digest is None or digest != reference[i]
            if expected is not None:
                bad = bad or i >= len(expected) or digest != expected[i]
            failed += sessions if bad else 0
    if expected is not None and len(expected) != len(reference):
        failed = sum(sum(r["sessions"]) for r in rounds)
    return failed


# ----------------------------------------------------------------------
# Per-layer metrics from the traced pass


def layer_metrics(tracer, rounds):
    """Per-round layer metrics, the video set-up split and call counts.

    Times are self times. Every value is per round of the mix except
    ``video.*``, which is the set-up's cold encode and feature time
    (the timed pass only hits the clip caches).
    """
    spans = tracer.spans
    self_times = tracer.self_times()
    per_round = [defaultdict(float) for _ in rounds]
    setup = defaultdict(float)
    timed_calls, all_calls = Counter(), Counter()
    for i, (name, _start, _end, parent, request, value) in enumerate(spans):
        all_calls[name] += 1
        if request == "setup":
            if name.startswith("video."):
                setup[name] += self_times[i]
            continue
        timed_calls[name] += 1
        acc = per_round[request[0]]
        if name in PER_LAYER:  # every span but the client's "request"
            acc[name] += self_times[i]
        if name == "batchpath.scan_s":
            acc["batchpath.points"] += value
            acc["batch_calls"] += 1
        elif name == "fastpath.backbone_s" and spans[parent][0] == "batchpath.scan_s":
            acc["batchpath.outcomes"] += 1
        elif name == "engine.run_s":
            acc["engine.events"] += value
        elif name == "vqm.calibrate_s":
            acc["vqm.segments"] += 1
            acc["vqm.calibration_failed"] += value
        elif name == "campaign.self_s":
            acc["campaign.units"] += value[0]
            acc["cache_hits"] += value[1]
        elif name == "flows.multipath_s":
            acc["flows.flows"] += value

    for acc, record in zip(per_round, rounds):
        lane = record["lane"]
        served = (
            lane["hits"] + lane["fallbacks"] + lane["batch_points"]
            + acc["flows.flows"]
        )
        acc["fastlane.engine_share"] = lane["fallbacks"] / served if served else 0.0
        acc["batchpath.outcome_ratio"] = (
            acc["batchpath.outcomes"] / acc["batchpath.points"]
            if acc["batchpath.points"] else 0.0
        )
        acc["campaign.batch_units_mean"] = (
            acc["batchpath.points"] / acc["batch_calls"] if acc["batch_calls"] else 0.0
        )
        acc["store.hit_ratio"] = (
            acc["cache_hits"] / acc["campaign.units"] if acc["campaign.units"] else 0.0
        )
        counters = record["counters"]
        acc["detect.recommend_probes"] = (
            counters["recommend_probes"] / counters["recommends"]
            if counters.get("recommends") else 0.0
        )
    return per_round, setup, timed_calls, all_calls


def summarize_layers(per_round, setup) -> dict:
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("video."):
            value = setup[name]
        elif name == "engine.us_per_event":
            events = sum(acc["engine.events"] for acc in per_round)
            run_s = sum(acc["engine.run_s"] for acc in per_round)
            value = 1e6 * run_s / events if events else 0.0
        else:
            value = statistics.fmean(acc[name] for acc in per_round)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def exercise_problems(workload: str, per_round, timed_calls, all_calls) -> list:
    """Spans that missed calls where they should move, or ran where 0."""
    problems = []
    for span, (must, zero) in EXERCISE.items():
        if workload in must and not timed_calls[span]:
            problems.append(f"{span}: no calls on {workload}")
        if workload in zero and all_calls[span]:
            problems.append(f"{span}: {all_calls[span]} calls on {workload}, want 0")
    for name, only in NONZERO_ONLY.items():
        nonzero = any(acc[name] for acc in per_round)
        if nonzero != (workload in only):
            problems.append(f"{name}: {'non-zero' if nonzero else 'zero'} on {workload}")
    return problems


def count_problems(per_round, recorded) -> list:
    """Deterministic counts that differ between rounds or from record."""
    problems = []
    first = {name: per_round[0][name] for name in DETERMINISTIC}
    for index, acc in enumerate(per_round[1:], start=1):
        for name in DETERMINISTIC:
            if acc[name] != first[name]:
                problems.append(f"{name}: round {index} {acc[name]} != {first[name]}")
    if recorded is not None:
        for name in DETERMINISTIC:
            if recorded.get(name) != first[name]:
                problems.append(
                    f"{name}: {first[name]} != recorded {recorded.get(name)}"
                )
    return problems


# ----------------------------------------------------------------------


def load_expected(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def save_expected(workload: str, seed: int, entry: dict) -> None:
    table = load_expected(workload)
    table[str(seed)] = entry
    EXPECTED.mkdir(exist_ok=True)
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    (EXPECTED / f"{workload}.json").write_text(json.dumps(ordered, indent=1) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = OUT / f"{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workload = set_up(args.workload, args.seed, scratch)
            setup_s = (time.perf_counter() - T0) * host_scale()
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    traced = bool(args.trace or args.record)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = set_up(args.workload, args.seed, scratch)
    setup_s = (time.perf_counter() - T0) * host_scale()
    try:
        rounds, outputs = timed_pass(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        oracle_notes = workload.oracle(outputs)
    finally:
        workload.close()

    recorded = None if args.record else load_expected(args.workload).get(str(args.seed))
    expected_hashes = recorded["requests"] if recorded else None
    attempted = sum(sum(r["sessions"]) for r in rounds)
    failed = failed_sessions(rounds, expected_hashes)
    latencies = [x for r in rounds for x in r["latency"]]
    busy = sum(latencies)
    problems = [f"oracle mismatch: {note}" for note in oracle_notes]

    log(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
        f"{len(latencies)} requests, {attempted} sessions in {busy:.3f} s "
        f"of request time ({'traced' if traced else 'untraced'}); "
        f"digests {'recorded' if recorded else 'not recorded'} for this seed"
    )
    for i, (kind, seconds) in enumerate(zip(rounds[0]["kinds"], request_times(rounds))):
        log(f"  request {i} ({kind}): {seconds:.4f} s")

    if traced:
        per_round, setup, timed_calls, all_calls = layer_metrics(tracer, rounds)
        problems += exercise_problems(args.workload, per_round, timed_calls, all_calls)
        problems += count_problems(per_round, recorded["counts"] if recorded else None)
        metrics = summarize_layers(per_round, setup)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        traced_rate = attempted / len(rounds) / sum(request_times(rounds))
        log(f"  traced sessions_per_s {traced_rate:.4f}; {len(tracer.spans)} spans")
        if args.record and not problems and not failed:
            save_expected(
                args.workload,
                args.seed,
                {
                    "requests": rounds[0]["hashes"],
                    "counts": {name: per_round[0][name] for name in DETERMINISTIC},
                },
            )
            log(f"  recorded seed {args.seed}")
    else:
        # Probes run last so they neither share the CPU with nor delay
        # this process's own set-up.
        setups = setup_probes(args) + [setup_s]
        log(f"  setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
        times = request_times(rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "sessions_per_s": {
                "value": attempted / len(rounds) / sum(times), "unit": "1/s"
            },
            "request_p50_s": {"value": nearest_rank(times, 0.5), "unit": "s"},
            "request_p90_s": {"value": nearest_rank(times, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "answered_frac": {
                "value": (attempted - failed) / attempted, "unit": "ratio"
            },
        }
    for problem in problems:
        log(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems and not failed,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
