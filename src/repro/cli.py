"""Command-line interface.

Seven subcommands mirror the library's main entry points::

    python -m repro run   --clip lost --encoding 1.7 --rate 1.9 --depth 3000
    python -m repro sweep --clip lost --encoding 1.7 \
        --rates 1.7,1.8,1.9,2.0 --depths 3000,4500 \
        [--jobs 4] [--cache] [--cache-dir DIR] [--csv out.csv] \
        [--max-retries 2] [--spec-timeout 600] [--journal FILE] [--resume] \
        [--adaptive] [--cliff-threshold Q] [--progress]
    python -m repro clips
    python -m repro detect    --clip test-300 --rate 1.5 --depth 3000
    python -m repro recommend --clip lost --depths 3000,4500 \
        [--target-score 0.05 | --target-loss F] [--jobs 4] [--cache]
    python -m repro admit --clip lost --rate 4.0 --depth 9000 [--max-flows 4]
    python -m repro serve [--cache-dir DIR] [--jobs 4]

``run`` prints the headline measurements (and a MOS verdict) for one
experiment; ``sweep`` prints a paper-style figure (optionally writing
the raw CSV); ``clips`` lists the registered clips and their encoding
statistics; ``detect`` runs one trace-enabled experiment, infers the
policing token bucket from the trace alone (:mod:`repro.detect`), and
scores the inference against the configured ground truth;
``recommend`` searches for the minimal token rate per bucket depth
meeting a quality target and classifies each minimum on the paper's
average-rate↔maximum-rate axis. ``sweep``, ``recommend``, ``admit``
and ``serve`` execute through one :class:`~repro.core.runner.Runner`
built from the options they share: ``--jobs N`` spreads the batch over
worker processes, and ``--cache`` (or ``--cache-dir DIR``) keys each
point's result by its spec fingerprint in an on-disk store so a
repeated run performs no simulations (a hit/miss/time-saved line is
printed after the output).

Fault tolerance: ``--max-retries``/``--spec-timeout`` attach a retry
policy, so a crashing or hanging grid point is retried with backoff
and, if it never recovers, quarantined while the rest of the sweep
completes; a sweep with quarantined specs prints a one-line summary to
stderr and exits 3. ``--journal FILE`` checkpoints every outcome as it
resolves (``--journal-compact N`` folds the log into a checkpoint
every N outcomes), and ``--resume`` reloads that journal so an
interrupted campaign re-simulates nothing it already finished.

Campaign features: ``sweep --adaptive`` runs the cliff-seeking sampler
(coarse grid plus recursive refinement around quality jumps — see
:mod:`repro.core.campaign.sampler`) instead of the full grid;
``--cliff-threshold`` sets the quality_score jump that triggers
refinement. ``--progress`` streams a one-line progress/ETA report to
stderr, fed by the scheduler's outcome stream. ``recommend --cache``
answers from the warm store and simulates only cache misses; ``serve``
runs a :class:`~repro.core.campaign.service.CampaignService`, which
answers the same way, as a JSON-lines request/response loop on
stdin/stdout.
``admit`` probes 1..N-flow aggregates under one
token bucket and compares QoE-floor admission against a naive
bandwidth budget (see :mod:`repro.flows.admission`).

Profiling: ``run --profile`` / ``sweep --profile`` (or the
``REPRO_PROFILE=1`` environment variable) execute the command under
``cProfile`` and print the top 20 cumulative-time functions to stderr
after the normal output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.export import result_to_json, sweep_to_csv
from repro.core.faults import RetryPolicy
from repro.core.report import render_sweep, render_table
from repro.core.resultstore import ResultStore, default_cache_dir
from repro.core.runner import Runner
from repro.core.sweep import token_rate_sweep, validate_grid
from repro.units import mbps, to_mbps
from repro.video.clips import CLIPS, encode_clip
from repro.vqm.mos import describe


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clip", default="lost", help="clip name (lost, dark, test-<n>)")
    parser.add_argument("--codec", default="mpeg1", choices=["mpeg1", "wmv"])
    parser.add_argument(
        "--encoding", type=float, default=None,
        help="encoding rate in Mbps (codec default if omitted)",
    )
    parser.add_argument(
        "--server", default="videocharger",
        choices=["videocharger", "wmt", "largeudp"],
    )
    parser.add_argument("--transport", default="udp", choices=["udp", "tcp"])
    parser.add_argument(
        "--testbed", default="qbone", choices=["qbone", "local", "af"]
    )
    parser.add_argument("--shaper", action="store_true", help="insert the Linux shaper")
    parser.add_argument(
        "--reference", default="transmitted", choices=["transmitted", "fixed"]
    )
    parser.add_argument("--cross", type=float, default=0.0, help="cross traffic (Mbps)")
    parser.add_argument("--adaptation", action="store_true")
    parser.add_argument(
        "--arq", action="store_true",
        help="selective-repeat ARQ with deadline-aware repair (UDP only)",
    )
    parser.add_argument(
        "--fec", type=int, default=0, metavar="K",
        help="XOR parity packet per K data packets (0 = off; UDP only)",
    )
    parser.add_argument(
        "--feedback-loss", type=float, default=0.0, metavar="P",
        help="loss rate of the client-to-server feedback channel",
    )
    parser.add_argument(
        "--feedback-rtt", type=float, default=0.02, metavar="S",
        help="round-trip time of the feedback channel (seconds)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _spec_from_args(args, token_rate_mbps: float, depth: float) -> ExperimentSpec:
    return ExperimentSpec(
        clip=args.clip,
        codec=args.codec,
        encoding_rate_bps=mbps(args.encoding) if args.encoding else None,
        server=args.server,
        transport=args.transport,
        testbed=args.testbed,
        token_rate_bps=mbps(token_rate_mbps),
        bucket_depth_bytes=depth,
        use_shaper=args.shaper,
        cross_traffic_bps=mbps(args.cross),
        reference=args.reference,
        adaptation=args.adaptation,
        arq=args.arq,
        fec_group=args.fec,
        feedback_loss=args.feedback_loss,
        feedback_rtt_s=args.feedback_rtt,
        seed=args.seed,
    )


def _runner(args) -> Runner:
    """The campaign runner the shared options ask for.

    ``--cache`` turns the result store on, and left unset ``--cache-dir``
    does; ``serve`` has no ``--cache`` and always keeps a store.
    ``--max-retries`` or ``--spec-timeout``, where a subcommand takes
    them, attach a retry policy.
    """
    use_cache = getattr(args, "cache", True)
    if use_cache is None:
        use_cache = args.cache_dir is not None
    max_retries = getattr(args, "max_retries", None)
    spec_timeout = getattr(args, "spec_timeout", None)
    retry = None
    if max_retries is not None or spec_timeout is not None:
        retry = RetryPolicy(
            max_retries=2 if max_retries is None else max_retries,
            spec_timeout_s=spec_timeout,
        )
    return Runner(
        jobs=args.jobs,
        store=ResultStore(args.cache_dir) if use_cache else None,
        retry=retry,
    )


def _print_cache_stats(runner: Runner, lead: str = "") -> None:
    """The ``cache [DIR]: ...`` line, when the runner has a store."""
    if runner.store is not None:
        print(f"{lead}cache [{runner.store.cache_dir}]: {runner.stats.describe()}")


def _cmd_run(args) -> int:
    spec = _spec_from_args(args, args.rate, args.depth)
    result = run_experiment(spec)
    if args.json:
        print(result_to_json(result))
        return 0
    print(
        f"clip={spec.clip} codec={spec.codec} server={spec.server} "
        f"testbed={spec.testbed} r={args.rate} Mbps b={args.depth:.0f} B"
    )
    print(f"frame loss:        {100 * result.lost_frame_fraction:.2f}%")
    print(f"packet drops:      {100 * result.packet_drop_fraction:.2f}%")
    print(f"frozen display:    {100 * result.trace.frozen_fraction:.2f}%")
    print(f"rebuffer stalls:   {result.trace.rebuffer_events}")
    recovery = result.extras.get("recovery")
    if recovery is not None:
        print(
            f"recovery:          {recovery['nacks_sent']} NACKs, "
            f"{recovery['repairs_sent']} repairs "
            f"({recovery['repairs_arrived_late']} late), "
            f"{recovery['fec_repaired']} FEC-repaired, "
            f"{recovery['feedback_lost']} feedback lost"
        )
    print(describe(result.quality_score))
    return 0


def _cmd_sweep(args) -> int:
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal FILE")
    if args.adaptive and args.journal:
        raise ValueError(
            "--adaptive does not support --journal (the evaluated subset "
            "is data-dependent); use --cache for warm restarts instead"
        )
    if args.journal_compact is not None and not args.journal:
        raise ValueError("--journal-compact requires --journal FILE")
    # Validate the whole grid up front: a typo'd rate or duplicated
    # depth should die here, not an hour into the campaign.
    rates = [mbps(float(r)) for r in args.rates.split(",")]
    depths = [float(d) for d in args.depths.split(",")]
    rates, depths = validate_grid(rates, depths)
    base = _spec_from_args(args, to_mbps(rates[0]), depths[0])
    if args.flows:
        # Multi-flow sweep: every grid point polices an N-flow
        # aggregate instead of a single flow. Flow-level shaping is
        # not expressible inside an aggregate; cross traffic moves to
        # the aggregate (backbone) level.
        import dataclasses as _dc

        from repro.flows.aggregate import AggregateSpec

        if args.flows < 1:
            raise ValueError(f"--flows must be at least 1 (got {args.flows})")
        if args.shaper:
            raise ValueError("--flows does not support --shaper")
        member = _dc.replace(base, cross_traffic_bps=0.0)
        base = AggregateSpec.homogeneous(
            member,
            args.flows,
            spacing_s=args.flow_spacing,
            policing=args.flow_policing,
            cross_traffic_bps=mbps(args.cross),
        )
    runner = _runner(args)
    progress = None
    if args.progress:
        from repro.core.campaign import CampaignProgress

        total = None if args.adaptive else len(rates) * len(depths)
        progress = CampaignProgress(total=total, label="sweep")
    if args.adaptive:
        from repro.core.campaign import adaptive_token_rate_sweep

        sweep = adaptive_token_rate_sweep(
            base,
            rates,
            depths,
            runner=runner,
            cliff_quality_jump=args.cliff_threshold,
            progress=progress,
        )
    else:
        sweep = token_rate_sweep(
            base,
            rates,
            depths,
            runner=runner,
            journal_path=args.journal,
            resume=args.resume,
            progress=progress,
            journal_compact_every=args.journal_compact,
        )
    print(render_sweep(sweep, title=f"sweep: {args.clip} ({args.codec})"))
    if sweep.sampling is not None:
        sampling = sweep.sampling
        print(
            f"\nadaptive: evaluated {sampling['evaluated']} of "
            f"{sampling['grid_points']} grid points "
            f"({100 * sampling['ratio']:.0f}%) in {sampling['rounds']} rounds"
        )
    _print_cache_stats(runner, "\n")
    if args.journal:
        total = len(sweep.points) + len(sweep.failures)
        resumed = total - runner.stats.submitted
        print(f"\njournal [{args.journal}]: {resumed} of {total} specs resumed")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(sweep_to_csv(sweep))
        print(f"\nwrote {args.csv}")
    if sweep.failures:
        detail = "; ".join(
            f"r={to_mbps(f.token_rate_bps):.3f}Mbps "
            f"b={f.bucket_depth_bytes:.0f}B {f.record.describe()}"
            for f in sweep.failures
        )
        print(
            f"quarantined {len(sweep.failures)} of "
            f"{len(sweep.points) + len(sweep.failures)} specs: {detail}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_detect(args) -> int:
    import dataclasses
    import json

    from repro.detect import detect_policing

    spec = dataclasses.replace(
        _spec_from_args(args, args.rate, args.depth),
        policer_action=args.policer_action,
        capture_trace=True,
    )
    result = run_experiment(spec)
    payload = result.extras.get("flow_trace")
    if payload is None:
        raise ValueError(
            f"testbed {spec.testbed!r} produced no flow trace to analyze"
        )
    verdict = detect_policing(payload, min_events=args.min_events)
    truth = {
        "token_rate_bps": spec.token_rate_bps,
        "bucket_depth_bytes": spec.bucket_depth_bytes,
        "policer_action": spec.policer_action,
        "packet_drop_fraction": result.packet_drop_fraction,
    }
    errors = None
    if verdict.estimate is not None:
        estimate = verdict.estimate
        errors = {
            "rate_relative_error": (
                abs(estimate.rate_bps - spec.token_rate_bps)
                / spec.token_rate_bps
            ),
            "depth_error_bytes": abs(
                estimate.depth_bytes - spec.bucket_depth_bytes
            ),
        }
    if args.json:
        print(
            json.dumps(
                {
                    "verdict": verdict.to_dict(),
                    "ground_truth": truth,
                    "errors": errors,
                },
                indent=2,
            )
        )
        return 0
    print(
        f"clip={spec.clip} truth: r={to_mbps(spec.token_rate_bps):.3f} Mbps "
        f"b={spec.bucket_depth_bytes:.0f} B action={spec.policer_action}"
    )
    print(
        f"verdict: {verdict.code} (policed={verdict.policed}"
        + (f", action={verdict.action}" if verdict.action else "")
        + f"); {verdict.n_lost} lost, {verdict.n_remarked} remarked "
        f"of {verdict.n_packets} packets"
    )
    if verdict.estimate is not None:
        estimate = verdict.estimate
        ci_lo, ci_hi = estimate.rate_ci_bps
        print(
            f"estimate: r̂={to_mbps(estimate.rate_bps):.4f} Mbps "
            f"[{to_mbps(ci_lo):.4f}, {to_mbps(ci_hi):.4f}] "
            f"({100 * errors['rate_relative_error']:.3f}% off), "
            f"b̂={estimate.depth_bytes:.0f} B "
            f"[{estimate.depth_ci_bytes[0]:.0f}, {estimate.depth_ci_bytes[1]:.0f}] "
            f"({errors['depth_error_bytes']:.0f} B off)"
        )
    return 0


def _cmd_recommend(args) -> int:
    import json

    from repro.detect import recommend_provisioning

    depths = [float(d) for d in args.depths.split(",")]
    base = _spec_from_args(args, args.rate_max, depths[0])
    runner = _runner(args)
    table = recommend_provisioning(
        base,
        depths=depths,
        runner=runner,
        target_quality_score=args.target_score,
        target_lost_frames=args.target_loss,
        rate_min_bps=mbps(args.rate_min),
        rate_max_bps=mbps(args.rate_max),
        precision_bps=args.precision * 1e3,
    )
    if args.json:
        print(json.dumps(table.to_dict(), indent=2))
        return 0
    target = table.target
    print(
        f"clip={table.clip} target: {target['metric']} <= {target['bound']} "
        f"(encoding avg {to_mbps(table.avg_rate_bps):.3f} / "
        f"max {to_mbps(table.max_rate_bps):.3f} Mbps)"
    )
    rows = [
        (
            f"{row.bucket_depth_bytes:.0f}",
            (
                f"{to_mbps(row.min_token_rate_bps):.3f}"
                if row.min_token_rate_bps is not None
                else "> rate-max"
            ),
            row.classification,
            f"{row.probes}",
        )
        for row in table.rows
    ]
    print(
        render_table(
            ["depth (B)", "min rate (Mbps)", "classification", "probes"], rows
        )
    )
    findings = table.findings()
    if "paper_finding_reproduced" in findings:
        print(
            "paper finding (4500 B ~ average rate, 3000 B ~ maximum rate): "
            + (
                "reproduced"
                if findings["paper_finding_reproduced"]
                else "NOT reproduced"
            )
        )
    _print_cache_stats(runner)
    return 0


def _cmd_admit(args) -> int:
    import dataclasses
    import json

    from repro.flows.admission import admission_frontier

    if args.max_flows < 1:
        raise ValueError(
            f"--max-flows must be at least 1 (got {args.max_flows})"
        )
    if args.shaper:
        raise ValueError("admit does not support --shaper")
    base = dataclasses.replace(
        _spec_from_args(args, args.rate, args.depth), cross_traffic_bps=0.0
    )
    runner = _runner(args)
    frontier = admission_frontier(
        base,
        args.max_flows,
        token_rate_bps=mbps(args.rate),
        bucket_depth_bytes=args.depth,
        floor_score=args.floor_score,
        floor_loss=args.floor_loss,
        budget_bps=mbps(args.budget) if args.budget is not None else None,
        runner=runner,
        spacing_s=args.flow_spacing,
        policing=args.flow_policing,
        policer_action=args.policer_action,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(frontier.to_dict(), indent=2))
        return 0
    print(
        f"admission frontier: {args.clip} ({args.codec}) "
        f"r={args.rate} Mbps b={args.depth:.0f} B "
        f"(nominal {to_mbps(frontier.nominal_rate_bps):.3f} Mbps/flow, "
        f"budget {to_mbps(frontier.budget_bps):.3f} Mbps)"
    )
    rows = [
        (
            f"{p.n_flows}",
            f"{p.worst_quality_score:.3f}",
            f"{100 * p.worst_lost_frame_fraction:.1f}%",
            f"{100 * p.packet_drop_fraction:.1f}%",
            f"{to_mbps(p.measured_peak_rate_bps):.2f}",
            "yes" if p.qoe_admissible else "no",
            "yes" if p.bandwidth_admissible else "no",
        )
        for p in frontier.points
    ]
    print(
        render_table(
            [
                "flows",
                "worst VQM",
                "worst loss",
                "drops",
                "peak (Mbps)",
                "QoE ok",
                "budget ok",
            ],
            rows,
        )
    )
    verdict = "disagree" if frontier.policies_disagree else "agree"
    print(
        f"qoe-floor admits {frontier.qoe_admitted} flow(s) "
        f"(score <= {frontier.floor_score}, loss <= {frontier.floor_loss}); "
        f"bandwidth budget admits {frontier.bandwidth_admitted} — "
        f"policies {verdict}"
    )
    _print_cache_stats(runner)
    return 0


def _cmd_serve(args) -> int:
    from repro.core.campaign import CampaignService

    runner = _runner(args)
    store = runner.store
    service = CampaignService(store, jobs=runner.jobs, retry=runner.retry)
    print(
        f"serving provisioning queries from {store.cache_dir} "
        f"({len(store)} warm entries); one JSON request per line",
        file=sys.stderr,
    )
    handled = service.serve_forever()
    print(f"served {handled} requests", file=sys.stderr)
    return 0


def _cmd_clips(_args) -> int:
    rows = []
    for name, clip in CLIPS.items():
        stats = encode_clip(name, "mpeg1", mbps(1.7)).rate_stats()
        rows.append(
            (
                name,
                f"{clip.n_frames}",
                f"{clip.duration_s:.2f}",
                f"{clip.fps:.2f}",
                f"{to_mbps(stats['rate_max_bps']):.2f}",
                clip.description,
            )
        )
    print(
        render_table(
            ["clip", "frames", "duration (s)", "fps", "max rate @1.7M", "description"],
            rows,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the CLI.

    Each option that several subcommands share is defined once, on a
    parent parser those subcommands list.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the SIGCOMM 2001 DiffServ/video-quality study",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def shared() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    spec = shared()
    _add_spec_arguments(spec)
    bucket = shared()
    bucket.add_argument("--rate", type=float, required=True, help="token rate (Mbps)")
    bucket.add_argument("--depth", type=float, default=3000.0, help="bucket depth (bytes)")
    depths = shared()
    depths.add_argument(
        "--depths", default="3000,4500", help="comma-separated bucket depths (bytes)"
    )
    action = shared()
    action.add_argument(
        "--policer-action", default="drop", choices=["drop", "remark"],
        help="treatment of excess (non-conformant) traffic",
    )
    flows = shared()
    flows.add_argument(
        "--flow-spacing", type=float, default=0.0, metavar="S",
        help="stagger aggregate flow starts by S seconds",
    )
    flows.add_argument(
        "--flow-policing", default="aggregate",
        choices=["aggregate", "per-flow"],
        help="one shared bucket vs one identical bucket per flow",
    )
    jobs = shared()
    jobs.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for scheduled runs (1 = in-process)",
    )
    jobs.add_argument(
        "--cache-dir", default=None,
        help=f"result store location (default {default_cache_dir()}; turns the store on)",
    )
    cache = shared()
    cache.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="reuse/store results in the on-disk cache",
    )
    retry = shared()
    retry.add_argument(
        "--max-retries", type=int, default=None,
        help="retries per failing spec before quarantine (enables fault tolerance)",
    )
    retry.add_argument(
        "--spec-timeout", type=float, default=None,
        help="per-attempt wall-clock budget in seconds (enables fault tolerance)",
    )
    json_out = shared()
    json_out.add_argument("--json", action="store_true", help="emit JSON")
    profile = shared()
    profile.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile; top-20 cumulative functions to stderr",
    )

    run_parser = commands.add_parser(
        "run", parents=[spec, bucket, json_out, profile], help="run one experiment"
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep",
        parents=[spec, depths, flows, jobs, cache, retry, profile],
        help="token-rate sweep (one figure)",
    )
    sweep_parser.add_argument(
        "--rates", required=True, help="comma-separated token rates (Mbps)"
    )
    sweep_parser.add_argument("--csv", help="also write raw CSV here")
    sweep_parser.add_argument(
        "--flows", type=int, default=0, metavar="N",
        help="sweep N-flow aggregates sharing each grid point's "
        "profile instead of a single flow (see repro.flows)",
    )
    sweep_parser.add_argument(
        "--journal", default=None,
        help="checkpoint every outcome to this append-only journal file",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="reload the journal and skip already-completed specs",
    )
    sweep_parser.add_argument(
        "--journal-compact", type=int, default=None, metavar="N",
        help="compact the journal into a checkpoint every N outcomes",
    )
    sweep_parser.add_argument(
        "--adaptive", action="store_true",
        help="cliff-seeking sampler: coarse grid + refinement around "
        "quality jumps instead of the full grid",
    )
    sweep_parser.add_argument(
        "--cliff-threshold", type=float, default=0.2,
        help="quality_score jump across a bracket that triggers "
        "adaptive refinement (only with --adaptive)",
    )
    sweep_parser.add_argument(
        "--progress", action="store_true",
        help="stream a one-line progress/ETA report to stderr",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    clips_parser = commands.add_parser("clips", help="list registered clips")
    clips_parser.set_defaults(func=_cmd_clips)

    detect_parser = commands.add_parser(
        "detect",
        parents=[spec, bucket, action, json_out],
        help="infer the policing token bucket from a flow trace",
    )
    detect_parser.add_argument(
        "--min-events", type=int, default=5,
        help="non-conformant events required before inferring",
    )
    detect_parser.set_defaults(func=_cmd_detect)

    recommend_parser = commands.add_parser(
        "recommend",
        parents=[spec, depths, jobs, cache, json_out],
        help="minimal token rate per bucket depth for a quality target",
    )
    recommend_parser.add_argument(
        "--target-score", type=float, default=0.05,
        help="quality-score bound (0 best, 1 worst)",
    )
    recommend_parser.add_argument(
        "--target-loss", type=float, default=None,
        help="lost-frame-fraction bound (overrides --target-score)",
    )
    recommend_parser.add_argument(
        "--rate-min", type=float, default=1.0,
        help="search floor for the token rate (Mbps)",
    )
    recommend_parser.add_argument(
        "--rate-max", type=float, default=2.4,
        help="search ceiling for the token rate (Mbps)",
    )
    recommend_parser.add_argument(
        "--precision", type=float, default=20.0,
        help="bisection precision (kbps)",
    )
    recommend_parser.set_defaults(func=_cmd_recommend)

    admit_parser = commands.add_parser(
        "admit",
        parents=[spec, bucket, action, flows, jobs, cache, json_out],
        help="admitted-flows-vs-QoE frontier: QoE-floor vs bandwidth budget",
    )
    admit_parser.add_argument(
        "--max-flows", type=int, default=4, metavar="N",
        help="probe aggregates of 1..N flows",
    )
    admit_parser.add_argument(
        "--floor-score", type=float, default=0.25,
        help="per-flow VQM score each admitted flow must stay within",
    )
    admit_parser.add_argument(
        "--floor-loss", type=float, default=0.05,
        help="per-flow lost-frame fraction each admitted flow must stay within",
    )
    admit_parser.add_argument(
        "--budget", type=float, default=None,
        help="naive bandwidth budget (Mbps; default: the token rate)",
    )
    admit_parser.set_defaults(func=_cmd_admit)

    serve_parser = commands.add_parser(
        "serve",
        parents=[jobs, retry],
        help="long-running provisioning query service (JSON lines on stdin)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain errors (unknown clip, invalid configuration) print a
    one-line message and exit 2 instead of dumping a traceback.
    """
    args = build_parser().parse_args(argv)
    profile = (
        bool(getattr(args, "profile", False))
        or os.environ.get("REPRO_PROFILE", "") == "1"
    )
    try:
        # A ValueError here, not an argparse type error, so a bad --jobs
        # exits 2 like every other domain error.
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1 (got {args.jobs})")
        if profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            try:
                return profiler.runcall(args.func, args)
            finally:
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(20)
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
