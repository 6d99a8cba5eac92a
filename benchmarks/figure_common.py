"""Shared workloads for the figure benchmarks.

The QBone figures (7-12) all run the same experiment shape: stream a
clip encoding across the QBone testbed, sweep the token rate for two
bucket depths, and report frame loss + VQM score per point. The
fixed-reference figures (13-14) sweep per encoding against the 1.7 Mbps
original. The local-testbed figures (15-16) do the same over the WMT
server.
"""

from __future__ import annotations

import os

from repro.core.analysis import find_quality_cutoff, nonlinearity_index
from repro.core.experiment import ExperimentSpec
from repro.core.report import render_sweep, render_table
from repro.core.resultstore import ResultStore
from repro.core.runner import Runner
from repro.core.sweep import SweepResult, token_rate_sweep
from repro.units import mbps, to_mbps

#: Token rates swept per encoding rate (Mbps): from just below the
#: average stream rate to where quality 0 is reached, as in the paper.
QBONE_SWEEP_RATES = {
    1.0: (0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4),
    1.5: (1.45, 1.5, 1.55, 1.6, 1.7, 1.8, 1.9, 2.0),
    1.7: (1.65, 1.7, 1.75, 1.8, 1.9, 2.0, 2.1, 2.2),
}

#: The two bucket depths of every figure.
PAPER_DEPTHS = (3000.0, 4500.0)


def bench_runner() -> Runner:
    """The runner every figure bench sweeps through.

    Cache-backed by default (``~/.cache/repro`` or ``$REPRO_CACHE_DIR``)
    so regenerating a figure a second time costs file reads, not
    simulations; set ``REPRO_BENCH_CACHE=0`` to force re-simulation and
    ``REPRO_BENCH_JOBS=N`` to fan a cold sweep out over N processes.
    """
    store = None
    if os.environ.get("REPRO_BENCH_CACHE", "1") != "0":
        store = ResultStore()
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return Runner(jobs=jobs, store=store)


def qbone_figure_sweep(clip: str, encoding_mbps: float, seed: int = 11) -> SweepResult:
    """One of Figures 7-12: quality & frame loss vs token rate."""
    spec = ExperimentSpec(
        clip=clip,
        codec="mpeg1",
        encoding_rate_bps=mbps(encoding_mbps),
        server="videocharger",
        testbed="qbone",
        reference="transmitted",
        seed=seed,
    )
    rates = [mbps(r) for r in QBONE_SWEEP_RATES[encoding_mbps]]
    return token_rate_sweep(spec, rates, PAPER_DEPTHS, runner=bench_runner())


def fixed_reference_sweep(clip: str, seed: int = 11) -> dict:
    """Figures 13-14: per-encoding sweeps against the 1.7 Mbps original."""
    results = {}
    runner = bench_runner()
    for encoding in (1.0, 1.5, 1.7):
        spec = ExperimentSpec(
            clip=clip,
            codec="mpeg1",
            encoding_rate_bps=mbps(encoding),
            server="videocharger",
            testbed="qbone",
            reference="fixed",
            fixed_reference_rate_bps=mbps(1.7),
            seed=seed,
        )
        rates = [mbps(r) for r in QBONE_SWEEP_RATES[encoding]]
        results[encoding] = token_rate_sweep(
            spec, rates, (4500.0,), runner=runner
        )
    return results


def local_figure_sweep(
    transport: str,
    use_shaper: bool = False,
    seed: int = 11,
) -> SweepResult:
    """Figures 15-16: the WMT server over the local testbed."""
    spec = ExperimentSpec(
        clip="lost",
        codec="wmv",
        server="wmt",
        transport=transport,
        testbed="local",
        use_shaper=use_shaper,
        reference="transmitted",
        seed=seed,
    )
    rates = [mbps(r) for r in (0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0)]
    return token_rate_sweep(spec, rates, PAPER_DEPTHS, runner=bench_runner())


def summarize_figure(sweep: SweepResult, title: str) -> str:
    """Figure text: the two curve pairs plus the headline statistics."""
    blocks = [render_sweep(sweep, title=title)]
    stats_rows = []
    for depth in sweep.depths():
        rates, losses, scores = sweep.series(depth)
        cutoff = find_quality_cutoff(rates, scores, threshold=0.1)
        stats_rows.append(
            (
                f"{depth:.0f}",
                f"{to_mbps(cutoff):.2f}" if cutoff else "beyond sweep",
                f"{nonlinearity_index(losses, scores):.2f}",
            )
        )
    blocks.append(
        render_table(
            ["depth (B)", "quality cutoff (Mbps)", "loss/quality decoupling"],
            stats_rows,
        )
    )
    return "\n\n".join(blocks)


def summarize_fixed_reference(sweeps: dict, title: str) -> str:
    """Figure 13/14 text: score vs token rate, one series per encoding."""
    blocks = [title]
    rows = []
    for encoding, sweep in sorted(sweeps.items()):
        rates, losses, scores = sweep.series(4500.0)
        for rate, loss, score in zip(rates, losses, scores):
            rows.append(
                (
                    f"{encoding:.1f}",
                    f"{to_mbps(rate):.3f}",
                    f"{100 * loss:.2f}",
                    f"{score:.3f}",
                )
            )
    blocks.append(
        render_table(
            ["encoding (Mbps)", "token rate (Mbps)", "frame loss (%)", "VQM vs 1.7M ref"],
            rows,
        )
    )
    # The paper's question: best encoding choice per token rate.
    best_rows = []
    probe_rates = sorted(
        {round(to_mbps(p.token_rate_bps), 3) for s in sweeps.values() for p in s.points}
    )
    for rate in probe_rates:
        candidates = []
        for encoding, sweep in sweeps.items():
            for point in sweep.points:
                if round(to_mbps(point.token_rate_bps), 3) == rate:
                    candidates.append((point.quality_score, encoding))
        if candidates:
            score, encoding = min(candidates)
            best_rows.append((f"{rate:.3f}", f"{encoding:.1f}", f"{score:.3f}"))
    blocks.append(
        render_table(
            ["token rate (Mbps)", "best encoding (Mbps)", "its VQM score"],
            best_rows,
        )
    )
    return "\n\n".join(blocks)
