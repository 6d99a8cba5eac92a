"""repro — reproduction of Ashmawi, Guérin, Wolf & Pinson (SIGCOMM 2001),
"On the Impact of Policing and Rate Guarantees in Diff-Serv Networks:
A Video Streaming Application Perspective".

Everything is simulated in-process: a discrete-event network
(`repro.sim`), DiffServ edge/core machinery (`repro.diffserv`),
synthetic video codecs and clips (`repro.video`), the paper's server
and client models (`repro.server`, `repro.client`), an objective video
quality meter (`repro.vqm`), the two testbed topologies
(`repro.testbeds`), and the experiment harness tying them together
(`repro.core`).

Quickstart::

    from repro import ExperimentSpec, run_experiment
    from repro.units import mbps

    result = run_experiment(ExperimentSpec(
        clip="lost", codec="mpeg1", encoding_rate_bps=mbps(1.7),
        token_rate_bps=mbps(1.9), bucket_depth_bytes=3000,
    ))
    print(result.quality_score, result.lost_frame_fraction)
"""

from repro.core.experiment import ExperimentSpec, ExperimentResult, run_experiment
from repro.core.runner import ResultSummary, Runner, make_runner, spec_fingerprint
from repro.core.resultstore import ResultStore
from repro.core.sweep import SweepResult, token_rate_sweep
from repro.core.analysis import find_quality_cutoff, nonlinearity_index
from repro.core.report import render_sweep, render_table

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "SweepResult",
    "token_rate_sweep",
    "Runner",
    "ResultSummary",
    "ResultStore",
    "make_runner",
    "spec_fingerprint",
    "find_quality_cutoff",
    "nonlinearity_index",
    "render_sweep",
    "render_table",
    "__version__",
]
