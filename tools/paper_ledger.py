"""Bench ledger: cold wall time per bench, written to ``BENCH_paper.json``.

A pytest plugin for every bench under ``benchmarks/``, the paper's
figures and tables and the perf gates under ``benchmarks/perf/``
(``make bench``)::

    REPRO_BENCH_CACHE=0 REPRO_CACHE_DIR="$(mktemp -d)" \\
        python -m pytest -q -p tools.paper_ledger benchmarks \\
        --benchmark-disable

Each bench is timed over its whole test protocol (set-up, call and
tear-down, so class- and module-scoped fixtures are charged to the
bench that first needs them). The benchmark's span tracer
(``perfbench/tracing.py``, read from its file and never written)
wraps the layer boundaries for the whole session, and each span's
request is named after the bench that ran it. At session end the
plugin writes ``BENCH_paper.json`` in the pytest root directory with
the run's provenance, each bench's wall seconds, outcome and self
seconds per layer, their sums and the session's wall time. A bench
that calls pytest's ``record_property`` (the perf gates record the
quantities they assert on) also gets those name/value pairs as its
``values``. Layer times cover this process only: with
``REPRO_BENCH_JOBS`` above 1 the pool workers' spans are not seen. A
run with failures still writes the file; its per-bench outcomes say
which ones failed.

The host's speed drifts by tens of percent between sessions, so the
ledger also times one fixed reference workload at the start and at the
end of the session: the benchmark's host-speed kernel
(``kernel_seconds`` in ``perfbench/run.py``, read from its file and
never written), which runs no ``repro`` code. Its median seconds at
both ends go into ``drift_reference``, beside the seconds it takes on
the benchmark's reference host.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import time
import types
from collections import Counter
from pathlib import Path

import pytest

LEDGER_NAME = "BENCH_paper.json"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Runs of the reference kernel at each end of a session; the ledger
#: keeps their median.
REFERENCE_SAMPLES = 9


def load_perfbench(name: str) -> types.ModuleType:
    """A module of the benchmark (``tracing``, ``run``), executed from
    its file. Its ``__main__`` block does not run."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def reference_seconds(bench: types.ModuleType) -> float:
    """Median seconds of the benchmark's host-speed kernel."""
    return statistics.median(
        bench.kernel_seconds() for _ in range(REFERENCE_SAMPLES)
    )


def _git(root, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, cwd=root, timeout=10
    )


def _commit(root) -> str:
    """Short commit of the tree, marked ``-dirty`` when it has edits.

    The ledger file itself is left out of the check, so a rerun on a
    clean commit still reads clean after the previous run rewrote it.
    """
    try:
        commit = _git(root, "rev-parse", "--short", "HEAD").stdout.strip()
        if commit and _git(
            root, "diff", "--quiet", "HEAD", "--", ".", f":!{LEDGER_NAME}"
        ).returncode:
            commit += "-dirty"
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return commit or "unknown"


def provenance(root) -> dict:
    """Where and how the numbers were taken."""
    import numpy

    return {
        "commit": _commit(root),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "bench_cache": os.environ.get("REPRO_BENCH_CACHE", "1"),
    }


class PaperLedger:
    """Collects per-bench wall times, layer self times and recorded
    values for one pytest session."""

    def __init__(self, root):
        self.root = root
        self.started = time.perf_counter()
        self.benches: dict = {}
        self.tracer = load_perfbench("tracing").Tracer()
        self.bench = load_perfbench("run")
        self.reference_start_s = 0.0

    def _entry(self, nodeid: str) -> dict:
        return self.benches.setdefault(
            nodeid, {"wall_s": 0.0, "outcome": "passed", "layers": Counter()}
        )

    def pytest_sessionstart(self, session):
        self.reference_start_s = reference_seconds(self.bench)
        self.tracer.install()

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        tracer = self.tracer
        del tracer.spans[:]  # spans from outside any bench
        tracer.request = item.nodeid
        start = time.perf_counter()
        try:
            return (yield)
        finally:
            entry = self._entry(item.nodeid)
            entry["wall_s"] = time.perf_counter() - start
            if item.user_properties:
                entry["values"] = dict(item.user_properties)
            for span, self_s in zip(tracer.spans, tracer.self_times()):
                entry["layers"][span[0]] += self_s

    def pytest_runtest_logreport(self, report):
        entry = self._entry(report.nodeid)
        if report.failed:
            entry["outcome"] = "failed"
        elif report.skipped and entry["outcome"] == "passed":
            entry["outcome"] = "skipped"

    def pytest_sessionfinish(self, session, exitstatus):
        self.tracer.uninstall()
        if not self.benches:
            return
        benches = {
            nodeid: {
                "wall_s": round(b["wall_s"], 3),
                "outcome": b["outcome"],
                "layers_self_s": _rounded(b["layers"]),
                **({"values": b["values"]} if "values" in b else {}),
            }
            for nodeid, b in sorted(self.benches.items())
        }
        outcomes = [b["outcome"] for b in benches.values()]
        layers = sum((b["layers"] for b in self.benches.values()), Counter())
        ledger = {
            "provenance": provenance(self.root),
            "benches": benches,
            "bench_sum_s": round(sum(b["wall_s"] for b in benches.values()), 3),
            "layer_sum_self_s": _rounded(layers),
            "session_wall_s": round(time.perf_counter() - self.started, 3),
            "passed": outcomes.count("passed"),
            "failed": outcomes.count("failed"),
            "drift_reference": {
                "workload": "perfbench/run.py kernel_seconds, "
                f"median of {REFERENCE_SAMPLES}",
                "reference_host_s": self.bench.REFERENCE_KERNEL_S,
                "start_s": round(self.reference_start_s, 6),
                "end_s": round(reference_seconds(self.bench), 6),
            },
        }
        with open(os.path.join(self.root, LEDGER_NAME), "w") as fh:
            json.dump(ledger, fh, indent=2)
            fh.write("\n")


def _rounded(layers: Counter) -> dict:
    """Layer self seconds by layer name, rounded to the millisecond."""
    return {name: round(seconds, 3) for name, seconds in sorted(layers.items())}


def pytest_configure(config):
    config.pluginmanager.register(PaperLedger(config.rootpath), "paper-ledger")
