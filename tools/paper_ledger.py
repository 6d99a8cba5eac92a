"""Paper-set ledger: cold wall time per bench, written to ``BENCH_paper.json``.

A pytest plugin for the paper-figure set under ``benchmarks/``
(``make bench-paper``)::

    REPRO_BENCH_CACHE=0 REPRO_CACHE_DIR="$(mktemp -d)" \\
        python -m pytest -q -p tools.paper_ledger benchmarks \\
        --ignore=benchmarks/perf --benchmark-disable

Each bench is timed over its whole test protocol (set-up, call and
tear-down, so class- and module-scoped fixtures are charged to the
bench that first needs them). At session end the plugin writes
``BENCH_paper.json`` in the pytest root directory with the run's
provenance, each bench's wall seconds and outcome, their sum and the
session's wall time. A run with failures still writes the file; its
per-bench outcomes say which ones failed.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import time

import pytest

LEDGER_NAME = "BENCH_paper.json"


def _commit(root) -> str:
    """Short commit of the tree, marked ``-dirty`` when it has edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=root,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        out = ""
    return out or "unknown"


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
    """Collects per-bench wall times for one pytest session."""

    def __init__(self, root):
        self.root = root
        self.started = time.perf_counter()
        self.benches: dict = {}

    def _entry(self, nodeid: str) -> dict:
        return self.benches.setdefault(nodeid, {"wall_s": 0.0, "outcome": "passed"})

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        start = time.perf_counter()
        try:
            return (yield)
        finally:
            self._entry(item.nodeid)["wall_s"] = time.perf_counter() - start

    def pytest_runtest_logreport(self, report):
        entry = self._entry(report.nodeid)
        if report.failed:
            entry["outcome"] = "failed"
        elif report.skipped and entry["outcome"] == "passed":
            entry["outcome"] = "skipped"

    def pytest_sessionfinish(self, session, exitstatus):
        if not self.benches:
            return
        benches = {
            nodeid: {"wall_s": round(b["wall_s"], 3), "outcome": b["outcome"]}
            for nodeid, b in sorted(self.benches.items())
        }
        outcomes = [b["outcome"] for b in benches.values()]
        ledger = {
            "provenance": provenance(self.root),
            "benches": benches,
            "bench_sum_s": round(sum(b["wall_s"] for b in benches.values()), 3),
            "session_wall_s": round(time.perf_counter() - self.started, 3),
            "passed": outcomes.count("passed"),
            "failed": outcomes.count("failed"),
        }
        with open(os.path.join(self.root, LEDGER_NAME), "w") as fh:
            json.dump(ledger, fh, indent=2)
            fh.write("\n")


def pytest_configure(config):
    config.pluginmanager.register(PaperLedger(config.rootpath), "paper-ledger")
