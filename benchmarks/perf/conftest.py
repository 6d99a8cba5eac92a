"""Perf-harness plumbing: everything here is marked ``perf``.

The perf benches time real workloads, so they are excluded from the
fast check loop (``make check-fast`` runs ``-m "not slow and not
perf"``). ``make bench`` runs them with the paper set, result cache
disabled, and the bench ledger writes the values they record into
``BENCH_paper.json``.
"""

from __future__ import annotations

import pathlib

import pytest

PERF_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if pathlib.Path(str(item.fspath)).is_relative_to(PERF_DIR):
            item.add_marker(pytest.mark.perf)
