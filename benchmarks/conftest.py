"""Shared machinery for the benchmark harness.

Each benchmark regenerates one table or figure of the paper: it runs
the relevant workload once (``benchmark.pedantic(..., rounds=1)``), and
writes the paper-style rows/series to ``benchmarks/results/<id>.txt``
so the output survives pytest's capture. ``make bench`` times each
one cold into ``BENCH_paper.json`` (``tools/paper_ledger.py``).
"""

from __future__ import annotations

import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"


def pytest_collection_modifyitems(items):
    """Mark every full-figure/table benchmark ``slow``.

    The hook sees the whole session's items when a mixed invocation
    collects ``tests`` alongside ``benchmarks``, so only items that
    live under this directory get the marker; that lets
    ``pytest -m 'not slow' tests benchmarks`` keep the unit tests.
    """
    for item in items:
        if pathlib.Path(str(item.fspath)).is_relative_to(BENCH_DIR):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write a named result artifact and echo it to stdout."""

    def write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====")
        print(text)

    return write
