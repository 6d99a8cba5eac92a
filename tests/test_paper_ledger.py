"""The bench ledger (``tools/paper_ledger.py``): provenance and entries.

``make bench`` writes ``BENCH_paper.json`` through this plugin. The
commit stamp must read clean on a clean tree even after an earlier
run rewrote the tracked ledger file, and each bench's entry carries
the values it recorded with ``record_property``, or no ``values`` key.
The ledger times the benchmark's host-speed kernel at both ends of the
session, reading ``perfbench/`` and never writing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tools import paper_ledger

REPO_ROOT = Path(__file__).resolve().parents[1]


def _git(root, *args) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


class TestCommit:
    def test_only_edits_outside_the_ledger_are_dirty(self, tmp_path):
        _git(tmp_path, "init", "-q")
        (tmp_path / paper_ledger.LEDGER_NAME).write_text("{}\n")
        (tmp_path / "code.py").write_text("x = 1\n")
        _git(tmp_path, "add", ".")
        _git(
            tmp_path,
            "-c", "user.name=ledger", "-c", "user.email=ledger@example.com",
            "-c", "commit.gpgsign=false",
            "commit", "-q", "-m", "init",
        )
        head = _git(tmp_path, "rev-parse", "--short", "HEAD")
        assert paper_ledger._commit(tmp_path) == head

        (tmp_path / paper_ledger.LEDGER_NAME).write_text('{"rerun": 1}\n')
        assert paper_ledger._commit(tmp_path) == head

        (tmp_path / "code.py").write_text("x = 2\n")
        assert paper_ledger._commit(tmp_path) == f"{head}-dirty"


def _perfbench_files() -> dict:
    """Every file under ``perfbench/`` but bytecode, with its bytes."""
    return {
        path: path.read_bytes()
        for path in sorted((REPO_ROOT / "perfbench").rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def test_entries_carry_outcomes_and_recorded_values(tmp_path):
    (tmp_path / "test_benches.py").write_text(
        "def test_records(record_property):\n"
        "    record_property('points_per_s', 12.5)\n"
        "    record_property('dropped_packets', 3)\n"
        "\n"
        "def test_fails():\n"
        "    assert False\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT), str(REPO_ROOT / "src")]),
    )
    perfbench = _perfbench_files()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "tools.paper_ledger",
         "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert _perfbench_files() == perfbench

    ledger = json.loads((tmp_path / paper_ledger.LEDGER_NAME).read_text())
    benches = ledger["benches"]
    recorded = benches["test_benches.py::test_records"]
    assert recorded["outcome"] == "passed"
    assert recorded["values"] == {"points_per_s": 12.5, "dropped_packets": 3}
    failed = benches["test_benches.py::test_fails"]
    assert failed["outcome"] == "failed"
    assert "values" not in failed
    assert (ledger["passed"], ledger["failed"]) == (1, 1)
    reference = ledger["drift_reference"]
    bench = paper_ledger.load_perfbench("run")
    assert reference["reference_host_s"] == bench.REFERENCE_KERNEL_S
    assert reference["start_s"] > 0 and reference["end_s"] > 0
