#!/usr/bin/env python
"""The benchmark's correctness gate in one command (``make perfbench-check``).

Runs ``perfbench/run.py --trace 1`` for every workload at each seed
given (default 5 and 11). The traced pass checks each request's output
digest against round 0 and ``perfbench/expected/``, a sample of outputs
against the event engine, the recorded deterministic counts and the
span rules. For each run this prints its verdict and its
``CHECK FAILED`` lines, and keeps its full log as
``.perfbench/check-<workload>-<seed>.log``. It exits non-zero when any
run reports ``correct: false`` or ``failed > 0``, or ends without its
JSON verdict line.

    python tools/perfbench_check.py [SEED ...]

Nothing under ``perfbench/`` is written: ``run.py`` itself writes only
under ``.perfbench/``, and this script never passes ``--record``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("qbone_sweeps", "engine_tail", "service_queries", "flow_aggregates")


def check(workload: str, seed: int) -> bool:
    """One traced run; prints its verdict and returns whether it passed."""
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload,
            "--seed", str(seed), "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"check-{workload}-{seed}.log").write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, ValueError):
        verdict = None
    if verdict is None:
        ok = False
        summary = f"no verdict (exit {proc.returncode})"
    else:
        ok = verdict["correct"] and verdict["failed"] == 0
        summary = (
            f"correct: {str(verdict['correct']).lower()}, "
            f"failed: {verdict['failed']} of {verdict['attempted']}"
        )
    print(f"{'ok  ' if ok else 'FAIL'} {workload} seed={seed}: {summary}", flush=True)
    for line in lines:
        if "CHECK FAILED" in line:
            print(f"     {line.strip()}")
    if verdict is None:
        for line in proc.stderr.splitlines()[-5:]:
            print(f"     {line}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[5, 11])
    args = parser.parse_args(argv)
    results = [
        check(workload, seed)
        for seed in args.seeds
        for workload in WORKLOADS
    ]
    print(f"perfbench-check: {sum(results)}/{len(results)} runs passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
