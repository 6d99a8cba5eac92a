"""What multi-host campaigns relied on that single-host ones still do.

The multi-host worker tier is retired, but two pieces of its contract
live on in the single-host store and fault taxonomy: lock files left by
older releases (a bare pid, no hostname) are still read, a live lease
held on this host still blocks a second acquirer, and the failure kinds
that never depended on a transport keep their names.
"""

import subprocess
import sys

from repro.core.faults import (
    PoisonResult,
    SpecTimeout,
    WorkerCrash,
    classify_failure,
)
from repro.core.resultstore import ResultStore


class TestFailureTaxonomy:
    def test_non_transport_kinds_unchanged(self):
        assert classify_failure(SpecTimeout("t")) == "timeout"
        assert classify_failure(WorkerCrash("c")) == "crash"
        assert classify_failure(PoisonResult("p")) == "poison"
        assert classify_failure(RuntimeError("r")) == "exception"


class TestLeaseHostname:
    def test_legacy_bare_pid_lease_still_understood(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store._lease_path("fp")
        path.write_text(str(_unused_pid()))  # pre-hostname format, dead
        lease = store.acquire_lease("fp")
        assert lease is not None
        lease.release()

    def test_live_same_host_lease_blocks(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.acquire_lease("fp")
        assert store.acquire_lease("fp") is None
        lease.release()
        assert store.acquire_lease("fp") is not None


def _unused_pid():
    """A pid that is (almost certainly) not alive."""
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    return probe.pid
