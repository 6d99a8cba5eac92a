"""CampaignService: provisioning answers served from the warm store.

The admission-control loop the related work sketches (measure once,
answer many admission queries online) needs ``recommend`` to behave
like a service, not a batch job: hold a warm result store open, answer
each query from cache when possible, and schedule *only the cache
misses* through the campaign scheduler. :class:`CampaignService` is
that object — one store, one runner, many queries — and
:meth:`CampaignService.serve_forever` wraps it in a JSON-lines
request/response loop for ``repro serve``.

Query protocol (one JSON object per line, one response per request):

* ``{"kind": "recommend", "spec": {...}, "depths": [...], ...}`` —
  the minimal-rate table of :func:`repro.detect.recommend_provisioning`
  (every bisection probe flows through the shared store, so repeated
  and overlapping queries re-simulate nothing);
* ``{"kind": "point", "spec": {...}}`` — one experiment's summary,
  with its fingerprint and whether it was answered warm;
* ``{"kind": "stats"}`` — the service's runner counters and store size.

``spec`` holds :class:`~repro.core.experiment.ExperimentSpec` field
overrides (defaults apply to everything omitted); unknown fields are
an error, not silently ignored — a typo'd field would otherwise query
a different experiment than the caller intended.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import TYPE_CHECKING, Optional, TextIO

from repro.core.experiment import ExperimentSpec
from repro.core.faults import FailureRecord, RetryPolicy
from repro.core.runner import Runner

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.resultstore import ResultStore

#: A request line longer than this is rejected before parsing: a
#: runaway (or adversarial) client must not balloon the service's
#: memory through one giant line.
MAX_REQUEST_BYTES = 1024 * 1024


def spec_from_overrides(overrides: Optional[dict]) -> ExperimentSpec:
    """An ExperimentSpec from a dict of field overrides."""
    overrides = dict(overrides or {})
    known = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"unknown spec fields: {', '.join(unknown)}")
    return ExperimentSpec(**overrides)


class CampaignService:
    """Long-running provisioning query API bound to one warm store.

    All queries share one runner (and therefore one store, one retry
    policy, one stats object), so the Nth query benefits from every
    simulation the first N-1 paid for. The service itself is
    synchronous — concurrency across *processes* is already handled by
    the store's single-flight leases, so several services can share a
    cache directory safely.
    """

    def __init__(
        self,
        store: "ResultStore",
        jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
    ):
        self.store = store
        self.runner = Runner(jobs=jobs, store=store, retry=retry)
        self.queries = 0

    # ------------------------------------------------------------------
    # Query API

    def query(self, request: dict) -> dict:
        """Answer one request dict; raises ValueError on a bad one."""
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        kind = request.get("kind", "recommend")
        self.queries += 1
        if kind == "recommend":
            return self._query_recommend(request)
        if kind == "point":
            return self._query_point(request)
        if kind == "stats":
            return self._query_stats()
        raise ValueError(f"unknown query kind {kind!r}")

    def _query_recommend(self, request: dict) -> dict:
        from repro.detect.recommend import recommend_provisioning
        from repro.units import mbps

        base = spec_from_overrides(request.get("spec"))
        kwargs = {}
        if "depths" in request:
            kwargs["depths"] = [float(d) for d in request["depths"]]
        if "target_score" in request:
            kwargs["target_quality_score"] = float(request["target_score"])
        if "target_loss" in request and request["target_loss"] is not None:
            kwargs["target_lost_frames"] = float(request["target_loss"])
        if "rate_min_mbps" in request:
            kwargs["rate_min_bps"] = mbps(float(request["rate_min_mbps"]))
        if "rate_max_mbps" in request:
            kwargs["rate_max_bps"] = mbps(float(request["rate_max_mbps"]))
        if "precision_kbps" in request:
            kwargs["precision_bps"] = float(request["precision_kbps"]) * 1e3
        before = self.runner.stats.simulated
        table = recommend_provisioning(base, runner=self.runner, **kwargs)
        return {
            "kind": "recommend",
            "table": table.to_dict(),
            "simulated": self.runner.stats.simulated - before,
        }

    def _query_point(self, request: dict) -> dict:
        from repro.core.runner import spec_fingerprint

        spec = spec_from_overrides(request.get("spec"))
        resolved: dict = {}

        def emit(unit, outcome, source) -> None:
            resolved["outcome"] = outcome
            resolved["source"] = source

        self.runner.run_stream([spec], emit, plan_specs=[spec])
        outcome = resolved["outcome"]
        response = {
            "kind": "point",
            "fingerprint": spec_fingerprint(spec),
            "source": resolved["source"],
        }
        if isinstance(outcome, FailureRecord):
            response["failure"] = outcome.to_dict()
        else:
            response["summary"] = outcome.to_dict()
        return response

    def _query_stats(self) -> dict:
        return {
            "kind": "stats",
            "queries": self.queries,
            "stats": dataclasses.asdict(self.runner.stats),
            "store_entries": len(self.store),
            "store_dir": str(self.store.cache_dir),
        }

    # ------------------------------------------------------------------
    # The serve loop

    def serve_forever(
        self,
        stream_in: Optional[TextIO] = None,
        stream_out: Optional[TextIO] = None,
    ) -> int:
        """JSON-lines request/response loop (``repro serve``).

        Reads one request per line until EOF. No input can kill the
        loop: every malformed or failing request earns a structured
        ``{"error": ..., "error_kind": ...}`` response and the service
        reads on. ``error_kind`` distinguishes the failure classes —
        ``oversized`` (line past :data:`MAX_REQUEST_BYTES`, rejected
        unparsed), ``bad-json`` (line is not JSON), ``bad-request``
        (well-formed JSON the query API rejects: wrong shape, unknown
        kind, unknown spec fields), and ``internal`` (the query itself
        blew up). Returns the number of requests handled.
        """
        stream_in = stream_in if stream_in is not None else sys.stdin
        stream_out = stream_out if stream_out is not None else sys.stdout
        handled = 0
        for line in stream_in:
            if len(line) > MAX_REQUEST_BYTES:
                response = {
                    "error": (
                        f"request line of {len(line)} bytes exceeds the "
                        f"{MAX_REQUEST_BYTES}-byte limit"
                    ),
                    "error_kind": "oversized",
                }
            else:
                line = line.strip()
                if not line:
                    continue
                response = self._respond(line)
            stream_out.write(json.dumps(response) + "\n")
            stream_out.flush()
            handled += 1
        return handled

    def _respond(self, line: str) -> dict:
        """One request line to one response dict, never an exception."""
        try:
            request = json.loads(line)
        except ValueError as exc:
            return {"error": f"bad JSON: {exc}", "error_kind": "bad-json"}
        try:
            return self.query(request)
        except ValueError as exc:
            return {"error": str(exc), "error_kind": "bad-request"}
        except Exception as exc:  # noqa: BLE001 - service must survive
            return {
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": "internal",
            }
