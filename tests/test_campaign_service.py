"""CampaignService: warm-store provisioning queries and the serve loop."""

import io
import json

import pytest

from repro.core.campaign import CampaignService
from repro.core.campaign.service import spec_from_overrides
from repro.core.experiment import ExperimentSpec
from repro.core.resultstore import ResultStore
from repro.units import mbps

POINT_SPEC = {
    "clip": "test-300",
    "codec": "mpeg1",
    "encoding_rate_bps": mbps(1.7),
    "token_rate_bps": mbps(2.2),
    "bucket_depth_bytes": 4500.0,
    "seed": 3,
}


@pytest.fixture
def service(tmp_path):
    return CampaignService(ResultStore(tmp_path / "warm"))


class TestSpecFromOverrides:
    def test_defaults_apply(self):
        assert spec_from_overrides(None) == ExperimentSpec()
        assert spec_from_overrides({}) == ExperimentSpec()

    def test_overrides_apply(self):
        spec = spec_from_overrides({"clip": "dark", "seed": 7})
        assert spec.clip == "dark"
        assert spec.seed == 7

    def test_unknown_field_is_an_error_not_a_typo_sink(self):
        with pytest.raises(ValueError, match="token_rate_mbps"):
            spec_from_overrides({"token_rate_mbps": 1.9})


class TestQueries:
    def test_point_fresh_then_warm(self, service):
        first = service.query({"kind": "point", "spec": POINT_SPEC})
        assert first["kind"] == "point"
        assert first["source"] == "fresh"
        assert "summary" in first
        second = service.query({"kind": "point", "spec": POINT_SPEC})
        assert second["source"] == "cache"
        assert second["summary"] == first["summary"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_stats_reports_counters_and_store(self, service):
        service.query({"kind": "point", "spec": POINT_SPEC})
        stats = service.query({"kind": "stats"})
        assert stats["queries"] == 2
        assert stats["stats"]["simulated"] == 1
        assert stats["store_entries"] == 1

    def test_recommend_query_only_simulates_misses(self, service):
        request = {
            "kind": "recommend",
            "spec": POINT_SPEC,
            "depths": [3000.0],
            "rate_min_mbps": 1.0,
            "rate_max_mbps": 2.4,
            "precision_kbps": 200.0,
        }
        first = service.query(request)
        assert first["kind"] == "recommend"
        assert first["simulated"] > 0
        rows = first["table"]["rows"]
        assert len(rows) == 1 and rows[0]["min_token_rate_bps"] is not None
        second = service.query(request)
        assert second["simulated"] == 0
        assert second["table"]["rows"] == rows

    def test_unknown_kind_raises(self, service):
        with pytest.raises(ValueError, match="unknown query kind"):
            service.query({"kind": "divine"})

    def test_non_dict_request_raises(self, service):
        with pytest.raises(ValueError):
            service.query(["not", "a", "dict"])


class TestServeLoop:
    def test_serves_requests_and_survives_garbage(self, service):
        lines = [
            json.dumps({"kind": "point", "spec": POINT_SPEC}),
            "this is not json",
            json.dumps({"kind": "divine"}),
            "",
            json.dumps({"kind": "stats"}),
        ]
        stream_out = io.StringIO()
        handled = service.serve_forever(
            stream_in=io.StringIO("\n".join(lines) + "\n"),
            stream_out=stream_out,
        )
        responses = [
            json.loads(line)
            for line in stream_out.getvalue().splitlines()
        ]
        assert handled == 4  # blank line skipped
        assert responses[0]["kind"] == "point"
        assert "error" in responses[1]
        assert "unknown query kind" in responses[2]["error"]
        assert responses[3]["kind"] == "stats"


class TestServeForeverHardening:
    """Each ``error_kind`` of the serve loop, and survival after it."""

    def serve(self, service, lines):
        out = io.StringIO()
        handled = service.serve_forever(io.StringIO(lines), out)
        return handled, [json.loads(l) for l in out.getvalue().splitlines()]

    def test_bad_json_survives_with_structured_error(self, service):
        handled, responses = self.serve(
            service, 'this is not json\n{"kind": "stats"}\n'
        )
        assert handled == 2
        assert responses[0]["error_kind"] == "bad-json"
        assert "bad JSON" in responses[0]["error"]
        assert responses[1]["kind"] == "stats"  # loop survived

    def test_unknown_verb_is_bad_request(self, service):
        handled, responses = self.serve(
            service, '{"kind": "frobnicate"}\n{"kind": "stats"}\n'
        )
        assert responses[0]["error_kind"] == "bad-request"
        assert "unknown query kind" in responses[0]["error"]
        assert responses[1]["kind"] == "stats"

    def test_non_object_request_is_bad_request(self, service):
        handled, responses = self.serve(service, '[1, 2]\n')
        assert responses[0]["error_kind"] == "bad-request"

    def test_unknown_spec_field_is_bad_request(self, service):
        handled, responses = self.serve(
            service, '{"kind": "point", "spec": {"tokne_rate_bps": 1}}\n'
        )
        assert responses[0]["error_kind"] == "bad-request"
        assert "unknown spec fields" in responses[0]["error"]

    def test_oversized_line_rejected_unparsed(self, service):
        from repro.core.campaign.service import MAX_REQUEST_BYTES

        huge = '{"kind": "stats", "pad": "' + "x" * MAX_REQUEST_BYTES + '"}\n'
        handled, responses = self.serve(
            service, huge + '{"kind": "stats"}\n'
        )
        assert handled == 2
        assert responses[0]["error_kind"] == "oversized"
        assert responses[1]["kind"] == "stats"

    def test_internal_failure_reported_and_survived(self, service):
        def boom(request):
            raise RuntimeError("query machinery exploded")

        service._query_stats = boom.__get__(service)
        handled, [response] = self.serve(service, '{"kind": "stats"}\n')
        assert handled == 1
        assert response["error_kind"] == "internal"
        assert "RuntimeError" in response["error"]
