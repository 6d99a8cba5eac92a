"""End-to-end tests for the command line (``python -m repro ...``).

Everything runs through :func:`repro.cli.main` on tiny synthetic clips
so the full argument-parsing → runner → report path is exercised
without subprocesses (except where the CLI itself forks workers).
"""

import json

import pytest

from repro.cli import main
from repro.core import chaos
from repro.core.experiment import ExperimentSpec
from repro.core.export import csv_to_rows
from repro.core.runner import spec_fingerprint
from repro.core.sweep import sweep_specs
from repro.units import mbps


RUN_ARGS = [
    "run",
    "--clip", "test-300",
    "--encoding", "1.7",
    "--rate", "2.2",
    "--depth", "4500",
    "--seed", "3",
]


def sweep_args(*extra):
    return [
        "sweep",
        "--clip", "test-300",
        "--encoding", "1.7",
        "--rates", "2.0,2.2",
        "--depths", "4500",
        "--seed", "3",
        *extra,
    ]


class TestRunCommand:
    def test_exit_zero_and_headline_output(self, capsys):
        assert main(RUN_ARGS) == 0
        out = capsys.readouterr().out
        assert "frame loss:" in out
        assert "packet drops:" in out
        assert "clip=test-300" in out

    def test_json_output_parses(self, capsys):
        assert main(RUN_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["clip"] == "test-300"
        assert 0.0 <= payload["quality_score"] <= 1.15
        assert "segments" in payload

    def test_unknown_clip_exits_2(self, capsys):
        args = list(RUN_ARGS)
        args[args.index("test-300")] = "no-such-clip"
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


WMT_RUN_ARGS = [
    "run",
    "--clip", "test-300",
    "--codec", "wmv",
    "--server", "wmt",
    "--testbed", "local",
    "--rate", "1.2",
    "--depth", "3000",
    "--seed", "3",
]


@pytest.mark.recovery
class TestRunRecoveryOutput:
    def test_arq_prints_recovery_counters(self, capsys):
        assert main(WMT_RUN_ARGS + ["--arq"]) == 0
        out = capsys.readouterr().out
        assert "recovery:" in out
        # Sits with the other client-side timeliness numbers.
        lines = out.splitlines()
        stalls = next(i for i, l in enumerate(lines) if "rebuffer stalls" in l)
        assert lines[stalls + 1].startswith("recovery:")
        assert "NACKs" in lines[stalls + 1]
        assert "repairs" in lines[stalls + 1]

    def test_no_flags_no_recovery_line(self, capsys):
        assert main(WMT_RUN_ARGS) == 0
        assert "recovery:" not in capsys.readouterr().out

    def test_json_includes_recovery_when_enabled(self, capsys):
        assert main(WMT_RUN_ARGS + ["--arq", "--fec", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["arq"] is True
        assert payload["spec"]["fec_group"] == 10
        assert payload["recovery"]["nacks_sent"] > 0
        assert payload["recovery"]["repairs_sent"] > 0

    def test_json_excludes_recovery_when_disabled(self, capsys):
        assert main(WMT_RUN_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "recovery" not in payload
        assert "arq" not in payload["spec"]

    def test_recovery_flags_reject_tcp(self, capsys):
        args = WMT_RUN_ARGS + ["--transport", "tcp", "--arq"]
        args[args.index("1.2")] = "1.0"
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_serial_sweep_prints_figure(self, capsys):
        assert main(sweep_args()) == 0
        out = capsys.readouterr().out
        assert "token bucket depth = 4500" in out
        assert "2.000" in out and "2.200" in out

    def test_parallel_sweep_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(sweep_args("--jobs", "2", "--csv", str(csv_path))) == 0
        rows = csv_to_rows(csv_path.read_text())
        assert len(rows) == 2
        assert {row["token_rate_mbps"] for row in rows} == {2.0, 2.2}
        for row in rows:
            assert 0.0 <= row["quality_score"] <= 1.15
        assert f"wrote {csv_path}" in capsys.readouterr().out

    def test_parallel_matches_serial(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        pooled_csv = tmp_path / "pooled.csv"
        assert main(sweep_args("--csv", str(serial_csv))) == 0
        assert main(sweep_args("--jobs", "2", "--csv", str(pooled_csv))) == 0
        assert serial_csv.read_text() == pooled_csv.read_text()

    def test_cache_round_trip_reports_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(sweep_args("--cache", "--cache-dir", str(cache))) == 0
        first = capsys.readouterr().out
        assert "2 specs: 2 simulated, 0 cache hits" in first

        assert main(sweep_args("--cache", "--cache-dir", str(cache))) == 0
        second = capsys.readouterr().out
        assert "2 specs: 0 simulated, 2 cache hits" in second
        # The rendered figure itself must be identical either way.
        figure = lambda text: text.split("\ncache [")[0]
        assert figure(first) == figure(second)

    def test_cache_dir_implies_cache(self, tmp_path, capsys):
        assert main(sweep_args("--cache-dir", str(tmp_path / "c"))) == 0
        assert "cache [" in capsys.readouterr().out
        assert len(list((tmp_path / "c").glob("*.json"))) == 2

    def test_bad_jobs_exits_2(self, capsys):
        assert main(sweep_args("--jobs", "0")) == 2
        assert "--jobs" in capsys.readouterr().err


def chaos_plan_for(tmp_path, rate_mbps, rule):
    """A plan targeting the sweep_args() grid point at ``rate_mbps``."""
    base = ExperimentSpec(
        clip="test-300",
        codec="mpeg1",
        encoding_rate_bps=mbps(1.7),
        token_rate_bps=mbps(2.0),
        bucket_depth_bytes=4500.0,
        seed=3,
    )
    specs = sweep_specs(base, [mbps(2.0), mbps(2.2)], (4500.0,))
    by_rate = {round(s.token_rate_bps / 1e6, 3): s for s in specs}
    fingerprint = spec_fingerprint(by_rate[rate_mbps])
    return chaos.ChaosPlan(tmp_path / "chaos").add(fingerprint, rule)


class TestSweepValidation:
    def test_duplicate_rates_exit_2(self, capsys):
        args = sweep_args()
        args[args.index("2.0,2.2")] = "2.0,2.0"
        assert main(args) == 2
        assert "duplicate token rates" in capsys.readouterr().err

    def test_negative_rate_exits_2(self, capsys):
        args = sweep_args()
        args[args.index("2.0,2.2")] = "-1.0"
        assert main(args) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_nonpositive_depth_exits_2(self, capsys):
        args = sweep_args()
        args[args.index("4500")] = "0"
        assert main(args) == 2
        assert "bucket depth" in capsys.readouterr().err

    def test_resume_without_journal_exits_2(self, capsys):
        assert main(sweep_args("--resume")) == 2
        assert "--journal" in capsys.readouterr().err


class TestSweepFaultTolerance:
    def test_quarantine_exits_3_with_summary(self, tmp_path, capsys):
        plan = chaos_plan_for(tmp_path, 2.2, chaos.ChaosRule("raise"))
        with plan.installed():
            code = main(sweep_args("--max-retries", "1"))
        captured = capsys.readouterr()
        assert code == 3
        assert "quarantined 1 of 2 specs" in captured.err
        assert "ChaosError" in captured.err
        # The healthy point still rendered.
        assert "2.000" in captured.out

    def test_retry_recovers_and_exits_0(self, tmp_path, capsys):
        plan = chaos_plan_for(tmp_path, 2.2, chaos.ChaosRule("raise", times=1))
        with plan.installed():
            code = main(sweep_args("--max-retries", "2"))
        captured = capsys.readouterr()
        assert code == 0
        assert "2.200" in captured.out

    def test_spec_timeout_flag_smoke(self, capsys):
        assert main(sweep_args("--spec-timeout", "120")) == 0
        assert "2.200" in capsys.readouterr().out

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "sweep.journal"
        assert main(sweep_args("--journal", str(journal))) == 0
        first = capsys.readouterr().out
        assert "0 of 2 specs resumed" in first

        assert main(sweep_args("--journal", str(journal), "--resume")) == 0
        second = capsys.readouterr().out
        assert "2 of 2 specs resumed" in second
        # The rendered figure itself must be identical either way.
        figure = lambda text: text.split("\njournal [")[0]
        assert figure(first) == figure(second)

    def test_resume_after_quarantine_completes(self, tmp_path, capsys):
        journal = tmp_path / "sweep.journal"
        plan = chaos_plan_for(tmp_path, 2.2, chaos.ChaosRule("raise"))
        with plan.installed():
            code = main(
                sweep_args("--max-retries", "0", "--journal", str(journal))
            )
        assert code == 3
        capsys.readouterr()
        # Chaos gone: resume re-runs only the quarantined spec.
        code = main(
            sweep_args(
                "--max-retries", "0", "--journal", str(journal), "--resume"
            )
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "1 of 2 specs resumed" in captured.out
        assert "2.200" in captured.out


DETECT_ARGS = [
    "detect",
    "--clip", "test-300",
    "--encoding", "1.7",
    "--rate", "1.5",
    "--depth", "3000",
    "--seed", "3",
]

RECOMMEND_ARGS = [
    "recommend",
    "--clip", "test-300",
    "--encoding", "1.7",
    "--depths", "3000,4500",
    "--seed", "3",
]


class TestDetectCommand:
    def test_policed_run_flagged_with_estimate(self, capsys):
        assert main(DETECT_ARGS) == 0
        out = capsys.readouterr().out
        assert "truth: r=1.500 Mbps b=3000 B" in out
        assert "verdict: policed" in out
        assert "estimate:" in out

    def test_json_shape_and_accuracy(self, capsys):
        assert main(DETECT_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["policed"] is True
        assert payload["verdict"]["action"] == "drop"
        assert payload["ground_truth"]["token_rate_bps"] == mbps(1.5)
        assert payload["errors"]["rate_relative_error"] < 0.05
        assert payload["errors"]["depth_error_bytes"] < 1500.0

    def test_remark_mode(self, capsys):
        args = DETECT_ARGS + ["--policer-action", "remark", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["action"] == "remark"
        assert payload["verdict"]["n_lost"] == 0
        assert payload["verdict"]["n_remarked"] > 0

    def test_unpoliced_run_is_clean(self, capsys):
        args = list(DETECT_ARGS)
        args[args.index("1.5")] = "5.0"
        args[args.index("3000")] = "50000"
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["policed"] is False
        assert payload["verdict"]["code"] == "no-loss"
        assert payload["errors"] is None

    def test_unknown_clip_exits_2(self, capsys):
        args = list(DETECT_ARGS)
        args[args.index("test-300")] = "no-such-clip"
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


class TestRecommendCommand:
    def test_table_and_finding_line(self, capsys):
        assert main(RECOMMEND_ARGS) == 0
        out = capsys.readouterr().out
        assert "target: quality_score <= 0.05" in out
        assert "depth (B)" in out and "classification" in out
        assert "paper finding" in out

    def test_json_shape(self, capsys):
        assert main(RECOMMEND_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clip"] == "test-300"
        assert {row["bucket_depth_bytes"] for row in payload["rows"]} == {
            3000.0, 4500.0,
        }
        assert "paper_finding_reproduced" in payload["findings"]
        for row in payload["rows"]:
            assert row["min_token_rate_bps"] is not None
            assert row["probes"] >= 1

    def test_parallel_matches_serial(self, capsys):
        assert main(RECOMMEND_ARGS + ["--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(RECOMMEND_ARGS + ["--jobs", "2", "--json"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert serial == pooled

    def test_cache_speeds_second_table(self, tmp_path, capsys):
        args = RECOMMEND_ARGS + ["--cache-dir", str(tmp_path / "c"), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert len(list((tmp_path / "c").glob("*.json"))) > 0

    def test_bad_jobs_exits_2(self, capsys):
        assert main(RECOMMEND_ARGS + ["--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_inverted_rate_window_exits_2(self, capsys):
        args = RECOMMEND_ARGS + ["--rate-min", "3.0", "--rate-max", "2.0"]
        assert main(args) == 2
        assert "rate_min" in capsys.readouterr().err


ADMIT_ARGS = [
    "admit",
    "--clip", "test-300",
    "--encoding", "1.7",
    "--rate", "3.5",
    "--depth", "3000",
    "--max-flows", "2",
]


class TestAdmitCommand:
    def test_table_and_verdict_line(self, capsys):
        assert main(ADMIT_ARGS) == 0
        out = capsys.readouterr().out
        assert "admission frontier: test-300" in out
        assert "worst VQM" in out and "budget ok" in out
        assert "qoe-floor admits 1 flow(s)" in out
        assert "bandwidth budget admits 2" in out
        assert "policies disagree" in out

    def test_json_shape(self, capsys):
        assert main(ADMIT_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qoe_admitted"] == 1
        assert payload["bandwidth_admitted"] == 2
        assert payload["policies_disagree"] is True
        assert [p["n_flows"] for p in payload["points"]] == [1, 2]
        assert payload["points"][0]["qoe_admissible"] is True
        assert payload["points"][1]["qoe_admissible"] is False

    def test_cache_round_trip(self, tmp_path, capsys):
        args = ADMIT_ARGS + ["--cache-dir", str(tmp_path / "c"), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert len(list((tmp_path / "c").glob("*.json"))) > 0

    def test_bad_max_flows_exits_2(self, capsys):
        args = list(ADMIT_ARGS)
        args[args.index("--max-flows") + 1] = "0"
        assert main(args) == 2
        assert "--max-flows" in capsys.readouterr().err

    def test_shaper_rejected(self, capsys):
        assert main(ADMIT_ARGS + ["--shaper"]) == 2
        assert "shaper" in capsys.readouterr().err


class TestFlowsSweep:
    def test_sweep_flows_renders_aggregate_header(self, capsys):
        args = sweep_args("--flows", "2")
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "aggregate of 2 flows (aggregate policing" in out
        assert "VQM score" in out

    def test_sweep_flows_rejects_shaper(self, capsys):
        assert main(sweep_args("--flows", "2", "--shaper")) == 2
        assert "shaper" in capsys.readouterr().err


class TestClipsCommand:
    def test_lists_registered_clips(self, capsys):
        assert main(["clips"]) == 0
        out = capsys.readouterr().out
        assert "lost" in out
        assert "dark" in out
        assert "duration (s)" in out


class TestProfileFlag:
    def test_profile_flag_prints_cprofile_to_stderr(self, capsys):
        assert main(RUN_ARGS + ["--profile"]) == 0
        captured = capsys.readouterr()
        assert "VQM" in captured.out  # normal output intact
        assert "cumulative" in captured.err
        assert "function calls" in captured.err

    def test_profile_env_var_equivalent(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert main(RUN_ARGS) == 0
        assert "cumulative" in capsys.readouterr().err

    def test_sweep_accepts_profile(self, capsys):
        assert main(sweep_args("--profile")) == 0
        assert "cumulative" in capsys.readouterr().err


class TestCampaignCliFeatures:
    def test_adaptive_sweep_reports_sampling_budget(self, capsys):
        rates = "1.5,1.6,1.7,1.8,1.9,2.0,2.1,2.2,2.3"
        args = sweep_args("--adaptive")
        args[args.index("--rates") + 1] = rates
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "adaptive: evaluated" in out
        assert "grid points" in out

    def test_adaptive_rejects_journal(self, tmp_path, capsys):
        args = sweep_args("--adaptive", "--journal", str(tmp_path / "j"))
        assert main(args) == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_journal_compact_requires_journal(self, capsys):
        assert main(sweep_args("--journal-compact", "2")) == 2
        assert "--journal-compact" in capsys.readouterr().err

    def test_journal_compact_folds_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.journal"
        args = sweep_args("--journal", str(path), "--journal-compact", "1")
        assert main(args) == 0
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert kinds == ["header", "checkpoint"]

    def test_progress_streams_to_stderr(self, capsys):
        assert main(sweep_args("--progress")) == 0
        captured = capsys.readouterr()
        assert "sweep:" in captured.err
        assert "pts/s" in captured.err

    def test_recommend_warm_second_run_is_all_cache(self, tmp_path, capsys):
        args = RECOMMEND_ARGS + ["--warm", "--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "paper finding" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 simulated" in second
        assert "paper finding" in second

    def test_serve_round_trip(self, tmp_path, capsys, monkeypatch):
        import io

        request = json.dumps(
            {
                "kind": "point",
                "spec": {
                    "clip": "test-300",
                    "encoding_rate_bps": 1.7e6,
                    "token_rate_bps": 2.2e6,
                    "bucket_depth_bytes": 4500.0,
                    "seed": 3,
                },
            }
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        args = ["serve", "--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        captured = capsys.readouterr()
        response = json.loads(captured.out.splitlines()[0])
        assert response["kind"] == "point"
        assert response["source"] == "fresh"
        assert "served 1 requests" in captured.err

    def test_serve_bad_jobs_exits_2(self, capsys):
        assert main(["serve", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
