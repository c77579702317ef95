"""Smoke tests: the CLI and every example run end to end."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["reproduce", "--scale", "4000"])
        assert args.command == "reproduce" and args.scale == 4000

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_feed_command(self, tmp_path, capsys):
        out = tmp_path / "feed.jsonl"
        rc = main(["feed", "--scale", "5000", "--no-cctld",
                   "--output", str(out)])
        assert rc == 0
        assert out.exists()
        assert sum(1 for _ in out.open()) > 50

    def test_probe_command(self, capsys):
        rc = main(["probe", "--scale", "5000", "--no-cctld", "--seed", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "SOA serial probing" in captured.out

    def test_sweep_command(self, capsys):
        rc = main(["sweep", "--scale", "5000", "--seed", "3"])
        assert rc == 0
        assert "Rapid Zone Updates" in capsys.readouterr().out

    def test_reproduce_command(self, capsys):
        rc = main(["reproduce", "--scale", "4000", "--no-cctld",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "overall:" in out

    def test_serve_command(self, capsys):
        rc = main(["serve", "--scale", "5000", "--no-cctld", "--seed", "3",
                   "--clients", "10"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["published"] > 50
        assert snap["delivered"] > 0
        assert "delivery_lag" in snap and "dropped_queue_full" in snap

    def test_scenarios_command_lists_the_registry(self, capsys):
        from repro.workload.scenarios import iter_scenarios
        rc = main(["scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        for cls in iter_scenarios():
            assert cls.name in out
            assert cls.description in out
            for knob in cls.knobs:
                assert knob.name in out

    def test_scenario_flag_builds_the_scenario_world(self, tmp_path,
                                                     capsys):
        plain = tmp_path / "plain.jsonl"
        burst = tmp_path / "burst.jsonl"
        assert main(["feed", "--scale", "5000", "--no-cctld",
                     "--output", str(plain)]) == 0
        assert main(["feed", "--scale", "5000", "--no-cctld",
                     "--scenario", "registrar-burst:burst_mult=12",
                     "--output", str(burst)]) == 0
        assert (sum(1 for _ in burst.open())
                > sum(1 for _ in plain.open()))

    def test_unknown_scenario_exits_2_with_available_list(self, capsys):
        rc = main(["probe", "--scale", "5000", "--no-cctld",
                   "--scenario", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "registrar-burst" in err

    @pytest.mark.parametrize("spec", [
        "registrar-burst:bogus=1",       # unknown knob
        "registrar-burst:burst_day",     # malformed pair
        "registrar-burst:burst_day=x",   # non-numeric value
    ])
    def test_bad_scenario_spec_exits_2(self, spec, capsys):
        rc = main(["probe", "--scale", "5000", "--no-cctld",
                   "--scenario", spec])
        assert rc == 2
        assert capsys.readouterr().err

    def test_serve_replay_command(self, tmp_path, capsys):
        archive = tmp_path / "feed.jsonl"
        rc = main(["feed", "--scale", "5000", "--no-cctld",
                   "--output", str(archive)])
        assert rc == 0
        rc = main(["serve", "--replay", str(archive), "--clients", "5",
                   "--queue-depth", "5000",
                   "--filters", "tld=com", "glob=*a*"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["published"] > 50 and snap["delivered"] > 0


PIPELINE_SPANS = {"pipeline.ct_detect", "pipeline.rdap_collect",
                  "pipeline.monitor", "pipeline.validate",
                  "pipeline.transient_classify"}


class TestCLITelemetry:
    """The JSON telemetry path and the process-global settings the obs
    flags touch (the log router's level and sink)."""

    def test_metrics_out_log_json_and_metrics_command(self, tmp_path, capsys):
        from repro.obs.log import router
        level = router().level
        metrics_out = tmp_path / "metrics.json"
        quiet_log = tmp_path / "quiet.jsonl"
        rc = main(["reproduce", "--scale", "5000", "--no-cctld", "--quiet",
                   "--metrics-out", str(metrics_out),
                   "--log-json", str(quiet_log)])
        assert rc == 0
        assert router().level == level          # --quiet undone
        err = capsys.readouterr().err
        # Info events render as the bare message; under --quiet only
        # labelled warning/error lines may reach stderr.
        assert all(line.startswith(("warning:", "error:"))
                   for line in err.splitlines()), err
        quiet_records = [json.loads(line)
                         for line in quiet_log.read_text().splitlines()]
        assert all(r["level"] != "info" for r in quiet_records)
        snap = json.loads(metrics_out.read_text())
        assert PIPELINE_SPANS <= set(snap["spans"])
        assert "progress" not in snap

        loud_log = tmp_path / "loud.jsonl"
        assert main(["reproduce", "--scale", "5000", "--no-cctld",
                     "--log-json", str(loud_log)]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in loud_log.read_text().splitlines()]
        assert any(r["level"] == "info" for r in records)
        assert all("span" in r and "trace" in r for r in records)

        assert main(["metrics", "--scale", "5000", "--no-cctld"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == set(snap)
        assert PIPELINE_SPANS <= set(printed["spans"])

    def test_quiet_level_restored_when_log_json_open_fails(self, tmp_path,
                                                           capsys):
        from repro.obs.log import router
        level = router().level
        rc = main(["reproduce", "--scale", "5000", "--no-cctld", "--quiet",
                   "--log-json", str(tmp_path / "missing" / "x.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert router().level == level

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [
        ("scan", "--qps"),
        ("reproduce", "--profile-interval"),
    ])
    def test_non_finite_numbers_exit_2(self, command, flag, value, capsys):
        # "--flag=-inf": a bare "-inf" argument would parse as an option.
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}", "--scale", "5000",
                  "--no-cctld"])
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "rapid_zone_updates.py",
    "public_feed.py",
    "feed_server.py",
])
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    """Examples must execute cleanly via the public API."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_campaign_forensics_example(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["campaign_forensics.py"])
    runpy.run_path(str(EXAMPLES / "campaign_forensics.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "campaign" in out
