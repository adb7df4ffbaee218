"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.servers is None
        assert args.seed == 0

    def test_locate_arguments(self):
        args = build_parser().parse_args(
            ["locate", "48.1", "11.5", "--algorithm", "cbg"])
        assert args.lat == 48.1
        assert args.algorithm == "cbg"

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["locate", "0", "0", "--algorithm", "dowsing"])

    @pytest.mark.parametrize("argv", [
        ["audit", "--servers", "-5"],
        ["audit", "--workers", "0"],
        ["campaign", "--shards", "0"],
        ["campaign", "--workers", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--batch-max", "0"],
        ["serve", "--queue-max", "0"],
        ["serve", "--cache-slots", "0"],
        ["serve", "--max-requests", "0"],
        ["serve", "--cache-slots", "lots"],
    ])
    def test_bad_count_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("coordinates", [["95", "10"], ["nan", "10"],
                                             ["10", "400"]])
    def test_bad_coordinate_is_usage_error(self, coordinates, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["locate", *coordinates])
        assert exit_info.value.code == 2
        assert "must be within" in capsys.readouterr().err

    def test_zero_servers_accepted(self):
        assert build_parser().parse_args(["audit", "--servers", "0"]) \
            .servers == 0


class TestCommands:
    def test_audit_command(self, scenario, capsys):
        assert main(["audit", "--servers", "15", "--ground-truth"]) == 0
        out = capsys.readouterr().out
        assert "audited 15 servers" in out
        assert "verdicts" in out
        assert "ground truth" in out

    def test_locate_command(self, scenario, capsys):
        assert main(["locate", "48.14", "11.58"]) == 0
        out = capsys.readouterr().out
        assert "countries:" in out
        assert "DE" in out

    def test_channels_command(self, scenario, capsys):
        assert main(["channels"]) == 0
        out = capsys.readouterr().out
        assert "ICMP" in out
        assert "port 80" in out

    def test_eta_command(self, scenario, capsys):
        assert main(["eta"]) == 0
        assert "eta" in capsys.readouterr().out

    def test_figure_command(self, scenario, capsys):
        assert main(["figure", "fig02"]) == 0
        assert "bestline" in capsys.readouterr().out

    def test_figure_unknown(self, scenario, capsys):
        assert main(["figure", "fig99"]) == 2


class TestCampaignCommand:
    def _plan_file(self, tmp_path, max_servers=20):
        from repro.experiments import DeploymentPlan
        path = tmp_path / "plan.json"
        plan = DeploymentPlan(name="cli-slice", max_servers=max_servers)
        path.write_text(plan.to_json(), encoding="utf-8")
        return str(path)

    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.shards == 1
        assert args.shard_index is None
        assert not args.merge

    def test_campaign_command_with_report(self, scenario, capsys, tmp_path):
        import json
        report_path = tmp_path / "report.json"
        assert main(["campaign", "--plan", self._plan_file(tmp_path),
                     "--shards", "2", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2" in out
        assert "campaign 'cli-slice'" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["n_servers"] == 20

    def test_shard_then_merge_workflow(self, scenario, capsys, tmp_path):
        plan = self._plan_file(tmp_path)
        directory = str(tmp_path / "journals")
        import os
        os.makedirs(directory)
        for index in ("0", "1"):
            assert main(["campaign", "--plan", plan, "--shards", "2",
                         "--shard-index", index,
                         "--journal-dir", directory]) == 0
        assert main(["campaign", "--plan", plan, "--shards", "2",
                     "--merge", "--journal-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "verdicts (pre-disambiguation)" in out
        assert "campaign 'cli-slice'" in out

    def test_shard_index_needs_journal_dir(self, scenario, capsys, tmp_path):
        assert main(["campaign", "--plan", self._plan_file(tmp_path),
                     "--shards", "2", "--shard-index", "0"]) == 2
        assert "journal" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["2", "-1"])
    def test_shard_index_out_of_range(self, capsys, tmp_path, monkeypatch,
                                      index):
        """Rejected before any scenario is built."""
        import repro.cli

        def no_build(args):
            raise AssertionError("scenario built for a bad --shard-index")
        monkeypatch.setattr(repro.cli, "_scenario", no_build)
        assert main(["campaign", "--shards", "2", "--shard-index", index,
                     "--journal-dir", str(tmp_path)]) == 2
        assert "--shard-index" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"max_server": 3}',                      # a typo'd key
        '{"templates": [{"countries": "DE"}]}',   # a string, not a list
        '{"max_servers": true}',                  # a bool is no count
        '{"templates": [{"max_per_country": -1}]}',
        '{"max_servers": -3}',
        '{"templates": "A"}',
        '[]',
        '{"name": ',                              # not JSON
        None,                                     # no such file
    ])
    def test_bad_plan_is_one_line(self, capsys, tmp_path, monkeypatch,
                                  text):
        """Rejected before any scenario is built, naming the plan file."""
        import repro.cli

        def no_build(args):
            raise AssertionError("scenario built for a bad plan")
        monkeypatch.setattr(repro.cli, "_scenario", no_build)
        plan = tmp_path / "plan.json"
        if text is not None:
            plan.write_text(text, encoding="utf-8")
        assert main(["campaign", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(plan) in err

    def test_shard_index_and_merge_exclusive(self, scenario, capsys,
                                             tmp_path):
        assert main(["campaign", "--shard-index", "0", "--merge",
                     "--journal-dir", str(tmp_path)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_merge_over_a_damaged_shard_is_one_line(self, scenario, capsys,
                                                    tmp_path):
        plan, directory = self._plan_file(tmp_path), tmp_path / "journals"
        directory.mkdir()
        for index in ("0", "1"):
            assert main(["campaign", "--plan", plan, "--shards", "2",
                         "--shard-index", index,
                         "--journal-dir", str(directory)]) == 0
        shard = directory / "shard-0001-of-0002.jsonl"
        lines = shard.read_text(encoding="utf-8").splitlines(keepends=True)
        shard.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
        capsys.readouterr()
        assert main(["campaign", "--plan", plan, "--shards", "2", "--merge",
                     "--journal-dir", str(directory)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(shard) in err

    def test_merge_with_a_missing_shard_is_one_line(self, scenario, capsys,
                                                    tmp_path):
        plan, directory = self._plan_file(tmp_path), tmp_path / "journals"
        assert main(["campaign", "--plan", plan, "--shards", "2",
                     "--shard-index", "0", "--journal-dir", str(directory)]) == 0
        capsys.readouterr()
        assert main(["campaign", "--plan", plan, "--shards", "2", "--merge",
                     "--journal-dir", str(directory)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(directory / "shard-0001-of-0002.jsonl") in err
        assert not list(directory.glob("*.tmp"))

    def test_resume_over_a_foreign_journal_is_one_line(self, scenario, capsys,
                                                       tmp_path):
        directory = str(tmp_path / "journals")
        assert main(["campaign", "--plan", self._plan_file(tmp_path, 6),
                     "--journal-dir", directory]) == 0
        capsys.readouterr()
        assert main(["campaign", "--plan", self._plan_file(tmp_path, 8),
                     "--journal-dir", directory, "--resume"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "shard-0000-of-0001.jsonl" in err

    def test_audit_resume_over_a_foreign_journal_is_one_line(
            self, scenario, capsys, tmp_path):
        journal = str(tmp_path / "audit.jsonl")
        assert main(["audit", "--servers", "6", "--checkpoint", journal]) == 0
        capsys.readouterr()
        assert main(["audit", "--servers", "8", "--checkpoint", journal,
                     "--resume"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and journal in err
