"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["table1"],
            ["fig4", "--blocks", "2"],
            ["fig8", "--scale", "0.1"],
            ["recovery"],
            ["ablation", "quota"],
            ["tlc"],
            ["run", "--workload", "OLTP", "--ftl", "pageFTL"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)


    def test_every_help_text_renders(self):
        # argparse expands ``%`` in help strings only when it renders
        # them, so a stray ``%`` crashes ``--help`` and nothing else.
        pending = [build_parser()]
        rendered = 0
        while pending:
            parser = pending.pop()
            assert parser.format_help()
            rendered += 1
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    pending.extend(action.choices.values())
        assert rendered > 10


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--ops", "1000"]) == 0
        out = capsys.readouterr().out
        assert "OLTP" in out
        assert "7:3" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--blocks", "2", "--wordlines", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out
        assert "RPS matches FPS reliability: True" in out

    def test_tlc(self, capsys):
        assert main(["tlc", "--wordlines", "16"]) == 0
        out = capsys.readouterr().out
        assert "RPS-TLC full" in out
        assert "unconstrained" in out

    def test_tlc_burst_mode(self, capsys):
        assert main(["tlc", "--mode", "burst",
                     "--wordlines", "16"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "three-phase" in out

    def test_tlc_system_mode_json(self, capsys):
        assert main(["tlc", "--mode", "system", "--no-cache",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "system"
        results = payload["results"]
        assert sorted(results) == ["tlc-flexFTL", "tlc-pageFTL"]
        for name, result in results.items():
            assert result["ftl_name"] == name
            assert result["events"] > 0
            assert result["stats"]["completed_writes"] > 0
        # the measured-phase quota change (final - cap), not the value
        assert results["tlc-flexFTL"]["counters"]["quota"] < 0
        assert "quota" not in results["tlc-pageFTL"]["counters"]

    def test_recovery(self, capsys):
        assert main(["recovery", "--wordlines", "16"]) == 0
        out = capsys.readouterr().out
        assert "81.92" in out
        assert "recovered=True" in out

    def test_run_rejects_unknown_workload(self, capsys):
        assert main(["run", "--workload", "nope"]) == 2

    def test_run_rejects_unknown_ftl(self, capsys):
        assert main(["run", "--ftl", "nope", "--workload", "OLTP"]) == 2
