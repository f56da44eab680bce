"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fta.serializers import to_galileo, to_json
from repro.workloads.library import fire_protection_system


class TestAnalyzeCommand:
    def test_builtin_fps_analysis(self, capsys):
        assert main(["analyze", "--builtin", "fps", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "MPMCS      : {x1, x2}" in output
        assert "0.02" in output

    def test_json_model_file(self, tmp_path, capsys):
        model = tmp_path / "fps.json"
        model.write_text(to_json(fire_protection_system()), encoding="utf-8")
        assert main(["analyze", str(model), "--quiet"]) == 0
        assert "x1, x2" in capsys.readouterr().out

    def test_galileo_model_file(self, tmp_path, capsys):
        model = tmp_path / "fps.dft"
        model.write_text(to_galileo(fire_protection_system()), encoding="utf-8")
        assert main(["analyze", str(model), "--quiet"]) == 0
        assert "x1, x2" in capsys.readouterr().out

    def test_report_and_dot_outputs(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        dot = tmp_path / "tree.dot"
        code = main(
            ["analyze", "--builtin", "fps", "--quiet", "-o", str(report), "--dot", str(dot)]
        )
        assert code == 0
        document = json.loads(report.read_text(encoding="utf-8"))
        assert document["solution"]["mpmcs"] == ["x1", "x2"]
        assert "digraph" in dot.read_text(encoding="utf-8")

    def test_top_k_listing(self, capsys):
        assert main(["analyze", "--builtin", "fps", "--quiet", "--top-k", "3"]) == 0
        output = capsys.readouterr().out
        assert "#1: {x1, x2}" in output
        assert "#3:" in output

    def test_ascii_tree_shown_by_default(self, capsys):
        assert main(["analyze", "--builtin", "fps"]) == 0
        assert "fps_failure" in capsys.readouterr().out

    def test_missing_model_is_an_error(self, capsys):
        assert main(["analyze"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["maxsat", "mocus", "bdd", "brute-force"])
    def test_explicit_backend(self, capsys, backend):
        assert main(["analyze", "--builtin", "fps", "--quiet", "--backend", backend]) == 0
        output = capsys.readouterr().out
        assert "MPMCS      : {x1, x2}" in output
        assert "0.02" in output

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--builtin", "fps", "--backend", "nope"])

    def test_analyze_takes_no_mode(self):
        # Step 5 runs on one engine, so there is no race mode to set.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--builtin", "fps", "--mode", "process"])


class TestBackendsCommand:
    def test_registry_listing(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in ("maxsat", "mocus", "bdd", "brute-force", "monte-carlo"):
            assert name in output
        assert "mpmcs" in output


class TestOtherCommands:
    def test_weights_command_prints_table_one(self, capsys):
        assert main(["weights", "--builtin", "fps"]) == 0
        output = capsys.readouterr().out
        assert "1.60944" in output
        assert "6.21461" in output

    def test_show_command(self, capsys):
        assert main(["show", "--builtin", "pressure-tank"]) == 0
        assert "tank_rupture" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--events", "12", "--seed", "4"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["events"]) == 12

    def test_generate_galileo_to_file(self, tmp_path, capsys):
        out = tmp_path / "random.dft"
        code = main(
            ["generate", "--events", "15", "--seed", "2", "--out-format", "galileo", "-o", str(out)]
        )
        assert code == 0
        assert "toplevel" in out.read_text(encoding="utf-8")

    def test_generated_file_can_be_analyzed(self, tmp_path, capsys):
        out = tmp_path / "random.json"
        assert main(["generate", "--events", "30", "--seed", "8", "-o", str(out)]) == 0
        assert main(["analyze", str(out), "--quiet"]) == 0
        assert "MPMCS" in capsys.readouterr().out


class TestParser:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_builtin_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--builtin", "not-a-tree"])
