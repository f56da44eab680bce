"""Tests for the report / uncertainty / modules / truncate / solve-wcnf CLI commands."""

import pytest

from repro.cli import main
from repro.logic.dimacs import write_wcnf
from repro.numerics import HAVE_NUMPY


class TestReportCommand:
    def test_markdown_report(self, tmp_path, capsys):
        output = tmp_path / "fps.md"
        exit_code = main(["report", "--builtin", "fps", "-o", str(output), "--top-k", "3"])
        assert exit_code == 0
        text = output.read_text(encoding="utf-8")
        assert "# MPMCS analysis" in text
        assert "{x1, x2}" in text
        assert "## Most probable minimal cut sets" in text
        assert "markdown report written" in capsys.readouterr().out

    def test_html_report(self, tmp_path, capsys):
        output = tmp_path / "fps.html"
        exit_code = main(["report", "--builtin", "fps", "-o", str(output), "--to", "html"])
        assert exit_code == 0
        text = output.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text
        assert "html report written" in capsys.readouterr().out


class TestUncertaintyCommand:
    @pytest.mark.skipif(
        not HAVE_NUMPY,
        reason="requires numpy (absent or disabled via REPRO_NO_NUMPY=1)",
    )
    def test_fps_uncertainty(self, capsys):
        exit_code = main(
            ["uncertainty", "--builtin", "fps", "--samples", "300", "--seed", "7"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "top-event probability over 300 samples" in out
        assert "P5:" in out and "P95:" in out
        assert "MPMCS identity stability" in out
        assert "uncertainty importance" in out

    def test_invalid_error_factor(self, capsys):
        exit_code = main(["uncertainty", "--builtin", "fps", "--error-factor", "0.5"])
        assert exit_code == 1
        assert "error-factor" in capsys.readouterr().err


class TestModulesCommand:
    def test_fps_modules(self, capsys):
        exit_code = main(["modules", "--builtin", "fps"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "modules        : 5" in out
        assert "detection_failure" in out

    def test_shared_event_tree_has_only_the_top_module(self, capsys):
        exit_code = main(["modules", "--builtin", "three-motor-system"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "modules        : 1" in out


class TestTruncateCommand:
    def test_fps_truncation(self, capsys):
        exit_code = main(["truncate", "--builtin", "fps", "--cutoff", "0.0024"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "3 cut sets retained" in out
        assert "x1, x2" in out

    def test_cutoff_above_everything(self, capsys):
        exit_code = main(["truncate", "--builtin", "fps", "--cutoff", "0.9"])
        assert exit_code == 0
        assert "0 cut sets retained" in capsys.readouterr().out


class TestSolveWcnfCommand:
    @pytest.fixture
    def wcnf_file(self, tmp_path):
        text = write_wcnf(
            hard=[[1, 2]],
            soft=[(2.0, [-1]), (5.0, [-2])],
            num_vars=2,
            precision=1,
        )
        path = tmp_path / "instance.wcnf"
        path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize("engine", ["rc2", "hitting-set", "brute-force"])
    def test_solves_with_every_engine(self, wcnf_file, capsys, engine):
        exit_code = main(["solve-wcnf", str(wcnf_file), "--engine", engine])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "status : optimum" in out
        assert "cost   : 2" in out

    def test_show_model(self, wcnf_file, capsys):
        exit_code = main(["solve-wcnf", str(wcnf_file), "--show-model"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "model  : 1 -2" in out
