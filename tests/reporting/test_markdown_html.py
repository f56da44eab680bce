"""Tests for the Markdown and HTML report renderers."""

import pytest

from repro.analysis.importance import importance_measures
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.analysis.spof import single_points_of_failure
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.maxsat.rc2 import RC2Engine
from repro.reporting.html import html_report, write_html_report
from repro.reporting.markdown import markdown_report, write_markdown_report
from repro.workloads.library import fire_protection_system, redundant_power_supply


@pytest.fixture(scope="module")
def fps_result():
    tree = fire_protection_system()
    solver = MPMCSSolver(single_engine=RC2Engine())
    return tree, solver.solve(tree)


class TestMarkdownReport:
    def test_contains_mpmcs_and_table1(self, fps_result):
        tree, result = fps_result
        text = markdown_report(tree, result)
        assert "# MPMCS analysis — fire-protection-system" in text
        assert "{x1, x2}" in text
        assert "0.02" in text
        assert "1.60944" in text  # Table I weight of x1
        assert "2.30259" in text  # Table I weight of x2

    def test_optional_sections(self, fps_result):
        tree, result = fps_result
        ranking = enumerate_mpmcs(tree, 3, solver=MPMCSSolver(single_engine=RC2Engine()))
        cut_sets = mocus_minimal_cut_sets(tree)
        importance = importance_measures(tree, cut_sets)
        spofs = single_points_of_failure(tree)
        text = markdown_report(
            tree, result, ranking=ranking, importance=importance, spofs=spofs
        )
        assert "## Most probable minimal cut sets" in text
        assert "## Importance measures" in text
        assert "## Single points of failure" in text
        assert "Fussell-Vesely" in text
        # The FPS tree has two single points of failure: x3 and x4.
        assert "| x3 |" in text
        assert "| x4 |" in text

    def test_no_spof_message(self):
        tree = redundant_power_supply()
        # busbar_failure *is* a SPOF here, so pass an empty list explicitly to
        # exercise the "none" rendering path.
        result = MPMCSSolver(single_engine=RC2Engine()).solve(tree)
        text = markdown_report(tree, result, spofs=[])
        assert "None — no single basic event" in text

    def test_write_markdown_report(self, fps_result, tmp_path):
        tree, result = fps_result
        path = write_markdown_report(tree, result, tmp_path / "report.md")
        assert path.exists()
        assert "MPMCS" in path.read_text(encoding="utf-8")

    def test_engine_line_names_the_engine_and_no_portfolio_table(self, fps_result):
        tree, result = fps_result
        text = markdown_report(tree, result)
        assert "* **Engine**: rc2" in text
        assert "Portfolio winner" not in text


class TestHtmlReport:
    def test_structure_and_highlighting(self, fps_result):
        tree, result = fps_result
        text = html_report(tree, result)
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text and "</svg>" in text
        assert "{x1, x2}" in text
        # Every node appears in the SVG; MPMCS members are filled red.
        for name in tree.event_names:
            assert f">{name}<" in text
        assert text.count("#f1948a") == 2  # exactly the two MPMCS events

    def test_gates_are_labelled(self, fps_result):
        tree, result = fps_result
        text = html_report(tree, result)
        assert "detection_failure [AND]" in text
        assert "fps_failure [OR]" in text

    def test_voting_gate_label(self):
        tree = redundant_power_supply()
        result = MPMCSSolver(single_engine=RC2Engine()).solve(tree)
        text = html_report(tree, result)
        assert "2-of-3" in text

    def test_custom_title_is_escaped(self, fps_result):
        tree, result = fps_result
        text = html_report(tree, result, title="<script>alert(1)</script>")
        assert "<script>alert(1)</script>" not in text
        assert "&lt;script&gt;" in text

    def test_write_html_report(self, fps_result, tmp_path):
        tree, result = fps_result
        path = write_html_report(tree, result, tmp_path / "report.html")
        assert path.exists()
        assert "<svg" in path.read_text(encoding="utf-8")
