"""Unit tests for the reporting layer (JSON, DOT, ASCII, tables)."""

import json

import pytest

from repro.core.pipeline import MPMCSSolver
from repro.maxsat import RC2Engine
from repro.reporting.ascii_art import render_tree
from repro.reporting.dot import to_dot
from repro.reporting.json_report import analysis_report, write_analysis_report
from repro.reporting.tables import markdown_table, weights_table


@pytest.fixture
def fps_result(fps_tree):
    return MPMCSSolver(single_engine=RC2Engine()).solve(fps_tree)


class TestJsonReport:
    def test_report_contains_fig2_content(self, fps_tree, fps_result):
        """The report must carry the same information as the Fig. 2 output:
        the fault tree, the MPMCS and its probability."""
        report = analysis_report(fps_tree, fps_result)
        assert report["solution"]["mpmcs"] == ["x1", "x2"]
        assert report["solution"]["probability"] == pytest.approx(0.02)
        assert report["tree"]["top"] == "fps_failure"
        assert len(report["tree"]["events"]) == 7

    def test_nodes_are_annotated_with_mpmcs_membership(self, fps_tree, fps_result):
        report = analysis_report(fps_tree, fps_result)
        by_name = {node["name"]: node for node in report["nodes"] if node["kind"] == "basic-event"}
        assert by_name["x1"]["in_mpmcs"] is True
        assert by_name["x3"]["in_mpmcs"] is False
        assert by_name["x1"]["weight"] == pytest.approx(1.60944, abs=1e-4)

    def test_solver_and_instance_sections(self, fps_tree, fps_result):
        report = analysis_report(fps_tree, fps_result)
        assert report["solver"]["engine"] == "rc2"
        assert report["instance"]["soft_clauses"] == 7
        assert report["report_version"]

    def test_report_is_json_serialisable(self, fps_tree, fps_result):
        text = json.dumps(analysis_report(fps_tree, fps_result))
        assert "mpmcs" in text

    def test_write_report_to_disk(self, tmp_path, fps_tree, fps_result):
        path = write_analysis_report(fps_tree, fps_result, tmp_path / "report.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["solution"]["mpmcs"] == ["x1", "x2"]

    def test_solver_section_reports_sat_calls(self, fps_tree):
        result = MPMCSSolver(single_engine=RC2Engine()).solve(fps_tree)
        report = analysis_report(fps_tree, result)
        assert report["solver"]["sat_calls"] == result.sat_calls > 0
        assert "portfolio" not in report["solver"]


class TestDot:
    def test_dot_contains_all_nodes_and_edges(self, fps_tree):
        dot = to_dot(fps_tree)
        for name in list(fps_tree.event_names) + list(fps_tree.gate_names):
            assert f'"{name}"' in dot
        assert dot.count("->") == sum(len(g.children) for g in fps_tree.gates.values())

    def test_highlighted_events_are_filled(self, fps_tree):
        dot = to_dot(fps_tree, highlight=["x1", "x2"])
        assert "indianred1" in dot
        assert dot.index("digraph") == 0

    def test_voting_gate_label(self, voting_tree):
        dot = to_dot(voting_tree)
        assert "2-of-3" in dot

    def test_probabilities_shown(self, fps_tree):
        assert "p=0.001" in to_dot(fps_tree)


class TestAscii:
    def test_render_contains_all_events(self, fps_tree):
        text = render_tree(fps_tree)
        for index in range(1, 8):
            assert f"x{index}" in text

    def test_highlight_marker(self, fps_tree):
        text = render_tree(fps_tree, highlight=["x1"])
        assert "<< MPMCS" in text

    def test_max_depth_truncates(self, fps_tree):
        shallow = render_tree(fps_tree, max_depth=1)
        assert "x6" not in shallow

    def test_voting_gate_rendered_with_threshold(self, voting_tree):
        assert "2-of-3" in render_tree(voting_tree)

    def test_shared_subtrees_marked(self, shared_events_tree):
        # control_circuit appears under three motor gates
        text = render_tree(shared_events_tree)
        assert text.count("control_circuit") >= 3


class TestTables:
    def test_markdown_table_shape(self):
        table = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4

    def test_weights_table_reproduces_table_one(self, fps_tree):
        table = weights_table(fps_tree)
        assert "| p(xi) | 0.2 | 0.1 | 0.001 | 0.002 | 0.05 | 0.1 | 0.05 |" in table
        assert "1.60944" in table
        assert "6.90776" in table
        assert "2.99573" in table
