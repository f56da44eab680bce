"""Per-stage profiling of analysis runs (encode/solve seconds, cache hits)."""

import json

import pytest

from repro.api import AnalysisSession
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.cli import main as cli_main
from repro.reporting import render_profile
from repro.reporting.json_report import report_document
from repro.workloads.library import fire_protection_system


class TestProfileCollection:
    def test_maxsat_run_records_encode_and_solve_stages(self):
        session = AnalysisSession()
        report = session.analyze(fire_protection_system(), ["mpmcs"], backend="maxsat")
        assert report.profile["encode_seconds"] >= 0.0
        assert report.profile["solve_seconds"] >= 0.0
        # The MaxSAT encoding is not a cache artifact; the BDD is.
        assert report.profile["cache_misses"] == 0
        report = session.analyze(fire_protection_system(), ["mpmcs"], backend="bdd")
        assert report.profile["cache_misses"] > 0

    def test_second_run_shows_cache_hits(self):
        session = AnalysisSession()
        tree = fire_protection_system()
        session.analyze(tree, ["mpmcs"], backend="bdd")
        second = session.analyze(tree, ["mpmcs"], backend="bdd")
        assert second.profile["cache_hits"] > 0
        # The cached BDD makes the encode stage (essentially) free.
        assert second.profile["encode_seconds"] <= second.timings["bdd"]

    def test_composite_request_sums_backend_profiles(self):
        session = AnalysisSession()
        report = session.analyze(
            fire_protection_system(), ["mpmcs", "top_event", "importance"]
        )
        assert "solve_seconds" in report.profile
        assert report.profile["cache_hits"] + report.profile["cache_misses"] > 0

    def test_warm_path_reports_warm_solves(self):
        session = AnalysisSession()
        request = AnalysisRequest.create(["mpmcs"], backend="maxsat")
        (report,) = session.run_batch([fire_protection_system()], request)
        assert report.profile["warm_solves"] == 1


class TestProfileSerialization:
    def test_to_dict_includes_profile_and_round_trips(self):
        session = AnalysisSession()
        report = session.analyze(fire_protection_system(), ["mpmcs"], backend="maxsat")
        document = report.to_dict()
        assert document["profile"] == report.profile
        restored = AnalysisReport.from_dict(document, tree=report.tree)
        assert restored.to_dict() == document

    def test_canonical_dict_strips_profile_and_engine(self):
        session = AnalysisSession()
        report = session.analyze(fire_protection_system(), ["mpmcs"], backend="maxsat")
        canonical = report.to_canonical_dict()
        assert "profile" not in canonical
        assert "timings_s" not in canonical
        assert "cache" not in canonical
        assert "engine" not in canonical["mpmcs"]
        assert "solve_time_s" not in canonical["mpmcs"]
        # Canonical dicts are JSON-stable.
        json.dumps(canonical, sort_keys=True)

    def test_report_document_carries_profile(self):
        session = AnalysisSession()
        report = session.analyze(fire_protection_system(), ["mpmcs"], backend="maxsat")
        document = report_document(report)
        assert document["results"]["profile"] == report.profile


class TestProfileRendering:
    def test_render_profile_lists_stages_and_counters(self):
        session = AnalysisSession()
        report = session.analyze(fire_protection_system(), ["mpmcs"], backend="maxsat")
        text = render_profile(report)
        assert "encode" in text
        assert "solve" in text
        assert "cache_misses" in text
        assert "backend maxsat" in text

    def test_render_profile_without_data(self):
        report = AnalysisReport(tree=fire_protection_system(), request=AnalysisRequest())
        assert "no profiling data" in render_profile(report)

    def test_cli_profile_flag(self, capsys):
        exit_code = cli_main(["analyze", "--builtin", "fps", "--quiet", "--profile"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "performance profile:" in captured.out
        assert "encode" in captured.out
