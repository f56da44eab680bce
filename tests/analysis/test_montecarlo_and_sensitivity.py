"""Unit tests for Monte Carlo estimation and sensitivity/uncertainty analysis."""

import pytest

from repro.analysis.montecarlo import estimate_top_event_probability
from repro.analysis.sensitivity import mpmcs_stability, tornado_analysis
from repro.bdd.probability import top_event_probability
from repro.core import pipeline
from repro.core.pipeline import MPMCSSolver
from repro.exceptions import AnalysisError
from repro.fta.builder import FaultTreeBuilder
from repro.workloads.generator import random_fault_tree
from tests.conftest import k_of_n_ladder


class TestMonteCarlo:
    def test_estimate_close_to_exact_on_fps(self, fps_tree):
        estimate = estimate_top_event_probability(fps_tree, samples=20_000, seed=1)
        exact = top_event_probability(fps_tree)
        assert estimate.within(exact, sigmas=4.0)
        assert estimate.confidence_low <= estimate.probability <= estimate.confidence_high
        assert estimate.samples == 20_000

    def test_estimate_is_deterministic_for_fixed_seed(self, fps_tree):
        first = estimate_top_event_probability(fps_tree, samples=2_000, seed=42)
        second = estimate_top_event_probability(fps_tree, samples=2_000, seed=42)
        assert first.probability == second.probability

    def test_different_seeds_differ(self, fps_tree):
        first = estimate_top_event_probability(fps_tree, samples=2_000, seed=1)
        second = estimate_top_event_probability(fps_tree, samples=2_000, seed=2)
        assert first.probability != second.probability

    def test_importance_sampling_helps_rare_events(self):
        tree = (
            FaultTreeBuilder("rare")
            .basic_event("a", 1e-4)
            .basic_event("b", 2e-4)
            .and_gate("top", ["a", "b"])
            .top("top")
            .build()
        )
        exact = top_event_probability(tree)
        plain = estimate_top_event_probability(tree, samples=5_000, seed=3)
        boosted = estimate_top_event_probability(
            tree, samples=5_000, seed=3, importance_factor=1000.0
        )
        # Crude sampling almost surely sees zero hits at p=2e-8; importance
        # sampling must land within a few standard errors of the exact value.
        assert boosted.hits > 0
        assert boosted.within(exact, sigmas=5.0)
        assert plain.probability >= 0.0

    def test_certain_event(self):
        tree = (
            FaultTreeBuilder("sure").basic_event("a", 1.0).or_gate("top", ["a"]).top("top").build()
        )
        estimate = estimate_top_event_probability(tree, samples=500, seed=0)
        assert estimate.probability == pytest.approx(1.0)

    def test_default_solver_takes_the_module_route(self, monkeypatch):
        """The voting ladder solves by rule, module by module, with no
        whole-tree encoding; RC2 alone on it needs one per sample."""
        tree = k_of_n_ladder(9, 5)
        encodings = []
        encode = pipeline.encode_mpmcs

        def counting(tree):
            encodings.append(tree.name)
            return encode(tree)

        monkeypatch.setattr(pipeline, "encode_mpmcs", counting)
        report = mpmcs_stability(tree, samples=3)
        assert encodings == []
        assert report.baseline == MPMCSSolver().solve(tree).events
        assert sum(report.win_counts.values()) == 3

    def test_invalid_parameters_rejected(self, fps_tree):
        with pytest.raises(AnalysisError):
            estimate_top_event_probability(fps_tree, samples=0)
        with pytest.raises(AnalysisError):
            estimate_top_event_probability(fps_tree, importance_factor=0.5)
        with pytest.raises(AnalysisError):
            estimate_top_event_probability(fps_tree, confidence=1.5)

    def test_medium_random_tree_matches_bdd(self):
        tree = random_fault_tree(num_basic_events=30, seed=5)
        exact = top_event_probability(tree)
        estimate = estimate_top_event_probability(tree, samples=30_000, seed=7)
        assert estimate.within(exact, sigmas=5.0)


class TestMPMCSStability:
    def test_stable_tree_keeps_its_mpmcs(self):
        # One cut set is orders of magnitude more likely: perturbations within
        # a factor of 2 can never overturn the ranking.
        tree = (
            FaultTreeBuilder("stable")
            .basic_event("likely", 0.5)
            .basic_event("rare_a", 1e-6)
            .basic_event("rare_b", 1e-6)
            .and_gate("rare_pair", ["rare_a", "rare_b"])
            .or_gate("top", ["likely", "rare_pair"])
            .top("top")
            .build()
        )
        report = mpmcs_stability(tree, samples=15, error_factor=2.0, seed=0)
        assert report.baseline == ("likely",)
        assert report.baseline_win_rate == 1.0
        assert report.ranked()[0][0] == ("likely",)

    def test_unstable_tree_reports_split(self):
        # Two nearly tied cut sets: large perturbations flip the winner.
        tree = (
            FaultTreeBuilder("tied")
            .basic_event("a", 0.100)
            .basic_event("b", 0.101)
            .or_gate("top", ["a", "b"])
            .top("top")
            .build()
        )
        report = mpmcs_stability(tree, samples=40, error_factor=3.0, seed=1)
        assert 0.0 < report.baseline_win_rate < 1.0
        assert set(report.win_counts) == {("a",), ("b",)}
        assert sum(report.win_counts.values()) == 40

    def test_probability_range_is_populated(self, fps_tree):
        report = mpmcs_stability(fps_tree, samples=10, error_factor=2.0, seed=2)
        low, high = report.probability_range
        assert 0.0 < low <= high <= 1.0

    def test_default_solver_takes_the_module_route(self, monkeypatch):
        """The voting ladder solves by rule, module by module, with no
        whole-tree encoding; RC2 alone on it needs one per sample."""
        tree = k_of_n_ladder(9, 5)
        encodings = []
        encode = pipeline.encode_mpmcs

        def counting(tree):
            encodings.append(tree.name)
            return encode(tree)

        monkeypatch.setattr(pipeline, "encode_mpmcs", counting)
        report = mpmcs_stability(tree, samples=3)
        assert encodings == []
        assert report.baseline == MPMCSSolver().solve(tree).events
        assert sum(report.win_counts.values()) == 3

    def test_invalid_parameters_rejected(self, fps_tree):
        with pytest.raises(AnalysisError):
            mpmcs_stability(fps_tree, samples=0)
        with pytest.raises(AnalysisError):
            mpmcs_stability(fps_tree, error_factor=1.0)


class TestTornado:
    def test_entries_sorted_by_swing(self, fps_tree):
        entries = tornado_analysis(fps_tree, factor=5.0)
        swings = [entry.swing for entry in entries]
        assert swings == sorted(swings, reverse=True)
        assert {entry.event for entry in entries} == set(fps_tree.event_names)

    def test_most_sensitive_event_is_x2(self, fps_tree):
        # At factor 10, x2 can rise from 0.1 to 1.0, pushing the probability of
        # the dominant {x1, x2} cut set to 0.2 — a larger swing than the
        # low-probability single points of failure x3/x4 can produce.
        entries = tornado_analysis(fps_tree, factor=10.0)
        assert entries[0].event == "x2"
        by_event = {entry.event: entry for entry in entries}
        assert by_event["x2"].swing > by_event["x3"].swing

    def test_subset_of_events(self, fps_tree):
        entries = tornado_analysis(fps_tree, events=["x1", "x5"])
        assert {entry.event for entry in entries} == {"x1", "x5"}

    def test_swing_bounds_are_consistent(self, fps_tree):
        baseline = top_event_probability(fps_tree)
        for entry in tornado_analysis(fps_tree, factor=3.0):
            assert entry.low_top_probability <= baseline + 1e-12
            assert entry.high_top_probability >= baseline - 1e-12

    def test_default_solver_takes_the_module_route(self, monkeypatch):
        """The voting ladder solves by rule, module by module, with no
        whole-tree encoding; RC2 alone on it needs one per sample."""
        tree = k_of_n_ladder(9, 5)
        encodings = []
        encode = pipeline.encode_mpmcs

        def counting(tree):
            encodings.append(tree.name)
            return encode(tree)

        monkeypatch.setattr(pipeline, "encode_mpmcs", counting)
        report = mpmcs_stability(tree, samples=3)
        assert encodings == []
        assert report.baseline == MPMCSSolver().solve(tree).events
        assert sum(report.win_counts.values()) == 3

    def test_invalid_parameters_rejected(self, fps_tree):
        with pytest.raises(AnalysisError):
            tornado_analysis(fps_tree, factor=1.0)
        with pytest.raises(AnalysisError):
            tornado_analysis(fps_tree, events=["ghost"])
