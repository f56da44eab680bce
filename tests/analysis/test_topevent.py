"""Unit tests for top-event probability estimators."""

import pytest
from hypothesis import given, settings

from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.analysis.topevent import (
    birnbaum_bound,
    cut_set_bounds,
    exact_top_event_probability,
    rare_event_approximation,
    top_event_probability_from_cut_sets,
)
from repro.api import AnalysisSession
from repro.api.cache import ArtifactCache
from repro.bdd.probability import top_event_probability as bdd_probability
from repro.core.weights import probability_of_cut_set
from repro.exceptions import AnalysisError
from repro.scenarios.incremental import incremental_cut_sets
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES

from tests.conftest import all_assignments, small_random_trees


def exhaustive_probability(tree):
    """Ground-truth P(top) by summing over all event-state combinations."""
    events = sorted(tree.events_reachable_from_top())
    probabilities = tree.probabilities()
    total = 0.0
    for assignment in all_assignments(events):
        if tree.evaluate(assignment):
            weight = 1.0
            for name in events:
                weight *= probabilities[name] if assignment[name] else 1.0 - probabilities[name]
            total += weight
    return total


class TestSingleCutSet:
    def test_exact_probability_of_one_cut_set(self):
        cut_sets = [{"a", "b"}]
        probabilities = {"a": 0.5, "b": 0.2}
        assert exact_top_event_probability(cut_sets, probabilities) == pytest.approx(0.1)
        assert rare_event_approximation(cut_sets, probabilities) == pytest.approx(0.1)
        assert birnbaum_bound(cut_sets, probabilities) == pytest.approx(0.1)


class TestTwoDisjointCutSets:
    CUT_SETS = [{"a"}, {"b"}]
    PROBS = {"a": 0.1, "b": 0.2}

    def test_exact_uses_inclusion_exclusion(self):
        expected = 0.1 + 0.2 - 0.1 * 0.2
        assert exact_top_event_probability(self.CUT_SETS, self.PROBS) == pytest.approx(expected)

    def test_rare_event_overestimates(self):
        assert rare_event_approximation(self.CUT_SETS, self.PROBS) == pytest.approx(0.3)

    def test_birnbaum_bound_exact_for_disjoint_sets(self):
        expected = 1 - (1 - 0.1) * (1 - 0.2)
        assert birnbaum_bound(self.CUT_SETS, self.PROBS) == pytest.approx(expected)


class TestFPSExample:
    def test_exact_matches_exhaustive_enumeration(self, fps_tree):
        cut_sets = list(brute_force_minimal_cut_sets(fps_tree))
        exact = exact_top_event_probability(cut_sets, fps_tree.probabilities())
        assert exact == pytest.approx(exhaustive_probability(fps_tree), rel=1e-9)

    def test_bdd_matches_exact(self, fps_tree):
        cut_sets = list(brute_force_minimal_cut_sets(fps_tree))
        exact = exact_top_event_probability(cut_sets, fps_tree.probabilities())
        assert bdd_probability(fps_tree) == pytest.approx(exact, rel=1e-9)

    def test_bounds_order(self, fps_tree):
        cut_sets = list(brute_force_minimal_cut_sets(fps_tree))
        probabilities = fps_tree.probabilities()
        exact = exact_top_event_probability(cut_sets, probabilities)
        upper = birnbaum_bound(cut_sets, probabilities)
        rare = rare_event_approximation(cut_sets, probabilities)
        assert exact <= upper + 1e-12
        assert upper <= rare + 1e-12


class TestMethodSelection:
    def test_auto_prefers_exact_when_small(self, fps_tree):
        cut_sets = list(brute_force_minimal_cut_sets(fps_tree))
        probabilities = fps_tree.probabilities()
        auto = top_event_probability_from_cut_sets(cut_sets, probabilities, method="auto")
        exact = exact_top_event_probability(cut_sets, probabilities)
        assert auto == pytest.approx(exact)

    def test_auto_falls_back_to_bound_when_large(self):
        cut_sets = [{f"e{i}"} for i in range(30)]
        probabilities = {f"e{i}": 0.01 for i in range(30)}
        value = top_event_probability_from_cut_sets(cut_sets, probabilities, method="auto")
        assert value == pytest.approx(birnbaum_bound(cut_sets, probabilities))

    def test_explicit_methods(self):
        cut_sets = [{"a"}, {"b"}]
        probabilities = {"a": 0.1, "b": 0.2}
        for method in ("exact", "rare-event", "min-cut-upper-bound"):
            value = top_event_probability_from_cut_sets(cut_sets, probabilities, method=method)
            assert 0.0 < value <= 0.3 + 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            top_event_probability_from_cut_sets([{"a"}], {"a": 0.1}, method="quantum")

    def test_exact_cut_set_limit(self):
        cut_sets = [{f"e{i}"} for i in range(25)]
        probabilities = {f"e{i}": 0.01 for i in range(25)}
        with pytest.raises(AnalysisError):
            exact_top_event_probability(cut_sets, probabilities, max_cut_sets=20)

    def test_empty_cut_sets_rejected(self):
        with pytest.raises(AnalysisError):
            rare_event_approximation([], {"a": 0.5})


class TestAgainstExhaustiveEnumeration:
    @settings(max_examples=20, deadline=None)
    @given(small_random_trees(min_events=4, max_events=7))
    def test_exact_and_bdd_match_ground_truth(self, tree):
        reference = exhaustive_probability(tree)
        assert bdd_probability(tree) == pytest.approx(reference, rel=1e-9, abs=1e-12)
        cut_sets = list(brute_force_minimal_cut_sets(tree))
        if len(cut_sets) <= 16:
            exact = exact_top_event_probability(cut_sets, tree.probabilities())
            assert exact == pytest.approx(reference, rel=1e-9, abs=1e-12)


def _pinned_sweep_tree():
    return random_fault_tree(num_basic_events=60, seed=5, voting_ratio=0.05)


_BOUND_TREES = [*sorted(set(NAMED_TREES.values()), key=lambda f: f.__name__), _pinned_sweep_tree]


class TestOnePassBounds:
    """``cut_set_bounds`` multiplies each cut set out once; both bounds stay
    the doubles of the per-bound formulas, bit for bit."""

    @pytest.mark.parametrize("factory", _BOUND_TREES, ids=lambda f: f.__name__)
    def test_bounds_are_bit_identical_to_the_separate_functions(self, factory):
        tree = factory()
        cut_sets = list(incremental_cut_sets(tree, ArtifactCache()))
        probabilities = tree.probabilities()
        rare, upper = cut_set_bounds(cut_sets, probabilities)
        sets = [frozenset(cs) for cs in cut_sets]
        reference_rare = sum(probability_of_cut_set(cs, probabilities) for cs in sets)
        product = 1.0
        for cs in sets:
            product *= 1.0 - probability_of_cut_set(cs, probabilities)
        assert rare.hex() == reference_rare.hex()
        assert upper.hex() == (1.0 - product).hex()
        assert rare.hex() == rare_event_approximation(cut_sets, probabilities).hex()
        assert upper.hex() == birnbaum_bound(cut_sets, probabilities).hex()

    @pytest.mark.parametrize("backend", ["mocus", "brute-force"])
    def test_cut_set_backends_report_the_separate_functions_bounds(self, backend):
        tree = NAMED_TREES["chemical-reactor"]()
        report = AnalysisSession().analyze(tree, analyses=["mcs", "top_event"], backend=backend)
        cut_sets = list(report.cut_sets)
        probabilities = tree.probabilities()
        summary = report.top_event
        assert summary.rare_event_bound == rare_event_approximation(cut_sets, probabilities)
        assert summary.min_cut_upper_bound == birnbaum_bound(cut_sets, probabilities)
