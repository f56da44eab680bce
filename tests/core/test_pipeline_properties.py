"""Property-based tests: the MaxSAT pipeline must agree with exhaustive search."""

import pytest
from hypothesis import given, settings

from repro.analysis.bruteforce import brute_force_minimal_cut_sets, brute_force_mpmcs
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.core.weights import probability_from_cost
from repro.maxsat import RC2Engine

from tests.conftest import small_random_trees


def pipeline():
    """A deterministic single-engine pipeline (no threads) for property tests."""
    return MPMCSSolver(single_engine=RC2Engine())


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(small_random_trees(min_events=4, max_events=10))
    def test_probability_matches_brute_force(self, tree):
        expected_events, expected_probability = brute_force_mpmcs(tree)
        result = pipeline().solve(tree)
        assert result.probability == pytest.approx(expected_probability, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(small_random_trees(min_events=4, max_events=10))
    def test_returned_set_is_minimal_cut_set(self, tree):
        result = pipeline().solve(tree)
        assert tree.is_minimal_cut_set(result.events)

    @settings(max_examples=30, deadline=None)
    @given(small_random_trees(min_events=4, max_events=9))
    def test_cost_and_probability_are_consistent(self, tree):
        result = pipeline().solve(tree)
        assert probability_from_cost(result.cost) == pytest.approx(
            result.probability, rel=1e-6
        )

    @settings(max_examples=20, deadline=None)
    @given(small_random_trees(min_events=4, max_events=8))
    def test_topk_matches_brute_force_ranking(self, tree):
        reference = brute_force_minimal_cut_sets(tree).ranked()
        k = min(3, len(reference))
        ranked = enumerate_mpmcs(tree, k, solver=pipeline())
        assert len(ranked) == k
        for entry, (cut_set, probability) in zip(ranked, reference[:k]):
            # The objective is the canonical order, so ties break alike.
            assert entry.events == tuple(sorted(cut_set))
            assert entry.probability == pytest.approx(probability, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(small_random_trees(min_events=4, max_events=8, voting_ratio=0.4))
    def test_voting_heavy_trees_match_brute_force(self, tree):
        expected_events, expected_probability = brute_force_mpmcs(tree)
        result = pipeline().solve(tree)
        assert result.probability == pytest.approx(expected_probability, rel=1e-9)
