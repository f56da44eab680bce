"""Unit tests for top-k MPMCS enumeration."""

import pytest

from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.core import topk
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.exceptions import AnalysisError
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import RC2Engine


class TestFPSRanking:
    def test_top_three_cut_sets(self, fps_tree):
        ranked = enumerate_mpmcs(fps_tree, 3)
        assert [entry.events for entry in ranked] == [
            ("x1", "x2"),
            ("x5", "x6"),
            ("x5", "x7"),
        ]
        assert ranked[0].probability == pytest.approx(0.02)
        assert ranked[1].probability == pytest.approx(0.005)
        assert ranked[2].probability == pytest.approx(0.0025)

    def test_ranks_are_sequential(self, fps_tree):
        ranked = enumerate_mpmcs(fps_tree, 4)
        assert [entry.rank for entry in ranked] == [1, 2, 3, 4]

    def test_probabilities_are_non_increasing(self, fps_tree):
        ranked = enumerate_mpmcs(fps_tree, 5)
        probabilities = [entry.probability for entry in ranked]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_enumeration_matches_brute_force_ranking(self, fps_tree):
        ranked = enumerate_mpmcs(fps_tree, 5)
        reference = brute_force_minimal_cut_sets(fps_tree).ranked()
        assert len(ranked) == 5
        for entry, (cut_set, probability) in zip(ranked, reference):
            assert set(entry.events) == set(cut_set)
            assert entry.probability == pytest.approx(probability)

    def test_exhausts_all_cut_sets(self, fps_tree):
        # The FPS tree has exactly 5 minimal cut sets; asking for 10 returns 5.
        ranked = enumerate_mpmcs(fps_tree, 10)
        assert len(ranked) == 5
        assert {entry.events for entry in ranked} == {
            ("x1", "x2"),
            ("x3",),
            ("x4",),
            ("x5", "x6"),
            ("x5", "x7"),
        }


class TestConfiguration:
    def test_k_must_be_positive(self, fps_tree):
        with pytest.raises(AnalysisError):
            enumerate_mpmcs(fps_tree, 0)

    def test_custom_solver_is_used(self, fps_tree):
        solver = MPMCSSolver(single_engine=RC2Engine())
        ranked = enumerate_mpmcs(fps_tree, 2, solver=solver)
        assert len(ranked) == 2

    def test_single_cut_set_tree(self):
        tree = (
            FaultTreeBuilder("tiny")
            .basic_event("a", 0.5)
            .basic_event("b", 0.5)
            .and_gate("top", ["a", "b"])
            .top("top")
            .build()
        )
        ranked = enumerate_mpmcs(tree, 3)
        assert len(ranked) == 1
        assert ranked[0].events == ("a", "b")
        assert ranked[0].size == 2

    def test_duplicate_cut_sets_never_returned(self, voting_tree):
        ranked = enumerate_mpmcs(voting_tree, 8)
        seen = [entry.events for entry in ranked]
        assert len(seen) == len(set(seen))


class TestSingleEncoding:
    def test_tree_is_encoded_once_for_every_rank(self, fps_tree, monkeypatch):
        calls = []
        original = topk.encode_mpmcs

        def counting_encode(tree, **kwargs):
            calls.append(tree.name)
            return original(tree, **kwargs)

        monkeypatch.setattr(topk, "encode_mpmcs", counting_encode)
        ranked = enumerate_mpmcs(fps_tree, 4)
        assert len(calls) == 1
        assert [entry.events for entry in ranked] == [
            ("x1", "x2"),
            ("x5", "x6"),
            ("x5", "x7"),
            ("x4",),
        ]
