"""Unit tests for top-k MPMCS enumeration."""

import pytest

from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.api import AnalysisSession
from repro.core import topk
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs, rank_optima
from repro.exceptions import AnalysisError
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import RC2Engine
from repro.scenarios.sweep import SweepExecutor


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


class _Optimum:
    def __init__(self, events):
        self.events = events


def _solver(costs, calls):
    """A ``solve`` over ``costs`` (events -> scaled cost) that returns ties in
    reverse lexicographic order, so only the canonical sort puts them right."""

    def solve(found):
        calls.append(list(found))
        left = [(cost, events) for events, cost in costs.items() if events not in found]
        if not left:
            return None
        cost = min(cost for cost, _ in left)
        events = max(events for c, events in left if c == cost)
        return _Optimum(events), cost

    return solve


class TestRankOptima:
    COSTS = {("a",): 1, ("b",): 3, ("c",): 3, ("d",): 3, ("e",): 5}

    def test_stops_once_the_newest_is_costlier_than_the_count_th(self):
        calls = []
        ranked = rank_optima(_solver(self.COSTS, calls), 1)
        assert [optimum.events for optimum in ranked] == [("a",), ("d",)]
        assert len(calls) == 2

    def test_boundary_ties_are_all_found_and_broken_canonically(self):
        calls = []
        ranked = rank_optima(_solver(self.COSTS, calls), 2)
        # a, then the three cost-3 ties, then e proves nothing else ties.
        assert len(calls) == 5
        assert [optimum.events for optimum in ranked][:2] == [("a",), ("b",)]
        assert [optimum.events for optimum in ranked] == [("a",), ("b",), ("c",), ("d",), ("e",)]

    def test_without_determinism_stops_at_count(self):
        calls = []
        ranked = rank_optima(_solver(self.COSTS, calls), 2, deterministic=False)
        assert [optimum.events for optimum in ranked] == [("a",), ("d",)]
        assert len(calls) == 2

    def test_exhaustion_returns_everything_in_canonical_order(self):
        calls = []
        ranked = rank_optima(_solver(self.COSTS, calls), 10)
        assert [optimum.events for optimum in ranked] == sorted(self.COSTS)
        assert len(calls) == len(self.COSTS) + 1

    def test_head_ties_come_from_one_ties_call(self):
        costs = {("a",): 2, ("b",): 2, ("c",): 2, ("d",): 4}
        calls, asked = [], []

        def ties(cost, found):
            asked.append((cost, list(found)))
            return [_Optimum(events) for events in (("a",),) if events not in found]

        ranked = rank_optima(_solver(costs, calls), 1, ties=ties)
        # The head and the first tie come from solves; the rest from ties,
        # after which no proof solve is needed.
        assert len(calls) == 2
        assert asked == [(2, [("c",), ("b",)])]
        assert [optimum.events for optimum in ranked] == [("a",), ("b",), ("c",)]

    def test_blocked_solves_take_over_when_ties_gives_up(self):
        costs = {("a",): 2, ("b",): 2, ("c",): 2, ("d",): 4}
        calls, asked = [], []

        def ties(cost, found):
            asked.append(cost)
            return None

        ranked = rank_optima(_solver(costs, calls), 1, ties=ties)
        assert asked == [2]
        assert len(calls) == 4
        assert [optimum.events for optimum in ranked] == [("a",), ("b",), ("c",), ("d",)]


def _boundary_tie_tree():
    """OR over a=0.5, b=c=d=0.1, e=0.01: ranks 2-4 tie at 0.1.

    ``c`` comes before ``b`` so that neither the cold nor the warm solver
    happens to find the canonical rank-2 set first.
    """
    builder = FaultTreeBuilder("boundary-tie")
    for name, probability in (("a", 0.5), ("c", 0.1), ("b", 0.1), ("d", 0.1), ("e", 0.01)):
        builder.basic_event(name, probability)
    return builder.or_gate("top", ["a", "c", "b", "d", "e"]).top("top").build()


class TestBoundaryTies:
    """A tie that straddles rank ``k`` is broken canonically, like mocus/bdd."""

    EXPECTED = [("a",), ("b",)]

    def test_enumerate_mpmcs(self):
        assert [entry.events for entry in enumerate_mpmcs(_boundary_tie_tree(), 2)] == self.EXPECTED

    def test_facade_cold_route_matches_bdd_and_mocus(self):
        session = AnalysisSession()
        tree = _boundary_tie_tree()
        for backend in ("maxsat", "bdd", "mocus"):
            report = session.analyze(tree, ["ranking"], backend=backend, top_k=2)
            assert [entry.events for entry in report.ranking] == self.EXPECTED, backend

    def test_facade_warm_route(self):
        executor = SweepExecutor(AnalysisSession(), backend="maxsat")
        with executor.warm_scope():
            report = executor.analyze_tree(
                _boundary_tie_tree(), executor.prepare_analyses(("ranking",)), top_k=2
            )
        assert report.profile.get("warm_solves") == 1
        assert [entry.events for entry in report.ranking] == self.EXPECTED
