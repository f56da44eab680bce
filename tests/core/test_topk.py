"""Unit tests for top-k MPMCS enumeration."""

from collections import Counter

import pytest

from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.api import AnalysisSession
from repro.core import pipeline
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs, rank_optima
from repro.exceptions import AnalysisError, ReproError
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import RC2Engine, hitting_set
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import data_center_power, fire_protection_system
from tests.conftest import k_of_n_ladder, searched_skeletons, voting_reuse_tree


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


def _basic_event_top():
    return FaultTreeBuilder("one-event").basic_event("a", 0.1).top("a").build()


class TestRankCount:
    """The count of a ranking at its edges, on every kind of structure: a
    basic event as the top, modules by rule only, searched skeletons."""

    FACTORIES = {
        "basic-event-top": _basic_event_top,
        "fps": fire_protection_system,
        "ladder-5-3": lambda: k_of_n_ladder(5, 3),
        "data-center-power": data_center_power,
        "voting-reuse-10-2": lambda: voting_reuse_tree(10, 2),
        "voting-reuse-10-10": lambda: voting_reuse_tree(10, 10),
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_a_count_of_zero_ranks_nothing(self, name):
        tree = self.FACTORIES[name]()
        assert MPMCSSolver().rank(tree, 0) == []
        assert MPMCSSolver(single_engine=RC2Engine()).rank(tree, 0) == []

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_a_count_above_the_cut_sets_ranks_them_all(self, name):
        tree = self.FACTORIES[name]()
        cut_sets = brute_force_minimal_cut_sets(tree)
        ranked = [result.events for result in MPMCSSolver().rank(tree, len(cut_sets) + 5)]
        assert sorted(ranked) == sorted(tuple(sorted(cut_set)) for cut_set in cut_sets)
        expected = AnalysisSession().analyze(
            tree, ["ranking"], backend="bdd", top_k=len(cut_sets) + 5
        )
        assert ranked == [entry.events for entry in expected.ranking]


class TestSingleEncoding:
    def _encodings(self, monkeypatch):
        calls = []
        original = pipeline.encode_mpmcs

        def counting_encode(tree, **kwargs):
            calls.append(tree.name)
            return original(tree, **kwargs)

        monkeypatch.setattr(pipeline, "encode_mpmcs", counting_encode)
        return calls

    def test_default_solver_never_encodes_the_whole_tree(self, monkeypatch):
        # The searched skeleton ranks by blocked solves of its own clauses.
        calls = self._encodings(monkeypatch)
        tree = data_center_power()
        ranked = enumerate_mpmcs(tree, 4)
        assert calls == []
        expected = AnalysisSession().analyze(tree, ["ranking"], backend="bdd", top_k=4)
        assert [entry.events for entry in ranked] == [entry.events for entry in expected.ranking]

    def test_single_engine_blocked_solves_share_one_encoding(self, monkeypatch):
        # The MPMCS takes one whole-tree encoding; the blocked solves share
        # a second one.
        calls = self._encodings(monkeypatch)
        tree = data_center_power()
        ranked = enumerate_mpmcs(tree, 4, solver=MPMCSSolver(single_engine=RC2Engine()))
        assert len(calls) == 2
        assert [entry.events for entry in ranked] == [
            entry.events for entry in enumerate_mpmcs(tree, 4)
        ]

    def test_by_rule_tree_is_never_encoded(self, fps_tree, monkeypatch):
        calls = self._encodings(monkeypatch)
        ranked = enumerate_mpmcs(fps_tree, 4)
        assert calls == []
        assert [entry.events for entry in ranked] == [
            ("x1", "x2"),
            ("x5", "x6"),
            ("x5", "x7"),
            ("x4",),
        ]


def _e4_tree(events, seed):
    """An E4 generator tree (5% voting gates, 5% event reuse)."""
    return random_fault_tree(
        num_basic_events=events, seed=seed, voting_ratio=0.05, event_reuse=0.05
    )


class TestSkeletonRanking:
    """A ranking of a tree with a searched skeleton solves that skeleton
    alone, at most ``k`` times, and never the whole tree."""

    @pytest.mark.parametrize(
        "factory, max_sat_calls",
        [
            (data_center_power, None),
            # Each blocked solve starts from the cores of the solves before
            # it: 51 SAT calls for the top 10, against 426 when every solve
            # started afresh.
            (lambda: voting_reuse_tree(40, 27), 70),
            (lambda: _e4_tree(1000, 1), None),
        ],
        ids=["data-center-power", "voting-reuse-40-27", "e4-1000-1"],
    )
    @pytest.mark.parametrize("k", [3, 10])
    def test_at_most_k_skeleton_solves_and_no_whole_tree_solve(
        self, monkeypatch, factory, max_sat_calls, k
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a whole-tree solve was made")

        monkeypatch.setattr(pipeline, "encode_mpmcs", forbidden)
        sessions = []
        solve = IncrementalMaxSATSession.solve

        def recording(self, *args, **kwargs):
            sessions.append(self)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalMaxSATSession, "solve", recording)
        tree = factory()
        ranked = MPMCSSolver().rank(tree, k)
        # Each searched skeleton is ranked by one session of its own.
        solves = Counter(map(id, sessions))
        assert len(solves) == len(searched_skeletons(tree)) > 0
        assert max(solves.values()) <= k
        sat_calls = ranked[0].sat_calls
        assert sat_calls > 0
        if max_sat_calls is not None:
            assert sat_calls <= max_sat_calls

    def test_a_ranking_over_budget_raises_analysis_error(self, monkeypatch):
        # The session's BudgetExceededError is a SolverError; the ranking
        # reports it as the AnalysisError that AnalysisSession degrades on.
        monkeypatch.setattr(hitting_set, "MAX_ROUNDS", 1)
        with pytest.raises(AnalysisError, match="gave no optimum"):
            MPMCSSolver().rank(data_center_power(), 3)

    def test_a_stop_hook_cancels_a_ranking(self):
        solver = MPMCSSolver()
        solver.stop_check = lambda: True
        with pytest.raises(ReproError):
            solver.rank(data_center_power(), 3)
        solver.stop_check = None
        assert [result.events for result in solver.rank(data_center_power(), 3)] == [
            ("transfer_switch_fails",),
            ("generator_fails_to_start", "utility_outage"),
            ("ups_a_fails", "ups_b_fails"),
        ]


class _Optimum:
    def __init__(self, events):
        self.events = events


def _solver(costs, calls):
    """A ``solve`` over ``costs`` (events -> cost) that, like every exact
    engine on the canonical objective, returns the least remaining set by
    (cost, events)."""

    def solve(found):
        calls.append(list(found))
        left = [(cost, events) for events, cost in costs.items() if events not in found]
        return _Optimum(min(left)[1]) if left else None

    return solve


class TestRankOptima:
    COSTS = {("a",): 1, ("b",): 3, ("c",): 3, ("d",): 3, ("e",): 5}

    def test_takes_count_solves(self):
        calls = []
        ranked = rank_optima(_solver(self.COSTS, calls), 2)
        assert [optimum.events for optimum in ranked] == [("a",), ("b",)]
        assert len(calls) == 2

    def test_each_solve_blocks_every_optimum_found(self):
        calls = []
        rank_optima(_solver(self.COSTS, calls), 3)
        assert calls == [[], [("a",)], [("a",), ("b",)]]

    def test_exhaustion_returns_everything_in_canonical_order(self):
        calls = []
        ranked = rank_optima(_solver(self.COSTS, calls), 10)
        assert [optimum.events for optimum in ranked] == sorted(self.COSTS)
        assert len(calls) == len(self.COSTS) + 1

    def test_no_optimum_gives_an_empty_ranking(self):
        calls = []
        assert rank_optima(_solver({}, calls), 3) == []
        assert calls == [[]]


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
        # A ranking takes the warm route's kept module walk, as one optimum does.
        executor = SweepExecutor(AnalysisSession(), backend="maxsat")
        (report,) = executor.analyze_batch(
            [_boundary_tie_tree()], executor.prepare_analyses(("ranking",)), top_k=2
        )
        assert report.profile["warm_solves"] == 1
        assert [entry.events for entry in report.ranking] == self.EXPECTED
