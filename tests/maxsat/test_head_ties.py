"""Head ties: enumerating every optimum of the cost a solve proved minimal.

``hitting_sets_of_cost`` must list exactly the hitting sets of the given
(minimum) cost, ``IncrementalMaxSATSession.solve_ties`` exactly the tied
optimal cut sets, and the warm ``maxsat`` enumeration must answer like the
cold path however many optima tie, with a per-scenario solve count that does
not grow with the number of ties.
"""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat.hitting_set import hitting_sets_of_cost, minimum_cost_hitting_set
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.monitoring import ProbabilityUpdate, TreeMonitor
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import probability_walk, random_fault_tree


def _ladder(rungs, probability=0.1):
    """``OR`` of ``rungs`` two-event ``AND`` gates: with one probability for
    every event, all ``rungs`` minimal cut sets tie."""
    builder = FaultTreeBuilder(f"ladder-{rungs}")
    for rung in range(rungs):
        builder.basic_event(f"a{rung}", probability)
        builder.basic_event(f"b{rung}", probability)
        builder.and_gate(f"g{rung}", [f"a{rung}", f"b{rung}"])
    builder.or_gate("top", [f"g{rung}" for rung in range(rungs)])
    return builder.top("top").build()


def _instances():
    """Small hitting-set instances with strictly positive weights."""
    literals = st.integers(min_value=1, max_value=7)
    core = st.frozensets(literals, min_size=1, max_size=4)
    cores = st.lists(core, min_size=1, max_size=7)
    weights = st.lists(st.integers(min_value=1, max_value=4), min_size=7, max_size=7)
    return st.tuples(cores, weights)


def _brute_force(cores, weights, cost):
    elements = sorted(set().union(*cores))
    return {
        frozenset(chosen)
        for size in range(len(elements) + 1)
        for chosen in itertools.combinations(elements, size)
        if sum(weights[element] for element in chosen) == cost
        and all(core & set(chosen) for core in cores)
    }


class TestHittingSetsOfCost:
    @settings(max_examples=200, deadline=None)
    @given(_instances())
    def test_lists_exactly_the_minimum_cost_hitting_sets(self, instance):
        cores, weight_list = instance
        weights = {literal: weight_list[literal - 1] for literal in range(1, 8)}
        _, cost = minimum_cost_hitting_set(cores, weights)
        found = hitting_sets_of_cost(cores, weights, cost)
        assert found is not None
        assert len(found) == len({frozenset(chosen) for chosen in found})
        assert {frozenset(chosen) for chosen in found} == _brute_force(cores, weights, cost)

    def test_a_cost_above_the_minimum_is_refused(self):
        cores = [frozenset({1, 2}), frozenset({2, 3})]
        weights = {1: 1, 2: 1, 3: 1}
        assert hitting_sets_of_cost(cores, weights, 1) == [{2}]
        assert hitting_sets_of_cost(cores, weights, 2) is None

    def test_node_budget_gives_up(self):
        cores = [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})]
        weights = {literal: 1 for literal in range(1, 7)}
        assert len(hitting_sets_of_cost(cores, weights, 3)) == 8
        assert hitting_sets_of_cost(cores, weights, 3, max_nodes=3) is None

    def test_no_cores(self):
        assert hitting_sets_of_cost([], {}, 0) == [set()]


class TestSolveTies:
    def test_ties_complete_the_head_without_sat_calls(self):
        tree = _ladder(6)
        session = IncrementalMaxSATSession(tree)
        head = session.solve_tree(tree)
        calls = session.sat_calls
        ties = session.solve_ties(tree, head.scaled_cost, [head.events])
        assert session.sat_calls == calls
        expected = {(f"a{rung}", f"b{rung}") for rung in range(6)} - {head.events}
        assert [tie.events for tie in ties] == sorted(expected)
        for tie in ties:
            assert tie.scaled_cost == head.scaled_cost
            assert tie.cost == head.cost
            assert tie.sat_calls == 0

    def test_ties_match_blocked_enumeration(self):
        tree = random_fault_tree(num_basic_events=25, seed=3)
        for name in tree.event_names:
            tree.set_probability(name, 0.05)
        session = IncrementalMaxSATSession(tree)
        head = session.solve_tree(tree)
        blocked = [head.events]
        while True:
            outcome = session.solve_tree(tree, blocked)
            if outcome is None or outcome.scaled_cost != head.scaled_cost:
                break
            blocked.append(outcome.events)
        assert len(blocked) > 1
        fresh = IncrementalMaxSATSession(tree)
        first = fresh.solve_tree(tree)
        ties = fresh.solve_ties(tree, first.scaled_cost, [first.events])
        assert sorted([first.events] + [tie.events for tie in ties]) == sorted(blocked)

    def test_untied_head_has_no_ties(self):
        tree = _ladder(4)
        tree.set_probability("a0", 0.5)
        session = IncrementalMaxSATSession(tree)
        head = session.solve_tree(tree)
        assert head.events == ("a0", "b0")
        assert session.solve_ties(tree, head.scaled_cost, [head.events]) == []


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


class TestWarmEnumerationWithTies:
    def test_solves_per_scenario_do_not_grow_with_ties(self, monkeypatch):
        calls = []
        solve_tree = IncrementalMaxSATSession.solve_tree

        def counting(self, tree, blocked=()):
            calls.append(len(blocked))
            return solve_tree(self, tree, blocked)

        monkeypatch.setattr(IncrementalMaxSATSession, "solve_tree", counting)
        for rungs in (2, 5, 9):
            tree = _ladder(rungs)
            monitor = TreeMonitor(tree, backend="maxsat", include_reports=True)
            monitor.ensure_base()
            calls.clear()
            delta = monitor.apply_update(
                ProbabilityUpdate.create({"a0": 0.1, "b1": 0.1}, seq=1)
            )
            # The head, then one blocked solve that finds the first tie.
            assert calls == [0, 1]
            fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
            expected = fresh.analyze_tree(tree.copy(), fresh.prepare_analyses(), top_k=5)
            assert _canonical(delta.report) == _canonical(expected)
            assert delta.mpmcs_events == ("a0", "b0")

    def test_blocked_solves_take_over_when_the_tie_search_gives_up(self, monkeypatch):
        from repro.maxsat import incremental

        monkeypatch.setattr(incremental, "hitting_sets_of_cost", lambda *args: None)
        tree = _ladder(4)
        monitor = TreeMonitor(tree, backend="maxsat", include_reports=True)
        delta = monitor.apply_update(ProbabilityUpdate.create({"a0": 0.1}, seq=1))
        fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
        expected = fresh.analyze_tree(tree.copy(), fresh.prepare_analyses(), top_k=5)
        assert _canonical(delta.report) == _canonical(expected)

    def test_ranking_with_more_ties_than_top_k_matches_cold(self):
        tree = _ladder(7)
        analyses = ("mpmcs", "ranking", "top_event")
        warm = SweepExecutor(AnalysisSession(), backend="maxsat")
        cold = SweepExecutor(AnalysisSession(), backend="maxsat")
        with warm.warm_scope():
            report = warm.analyze_tree(tree, warm.prepare_analyses(analyses), top_k=3)
        expected = cold.analyze_tree(tree, cold.prepare_analyses(analyses), top_k=3)
        assert _canonical(report) == _canonical(expected)
        assert [item.events for item in report.ranking] == [
            ("a0", "b0"),
            ("a1", "b1"),
            ("a2", "b2"),
        ]

    def test_clamped_walk_matches_fresh_analysis(self, monkeypatch):
        tied = []
        solve_ties = IncrementalMaxSATSession.solve_ties

        def recording(self, tree, cost, found):
            ties = solve_ties(self, tree, cost, found)
            tied.append(bool(ties))
            return ties

        monkeypatch.setattr(IncrementalMaxSATSession, "solve_ties", recording)
        tree = random_fault_tree(num_basic_events=25, seed=1, voting_ratio=0.1)
        # A volatile walk pins many events at its bounds, so optima tie often.
        walk = list(
            probability_walk(
                tree,
                steps=30,
                seed=0,
                events_per_step=4,
                volatility=1.5,
                probability_range=(0.01, 0.3),
            )
        )
        monitor = TreeMonitor(tree, backend="maxsat", include_reports=True)
        fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
        prepared = fresh.prepare_analyses()
        state = dict(tree.probabilities())
        for seq, values in enumerate(walk, start=1):
            delta = monitor.apply_update(ProbabilityUpdate.create(values, seq=seq))
            state.update(values)
            patched = tree.copy()
            for name, value in state.items():
                patched.set_probability(name, value)
            expected = fresh.analyze_tree(patched, prepared, top_k=5)
            assert _canonical(delta.report) == _canonical(expected)
        assert any(tied)
