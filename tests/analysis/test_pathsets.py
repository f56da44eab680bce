"""Unit and property tests for minimal path sets and the most reliable path set."""

import itertools

import pytest
from hypothesis import given, settings

from repro.analysis.pathsets import dual_tree, minimal_path_sets, most_probable_path_set
from repro.fta.builder import FaultTreeBuilder
from repro.fta.gates import GateType

from tests.conftest import small_random_trees


def is_path_set(tree, events):
    """Reference check: with every event in ``events`` false, the top event can
    never occur, whatever the remaining events do."""
    others = [name for name in tree.events_reachable_from_top() if name not in set(events)]
    for bits in itertools.product([False, True], repeat=len(others)):
        assignment = dict(zip(others, bits))
        assignment.update({name: False for name in events})
        if tree.evaluate(assignment):
            return False
    return True


class TestDualTree:
    def test_gate_types_swapped(self, fps_tree):
        dual = dual_tree(fps_tree)
        assert dual.gates["detection_failure"].gate_type is GateType.OR
        assert dual.gates["fps_failure"].gate_type is GateType.AND
        assert dual.probabilities() == fps_tree.probabilities()

    def test_voting_gate_dualised(self, voting_tree):
        dual = dual_tree(voting_tree)
        gate = dual.gates["feeders_majority_lost"]
        assert gate.gate_type is GateType.VOTING
        assert gate.k == 2  # dual of 2-of-3 is (3-2+1) = 2-of-3

    def test_double_dual_is_identity(self, fps_tree):
        double = dual_tree(dual_tree(fps_tree))
        for name, gate in fps_tree.gates.items():
            assert double.gates[name].gate_type is gate.gate_type
            assert double.gates[name].k == gate.k


class TestMinimalPathSets:
    def test_fps_path_sets(self, fps_tree):
        collection = minimal_path_sets(fps_tree)
        for path_set in collection:
            assert is_path_set(fps_tree, path_set)
        # The FPS needs one working sensor AND water AND nozzles AND a trigger path.
        expected_members = {"x3", "x4"}
        for path_set in collection:
            assert expected_members <= set(path_set)

    def test_simple_series_system(self):
        # OR tree (series system): the only minimal path set is every component.
        tree = (
            FaultTreeBuilder("series")
            .basic_event("a", 0.1)
            .basic_event("b", 0.2)
            .or_gate("top", ["a", "b"])
            .top("top")
            .build()
        )
        collection = minimal_path_sets(tree)
        assert collection.to_sorted_tuples() == [("a", "b")]

    def test_simple_parallel_system(self):
        # AND tree (parallel system): each single component is a path set.
        tree = (
            FaultTreeBuilder("parallel")
            .basic_event("a", 0.1)
            .basic_event("b", 0.2)
            .and_gate("top", ["a", "b"])
            .top("top")
            .build()
        )
        collection = minimal_path_sets(tree)
        assert collection.to_sorted_tuples() == [("a",), ("b",)]

    @settings(max_examples=20, deadline=None)
    @given(small_random_trees(min_events=4, max_events=7))
    def test_every_enumerated_set_is_a_path_set(self, tree):
        for path_set in minimal_path_sets(tree):
            assert is_path_set(tree, path_set)


class TestMostProbablePathSet:
    def test_fps_best_path_set(self, fps_tree):
        events, probability = most_probable_path_set(fps_tree)
        assert is_path_set(fps_tree, events)
        expected = 1.0
        for name in events:
            expected *= 1.0 - fps_tree.probability(name)
        assert probability == pytest.approx(expected)

    def test_parallel_system_picks_most_reliable_component(self):
        tree = (
            FaultTreeBuilder("parallel")
            .basic_event("fragile", 0.4)
            .basic_event("solid", 0.01)
            .and_gate("top", ["fragile", "solid"])
            .top("top")
            .build()
        )
        events, probability = most_probable_path_set(tree)
        assert events == ("solid",)
        assert probability == pytest.approx(0.99)

    @settings(max_examples=20, deadline=None)
    @given(small_random_trees(min_events=4, max_events=7))
    def test_matches_exhaustive_ranking(self, tree):
        events, probability = most_probable_path_set(tree)
        assert is_path_set(tree, events)
        collection = minimal_path_sets(tree)
        best_set, best_probability = collection.most_probable()
        assert probability == pytest.approx(best_probability, rel=1e-9)

    def test_certain_event_is_never_a_member(self):
        tree = (
            FaultTreeBuilder("certain")
            .basic_event("doomed", 1.0)
            .basic_event("shaky", 0.9)
            .and_gate("top", ["doomed", "shaky"])
            .top("top")
            .build()
        )
        events, probability = most_probable_path_set(tree)
        assert events == ("shaky",)
        assert probability == pytest.approx(0.1)

    def test_deep_or_chain(self):
        """A 1500-deep OR chain: every event must keep working."""
        depth = 1500
        builder = FaultTreeBuilder("or-chain")
        for level in range(depth + 1):
            builder.basic_event(f"e{level}", 0.01)
        for level in range(depth - 1):
            builder.or_gate(f"g{level}", [f"e{level}", f"g{level + 1}"])
        builder.or_gate(f"g{depth - 1}", [f"e{depth - 1}", f"e{depth}"])
        tree = builder.top("g0").build()
        events, probability = most_probable_path_set(tree)
        assert len(events) == depth + 1
        assert probability == pytest.approx(0.99 ** (depth + 1))

    def test_path_set_and_cut_set_probabilities_are_consistent(self, fps_tree):
        """Sanity relation: the best path set survival probability must be at
        least the probability that no failure occurs at all."""
        _, best_survival = most_probable_path_set(fps_tree)
        no_failure = 1.0
        for probability in fps_tree.probabilities().values():
            no_failure *= 1.0 - probability
        assert best_survival >= no_failure - 1e-12
