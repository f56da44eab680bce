"""Tests for the compiled structure: bit-parallel cut-set checks against the
dict oracle, and isolation between copies that share or drop it."""

from __future__ import annotations

from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spof import single_points_of_failure
from repro.api.cache import ArtifactCache, subtree_structure_hashes
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system


@st.composite
def shared_dags(draw) -> FaultTree:
    """Random fault DAGs: AND/OR/voting gates with k ∈ {1, n} or between,
    gates and events reused by several parents, every node reachable."""
    num_events = draw(st.integers(min_value=1, max_value=6))
    tree = FaultTree("dag", top_event="top")
    pool: List[str] = []
    for index in range(num_events):
        name = f"e{index}"
        tree.add_basic_event(name, 0.1)
        pool.append(name)
    unused = set(pool)
    for index in range(draw(st.integers(min_value=0, max_value=5))):
        children = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        kind = draw(st.sampled_from([GateType.AND, GateType.OR, GateType.VOTING]))
        k = None
        if kind is GateType.VOTING:
            k = draw(st.sampled_from([1, len(children), (len(children) + 1) // 2]))
        name = f"g{index}"
        tree.add_gate(name, kind, children, k=k)
        unused.difference_update(children)
        unused.add(name)
        pool.append(name)
    roots = sorted(unused)
    kind = draw(st.sampled_from([GateType.AND, GateType.OR, GateType.VOTING]))
    k = draw(st.sampled_from([1, len(roots)])) if kind is GateType.VOTING else None
    tree.add_gate("top", kind, roots, k=k)
    return tree


def oracle_is_minimal(tree: FaultTree, events: Sequence[str]) -> bool:
    names = list(dict.fromkeys(events))
    if not tree.evaluate(dict.fromkeys(names, True)):
        return False
    return not any(
        tree.evaluate(dict.fromkeys(names[:i] + names[i + 1 :], True)) for i in range(len(names))
    )


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), tree=shared_dags())
    def test_cut_set_checks_match_evaluate(self, data, tree):
        names = list(tree.event_names) + list(tree.gate_names) + ["unknown"]
        candidate = data.draw(st.lists(st.sampled_from(names), max_size=7))
        assert tree.is_cut_set(candidate) == tree.evaluate(dict.fromkeys(candidate, True))
        assert tree.is_minimal_cut_set(candidate) == oracle_is_minimal(tree, candidate)

    @settings(max_examples=100, deadline=None)
    @given(tree=shared_dags())
    def test_spof_matches_evaluate(self, tree):
        expected = sorted(
            ((name, tree.probability(name)) for name in tree.events_reachable_from_top()
             if tree.evaluate({name: True})),
            key=lambda item: (-item[1], item[0]),
        )
        assert single_points_of_failure(tree) == expected

    def test_empty_set(self):
        tree = fire_protection_system()
        assert not tree.is_cut_set([])
        assert not tree.is_minimal_cut_set([])

    def test_generated_trees_with_voting_and_reuse(self):
        for seed in range(20):
            tree = random_fault_tree(num_basic_events=12, seed=seed, voting_ratio=0.3, event_reuse=0.3)
            events = sorted(tree.event_names)
            for start in range(0, len(events), 3):
                candidate = events[start : start + 5]
                assert tree.is_minimal_cut_set(candidate) == oracle_is_minimal(tree, candidate)


class TestSharedStructure:
    def test_probability_copies_share_the_compiled_structure(self):
        tree = fire_protection_system()
        copy = tree.copy()
        copy.set_probability("x1", 0.5)
        assert copy.compiled() is tree.compiled()

    def test_set_probability_keeps_structure_keys(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        keys = cache.structure_keys_for(tree)
        copy = tree.copy()
        copy.set_probability("x1", 0.5)
        assert cache.structure_keys_for(copy) is keys
        tree.set_probability("x2", 0.25)
        assert cache.structure_keys_for(tree) is keys

    def _snapshot(self, tree: FaultTree):
        return (
            tree.topological_order(),
            subtree_structure_hashes(tree),
            tree.is_minimal_cut_set(["x1", "x2"]),
            tree.is_cut_set(["x3"]),
        )

    def test_structural_edit_to_copy_leaves_original(self):
        tree = fire_protection_system()
        before = self._snapshot(tree)
        copy = tree.copy()
        copy.add_basic_event("y", 0.5)
        copy.add_gate("guard", GateType.AND, [tree.top_event, "y"])
        copy.set_top_event("guard")
        assert self._snapshot(tree) == before
        assert copy.topological_order()[-1] == "guard"
        assert copy.is_minimal_cut_set(["x1", "x2", "y"])
        assert not copy.is_cut_set(["x3"])
        assert subtree_structure_hashes(copy)[tree.top_event] == before[1][tree.top_event]

    def test_structural_edit_to_original_leaves_copy(self):
        tree = fire_protection_system()
        copy = tree.copy()
        before = self._snapshot(copy)
        tree.add_basic_event("y", 0.5)
        tree.add_gate("guard", GateType.AND, [tree.top_event, "y"])
        tree.set_top_event("guard")
        assert self._snapshot(copy) == before
        assert not tree.is_cut_set(["x3"])
        assert copy.compiled() is not tree.compiled()
