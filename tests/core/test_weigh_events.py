"""The one-pass event weighing equals the per-event definition.

``weigh_events`` computes each event's ``-log`` weight and integer
objective in one pass over the events; ``log_weight`` then
``objective_weight`` stay the definition it must equal, errors included.
"""

import math

import pytest

from repro.core.encoder import event_weights, weigh_events
from repro.core.weights import log_weight
from repro.exceptions import ProbabilityError
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat.instance import DEFAULT_PRECISION, objective_weight
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES

from tests.conftest import voting_reuse_tree

E4_POOL = ((200, 0), (300, 0), (500, 1), (600, 1), (800, 0))


def _trees():
    for name, factory in sorted(NAMED_TREES.items()):
        yield factory()
    for seed in range(40):
        yield voting_reuse_tree(4 + seed % 7, seed)
    for events, seed in E4_POOL:
        yield random_fault_tree(
            num_basic_events=events, seed=seed, voting_ratio=0.05, event_reuse=0.05
        )


def event_weight(probability, rank, count):
    """The definition: ``log_weight``, then ``objective_weight`` of it."""
    weight = log_weight(probability)
    return weight, objective_weight(weight, rank, count, DEFAULT_PRECISION)


def _two_events(probability):
    builder = FaultTreeBuilder("pair")
    builder.basic_event("a", 0.5)
    builder.basic_event("b", 0.5)
    builder.or_gate("top", ["a", "b"])
    tree = builder.top("top").build()
    return tree.compiled(), probability


class TestOnePassEqualsTheDefinition:
    def test_every_event_of_the_library_voting_and_e4_trees(self):
        checked = 0
        for tree in _trees():
            structure = tree.compiled()
            ranks = structure.event_ranks
            count = len(ranks)
            events = [(name, event.probability) for name, event in tree.events.items()]
            for name, weight, objective in weigh_events(events, structure):
                probability = tree.events[name].probability
                assert (weight, objective) == event_weight(probability, ranks[name], count)
                checked += 1
            weights, objectives = event_weights(tree)
            assert list(weights) == list(tree.events) == list(objectives)
        assert checked > 2500

    @pytest.mark.parametrize(
        "probability", [1.0, 1, 0.5, 1e-300, 5e-324, 1.0 - 2**-53]
    )
    def test_edge_probabilities(self, probability):
        structure, probability = _two_events(probability)
        ((_, weight, objective),) = weigh_events([("b", probability)], structure)
        assert (weight, objective) == event_weight(probability, 1, 2)

    @pytest.mark.parametrize("probability", [0.0, -0.5, 1.5, math.nan, math.inf, True, "0.5"])
    def test_invalid_probabilities_raise_the_definitions_error(self, probability):
        structure, probability = _two_events(probability)
        with pytest.raises(ProbabilityError) as expected:
            event_weight(probability, 0, 2)
        with pytest.raises(ProbabilityError) as raised:
            list(weigh_events([("a", probability)], structure))
        assert str(raised.value) == str(expected.value)
