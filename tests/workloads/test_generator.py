"""Unit and property tests for the random fault-tree generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.fta.gates import GateType
from repro.workloads.generator import GeneratorConfig, random_fault_tree
from tests.conftest import whole_tree_payload_hash


class TestDeterminism:
    def test_same_seed_same_tree(self):
        first = random_fault_tree(num_basic_events=50, seed=7)
        second = random_fault_tree(num_basic_events=50, seed=7)
        assert first.probabilities() == second.probabilities()
        assert {g.name: g.children for g in first.gates.values()} == {
            g.name: g.children for g in second.gates.values()
        }
        assert first.top_event == second.top_event

    def test_different_seed_different_tree(self):
        first = random_fault_tree(num_basic_events=50, seed=1)
        second = random_fault_tree(num_basic_events=50, seed=2)
        assert first.probabilities() != second.probabilities()


class TestStructure:
    def test_requested_event_count(self):
        tree = random_fault_tree(num_basic_events=123, seed=0)
        assert tree.num_events == 123

    def test_generated_tree_always_validates(self):
        tree = random_fault_tree(num_basic_events=200, seed=3, voting_ratio=0.2)
        tree.validate()

    def test_probability_range_respected(self):
        config = GeneratorConfig(
            num_basic_events=100, probability_range=(1e-4, 1e-2), seed=11
        )
        tree = random_fault_tree(config)
        for probability in tree.probabilities().values():
            assert 1e-4 * 0.999 <= probability <= 1e-2 * 1.001

    def test_voting_gates_generated_when_requested(self):
        config = GeneratorConfig(
            num_basic_events=150,
            voting_ratio=1.0,
            and_ratio=0.0,
            or_ratio=0.0,
            gate_arity=(3, 4),
            seed=5,
        )
        tree = random_fault_tree(config)
        assert any(g.gate_type is GateType.VOTING for g in tree.gates.values())

    def test_event_reuse_creates_shared_children(self):
        tree = random_fault_tree(num_basic_events=60, seed=9, event_reuse=0.4)
        reference_counts = {}
        for gate in tree.gates.values():
            for child in gate.children:
                reference_counts[child] = reference_counts.get(child, 0) + 1
        assert any(count > 1 for count in reference_counts.values())
        tree.validate()

    def test_custom_name(self):
        assert random_fault_tree(num_basic_events=10, seed=0, name="bench-1").name == "bench-1"


class TestConfigValidation:
    def test_too_few_events_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=1, seed=0)

    def test_invalid_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, gate_arity=(1, 3), seed=0)
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, gate_arity=(4, 2), seed=0)

    def test_invalid_ratios_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, and_ratio=-1.0, seed=0)
        with pytest.raises(ConfigurationError):
            random_fault_tree(
                num_basic_events=10, and_ratio=0.0, or_ratio=0.0, voting_ratio=0.0, seed=0
            )

    def test_invalid_probability_range_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, probability_range=(0.5, 0.1), seed=0)
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, probability_range=(0.0, 0.1), seed=0)

    def test_invalid_event_reuse_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, event_reuse=1.0, seed=0)

    def test_config_and_overrides_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(GeneratorConfig(), num_basic_events=10)


class TestDeterminismExtended:
    def test_same_config_same_serialised_tree(self):
        from repro.fta.serializers import to_json

        config = GeneratorConfig(
            num_basic_events=80, seed=42, voting_ratio=0.3, event_reuse=0.25,
            gate_arity=(2, 5), probability_range=(1e-6, 0.5),
        )
        first = random_fault_tree(GeneratorConfig(**config.__dict__))
        second = random_fault_tree(GeneratorConfig(**config.__dict__))
        assert to_json(first) == to_json(second)

    def test_structural_hash_determinism(self):
        assert whole_tree_payload_hash(
            random_fault_tree(num_basic_events=60, seed=11, voting_ratio=0.2)
        ) == whole_tree_payload_hash(
            random_fault_tree(num_basic_events=60, seed=11, voting_ratio=0.2)
        )


class TestVotingGateArity:
    def test_voting_thresholds_always_within_arity(self):
        for seed in range(8):
            tree = random_fault_tree(
                num_basic_events=60, seed=seed, voting_ratio=1.0,
                and_ratio=0.0, or_ratio=0.0, gate_arity=(3, 6),
            )
            for gate in tree.gates.values():
                if gate.gate_type is GateType.VOTING:
                    # generator draws k in [2, arity-1]: strictly between
                    # OR (k=1) and AND (k=n), the interesting regime
                    assert 2 <= gate.k <= gate.arity - 1

    def test_minimum_arity_falls_back_to_and(self):
        # with arity forced to 2, voting is impossible and every gate must
        # fall back to AND rather than emit an invalid threshold
        tree = random_fault_tree(
            num_basic_events=40, seed=7, voting_ratio=1.0,
            and_ratio=0.0, or_ratio=0.0, gate_arity=(2, 2),
        )
        assert all(g.gate_type is GateType.AND for g in tree.gates.values())
        tree.validate()

    def test_mixed_arity_range_produces_valid_voting_trees(self):
        tree = random_fault_tree(
            num_basic_events=100, seed=13, voting_ratio=0.5, gate_arity=(2, 3)
        )
        tree.validate()
        for gate in tree.gates.values():
            if gate.gate_type is GateType.VOTING:
                assert gate.arity >= 3


class TestProbabilityRangeValidation:
    def test_degenerate_range_pins_every_probability(self):
        tree = random_fault_tree(
            num_basic_events=30, seed=0, probability_range=(0.01, 0.01)
        )
        for probability in tree.probabilities().values():
            assert probability == pytest.approx(0.01)

    def test_upper_bound_one_is_accepted_and_clamped(self):
        tree = random_fault_tree(
            num_basic_events=30, seed=1, probability_range=(0.5, 1.0)
        )
        for probability in tree.probabilities().values():
            assert 0.5 * 0.999 <= probability <= 1.0

    def test_bound_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, probability_range=(0.5, 1.5))

    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fault_tree(num_basic_events=10, probability_range=(-0.1, 0.5))


class TestGeneratedTreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.0, max_value=0.4),
    )
    def test_always_valid_and_analysable(self, num_events, seed, voting_ratio):
        tree = random_fault_tree(
            num_basic_events=num_events, seed=seed, voting_ratio=voting_ratio
        )
        tree.validate()
        assert tree.num_events == num_events
        # the all-events set must always be a cut set of a coherent tree
        assert tree.is_cut_set(tree.event_names)


class TestPinnedTrees:
    """Seeded trees stay byte-identical: the benchmark corpora depend on them.

    The hashes were taken from the quadratic generator this one replaced
    (it listed the reuse candidates afresh for every gate); the linear one
    makes the same draws in the same order.
    """

    #: ``whole_tree_payload_hash`` of ``random_fault_tree(num_basic_events=n, seed=s,
    #: voting_ratio=0.05, event_reuse=0.05)``: the E4 pool and the larger
    #: E4 trees.
    E4 = {
        (200, 0): "4d8980d1ef1e01440b19f1d583ee9ed7057614bd0962071c2e4a1c36dbe54568",
        (300, 0): "8528fa1a29e62dcef713e412c16ef714be3b9e03c41ac1e999ce2ec5dc01483e",
        (500, 1): "ae6191962521c90c305f46eaa8b431561de2a10904df413cf1696df696686888",
        (600, 1): "e8b90ff160f9be636aa2fe8d4ccd383d3318c4088f2d725d4880f3b22aee8569",
        (800, 0): "9ca5cf18f51f243f3b1af0308c1691581d9f0839e5b0c7e6615f6dccf93720db",
        (1000, 1): "745e050b4d4f75cc6b6c4c6b2682e52eee28ede853d2b9460f40fa7707e25335",
        (2000, 1): "90c4815128ec4cb2a6bd8ee6fd4ec76b30933f45b6884dc195a65e6b659522f3",
    }

    @pytest.mark.parametrize("events, seed", sorted(E4))
    def test_e4_trees(self, events, seed):
        tree = random_fault_tree(
            num_basic_events=events, seed=seed, voting_ratio=0.05, event_reuse=0.05
        )
        assert whole_tree_payload_hash(tree) == self.E4[events, seed]

    def test_sweep_and_monitor_tree(self):
        tree = random_fault_tree(num_basic_events=60, seed=5, voting_ratio=0.05)
        assert (
            whole_tree_payload_hash(tree)
            == "addcb2133e5a80479cc6c1a817eb82fc76724d929ec813241c29a01f8514e7a8"
        )

    def test_heavy_reuse(self):
        # Gates of up to 28 children: many reuse draws per gate.
        tree = random_fault_tree(num_basic_events=30, seed=4, event_reuse=0.9, voting_ratio=0.2)
        assert (
            whole_tree_payload_hash(tree)
            == "ba8bcb73523cb82a98d56dbda3da3fb06d95d7ddeb758d91b626a16e1b78d03b"
        )
