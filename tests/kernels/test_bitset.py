"""Bitset solver kernels: coverage masks, assign buffers, and the hitting-set
property check against the deliberately naive set-based oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bitset import (
    CoverageIndex,
    make_assign_buffer,
    popcount,
    set_based_hitting_set,
)
from repro.maxsat.hitting_set import minimum_cost_hitting_set


class TestPopcount:
    @pytest.mark.parametrize(
        "mask,expected", [(0, 0), (1, 1), (0b1011, 3), ((1 << 200) - 1, 200)]
    )
    def test_values(self, mask, expected):
        assert popcount(mask) == expected


class TestAssignBuffer:
    def test_ternary_storage_and_growth(self):
        buffer = make_assign_buffer([0])
        buffer.append(1)
        buffer.append(-1)
        buffer.append(0)
        assert list(buffer) == [0, 1, -1, 0]
        buffer[1] = -1
        assert buffer[1] == -1


class TestCoverageIndex:
    def test_masks_and_cover(self):
        cores = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"d"})]
        index = CoverageIndex(cores)
        assert len(index) == 3
        assert index.all_mask == 0b111
        assert index.mask_of(["b"]) == 0b011
        assert index.mask_of(["unknown"]) == 0


def _cores_and_weights():
    """Random small hitting-set instances (literals 1..8, non-empty cores)."""
    literals = st.integers(min_value=1, max_value=8)
    core = st.frozensets(literals, min_size=1, max_size=4)
    cores = st.lists(core, min_size=0, max_size=8)
    weights = st.dictionaries(
        literals, st.integers(min_value=0, max_value=50), min_size=0, max_size=8
    )
    return st.tuples(cores, weights)


class TestHittingSetAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_cores_and_weights())
    def test_packed_search_matches_set_based_oracle(self, instance):
        cores, weights = instance
        chosen, cost = minimum_cost_hitting_set(list(cores), dict(weights))
        oracle_set, oracle_cost = set_based_hitting_set(cores, weights)
        # Optimal *sets* may legitimately differ; the optimal cost may not.
        assert cost == oracle_cost
        assert all(chosen & core for core in cores)
        assert cost == sum(weights.get(element, 0) for element in chosen)
        assert all(oracle_set & core for core in cores)
        # Any hitting set may start the search as its incumbent.
        for incumbent in (set().union(*cores), oracle_set):
            started, started_cost = minimum_cost_hitting_set(
                list(cores), dict(weights), incumbent=incumbent
            )
            assert started_cost == oracle_cost
            assert all(started & core for core in cores)

    def test_empty_instance(self):
        assert minimum_cost_hitting_set([], {}) == (set(), 0)
        assert set_based_hitting_set([], {}) == (set(), 0)
