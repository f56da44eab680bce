"""Unit tests for cut-set algebra."""

import pytest
from hypothesis import given, settings

from repro.analysis.cutsets import CutSetCollection, is_subsumed, minimise_cut_sets
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.exceptions import AnalysisError, ProbabilityError
from repro.workloads.library import NAMED_TREES
from tests.conftest import voting_reuse_trees


class TestMinimise:
    def test_supersets_removed(self):
        minimal = minimise_cut_sets([{"a"}, {"a", "b"}, {"b", "c"}])
        assert minimal == [frozenset({"a"}), frozenset({"b", "c"})]

    def test_duplicates_removed(self):
        minimal = minimise_cut_sets([{"a", "b"}, {"b", "a"}])
        assert minimal == [frozenset({"a", "b"})]

    def test_result_sorted_by_size_then_name(self):
        minimal = minimise_cut_sets([{"z"}, {"a"}, {"m", "n"}])
        assert minimal == [frozenset({"a"}), frozenset({"z"}), frozenset({"m", "n"})]

    def test_empty_input(self):
        assert minimise_cut_sets([]) == []

    def test_empty_set_subsumes_everything(self):
        assert minimise_cut_sets([set(), {"a"}, {"b", "c"}]) == [frozenset()]

    def test_is_subsumed(self):
        existing = [{"a"}, {"b", "c"}]
        assert is_subsumed({"a", "x"}, existing)
        assert is_subsumed({"b", "c"}, existing)
        assert not is_subsumed({"b"}, existing)


class TestCollection:
    def build(self):
        return CutSetCollection(
            cut_sets=[{"a", "b"}, {"c"}, {"a", "b", "c"}],
            probabilities={"a": 0.5, "b": 0.1, "c": 0.01},
        )

    def test_construction_minimises(self):
        collection = self.build()
        assert len(collection) == 2
        assert {"a", "b", "c"} not in collection

    def test_membership_and_iteration(self):
        collection = self.build()
        assert {"c"} in collection
        assert {"a"} not in collection
        assert sorted(len(cs) for cs in collection) == [1, 2]

    def test_order(self):
        assert self.build().order() == 1

    def test_of_order(self):
        assert self.build().of_order(2) == [frozenset({"a", "b"})]

    def test_events_union(self):
        assert self.build().events() == frozenset({"a", "b", "c"})

    def test_ranked_by_probability(self):
        ranked = self.build().ranked()
        assert ranked[0] == (frozenset({"a", "b"}), pytest.approx(0.05))
        assert ranked[1] == (frozenset({"c"}), pytest.approx(0.01))

    def test_most_probable_is_mpmcs(self):
        cut_set, probability = self.build().most_probable()
        assert cut_set == frozenset({"a", "b"})
        assert probability == pytest.approx(0.05)

    def test_probability_of_single_set(self):
        assert self.build().probability_of({"a", "b"}) == pytest.approx(0.05)

    def test_quantitative_queries_require_probabilities(self):
        collection = CutSetCollection(cut_sets=[{"a"}])
        with pytest.raises(AnalysisError):
            collection.ranked()
        with pytest.raises(AnalysisError):
            collection.most_probable()

    def test_empty_collection_errors(self):
        collection = CutSetCollection(cut_sets=[], probabilities={})
        with pytest.raises(AnalysisError):
            collection.order()
        with pytest.raises(AnalysisError):
            collection.most_probable()

    def test_to_sorted_tuples_deterministic(self):
        assert self.build().to_sorted_tuples() == [("c",), ("a", "b")]


class TestMostProbable:
    """``most_probable()`` is ``ranked()[0]``, bit for bit, errors included."""

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_library_trees(self, name):
        collection = mocus_minimal_cut_sets(NAMED_TREES[name]())
        assert collection.most_probable() == collection.ranked()[0]

    @settings(max_examples=60, deadline=None)
    @given(voting_reuse_trees())
    def test_voting_reuse_trees(self, tree):
        collection = mocus_minimal_cut_sets(tree)
        assert collection.most_probable() == collection.ranked()[0]

    @pytest.mark.parametrize(
        "probabilities", [{"a": 0.5, "b": 0.1}, {"a": 0.5, "b": 0.1, "c": 1.5}]
    )
    def test_same_errors_as_ranked(self, probabilities):
        collection = CutSetCollection(cut_sets=[{"a", "b"}, {"c"}], probabilities=probabilities)
        with pytest.raises(ProbabilityError) as ranked_error:
            collection.ranked()
        with pytest.raises(ProbabilityError) as best_error:
            collection.most_probable()
        assert str(best_error.value) == str(ranked_error.value)
