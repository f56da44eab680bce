"""``CutSetCollection.ranked(limit)``: the first ``limit`` entries of the ranking.

``ranked(k)`` is :func:`heapq.nsmallest` over the ranking key, documented
to equal ``sorted(...)[:k]``, and multiplies out only the probabilities it
returns; the facade's ``mocus`` and ``bdd`` rankings read it with
``top_k``.
"""

import hashlib
import json

import pytest

from repro.analysis.cutsets import CutSetCollection
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.api.session import AnalysisSession
from repro.core.weights import log_weight, probability_of_cut_set
from repro.exceptions import ProbabilityError
from repro.maxsat.instance import DEFAULT_PRECISION, scale_weight
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES


def _trees():
    trees = [factory() for _, factory in sorted(NAMED_TREES.items())]
    # The tree the sweep and monitor benchmarks are pinned to.
    trees.append(random_fault_tree(num_basic_events=60, seed=5, voting_ratio=0.05))
    return trees


#: One session for the module: its artifact cache enumerates each tree's
#: cut sets once (the pinned tree's MOCUS run takes seconds).
SESSION = AnalysisSession()


def _collection(tree):
    return SESSION.analyze(tree, ["mcs"], backend="mocus").cut_sets


def _ranked_by_full_sort(collection):
    """The ranking as one keyed sort of every cut set, probabilities for all."""
    probabilities = collection.probabilities
    keyed = []
    for cut_set in collection.cut_sets:
        names = tuple(sorted(cut_set))
        cost = sum(scale_weight(log_weight(probabilities[n]), DEFAULT_PRECISION) for n in names)
        keyed.append(((cost, len(names), names), cut_set, probability_of_cut_set(cut_set, probabilities)))
    keyed.sort(key=lambda item: item[0])
    return [(cut_set, probability) for _, cut_set, probability in keyed]


class TestRankedLimit:
    @pytest.mark.parametrize("tree", _trees(), ids=lambda tree: tree.name)
    def test_a_limit_is_a_prefix_of_the_full_ranking(self, tree):
        collection = _collection(tree)
        full = collection.ranked()
        assert full == _ranked_by_full_sort(collection)
        for limit in (0, 1, 2, 3, 5, 10, len(full), len(full) + 7):
            assert collection.ranked(limit) == full[:limit]

    def test_only_the_returned_sets_are_multiplied_out(self, monkeypatch):
        import repro.analysis.cutsets as cutsets

        collection = _collection(NAMED_TREES["fps"]())
        calls = []
        real = cutsets.probability_of_cut_set

        def counting(cut_set, probabilities):
            calls.append(tuple(cut_set))
            return real(cut_set, probabilities)

        monkeypatch.setattr(cutsets, "probability_of_cut_set", counting)
        top = collection.ranked(2)
        # One check per key of the events it meets first, then two products.
        assert len(calls) == len(collection) + 2
        assert calls[-2:] == [tuple(cut_set) for cut_set, _ in top]

    def test_a_missing_probability_raises_whatever_the_limit(self):
        tree = NAMED_TREES["fps"]()
        probabilities = tree.probabilities()
        del probabilities["x7"]
        collection = CutSetCollection(mocus_minimal_cut_sets(tree), probabilities=probabilities)
        for limit in (None, 1):
            with pytest.raises(ProbabilityError, match="'x7'"):
                collection.ranked(limit)


class TestFacadeRankingBytes:
    #: sha256 over the canonical ``ranking`` section of every tree of
    #: :func:`_trees` at top_k 1, 3 and 10, computed with the full sort the
    #: ranking used before ``ranked`` took a limit; mocus and bdd agree.
    DIGEST = "e76259a2c872685ba516830a93dabb7788f7014d4d10493f90d8176f04885d06"

    @pytest.mark.parametrize("backend", ["mocus", "bdd"])
    def test_mocus_and_bdd_rankings_are_unchanged(self, backend):
        digest = hashlib.sha256()
        for tree in _trees():
            for top_k in (1, 3, 10):
                report = SESSION.analyze(
                    tree, ["ranking"], backend=backend, top_k=top_k
                )
                ranking = report.to_canonical_dict()["ranking"]
                digest.update(json.dumps(ranking, sort_keys=True).encode())
        assert digest.hexdigest() == self.DIGEST
