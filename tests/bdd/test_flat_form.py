"""Every BDD query reads the flat form memoised on the function's handle."""

import pickle
import sys

import pytest

from repro.api import AnalysisSession
from repro.bdd.cutsets import cut_sets_of_bdd
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import flatten_bdd, mpmcs_of_bdd, probability_of_bdd
from repro.workloads.library import fire_protection_system
from tests.conftest import or_chain


def _compile(tree) -> BDD:
    return BDDManager(variable_order(tree, heuristic="dfs")).from_fault_tree(tree)


def _memoless(function: BDD) -> BDD:
    """``function`` as unpickled from an entry written before handles carried
    a flat-form memo: its pickled state sets only ``manager`` and ``node``."""
    handle = BDD.__new__(BDD)
    handle.manager, handle.node = function.manager, function.node
    return pickle.loads(pickle.dumps(handle))


def test_flat_form_is_memoised_on_the_handle():
    function = _compile(fire_protection_system())
    flat = flatten_bdd(function)
    assert flatten_bdd(function) is flat
    assert function._flat is flat


def test_handle_unpickled_without_a_memo_answers():
    tree = fire_protection_system()
    function = _compile(tree)
    probabilities = tree.probabilities()
    restored = _memoless(function)
    assert not hasattr(restored, "_flat")
    assert probability_of_bdd(restored, probabilities) == probability_of_bdd(
        function, probabilities
    )
    assert mpmcs_of_bdd(restored, probabilities) == mpmcs_of_bdd(function, probabilities)
    assert cut_sets_of_bdd(restored) == cut_sets_of_bdd(function)
    assert flatten_bdd(restored) is flatten_bdd(restored)


def test_queries_on_a_deep_diagram_do_not_recurse():
    """Compiling ``or_chain(3000)`` raises the recursion limit; the queries
    answer with it back at CPython's default."""
    tree = or_chain(3000)
    session = AnalysisSession()
    maxsat = session.analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    mocus = session.analyze(tree, ["mcs"], backend="mocus").cut_sets
    function = _compile(tree)
    probabilities = tree.probabilities()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        top = probability_of_bdd(function, probabilities)
        events, probability = mpmcs_of_bdd(function, probabilities)
        cut_sets = cut_sets_of_bdd(function)
    finally:
        sys.setrecursionlimit(limit)
    assert top == pytest.approx(1.0 - 0.99**3001, rel=1e-9)
    assert (events, probability) == (maxsat.events, maxsat.probability)
    assert cut_sets == list(mocus.cut_sets)
