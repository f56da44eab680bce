"""``run_batch``: one request over many trees, per-tree results in order."""

import dataclasses
import json

import pytest

from repro.api import AnalysisSession
from repro.api.backends import MaxSATBackend
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.core.pipeline import MODULE_RULE_ENGINE
from repro.exceptions import AnalysisError, FaultTreeError
from repro.fta.builder import FaultTreeBuilder
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import data_center_power, fire_protection_system, pressure_tank


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


def _trees():
    return [
        fire_protection_system(),
        random_fault_tree(num_basic_events=14, seed=3, voting_ratio=0.2),
        pressure_tank(),
        random_fault_tree(num_basic_events=14, seed=3, voting_ratio=0.2),
    ]


def _invalid_tree():
    """``b`` is unreachable from the top event, which validation rejects."""
    return (
        FaultTreeBuilder("invalid")
        .basic_event("a", 0.1)
        .basic_event("b", 0.2)
        .or_gate("top", ["a"])
        .top("top")
        .build(validate=False)
    )


@pytest.mark.parametrize(
    "analyses, backend",
    [
        (("mpmcs", "top_event", "importance"), "auto"),
        (("mpmcs", "ranking"), "maxsat"),
        (("mpmcs", "top_event"), "bdd"),
        (("top_event", "mcs"), "mocus"),
    ],
)
def test_batch_reports_equal_one_off_runs(analyses, backend):
    request = AnalysisRequest.create(analyses, backend=backend, top_k=3)
    batched = list(AnalysisSession().run_batch(_trees(), request))
    expected = [AnalysisSession().run(tree, request) for tree in _trees()]
    assert [_canonical(report) for report in batched] == [
        _canonical(report) for report in expected
    ]


def test_failing_trees_do_not_end_the_batch(monkeypatch):
    """An invalid tree and a backend error each become that tree's result;
    the other backends of the plan stay in step for the trees after it."""
    original = MaxSATBackend._run

    def failing_on_pressure_tank(self, tree, request, *, warm):
        if tree.name == "pressure-tank":
            raise AnalysisError("maxsat failed")
        return original(self, tree, request, warm=warm)

    monkeypatch.setattr(MaxSATBackend, "_run", failing_on_pressure_tank)
    request = AnalysisRequest.create(("mpmcs", "top_event"))
    trees = _trees()
    trees.insert(1, _invalid_tree())
    results = list(AnalysisSession().run_batch(trees, request))

    assert len(results) == len(trees)
    assert isinstance(results[1], FaultTreeError)
    assert isinstance(results[3], AnalysisError)
    for position in (0, 2, 4):
        assert isinstance(results[position], AnalysisReport)
        expected = AnalysisSession().run(trees[position], request)
        assert _canonical(results[position]) == _canonical(expected)


def test_batch_is_lazy():
    """Tree *i*'s result is produced before tree *i + 1* is taken."""
    pulled = []

    def trees():
        for tree in _trees():
            pulled.append(tree.name)
            yield tree

    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    results = AnalysisSession().run_batch(trees(), request)
    for count in range(1, len(_trees()) + 1):
        next(results)
        assert len(pulled) == count


def test_maxsat_batch_is_warm_and_run_is_cold():
    session = AnalysisSession()
    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    (warm,) = session.run_batch([fire_protection_system()], request)
    cold = session.run(fire_protection_system(), request)
    # Fig. 1 has no shared node: the warm route keeps its module optima and
    # needs no solver; a shared tree goes to the incremental session.
    assert warm.profile["warm_solves"] == 1
    assert "warm_solves" not in cold.profile
    assert warm.mpmcs.engine == cold.mpmcs.engine == MODULE_RULE_ENGINE
    assert _canonical(warm) == _canonical(cold)
    (shared,) = session.run_batch([data_center_power()], request)
    assert shared.mpmcs.engine == MaxSATBackend.WARM_ENGINE
    assert _canonical(shared) == _canonical(session.run(data_center_power(), request))


def test_bdd_batch_evaluates_each_structure_once():
    session = AnalysisSession()
    calls = []
    batch = session.kernels.eval_bdd_batch

    def counting(flat, rows):
        calls.append(len(rows))
        return batch(flat, rows)

    session.context.kernels = dataclasses.replace(session.kernels, eval_bdd_batch=counting)
    trees = _trees()
    request = AnalysisRequest.create(("top_event",), backend="bdd")
    batched = list(session.backend("bdd").run_batch(trees, request))
    # Three structures: the random tree appears twice.
    assert sorted(calls) == [1, 1, 2]
    for tree, report in zip(trees, batched):
        scalar = AnalysisSession().run(tree, request)
        assert report.top_event.exact == scalar.top_event.exact
