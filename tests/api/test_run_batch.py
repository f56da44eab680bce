"""``run_batch``: one request over many trees, per-tree results in order."""

import dataclasses
import json
import math
import random

import pytest

from repro.api import AnalysisSession
from repro.api.backends import MaxSATBackend
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.core.pipeline import MODULE_RULE_ENGINE, MPMCSSolver
from repro.exceptions import AnalysisError, BudgetExceededError, FaultTreeError, SolverInterrupted
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import hitting_set as hitting_set_module
from repro.maxsat.incremental import SESSION_ENGINE, IncrementalMaxSATSession
from repro.sat.cdcl import CDCLSolver
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import (
    data_center_power,
    fire_protection_system,
    pressure_tank,
)
from tests.conftest import searched_skeletons


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
    # needs no solver; a shared tree's searched skeleton goes to an
    # incremental session on both routes, kept only on the warm one.
    assert warm.profile["warm_solves"] == 1
    assert "warm_solves" not in cold.profile
    assert warm.mpmcs.engine == cold.mpmcs.engine == MODULE_RULE_ENGINE
    assert _canonical(warm) == _canonical(cold)
    (shared,) = session.run_batch([data_center_power()], request)
    cold_shared = session.run(data_center_power(), request)
    assert shared.mpmcs.engine == cold_shared.mpmcs.engine == SESSION_ENGINE
    assert _canonical(shared) == _canonical(cold_shared)


def test_warm_solves_honour_the_cancellation_hook():
    """The solver's stop hook (a service job's guard) reaches a kept
    session's solve, which the tree's result then reports."""
    solver = MPMCSSolver()
    solver.stop_check = lambda: True
    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    (result,) = AnalysisSession(solver=solver).run_batch([data_center_power()], request)
    assert isinstance(result, SolverInterrupted)


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


def test_maxsat_batch_retries_a_kept_session_over_budget_from_no_core(monkeypatch):
    """The kept session's second solve blows its budget while it holds the
    first tree's cores: the same session solves again from no core, with
    the answer of a cold analysis.  No cold fallback builds another."""
    search = hitting_set_module.minimum_cost_hitting_set
    failed = []

    def over_budget_once(cores, objective, **kwargs):
        if failed == [False] and cores:
            failed[0] = True
            raise BudgetExceededError("hitting set search exceeded its node budget")
        return search(cores, objective, **kwargs)

    monkeypatch.setattr(hitting_set_module, "minimum_cost_hitting_set", over_budget_once)
    sessions = _count_calls(monkeypatch, IncrementalMaxSATSession, "__init__")
    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    draws = _e4_draws()[:2]
    batch = AnalysisSession().run_batch(draws, request)
    next(batch)
    failed.append(False)
    warm = next(batch)
    assert failed == [True]
    assert len(sessions) == len(searched_skeletons(draws[1]))
    assert warm.profile["warm_solves"] == 1
    monkeypatch.setattr(hitting_set_module, "minimum_cost_hitting_set", search)
    cold = AnalysisSession().run(_e4_draws()[1], request)
    assert _canonical(warm) == _canonical(cold)


def test_maxsat_batch_gives_a_session_over_budget_without_cores_its_error(monkeypatch):
    """A session that held no core when its solve blew the budget has
    nothing to retry from: the tree gets the error, an ``AnalysisError``
    chained from the budget error as a cold ``run`` raises it, and the next
    tree of the batch still answers."""
    search = hitting_set_module.minimum_cost_hitting_set
    armed = [True]

    def over_budget(cores, objective, **kwargs):
        if armed[0]:
            raise BudgetExceededError("hitting set search exceeded its node budget")
        return search(cores, objective, **kwargs)

    monkeypatch.setattr(hitting_set_module, "minimum_cost_hitting_set", over_budget)
    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    draws = _e4_draws()[:2]
    with pytest.raises(AnalysisError) as raised:
        AnalysisSession().run(_e4_draws()[0], request)
    assert isinstance(raised.value.__cause__, BudgetExceededError)
    batch = AnalysisSession().run_batch(draws, request)
    error = next(batch)
    assert isinstance(error, AnalysisError)
    assert isinstance(error.__cause__, BudgetExceededError)
    armed[0] = False
    assert next(batch).mpmcs is not None


def _e4_draws():
    """``random_fault_tree(600, seed=1, voting_ratio=0.05, event_reuse=0.05)``
    with the generator's own probabilities, then with log-uniform draws in
    [1e-5, 0.2] from ``random.Random(1..3)`` over the sorted names."""
    tree = random_fault_tree(num_basic_events=600, seed=1, voting_ratio=0.05, event_reuse=0.05)
    draws = [tree]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        draw = tree.copy()
        for name in sorted(draw.event_names):
            draw.set_probability(name, math.exp(rng.uniform(math.log(1e-5), math.log(0.2))))
        draws.append(draw)
    return draws


def _count_calls(monkeypatch, owner, attribute):
    calls = []
    original = getattr(owner, attribute)

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, attribute, counting)
    return calls


def test_warm_ranking_makes_the_cold_work(monkeypatch):
    """A ``run_batch`` top-3 ranking on a tree with a searched skeleton does
    exactly the work of a cold ``run``, counted in skeleton solves and SAT
    calls: at most 3 solves per searched skeleton, and no whole-tree solve.
    Blocked re-solves on the warm incremental session once took 9.7-174.5 s
    per draw here on a 2-core host, against 0.16-0.24 s cold.  The two
    routes analyse draws of structures built apart, so each starts from
    its own skeletons' core memos, filled alike by the draws before."""
    skeleton_solves = _count_calls(monkeypatch, IncrementalMaxSATSession, "solve")
    whole_tree_solves = _count_calls(monkeypatch, MPMCSSolver, "solve_encoding")
    sat_calls = _count_calls(monkeypatch, CDCLSolver, "solve")
    request = AnalysisRequest.create(("ranking",), backend="maxsat", top_k=3)
    for draw, apart in zip(_e4_draws(), _e4_draws()):
        cold = AnalysisSession().run(draw, request)
        cold_work = (len(skeleton_solves), len(sat_calls))
        assert 0 < cold_work[0] <= 3 * len(searched_skeletons(draw))
        (warm,) = AnalysisSession().run_batch([apart], request)
        warm_work = (len(skeleton_solves) - cold_work[0], len(sat_calls) - cold_work[1])
        assert warm_work == cold_work
        assert whole_tree_solves == []
        assert _canonical(warm) == _canonical(cold)
        skeleton_solves.clear()
        sat_calls.clear()


def test_warm_optimum_makes_no_more_sat_calls_than_cold(monkeypatch):
    """A one-optimum ``run_batch`` over the four draws makes no more SAT calls
    than cold ``run``s, with equal bytes.  A session over the whole tree once
    made 109 calls here against cold's 36; one session per searched skeleton,
    fed the module optima, made about as many as cold.  Assuming the
    heaviest selectors first, the portfolio's cold solves made 18 and warm
    7; with every searched skeleton solved by a fresh session, cold makes
    15."""
    sat_calls = _count_calls(monkeypatch, CDCLSolver, "solve")
    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    draws = _e4_draws()
    cold = [AnalysisSession().run(draw, request) for draw in draws]
    cold_calls = len(sat_calls)
    sat_calls.clear()
    warm = list(AnalysisSession().run_batch(draws, request))
    assert 0 < cold_calls <= 18
    assert len(sat_calls) <= cold_calls
    assert [_canonical(report) for report in warm] == [_canonical(report) for report in cold]


def test_equal_structures_built_apart_keep_their_own_warm_state(monkeypatch):
    """Two separately built trees of one structure, alternating in a batch,
    each keep their module optima: every searched skeleton gets one session."""
    built = _count_calls(monkeypatch, IncrementalMaxSATSession, "__init__")
    first, second = (
        random_fault_tree(num_basic_events=60, seed=5, voting_ratio=0.05, event_reuse=0.2)
        for _ in range(2)
    )
    request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
    warm = list(AnalysisSession().run_batch([first, second] * 3, request))
    searched = [skeleton for skeleton in first.compiled().modules if not skeleton.by_rule]
    assert len(built) == 2 * len(searched) > 0
    cold = AnalysisSession().run(first, request)
    assert {_canonical(report) for report in warm} == {_canonical(cold)}
