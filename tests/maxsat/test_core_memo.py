"""The core memo of a module skeleton (:attr:`Skeleton.cores`).

Every :class:`IncrementalMaxSATSession` starts from the unsat cores earlier
sessions over the same skeleton proved, and a session that has blocked
nothing publishes its own.  The memo changes how much work an analysis
does, never its answer: the cores depend on the hard clauses alone.
"""

import json
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import AnalysisSession
from repro.api.report import AnalysisRequest
from repro.exceptions import BudgetExceededError
from repro.fta.compiled import Skeleton
from repro.maxsat import incremental as incremental_module
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.observability.trace import Tracer, use_tracer
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus
from repro.workloads.generator import random_fault_tree

from tests.conftest import searched_skeletons, voting_reuse_tree

MPMCS = AnalysisRequest.create(("mpmcs",), backend="maxsat")


def _ranking(top_k):
    return AnalysisRequest.create(("mpmcs", "ranking"), backend="maxsat", top_k=top_k)


def _e4_tree():
    """The E4 generator's ``(600, 1)`` structure."""
    return random_fault_tree(num_basic_events=600, seed=1, voting_ratio=0.05, event_reuse=0.05)


TREES = {"voting-reuse-40-27": lambda: voting_reuse_tree(40, 27), "e4-600-1": _e4_tree}


def _redraw(tree, seed):
    """A copy of ``tree`` with log-uniform probabilities in [1e-5, 0.2]."""
    rng = random.Random(seed)
    copy = tree.copy()
    for name in sorted(copy.event_names):
        copy.set_probability(name, math.exp(rng.uniform(math.log(1e-5), math.log(0.2))))
    return copy


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


def _count_sat_calls(monkeypatch):
    calls = []
    solve = CDCLSolver.solve

    def counting(solver, *args, **kwargs):
        calls.append(1)
        return solve(solver, *args, **kwargs)

    monkeypatch.setattr(CDCLSolver, "solve", counting)
    return calls


def _built_sessions(monkeypatch):
    """Every session built from here on, in order."""
    built = []
    init = IncrementalMaxSATSession.__init__

    def recording(session, skeleton):
        init(session, skeleton)
        built.append(session)

    monkeypatch.setattr(IncrementalMaxSATSession, "__init__", recording)
    return built


def _uniform(session):
    """Every leaf of ``session``'s skeleton at objective 1."""
    return {leaf: (1, 1.0) for leaf in session.event_vars}


def _fresh_solver(skeleton):
    """A solver loaded clause by clause from ``skeleton.cnf``, sharing no
    state with the skeleton's memoised one."""
    cnf = skeleton.cnf
    solver = CDCLSolver()
    for _ in range(cnf.num_vars):
        solver.new_var()
    solver.add_clauses([list(clause) for clause in cnf.clauses])
    return solver


class TestMemo:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_a_second_analysis_starts_from_the_first_ones_cores(self, name):
        tree = TREES[name]()
        first = AnalysisSession().run(tree, MPMCS)
        (skeleton,) = searched_skeletons(tree)
        assert skeleton.cores
        assert IncrementalMaxSATSession(skeleton).seeded_cores == len(skeleton.cores)
        second = AnalysisSession().run(tree.copy(), MPMCS)
        assert _canonical(second) == _canonical(first)
        assert second.mpmcs.detail.sat_calls < first.mpmcs.detail.sat_calls

    def test_a_solve_the_memo_answers_copies_no_solver(self):
        (skeleton,) = searched_skeletons(_e4_tree())
        first = IncrementalMaxSATSession(skeleton)
        leaves = first.solve(_uniform(first))
        assert first.sat_calls > 0
        session = IncrementalMaxSATSession(skeleton)
        assert session.solve(_uniform(session)) == leaves
        assert session.sat_calls == 0
        assert session._solver is None
        assert session.num_learnts == 0

    def test_a_blocking_session_publishes_nothing(self):
        tree = voting_reuse_tree(40, 27)
        (skeleton,) = searched_skeletons(tree)
        session = IncrementalMaxSATSession(skeleton)
        values = _uniform(session)
        session.block(session.solve(values))
        published = skeleton.cores
        assert published
        session.solve(values)
        assert session.num_cores > len(published)
        assert skeleton.cores is published


class TestSoundness:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_every_memo_core_is_unsat_on_the_hard_clauses(self, name):
        """A cold optimum, a top-5 ranking (blocked solves) and a warm batch:
        each memo core, assumed on a solver loaded from the skeleton's
        clauses alone, is UNSAT.  A core found under a blocking clause
        would fail this."""
        tree = TREES[name]()
        session = AnalysisSession()
        session.run(tree, MPMCS)
        session.run(_redraw(tree, 1), _ranking(5))
        list(session.run_batch([_redraw(tree, seed) for seed in (2, 3, 4)], MPMCS))
        for skeleton in searched_skeletons(tree):
            assert skeleton.cores
            solver = _fresh_solver(skeleton)
            for core in skeleton.cores:
                assert solver.solve(sorted(core)).status is SatStatus.UNSAT

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_threads_sharing_a_structure_give_the_sequential_bytes(self, name):
        """Four threads analysing copies of one structure at once, each
        session reading and publishing the memo, answer as one thread does
        on a structure built apart."""
        request = _ranking(5)
        sequential = [
            _canonical(AnalysisSession().run(_redraw(TREES[name](), seed), request))
            for seed in range(8)
        ]
        tree = TREES[name]()
        draws = [_redraw(tree, seed) for seed in range(8)] * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                analyses = pool.map(
                    lambda draw: _canonical(AnalysisSession().run(draw, request)),
                    draws,
                    timeout=120,
                )
                threaded = list(analyses)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential * 2
        for skeleton in searched_skeletons(tree):
            solver = _fresh_solver(skeleton)
            for core in skeleton.cores:
                assert solver.solve(sorted(core)).status is SatStatus.UNSAT


class TestBudgetFallback:
    @pytest.mark.parametrize("route", ["run", "run_batch"])
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_a_seeded_session_over_budget_retries_from_no_core(self, monkeypatch, route, top_k):
        """The hitting set search fails once, in the first round of a
        session holding exactly the memo's cores: the session empties the
        memo and solves again from no core, with the answer of a structure
        built apart."""
        tree = _e4_tree()
        AnalysisSession().run(tree, MPMCS)
        (skeleton,) = searched_skeletons(tree)
        seeded = len(skeleton.cores)
        assert seeded
        search = incremental_module.minimum_cost_hitting_set
        rounds = []

        def over_budget_on_the_memo(cores, objective, *, incumbent=None, stop_check=None):
            rounds.append((len(cores), incumbent is None))
            if rounds == [(seeded, True)]:
                raise BudgetExceededError("hitting set search exceeded its node budget")
            return search(cores, objective, incumbent=incumbent, stop_check=stop_check)

        monkeypatch.setattr(
            incremental_module, "minimum_cost_hitting_set", over_budget_on_the_memo
        )
        built = _built_sessions(monkeypatch)
        request = _ranking(top_k) if top_k > 1 else MPMCS
        draw = _redraw(tree, 5)
        if route == "run":
            report = AnalysisSession().run(draw, request)
        else:
            (report,) = AnalysisSession().run_batch([draw], request)
            assert report.profile.get("warm_solves") == (1 if top_k == 1 else None)
        assert rounds[:2] == [(seeded, True), (0, True)]
        (session,) = built
        assert session.seeded_cores == 0
        # The retry published the cores it found from none.
        assert skeleton.cores and set(skeleton.cores) <= set(session._cores)
        expected = AnalysisSession().run(_redraw(_e4_tree(), 5), request)
        assert _canonical(report) == _canonical(expected)

    def test_an_unseeded_session_over_budget_still_fails(self, monkeypatch):
        def over_budget(cores, objective, *, incumbent=None, stop_check=None):
            raise BudgetExceededError("hitting set search exceeded its node budget")

        monkeypatch.setattr(incremental_module, "minimum_cost_hitting_set", over_budget)
        (skeleton,) = searched_skeletons(_e4_tree())
        session = IncrementalMaxSATSession(skeleton)
        with pytest.raises(BudgetExceededError):
            session.solve(_uniform(session))
        assert skeleton.cores == ()


class TestPickling:
    def test_a_pickled_tree_ships_no_cores(self):
        tree = _e4_tree()
        before = AnalysisSession().run(tree, MPMCS)
        (skeleton,) = searched_skeletons(tree)
        assert skeleton.cores
        restored = pickle.loads(pickle.dumps(tree))
        (restored_skeleton,) = searched_skeletons(restored)
        assert restored_skeleton.cores == ()
        assert restored_skeleton.order == skeleton.order
        assert _canonical(AnalysisSession().run(restored, MPMCS)) == _canonical(before)
        assert restored_skeleton.cores == skeleton.cores

    def test_a_skeleton_pickled_before_the_memo_existed_reads_empty(self):
        (skeleton,) = searched_skeletons(_e4_tree())
        IncrementalMaxSATSession(skeleton).solve(_uniform(IncrementalMaxSATSession(skeleton)))
        assert skeleton.cores

        class Payload:
            """Pickles as a skeleton did before it had a ``cores`` slot: a
            new object and the state of its four other slots."""

            def __reduce__(self):
                names = ("root", "order", "gates", "_cnf")
                state = {name: getattr(skeleton, name) for name in names}
                return object.__new__, (Skeleton,), (None, state)

        restored = pickle.loads(pickle.dumps(Payload()))
        assert type(restored) is Skeleton
        assert restored.cores == ()
        assert restored.order == skeleton.order
        session = IncrementalMaxSATSession(restored)
        assert session.seeded_cores == 0
        assert session.solve(_uniform(session)) == IncrementalMaxSATSession(skeleton).solve(
            _uniform(session)
        )
        assert restored.cores


class TestCountedWork:
    def test_rankings_on_one_structure_make_fewer_sat_calls(self, monkeypatch):
        """Top-3 rankings of ten redraws of one E4 structure make fewer SAT
        calls in total than the same draws, each on a structure built apart,
        and give the same bytes.  A probe read 304 calls apart against 182
        on one structure."""
        calls = _count_sat_calls(monkeypatch)
        request = _ranking(3)
        apart = [_canonical(AnalysisSession().run(_redraw(_e4_tree(), seed), request))
                 for seed in range(10)]
        apart_calls = len(calls)
        calls.clear()
        tree = _e4_tree()
        shared = [_canonical(AnalysisSession().run(_redraw(tree, seed), request))
                  for seed in range(10)]
        assert shared == apart
        assert 0 < len(calls) < apart_calls


class TestSpan:
    def test_the_solve_span_reports_the_seeded_cores(self):
        tree = _e4_tree()
        (skeleton,) = searched_skeletons(tree)
        memo, seeded = [], []
        for draw in (tree, tree.copy()):
            memo.append(len(skeleton.cores))
            tracer = Tracer()
            with use_tracer(tracer):
                AnalysisSession().run(draw, MPMCS)
            spans = list(tracer.roots)
            solves = []
            while spans:
                span = spans.pop()
                spans.extend(span.children)
                if span.name == "maxsat.solve":
                    solves.append(span.counters)
            (counters,) = solves
            assert {"sat_calls", "hs_rounds"} <= set(counters)
            seeded.append(counters["seeded_cores"])
        assert seeded == memo
        assert memo[0] == 0 < memo[1]
