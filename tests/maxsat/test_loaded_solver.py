"""One loaded solver per memoised hard-clause record, copied per solve.

A structure's (or a skeleton's) memoised hard clauses keep one level-0
``CDCLSolver`` loaded with them (``WPMaxSATInstance.keep_loaded_solver``);
``new_sat_solver`` hands each engine a copy.  The copy must search exactly
as a solver loaded clause by clause would, and solving one copy must leave
the memo and every other copy untouched.
"""

import array
import pickle
import random

import pytest

from repro.core.encoder import encode_mpmcs
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.exceptions import SolverError
from repro.maxsat import RC2Engine
from repro.maxsat.engine import new_sat_solver
from repro.maxsat.instance import WPMaxSATInstance
from repro.sat.cdcl import CDCLSolver
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES

from tests.conftest import flat_vote, k_of_n_ladder, voting_reuse_tree

#: (basic events, generator seed) of the E4 pool: the E4 generator trees
#: (5% voting gates, 5% event reuse) the cold-analysis benchmark draws from.
E4_POOL = ((200, 0), (300, 0), (500, 1), (600, 1), (800, 0))


def _e4_tree(events, seed):
    return random_fault_tree(
        num_basic_events=events, seed=seed, voting_ratio=0.05, event_reuse=0.05
    )


def _tree_factories():
    factories = [(name, factory) for name, factory in sorted(NAMED_TREES.items())]
    factories += [
        (f"voting-reuse-{seed}", lambda seed=seed: voting_reuse_tree(4 + seed % 7, seed))
        for seed in range(40)
    ]
    factories += [
        (f"e4-{events}-{seed}", lambda events=events, seed=seed: _e4_tree(events, seed))
        for events, seed in E4_POOL
    ]
    return factories


FACTORIES = _tree_factories()

#: Whole-tree RC2 solves (the copied record of ``encode_mpmcs``) that learn
#: clauses and, on the last three, outgrow RC2's core budget and hand over
#: to the hitting set engine, which takes a copy of its own.
WHOLE_TREE = [(name, factory) for name, factory in FACTORIES if name.startswith("voting")] + [
    ("5-of-9-vote", lambda: flat_vote(9, 5)),
    ("5-of-9-ladder", lambda: k_of_n_ladder(9, 5)),
    ("voting-reuse-8-316", lambda: voting_reuse_tree(8, 316)),
]


def _state(solver):
    """Every piece of a solver's search state, with each clause number
    replaced by the clause's literal tuple, learnt flag and activity."""
    def clause(c):
        if c is None:
            return None
        return (tuple(solver._lits[c]), solver._learnt[c], solver._clause_activity[c])

    return {
        "clauses": [
            clause(c) for c, lits in enumerate(solver._lits) if lits and not solver._learnt[c]
        ],
        "learnts": [clause(c) for c in solver._learnts],
        "watches": {lit: [clause(c) for c in ws] for lit, ws in solver._watches.items()},
        "reasons": [clause(c) for c in solver._reasons],
        "arrays": (
            solver._num_vars,
            list(solver._assigns),
            solver._levels,
            solver._activity,
            solver._phase,
            solver._seen,
            solver._trail,
            solver._trail_lim,
        ),
        "scalars": (
            solver._propagation_head,
            solver._var_inc,
            solver._clause_inc,
            solver._conflicts,
            solver._ok,
        ),
    }


def _fresh_load(instance):
    """``instance``'s hard clauses loaded clause by clause, as without a memo."""
    plain = instance.copy()
    plain._solver_memo = None
    return new_sat_solver(plain)


def _result(result):
    return (
        result.status,
        result.model,
        result.core,
        result.conflicts,
        result.decisions,
        result.propagations,
    )


def _recorded_solves(monkeypatch, tree, *, memoised, solver=MPMCSSolver):
    """The answer and every ``SatResult`` of ``solver().solve(tree)``."""
    results = []
    solve = CDCLSolver.solve

    def recording(self, assumptions=()):
        outcome = solve(self, assumptions)
        results.append(_result(outcome))
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(CDCLSolver, "solve", recording)
        if not memoised:
            patch.setattr(WPMaxSATInstance, "keep_loaded_solver", lambda self: None)
        answer = solver().solve(tree)
    return answer.events, answer.engine, results


class TestCopiedSolverSearchesAsALoadedOne:
    @pytest.mark.parametrize("name,factory", FACTORIES, ids=[name for name, _ in FACTORIES])
    def test_every_skeleton_solve_is_the_same(self, monkeypatch, name, factory):
        # Two builds, so each has its own compiled structure and memos.
        memoised = _recorded_solves(monkeypatch, factory(), memoised=True)
        loaded = _recorded_solves(monkeypatch, factory(), memoised=False)
        assert memoised == loaded

    @pytest.mark.parametrize("name,factory", WHOLE_TREE, ids=[name for name, _ in WHOLE_TREE])
    def test_every_whole_tree_solve_is_the_same(self, monkeypatch, name, factory):
        def rc2_alone():
            return MPMCSSolver(single_engine=RC2Engine())

        memoised = _recorded_solves(monkeypatch, factory(), memoised=True, solver=rc2_alone)
        loaded = _recorded_solves(monkeypatch, factory(), memoised=False, solver=rc2_alone)
        assert memoised == loaded

    @pytest.mark.parametrize("name,factory", FACTORIES, ids=[name for name, _ in FACTORIES])
    def test_a_copy_starts_in_the_loaded_state(self, name, factory):
        structure = factory().compiled()
        records = [structure.cnf] + [
            skeleton.cnf for skeleton in structure.modules if not skeleton.by_rule
        ]
        for record in records:
            encoding = record.instance.copy()
            encoding.add_soft([-1], 0.5)
            copied = new_sat_solver(encoding)
            assert record.instance.solver_memo.solver is not None
            assert _state(copied) == _state(_fresh_load(encoding))

    def test_extra_variables_of_a_copy_are_reserved(self):
        record = NAMED_TREES["fps"]().compiled().cnf
        encoding = record.instance.copy()
        extra = encoding.new_var()
        solver = new_sat_solver(encoding)
        assert solver.num_vars == extra == record.instance.num_vars + 1
        assert _state(solver) == _state(_fresh_load(encoding))


class TestCopiesAreIndependent:
    def test_solving_one_copy_leaves_the_memo_and_a_sibling_unchanged(self):
        # Assuming every selector of a 5-of-9 vote is unsatisfiable: the
        # search propagates through the vote and swaps watched literals.
        instance = encode_mpmcs(flat_vote(9, 5)).instance
        first = new_sat_solver(instance)
        memo = instance.solver_memo.solver
        memo_before = _state(memo)
        sibling = new_sat_solver(instance)
        sibling_before = _state(sibling)

        selectors = [soft.literals[0] for soft in instance.soft]
        assert first.solve(selectors).propagations > 0
        first.add_clause([-selectors[0], -selectors[1]])
        first.add_clause([first.new_var(), selectors[2]])
        first.solve(selectors[1:])

        assert _state(memo) == memo_before
        assert _state(sibling) == sibling_before
        # The sibling still answers as a solver loaded clause by clause.
        assert _result(sibling.solve(selectors)) == _result(
            _fresh_load(instance).solve(selectors)
        )

    def test_a_copy_shares_no_list_with_its_source(self):
        # Small learned clause budgets free slots, so the arena holds
        # placeholders as well as problem and learned clauses.
        rng = random.Random(0)

        def literals(count):
            return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 41), count)]

        solver = CDCLSolver(restart_base=20, max_learnt_factor=0.02)
        for _ in range(170):
            solver.add_clause(literals(3))
        solver.solve(literals(3))
        solver.add_clause(literals(1))  # a level-0 unit, so the trail is not empty
        assert solver._free and solver._learnts and solver._trail
        copied = solver.copy()
        assert _state(copied) == _state(solver)

        containers = 0
        for name, value in vars(solver).items():
            if isinstance(value, (list, dict, array.array)):
                assert getattr(copied, name) is not value, name
                containers += 1
        assert containers == 14
        assert all(a is not b for a, b in zip(copied._lits, solver._lits))
        assert any(not lits for lits in solver._lits)  # a freed slot's placeholder
        assert copied._watches.keys() == solver._watches.keys()
        assert all(copied._watches[lit] is not ws for lit, ws in solver._watches.items())

    def test_a_copy_is_made_at_level_zero_only(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        solver._trail_lim.append(len(solver._trail))  # open decision level 1
        with pytest.raises(SolverError, match="decision level 0"):
            solver.copy()

    def test_a_copy_takes_its_own_budget_and_stop_hook(self):
        solver = CDCLSolver(max_conflicts=3)
        copied = solver.copy(max_conflicts=7, stop_check=bool)
        assert copied._max_conflicts == 7 and copied.stop_check is bool
        assert solver._max_conflicts == 3 and solver.stop_check is None


class TestWhenTheMemoApplies:
    def test_extra_hard_clauses_load_on_top_of_a_copy(self):
        tree = NAMED_TREES["fps"]()
        record = tree.compiled().cnf.instance
        encoding = encode_mpmcs(tree)
        encoding.instance.add_hard([-encoding.event_vars["x1"]])
        extra = encoding.instance.new_var()
        encoding.instance.add_hard([extra, -encoding.event_vars["x2"]])
        # The blocked instance keeps the record's memo, over its first clauses.
        assert encoding.instance.solver_memo is record.solver_memo
        assert record.solver_memo.num_hard == record.num_hard
        blocked = new_sat_solver(encoding.instance)
        assert _state(blocked) == _state(_fresh_load(encoding.instance))
        # The memo is filled from the record's clauses alone.
        assert _state(record.solver_memo.solver) == _state(_fresh_load(record))

    @pytest.mark.parametrize("name,factory", FACTORIES[:12], ids=[n for n, _ in FACTORIES[:12]])
    def test_every_blocked_ranking_solve_is_the_same(self, monkeypatch, name, factory):
        def ranked_solves(memoised):
            results = []
            solve = CDCLSolver.solve

            def recording(self, assumptions=()):
                outcome = solve(self, assumptions)
                results.append(_result(outcome))
                return outcome

            with monkeypatch.context() as patch:
                patch.setattr(CDCLSolver, "solve", recording)
                if not memoised:
                    patch.setattr(WPMaxSATInstance, "keep_loaded_solver", lambda self: None)
                ranking = enumerate_mpmcs(factory(), 4)
            return [(entry.events, entry.cost) for entry in ranking], results

        assert ranked_solves(memoised=True) == ranked_solves(memoised=False)

    def test_a_pickle_keeps_the_slot_but_not_the_solver(self):
        tree = NAMED_TREES["fps"]()
        instance = tree.compiled().cnf.instance
        new_sat_solver(instance)
        assert instance.solver_memo.solver is not None
        restored = pickle.loads(pickle.dumps(tree)).compiled().cnf.instance
        assert restored.solver_memo.solver is None
        assert restored.solver_memo.num_vars == instance.solver_memo.num_vars
        assert restored.solver_memo.num_hard == instance.solver_memo.num_hard
        assert _state(new_sat_solver(restored)) == _state(new_sat_solver(instance))
