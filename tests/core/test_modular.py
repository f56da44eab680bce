"""The modular MPMCS path answers exactly like the whole-tree path and the BDD.

``MPMCSSolver()`` solves a tree module by module: a module over independent
children by rule, every other one with one solve of its skeleton's
incremental session.  ``MPMCSSolver(single_engine=RC2Engine())`` solves one whole-tree
encoding and is the oracle here.  The objective orders cut sets canonically
and no two sets tie, so both must return the same cut set, and every report
must be byte-identical in canonical form.
"""

import json
import random
import time

import pytest
from hypothesis import given, settings

from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.api import AnalysisRequest, AnalysisSession
from repro.bdd.probability import bdd_mpmcs
from repro.core import pipeline
from repro.core.pipeline import MODULE_RULE_ENGINE, ModuleOptima, MPMCSSolver
from repro.exceptions import ReproError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.maxsat import HittingSetEngine, RC2Engine
from repro.maxsat.incremental import SESSION_ENGINE, IncrementalMaxSATSession
from repro.sat.cdcl import CDCLSolver
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES, fire_protection_system, three_motor_system
from tests.conftest import flat_vote, k_of_n_ladder, or_chain, voting_reuse_tree, voting_reuse_trees

ROUTES = ("cold", "batch", "auto")
REQUESTS = [(analyses, top_k) for analyses in (("mpmcs",), ("mpmcs", "ranking")) for top_k in (1, 3)]


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


def _report(session, tree, route, analyses, top_k):
    if route == "batch":
        request = AnalysisRequest.create(analyses, backend="maxsat", top_k=top_k)
        (report,) = session.run_batch([tree], request)
        return report
    backend = "maxsat" if route == "cold" else "auto"
    return session.analyze(tree, list(analyses), backend=backend, top_k=top_k)


def _whole_tree_session():
    return AnalysisSession(solver=MPMCSSolver(single_engine=RC2Engine()))


def _assert_matches_whole_tree(tree, routes=ROUTES, requests=REQUESTS):
    for route in routes:
        for analyses, top_k in requests:
            modular = _report(AnalysisSession(), tree, route, analyses, top_k)
            whole = _report(_whole_tree_session(), tree, route, analyses, top_k)
            assert _canonical(modular) == _canonical(whole), (route, analyses, top_k)


def _assert_matches_bdd(tree):
    """The MPMCS equals the bdd backend's.

    Both minimise the same integer objective, so they agree on the events
    also where two cut sets' probabilities tie.  The bdd backend multiplies
    the MPMCS probability in another order, so it is compared to the last
    few ulps.
    """
    maxsat = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    bdd = AnalysisSession().analyze(tree, ["mpmcs"], backend="bdd").mpmcs
    assert maxsat.events == bdd.events
    assert maxsat.cost == bdd.cost
    assert maxsat.probability == pytest.approx(bdd.probability, rel=1e-12)


def _forbid_whole_tree_solve(monkeypatch):
    def forbidden(self, instance):
        raise AssertionError("a whole-tree engine solve was made")

    monkeypatch.setattr(RC2Engine, "solve", forbidden)
    monkeypatch.setattr(HittingSetEngine, "solve", forbidden)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(voting_reuse_trees(min_events=3, max_events=8))
    def test_voting_reuse_trees(self, tree):
        _assert_matches_whole_tree(tree)
        _assert_matches_bdd(tree)

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_library_trees(self, name):
        tree = NAMED_TREES[name]()
        _assert_matches_whole_tree(tree)
        _assert_matches_bdd(tree)

    @pytest.mark.parametrize("events", [1000, 2000])
    def test_e4_trees(self, events):
        # The bdd backend takes seconds at this size, so only the whole-tree
        # path is compared.
        tree = random_fault_tree(
            num_basic_events=events, seed=1, voting_ratio=0.05, event_reuse=0.05
        )
        _assert_matches_whole_tree(tree, routes=("cold",), requests=[(("mpmcs",), 1)])

    def test_deep_or_chain(self):
        tree = or_chain(1500)
        assert len(tree.compiled().modules) == 1500
        _assert_matches_whole_tree(tree, routes=("cold",), requests=[(("mpmcs",), 1)])
        _assert_matches_bdd(tree)


def _wide_gate(gate_type, k=None, width=1000):
    """One gate over ``width`` basic events of distinct probabilities."""
    tree = FaultTree(f"{gate_type.value}-{k}-of-{width}")
    names = [f"e{index:04d}" for index in range(width)]
    for index, name in enumerate(names):
        tree.add_basic_event(name, 0.01 + index * 1e-5)
    tree.add_gate("top", gate_type, names, k=k)
    tree.set_top_event("top")
    return tree


def _and_of_ors(width, chained):
    """An AND over ``width`` ORs of ``a_i`` (0.1) and ``b_i`` (0.05, less
    1e-5 per index), as one wide gate or as a chain of two-input ANDs.  Its
    cheapest cut set takes every ``a_i``; the next nine each swap one
    ``a_i`` for ``b_i``, for ``i`` = 0..8: any two swaps cost more."""
    tree = FaultTree(f"and-of-{width}-ors{'-chained' if chained else ''}")
    for index in range(width):
        tree.add_basic_event(f"a{index:04d}", 0.1)
        tree.add_basic_event(f"b{index:04d}", 0.05 - index * 1e-5)
        tree.add_gate(f"o{index:04d}", GateType.OR, [f"a{index:04d}", f"b{index:04d}"])
    if chained:
        below = f"o{width - 1:04d}"
        for index in range(width - 2, -1, -1):
            tree.add_gate(f"g{index:04d}", GateType.AND, [f"o{index:04d}", below])
            below = f"g{index:04d}"
        tree.set_top_event(below)
    else:
        tree.add_gate("top", GateType.AND, [f"o{index:04d}" for index in range(width)])
        tree.set_top_event("top")
    return tree


class TestExtremes:
    """Fan-in 1000: the maxsat and bdd facades answer within a wall-clock
    bound and agree on the MPMCS; a wide or deep AND ranks within it too."""

    #: Seconds per analysis; each takes at most 0.08 s on a 2-core host.
    BOUND_S = 2.0

    @pytest.mark.parametrize(
        "gate_type, k",
        [
            (GateType.AND, None),
            (GateType.OR, None),
            (GateType.VOTING, 1),
            (GateType.VOTING, 3),
            (GateType.VOTING, 1000),
        ],
        ids=["and-1000", "or-1000", "1-of-1000", "3-of-1000", "1000-of-1000"],
    )
    def test_wide_gate_over_basic_events(self, gate_type, k):
        tree = _wide_gate(gate_type, k)
        answers = {}
        for backend in ("maxsat", "bdd"):
            started = time.perf_counter()
            answers[backend] = AnalysisSession().analyze(tree, ["mpmcs"], backend=backend).mpmcs
            assert time.perf_counter() - started < self.BOUND_S, backend
        assert answers["maxsat"].events == answers["bdd"].events
        assert answers["maxsat"].probability == answers["bdd"].probability

    @pytest.mark.parametrize(
        "width, chained", [(1000, False), (1500, True)], ids=["and-of-1000-ors", "1500-deep-and-chain"]
    )
    def test_ranking_of_a_wide_or_deep_and(self, width, chained):
        """Blocked whole-tree solves took over two minutes for a top 10 of
        such a chain on a 2-core host."""
        tree = _and_of_ors(width, chained)
        started = time.perf_counter()
        report = AnalysisSession().analyze(tree, ["ranking"], backend="maxsat", top_k=10)
        assert time.perf_counter() - started < self.BOUND_S
        heads = [f"a{index:04d}" for index in range(width)]
        expected = [tuple(heads)] + [
            tuple(sorted(heads[:index] + [f"b{index:04d}"] + heads[index + 1 :]))
            for index in range(9)
        ]
        assert [entry.events for entry in report.ranking] == expected


class TestRules:
    """Trees without shared nodes need no solve at all."""

    @pytest.mark.parametrize(
        "tree",
        [k_of_n_ladder(15, 8), k_of_n_ladder(31, 16), flat_vote(15, 8), fire_protection_system()],
        ids=["8of15-ladder", "16of31-ladder", "8of15-vote", "fig1"],
    )
    def test_no_whole_tree_solve(self, tree, monkeypatch):
        _forbid_whole_tree_solve(monkeypatch)
        expected_events, expected_probability = bdd_mpmcs(tree)
        result = MPMCSSolver().solve(tree)
        assert result.events == tuple(sorted(expected_events))
        assert result.probability == pytest.approx(expected_probability, rel=1e-12)
        assert result.engine == MODULE_RULE_ENGINE
        assert result.sat_calls == 0
        report = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat")
        assert report.mpmcs.events == result.events

    def test_first_analysis_assembles_no_whole_tree_clauses(self, assemblies):
        tree = k_of_n_ladder(31, 16)
        result = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs.detail
        assert assemblies == []
        # The reported sizes are the whole-tree encoding's, assembled on read.
        sizes = (result.num_vars, result.num_hard, result.num_aux_vars)
        assert assemblies == [tree.compiled()]
        cnf = tree.compiled().cnf
        assert sizes == (cnf.instance.num_vars, cnf.instance.num_hard, cnf.num_aux_vars)

    def test_basic_event_top(self, monkeypatch):
        _forbid_whole_tree_solve(monkeypatch)
        tree = FaultTree("single", top_event="a")
        tree.add_basic_event("a", 0.3)
        assert tree.compiled().modules == ()
        assert MPMCSSolver().solve(tree).events == ("a",)

    def test_voting_rule_matches_enumeration(self):
        tree = k_of_n_ladder(7, 4)
        expected = mocus_minimal_cut_sets(tree).most_probable()[0]
        assert MPMCSSolver().solve(tree).events == tuple(sorted(expected))


class TestSkeletonSolves:
    def test_shared_structure_takes_one_session_solve(self, monkeypatch):
        _forbid_whole_tree_solve(monkeypatch)
        calls = []
        original = IncrementalMaxSATSession.solve

        def counting(self, value, stop_check=None):
            calls.append(len(self.event_vars))
            return original(self, value, stop_check)

        monkeypatch.setattr(IncrementalMaxSATSession, "solve", counting)
        tree = three_motor_system()
        result = MPMCSSolver().solve(tree)
        # No proper module: one solve over the whole tree's events.
        assert calls == [len(tree.events)]
        assert result.engine == SESSION_ENGINE
        assert result.sat_calls > 0

    def test_engine_names_the_engines_that_answered(self):
        e4 = random_fault_tree(num_basic_events=300, seed=0, voting_ratio=0.05, event_reuse=0.05)
        request = AnalysisRequest.create(("mpmcs",), backend="maxsat")
        for tree, engine in (
            (voting_reuse_tree(40, 27), SESSION_ENGINE),
            (fire_protection_system(), MODULE_RULE_ENGINE),
            (e4, SESSION_ENGINE),
        ):
            result = MPMCSSolver().solve(tree)
            assert result.engine == engine, tree.name
            assert (result.sat_calls > 0) == (engine == SESSION_ENGINE), tree.name
            report = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat")
            assert report.mpmcs.engine == engine, tree.name
            (warm,) = AnalysisSession().run_batch([tree], request)
            assert warm.mpmcs.engine == engine, tree.name

    def test_module_route_makes_no_whole_tree_solve(self, monkeypatch):
        """The one searched skeleton of this tree took a whole-tree RC2 solve
        83 SAT calls (RC2 spent its core budget and handed over to the
        hitting set engine); its session takes 30."""
        _forbid_whole_tree_solve(monkeypatch)
        calls = []
        original = CDCLSolver.solve

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CDCLSolver, "solve", counting)
        report = AnalysisSession().analyze(voting_reuse_tree(40, 27), ["mpmcs"], backend="maxsat")
        assert report.mpmcs.engine == SESSION_ENGINE
        assert len(calls) == report.mpmcs.detail.sat_calls <= 31

    def test_cancellation_hook_reaches_skeleton_solves(self):
        solver = MPMCSSolver()
        solver.stop_check = lambda: True
        with pytest.raises(ReproError):
            solver.solve(three_motor_system())
        # A tree solved by rule needs no engine, so nothing is cancelled.
        assert solver.solve(fire_protection_system()).events == ("x1", "x2")

    def test_sizes_describe_the_whole_tree_encoding(self):
        def sizes(result):
            return (result.num_vars, result.num_hard, result.num_soft, result.num_aux_vars)

        for tree in (fire_protection_system(), three_motor_system()):
            modular = MPMCSSolver().solve(tree)
            assert sizes(modular) == sizes(MPMCSSolver(single_engine=RC2Engine()).solve(tree))
            assert modular.total_time >= modular.solve_time >= 0.0


def _result_fields(result):
    """The answer of a solve; the engine names the solves this update made."""
    return (result.events, result.probability, result.cost, result.weights)


def _events(results):
    return [result.events for result in results]


def _redrawn(tree, rng, changes):
    """A probability-only copy of ``tree`` with ``changes`` events redrawn."""
    copy = tree.copy()
    for name in rng.sample(sorted(tree.events), min(changes, len(tree.events))):
        copy.set_probability(name, rng.choice([1e-4, 0.01, 0.05, 0.2, 0.5, 1.0, rng.random()]))
    return copy


class TestModuleOptimaUpdates:
    """A kept :class:`ModuleOptima` answers like a fresh walk after every update."""

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize(
        "tree",
        [NAMED_TREES[name]() for name in sorted(NAMED_TREES)]
        + [voting_reuse_tree(8, seed) for seed in range(6)]
        + [k_of_n_ladder(9, 5), random_fault_tree(num_basic_events=40, seed=5)],
        ids=lambda tree: tree.name,
    )
    def test_updates_match_fresh_solves(self, tree, count):
        rng = random.Random(tree.name)
        solver = MPMCSSolver()
        optima = ModuleOptima(tree.compiled(), count)
        current = tree
        for step in range(12):
            kept = solver.solve_modules(current, optima)
            fresh = solver.solve_modules(current, ModuleOptima(current.compiled(), count))
            assert [_result_fields(result) for result in kept] == [
                _result_fields(result) for result in fresh
            ], step
            whole = MPMCSSolver(single_engine=RC2Engine()).rank(current, count)
            assert [(result.events, result.cost) for result in kept] == [
                (result.events, result.cost) for result in whole
            ], step
            # One, a few or every event redrawn; every fourth step goes back
            # to the base probabilities.
            current = tree.copy() if step % 4 == 3 else _redrawn(current, rng, 1 + step % 3 * 3)

    @pytest.mark.parametrize("count", [1, 3])
    def test_update_solves_only_the_modules_above_a_change(self, monkeypatch, count):
        calls = []
        rule = pipeline._ranked_by_rule

        def counting(gate, ranked, count):
            calls.append(gate.name)
            return rule(gate, ranked, count)

        monkeypatch.setattr(pipeline, "_ranked_by_rule", counting)
        tree = k_of_n_ladder(15, 8)
        optima = ModuleOptima(tree.compiled(), count)
        solver = MPMCSSolver()
        copy = tree.copy()
        copy.set_probability("sensor_3", 0.3)
        expected = [_events(solver.rank(tree, count)), _events(solver.rank(copy, count))]
        calls.clear()
        solver.solve_modules(tree, optima)
        assert len(calls) == 16
        calls.clear()
        assert _events(solver.solve_modules(tree.copy(), optima)) == expected[0]
        assert calls == []
        assert _events(solver.solve_modules(copy, optima)) == expected[1]
        assert calls == ["channel_3", "top"]

    def test_failed_update_starts_afresh(self, monkeypatch):
        tree = three_motor_system()
        optima = ModuleOptima(tree.compiled())
        solver = MPMCSSolver()
        solver.stop_check = lambda: True
        changed = tree.copy()
        changed.set_probability(sorted(tree.events)[0], 0.4)
        with pytest.raises(ReproError):
            solver.solve_modules(changed, optima)
        solver.stop_check = None
        (kept,) = solver.solve_modules(changed, optima)
        assert _result_fields(kept) == _result_fields(solver.solve(changed))

    def test_tree_of_another_structure_starts_afresh(self):
        optima = ModuleOptima(fire_protection_system().compiled())
        solver = MPMCSSolver()
        for tree in (fire_protection_system(), k_of_n_ladder(5, 3), fire_protection_system()):
            (kept,) = solver.solve_modules(tree, optima)
            assert _result_fields(kept) == _result_fields(solver.solve(tree))
            assert optima.structure is tree.compiled()
