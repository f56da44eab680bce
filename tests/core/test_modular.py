"""The modular MPMCS path answers exactly like the whole-tree path and the BDD.

``MPMCSSolver()`` solves a tree module by module: a module over independent
children by rule, every other one with one portfolio solve over its
skeleton.  ``MPMCSSolver(single_engine=RC2Engine())`` solves one whole-tree
encoding and is the oracle here.  The objective orders cut sets canonically
and no two sets tie, so both must return the same cut set, and every report
must be byte-identical in canonical form.
"""

import json
import random

import pytest
from hypothesis import given, settings

from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.api import AnalysisRequest, AnalysisSession
from repro.bdd.probability import bdd_mpmcs
from repro.core import pipeline
from repro.core.pipeline import MODULE_RULE_ENGINE, ModuleOptima, MPMCSSolver
from repro.exceptions import ReproError
from repro.fta.tree import FaultTree
from repro.maxsat import RC2Engine
from repro.maxsat.portfolio import PortfolioSolver
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

    The bdd backend orders cut sets by float probability, the MaxSAT
    objective by ``-log`` weights rounded to 1e-9, so two cut sets whose
    probabilities differ by less than that rounding may come in either
    order (one voting/reuse tree in about 8000): then only the
    probabilities are compared.  The bdd backend also multiplies the MPMCS
    probability in another order, so it is compared to the last few ulps.
    """
    maxsat = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    bdd = AnalysisSession().analyze(tree, ["mpmcs"], backend="bdd").mpmcs
    if maxsat.events == bdd.events:
        assert maxsat.cost == bdd.cost
        assert maxsat.probability == pytest.approx(bdd.probability, rel=1e-12)
    else:
        assert maxsat.probability == pytest.approx(bdd.probability, rel=1e-8)


def _forbid_portfolio(monkeypatch):
    def forbidden(self, instance):
        raise AssertionError("the portfolio was called")

    monkeypatch.setattr(PortfolioSolver, "solve_with_report", forbidden)


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


class TestRules:
    """Trees without shared nodes need no solve at all."""

    @pytest.mark.parametrize(
        "tree",
        [k_of_n_ladder(15, 8), k_of_n_ladder(31, 16), flat_vote(15, 8), fire_protection_system()],
        ids=["8of15-ladder", "16of31-ladder", "8of15-vote", "fig1"],
    )
    def test_no_portfolio_call(self, tree, monkeypatch):
        _forbid_portfolio(monkeypatch)
        expected_events, expected_probability = bdd_mpmcs(tree)
        result = MPMCSSolver().solve(tree)
        assert result.events == tuple(sorted(expected_events))
        assert result.probability == pytest.approx(expected_probability, rel=1e-12)
        assert result.engine == result.portfolio.winner == MODULE_RULE_ENGINE
        report = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat")
        assert report.mpmcs.events == result.events

    def test_basic_event_top(self, monkeypatch):
        _forbid_portfolio(monkeypatch)
        tree = FaultTree("single", top_event="a")
        tree.add_basic_event("a", 0.3)
        assert tree.compiled().modules == ()
        assert MPMCSSolver().solve(tree).events == ("a",)

    def test_voting_rule_matches_enumeration(self):
        tree = k_of_n_ladder(7, 4)
        expected = mocus_minimal_cut_sets(tree).most_probable()[0]
        assert MPMCSSolver().solve(tree).events == tuple(sorted(expected))


class TestSkeletonSolves:
    def test_shared_structure_goes_through_the_portfolio(self, monkeypatch):
        calls = []
        original = PortfolioSolver.solve_with_report

        def counting(self, instance):
            calls.append(instance.num_soft)
            return original(self, instance)

        monkeypatch.setattr(PortfolioSolver, "solve_with_report", counting)
        tree = three_motor_system()
        result = MPMCSSolver().solve(tree)
        # No proper module: one solve over the whole tree's events.
        assert calls == [len(tree.events)]
        assert result.portfolio.winner == result.engine == "rc2"

    def test_cancellation_hook_reaches_skeleton_solves(self):
        solver = MPMCSSolver()
        solver.portfolio.external_stop = lambda: True
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


def _redrawn(tree, rng, changes):
    """A probability-only copy of ``tree`` with ``changes`` events redrawn."""
    copy = tree.copy()
    for name in rng.sample(sorted(tree.events), min(changes, len(tree.events))):
        copy.set_probability(name, rng.choice([1e-4, 0.01, 0.05, 0.2, 0.5, 1.0, rng.random()]))
    return copy


class TestModuleOptimaUpdates:
    """A kept :class:`ModuleOptima` answers like a fresh solve after every update."""

    @pytest.mark.parametrize(
        "tree",
        [NAMED_TREES[name]() for name in sorted(NAMED_TREES)]
        + [voting_reuse_tree(8, seed) for seed in range(6)]
        + [k_of_n_ladder(9, 5), random_fault_tree(num_basic_events=40, seed=5)],
        ids=lambda tree: tree.name,
    )
    def test_updates_match_fresh_solves(self, tree):
        rng = random.Random(tree.name)
        solver = MPMCSSolver()
        optima = ModuleOptima(tree.compiled())
        current = tree
        for step in range(12):
            kept = solver.solve_modules(current, optima)
            fresh = solver.solve(current)
            assert _result_fields(kept) == _result_fields(fresh), step
            whole = MPMCSSolver(single_engine=RC2Engine()).solve(current)
            assert (kept.events, kept.cost) == (whole.events, whole.cost), step
            # One, a few or every event redrawn; every fourth step goes back
            # to the base probabilities.
            current = tree.copy() if step % 4 == 3 else _redrawn(current, rng, 1 + step % 3 * 3)

    def test_update_solves_only_the_modules_above_a_change(self, monkeypatch):
        calls = []
        rule = pipeline._optimum_by_rule

        def counting(gate, value):
            calls.append(gate.name)
            return rule(gate, value)

        monkeypatch.setattr(pipeline, "_optimum_by_rule", counting)
        tree = k_of_n_ladder(15, 8)
        optima = ModuleOptima(tree.compiled())
        solver = MPMCSSolver()
        copy = tree.copy()
        copy.set_probability("sensor_3", 0.3)
        expected = [solver.solve(tree).events, solver.solve(copy).events]
        calls.clear()
        solver.solve_modules(tree, optima)
        assert len(calls) == 16
        calls.clear()
        assert solver.solve_modules(tree.copy(), optima).events == expected[0]
        assert calls == []
        assert solver.solve_modules(copy, optima).events == expected[1]
        assert calls == ["channel_3", "top"]

    def test_failed_update_starts_afresh(self, monkeypatch):
        tree = three_motor_system()
        optima = ModuleOptima(tree.compiled())
        solver = MPMCSSolver()
        solver.portfolio.external_stop = lambda: True
        changed = tree.copy()
        changed.set_probability(sorted(tree.events)[0], 0.4)
        with pytest.raises(ReproError):
            solver.solve_modules(changed, optima)
        solver.portfolio.external_stop = None
        assert _result_fields(solver.solve_modules(changed, optima)) == _result_fields(
            solver.solve(changed)
        )

    def test_tree_of_another_structure_starts_afresh(self):
        optima = ModuleOptima(fire_protection_system().compiled())
        solver = MPMCSSolver()
        for tree in (fire_protection_system(), k_of_n_ladder(5, 3), fire_protection_system()):
            assert _result_fields(solver.solve_modules(tree, optima)) == _result_fields(
                solver.solve(tree)
            )
            assert optima.structure is tree.compiled()
