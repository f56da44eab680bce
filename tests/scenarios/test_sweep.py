"""Sweep executor: incremental-vs-fresh agreement and the acceptance sweep."""

import pytest

from repro.api import AnalysisSession
from repro.scenarios import (
    RemoveEvent,
    Scenario,
    SetProbability,
    SweepExecutor,
    mission_time_sweep,
    probability_sweep,
    run_sweep,
    scenario_grid,
)
from repro.workloads.library import fire_protection_system, pressure_tank


class TestSweepBasics:
    def test_outcomes_carry_deltas(self):
        report = SweepExecutor().run(
            fire_protection_system(), probability_sweep("x1", [0.4])
        )
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.top_event == pytest.approx(report.base_top_event + outcome.top_event_delta)
        assert outcome.mpmcs_probability == pytest.approx(0.04)
        assert outcome.mpmcs_delta == pytest.approx(0.02)
        assert not outcome.mpmcs_changed

    def test_mpmcs_change_detection(self):
        report = SweepExecutor().run(
            fire_protection_system(), probability_sweep("x1", [0.001])
        )
        outcome = report.outcomes[0]
        assert outcome.mpmcs_changed
        assert outcome.mpmcs_events == ("x5", "x6")

    def test_failed_scenario_is_captured_not_raised(self):
        scenarios = [
            Scenario("impossible", [RemoveEvent("tank_failure"), RemoveEvent("relief_valve_fails")]),
            Scenario("fine", [SetProbability("tank_failure", 0.5)]),
        ]
        report = SweepExecutor().run(pressure_tank(), scenarios)
        assert len(report.failures) == 1
        assert "impossible" == report.failures[0].name
        assert report.outcomes[1].ok

    def test_ranked_and_best(self):
        report = SweepExecutor().run(
            fire_protection_system(), probability_sweep("x1", [0.4, 0.01, 0.1])
        )
        ranked = report.ranked_by_top_event()
        assert [o.name for o in ranked] == ["x1=0.01", "x1=0.1", "x1=0.4"]
        assert report.best().name == "x1=0.01"

    def test_mission_time_and_grid_sweeps_run(self):
        report = run_sweep(
            fire_protection_system(),
            mission_time_sweep([0.5, 1.0, 2.0])
            + scenario_grid([[SetProbability("x1", 0.1), SetProbability("x1", 0.3)]]),
        )
        assert len(report) == 5 and not report.failures
        # mission time 1.0 is the identity: zero delta
        identity = next(o for o in report.outcomes if o.name == "mission-time*1")
        assert identity.top_event_delta == pytest.approx(0.0, abs=1e-15)

    def test_report_document_shape(self):
        report = SweepExecutor().run(
            fire_protection_system(), probability_sweep("x1", [0.1])
        )
        document = report.to_dict()
        assert document["tree"] == "fire-protection-system"
        assert document["base"]["mpmcs"] == ["x1", "x2"]
        assert document["scenarios"][0]["name"] == "x1=0.1"
        assert document["subtree_reuse"]["hits"] > 0


def _strip_timing(outcome):
    document = outcome.to_dict()
    document.pop("time_s")
    return document


class TestAcceptanceSweep:
    """The ISSUE acceptance criterion: a 200-scenario sweep with nonzero
    reuse whose per-scenario deltas match fresh per-scenario analysis on at
    least two backends."""

    def test_200_scenario_sweep_matches_fresh_analysis_on_two_backends(self):
        tree = fire_protection_system()
        scenarios = probability_sweep("x1", start=1e-4, stop=0.9, steps=200)

        report = SweepExecutor().run(tree, scenarios)
        assert len(report) == 200 and not report.failures

        # Nonzero artifact reuse, and the exact incremental profile: one
        # structural enumeration (5 gates), then 200 scenarios of pure hits.
        reuse = report.subtree_reuse
        assert reuse["misses"] == tree.num_gates
        assert reuse["hits"] == tree.num_gates * 200

        # Cross-check every scenario against fresh sessions on two
        # independent backends (BDD and brute force — neither shares code
        # with the incremental cut-set composition).
        for backend in ("bdd", "brute-force"):
            fresh = AnalysisSession()
            for scenario, outcome in zip(scenarios, report.outcomes):
                reference = fresh.analyze(
                    scenario.apply(tree), ["mpmcs", "top_event"], backend=backend
                )
                assert outcome.mpmcs_events == reference.mpmcs.events
                assert outcome.mpmcs_probability == pytest.approx(
                    reference.mpmcs.probability, rel=1e-9
                )
                assert outcome.top_event == pytest.approx(
                    reference.top_event.best_estimate, rel=1e-9
                )

    def test_incremental_and_naive_sweeps_agree_exactly(self):
        tree = pressure_tank()
        scenarios = probability_sweep(
            "relief_valve_fails", start=1e-5, stop=0.5, steps=40
        ) + mission_time_sweep([0.25, 0.5, 2.0, 4.0])
        incremental = SweepExecutor(incremental=True).run(tree, scenarios)
        naive = SweepExecutor(incremental=False).run(tree, scenarios)
        assert [_strip_timing(a) for a in incremental.outcomes] == [
            _strip_timing(b) for b in naive.outcomes
        ]
        assert incremental.subtree_reuse["hits"] > 0
        assert naive.subtree_reuse == {"hits": 0, "misses": 0}

    def test_session_cache_does_not_grow_with_scenario_count(self):
        # Every artifact is keyed by structure, so probability-only
        # scenarios add no entry: the count is independent of sweep length.
        tree = fire_protection_system()
        executor = SweepExecutor()
        executor.run(tree, probability_sweep("x1", start=1e-3, stop=0.5, steps=5))
        entries_after_small = len(executor.session.artifacts)
        executor.run(tree, probability_sweep("x2", start=1e-3, stop=0.5, steps=60))
        assert len(executor.session.artifacts) == entries_after_small


class TestExactTopEventAtScale:
    """ROADMAP item: BDD-exact P(top) in the sweep path beyond 20 cut sets."""

    def _big_tree(self):
        from repro.workloads.generator import random_fault_tree

        tree = random_fault_tree(num_basic_events=40, seed=7)
        # Guard the premise: the cut-set backends cap exact inclusion-
        # exclusion at 20 cut sets, so this tree must exceed it.
        collection = AnalysisSession().analyze(tree, ["mcs"], backend="mocus").cut_sets
        assert len(collection) > 20
        return tree

    def test_sweep_reports_exact_value_beyond_cutset_cap(self):
        tree = self._big_tree()
        event = sorted(tree.events)[0]
        report = SweepExecutor().run(tree, probability_sweep(event, [0.001, 0.01, 0.1]))
        # Base and every scenario carry the exact value, cross-checked
        # against a direct BDD analysis of the same tree.
        bdd_exact = AnalysisSession().analyze(
            tree, ["top_event"], backend="bdd"
        ).top_event.exact
        assert report.base.top_event.exact == pytest.approx(bdd_exact, rel=1e-12)
        assert "bdd" in report.base.backends["top_event"]
        for outcome in report.outcomes:
            assert outcome.top_event is not None

    def test_one_bdd_build_serves_probability_only_sweep(self):
        from repro.api.cache import ARTIFACT_BDD

        tree = self._big_tree()
        event = sorted(tree.events)[0]
        session = AnalysisSession()
        executor = SweepExecutor(session)
        executor.run(tree, probability_sweep(event, [0.001, 0.01, 0.1, 0.2]))
        # Probability patches keep the structure hash, so the BDD compiles
        # once (one miss) and every later scenario re-evaluates it (hits).
        assert session.artifacts.misses_for(ARTIFACT_BDD) == 1
        assert session.artifacts.hits_for(ARTIFACT_BDD) >= 4

    def test_exact_top_event_opt_out(self):
        tree = self._big_tree()
        event = sorted(tree.events)[0]
        report = SweepExecutor(exact_top_event=False).run(
            tree, probability_sweep(event, [0.01])
        )
        assert report.base.top_event.exact is None
        assert report.base.top_event.min_cut_upper_bound is not None

    def test_small_trees_unaffected(self):
        """Below the cap the cut-set exact path already answers; no BDD runs."""
        from repro.api.cache import ARTIFACT_BDD

        session = AnalysisSession()
        SweepExecutor(session).run(
            fire_protection_system(), probability_sweep("x1", [0.01, 0.1])
        )
        assert session.artifacts.misses_for(ARTIFACT_BDD) == 0

    def test_incremental_and_fresh_agree_with_exact_values(self):
        tree = self._big_tree()
        event = sorted(tree.events)[0]
        scenarios = probability_sweep(event, [0.001, 0.05, 0.3])
        incremental = SweepExecutor(incremental=True).run(tree, scenarios)
        fresh = SweepExecutor(incremental=False).run(tree, scenarios)
        for a, b in zip(incremental.outcomes, fresh.outcomes):
            assert a.top_event == pytest.approx(b.top_event, rel=1e-12)
            assert a.mpmcs_events == b.mpmcs_events


def _count_bdd_compiles(monkeypatch):
    """Record every ``BDDManager.from_fault_tree`` call; returns the log."""
    from repro.bdd.manager import BDDManager

    compiled = []
    original = BDDManager.from_fault_tree

    def counting(self, tree):
        compiled.append(tree.name)
        return original(self, tree)

    monkeypatch.setattr(BDDManager, "from_fault_tree", counting)
    return compiled


class TestOneCompilePerStructure:
    @pytest.mark.parametrize(
        "analyses", [("mpmcs", "top_event"), ("mpmcs",), ("top_event",)]
    )
    def test_bdd_sweep_compiles_one_diagram(self, monkeypatch, analyses):
        compiled = _count_bdd_compiles(monkeypatch)
        report = SweepExecutor(backend="bdd").run(
            fire_protection_system(),
            probability_sweep("x1", start=1e-3, stop=0.5, steps=20),
            analyses=analyses,
        )
        assert all(outcome.ok for outcome in report.outcomes)
        # Probability patches keep the structure, so the base tree's diagram
        # serves all 20 scenarios.
        assert len(compiled) == 1


class TestMPMCSIdentityChange:
    """The ``mpmcs_changed`` predicate: displacement AND appearance/disappearance."""

    def test_predicate_treats_one_sided_none_as_changed(self):
        from repro.scenarios import mpmcs_identity_changed

        # appearance: the base had no MPMCS, the scenario produced one
        assert mpmcs_identity_changed(None, ("x1", "x2"))
        # disappearance: the scenario lost its MPMCS entirely
        assert mpmcs_identity_changed(("x1", "x2"), None)
        # two absences are not a change
        assert not mpmcs_identity_changed(None, None)
        # the ordinary cases are unaffected
        assert not mpmcs_identity_changed(("x1", "x2"), ("x1", "x2"))
        assert mpmcs_identity_changed(("x1", "x2"), ("x5", "x6"))

    def test_remove_event_displacing_the_weakest_link_is_flagged(self):
        # Removing x1 kills the base MPMCS {x1, x2}: the weakest-link role
        # moves to another cut set and the outcome must say so.
        report = SweepExecutor().run(
            fire_protection_system(), [Scenario("no-x1", [RemoveEvent("x1")])]
        )
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.mpmcs_events != report.base_mpmcs_events
        assert outcome.mpmcs_changed

    def test_remove_event_preserving_the_weakest_link_is_not_flagged(self):
        # x7 belongs to no dominant cut set: {x1, x2} stays the MPMCS.
        report = SweepExecutor().run(
            fire_protection_system(), [Scenario("no-x7", [RemoveEvent("x7")])]
        )
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.mpmcs_events == report.base_mpmcs_events
        assert not outcome.mpmcs_changed

    def test_sweep_without_mpmcs_analysis_reports_unchanged(self):
        # Neither side computes an MPMCS: two absences must not read as a
        # change (the pre-fix predicate got this right; keep it that way).
        report = SweepExecutor().run(
            fire_protection_system(),
            [Scenario("no-x7", [RemoveEvent("x7")])],
            analyses=("top_event",),
        )
        outcome = report.outcomes[0]
        assert outcome.ok
        assert report.base_mpmcs_events is None and outcome.mpmcs_events is None
        assert not outcome.mpmcs_changed
