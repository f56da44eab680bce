"""Incremental MaxSAT sweeps: warm weight-only re-solves and clause reuse.

Covers the tentpole acceptance criteria at test (not benchmark) scale:

* a ``maxsat``-backend sweep produces canonically identical results to fresh
  per-scenario cold analyses;
* probability/maintenance scenarios are weight-only re-solves — their hard
  clauses are never assembled again after the base analysis;
* a structure-changing patch (remove-event, add-redundancy, voting-k) is a
  new structure, whose hard clauses are assembled exactly once.
"""

import json

import pytest

from repro.api import AnalysisSession
from repro.api.report import AnalysisRequest
from repro.core.pipeline import MODULE_RULE_ENGINE
from repro.scenarios import (
    AddRedundancy,
    RemoveEvent,
    Scenario,
    SetProbability,
    SetVotingThreshold,
    SweepExecutor,
    probability_sweep,
)
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import (
    fire_protection_system,
    railway_level_crossing,
    three_motor_system,
)

from tests.conftest import searched_skeletons


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


class TestWarmSweepEquivalence:
    def test_probability_sweep_matches_cold_analyses(self):
        # Without shared nodes the warm route keeps each module's optimum;
        # with them it re-solves on the incremental session.
        for reuse, engine in ((0.0, MODULE_RULE_ENGINE), (0.2, "incremental-hitting-set")):
            tree = random_fault_tree(num_basic_events=30, seed=4, event_reuse=reuse)
            event = sorted(tree.events_reachable_from_top())[0]
            scenarios = probability_sweep(event, [0.001, 0.01, 0.1, 0.4, 0.9])
            trees = [scenario.apply(tree) for scenario in scenarios]

            warm_session = AnalysisSession()
            request = AnalysisRequest.create(["mpmcs"], backend="maxsat")
            for patched, warm in zip(trees, warm_session.run_batch(trees, request)):
                cold = AnalysisSession().analyze(patched, ["mpmcs"], backend="maxsat")
                assert _canonical(warm) == _canonical(cold)
                assert warm.profile["warm_solves"] == 1
                assert warm.mpmcs.engine == engine

    def test_sweep_executor_maxsat_backend_end_to_end(self):
        tree = fire_protection_system()
        scenarios = probability_sweep("x1", [0.05, 0.2, 0.5])
        executor = SweepExecutor(backend="maxsat")
        report = executor.run(tree, scenarios)
        assert len(report) == 3
        assert report.backend == "maxsat"
        # The default analyses include top_event, which the maxsat backend
        # cannot produce: the structure-keyed BDD fills it in.
        assert report.base_top_event is not None
        for outcome in report.outcomes:
            assert outcome.ok
            assert outcome.top_event is not None
            assert outcome.mpmcs_events is not None

    def test_maxsat_sweep_agrees_with_mocus_sweep(self):
        tree = fire_protection_system()
        scenarios = probability_sweep("x5", [0.01, 0.2, 0.6])
        maxsat_report = SweepExecutor(backend="maxsat").run(tree, scenarios)
        mocus_report = SweepExecutor(backend="mocus").run(tree, scenarios)
        for ours, theirs in zip(maxsat_report.outcomes, mocus_report.outcomes):
            assert ours.mpmcs_events == theirs.mpmcs_events
            assert ours.mpmcs_probability == pytest.approx(theirs.mpmcs_probability)
            assert ours.top_event == pytest.approx(theirs.top_event)

    def test_warm_opt_in_is_scoped_to_the_sweep(self):
        """One-off analyses on a shared session keep the cold route."""
        session = AnalysisSession()
        executor = SweepExecutor(session, backend="maxsat")
        backend = session.backend("maxsat")
        executor.run(fire_protection_system(), probability_sweep("x1", [0.1]))
        one_off = session.analyze(fire_protection_system(), ["mpmcs"], backend="maxsat")
        assert one_off.mpmcs.engine != "incremental-hitting-set"
        # The warm sessions themselves persist, so the next sweep starts warm.
        assert len(backend._warm_sessions) >= 1

    def test_unsupported_analysis_other_than_top_event_fails_loudly(self):
        from repro.exceptions import AnalysisError

        with pytest.raises(AnalysisError):
            SweepExecutor(backend="monte-carlo").run(
                fire_protection_system(), probability_sweep("x1", [0.1])
            )

    def test_incremental_flag_off_still_works(self):
        tree = fire_protection_system()
        scenarios = probability_sweep("x1", [0.1, 0.3])
        incremental = SweepExecutor(backend="maxsat", incremental=True).run(tree, scenarios)
        naive = SweepExecutor(backend="maxsat", incremental=False).run(tree, scenarios)
        # The reports differ only in the `incremental` configuration flag.
        first = dict(incremental.to_canonical_dict(), incremental=None)
        second = dict(naive.to_canonical_dict(), incremental=None)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestAssemblyAccounting:
    """Hard clauses are assembled once per structure (``tree.compiled().cnf``)."""

    @staticmethod
    def _warm_maxsat():
        """``mpmcs`` of one tree at a time through one session's warm route."""
        session = AnalysisSession()
        request = AnalysisRequest.create(["mpmcs"], backend="maxsat")

        def analyze(tree):
            (report,) = session.run_batch([tree], request)
            return report

        return analyze

    def test_probability_scenarios_assemble_nothing(self, assemblies):
        tree = random_fault_tree(num_basic_events=24, seed=9)
        event = sorted(tree.events_reachable_from_top())[0]
        analyze = self._warm_maxsat()
        analyze(tree)
        # Every module solves by rule and no whole-tree size is read.
        assert assemblies == []

        for probability in (0.002, 0.05, 0.7):
            # Weight-only perturbation: the structure is shared.
            patched = Scenario("p", [SetProbability(event, probability)]).apply(tree)
            analyze(patched)
            assert patched.compiled() is tree.compiled()
        assert assemblies == []

    def test_probability_scenarios_reuse_the_warm_session_clauses(
        self, assemblies, skeleton_assemblies
    ):
        # Shared events: each skeleton that needs a search gets a warm
        # session, which loads that skeleton's clauses once; the whole-tree
        # clauses are never assembled.
        tree = three_motor_system()
        analyze = self._warm_maxsat()
        analyze(tree)
        searched = searched_skeletons(tree)
        assert searched and skeleton_assemblies == searched
        for probability in (0.002, 0.05, 0.7):
            patched = Scenario("p", [SetProbability("motor_1", probability)]).apply(tree)
            analyze(patched)
            assert patched.compiled() is tree.compiled()
        assert skeleton_assemblies == searched
        assert assemblies == []

    def test_maintenance_sweep_is_weight_only(self, assemblies):
        """Repair-rate scenarios never change structure, and Fig. 1 solves
        module by module, by rule: no hard clauses are assembled at all."""
        from repro.reliability import ReliabilityAssignment, RepairableComponent
        from repro.scenarios import repair_rate_sweep

        tree = fire_protection_system()
        assignment = ReliabilityAssignment(
            tree, {"x1": RepairableComponent(failure_rate=1e-4, repair_rate=0.1)}
        )
        scenarios = repair_rate_sweep(
            assignment, "x1", [0.01, 0.05, 0.1, 0.5], mission_time=1000.0
        )
        base = assignment.tree_at(1000.0)
        session = AnalysisSession()
        report = SweepExecutor(session, backend="maxsat").run(base, scenarios)
        assert all(outcome.ok for outcome in report.outcomes)
        assert assemblies == []

    @pytest.mark.parametrize(
        "make_patch",
        [
            lambda tree: RemoveEvent(sorted(tree.events_reachable_from_top())[0]),
            lambda tree: AddRedundancy(sorted(tree.events_reachable_from_top())[0]),
        ],
        ids=["remove-event", "add-redundancy"],
    )
    def test_structural_patch_assembles_once(self, make_patch, assemblies, skeleton_assemblies):
        # Shared events: the warm sessions, not the module rules, solve it.
        tree = random_fault_tree(num_basic_events=24, seed=9, event_reuse=0.2)
        analyze = self._warm_maxsat()
        analyze(tree)

        patched = Scenario("structural", [make_patch(tree)]).apply(tree)
        report = analyze(patched)
        analyze(patched)

        assert report.profile["warm_solves"] == 1
        assert searched_skeletons(patched)
        assert skeleton_assemblies == searched_skeletons(tree) + searched_skeletons(patched)
        assert assemblies == []

    def test_voting_threshold_patch_assembles_once(self, assemblies, skeleton_assemblies):
        # Shared events: the warm sessions, not the module rules, solve it.
        tree = railway_level_crossing()
        voting_gates = [
            name
            for name, gate in tree.gates.items()
            if gate.gate_type.value == "voting"
        ]
        assert voting_gates, "library voting tree must contain a voting gate"
        analyze = self._warm_maxsat()
        analyze(tree)

        gate = tree.gates[voting_gates[0]]
        patched = Scenario(
            "voting-k", [SetVotingThreshold(gate.name, (gate.k or 2) + 1)]
        ).apply(tree)
        analyze(patched)
        analyze(patched)

        assert patched.compiled() is not tree.compiled()
        assert searched_skeletons(patched)
        assert skeleton_assemblies == searched_skeletons(tree) + searched_skeletons(patched)
        assert assemblies == []
