"""Incremental MaxSAT sweeps: warm weight-only re-solves and fragment reuse.

Covers the tentpole acceptance criteria at test (not benchmark) scale:

* a ``maxsat``-backend sweep produces canonically identical results to fresh
  per-scenario cold analyses;
* probability/maintenance scenarios are weight-only re-solves — no gate shape
  is encoded after the base analysis;
* structure-changing patches (remove-event, add-redundancy, voting-k) encode
  at most the gate shapes they introduce, asserted through the shape memo's
  ``cache_info()`` counters.
"""

import json

import pytest

from repro.api import AnalysisSession
from repro.api.report import AnalysisRequest
from repro.core.encoder import shape_fragment
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
from repro.workloads.library import fire_protection_system, redundant_power_supply

from tests.conftest import gate_shapes


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
        """One-off analyses on a shared session keep the cold portfolio."""
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


def _shapes_encoded():
    return shape_fragment.cache_info().misses


class TestFragmentMissAccounting:
    @pytest.fixture(autouse=True)
    def _empty_shape_memo(self):
        shape_fragment.cache_clear()

    @staticmethod
    def _warm_maxsat():
        """``mpmcs`` of one tree at a time through one session's warm route."""
        session = AnalysisSession()
        request = AnalysisRequest.create(["mpmcs"], backend="maxsat")

        def analyze(tree):
            (report,) = session.run_batch([tree], request)
            return report

        return analyze

    def test_probability_scenarios_add_zero_fragment_misses(self):
        tree = random_fault_tree(num_basic_events=24, seed=9)
        event = sorted(tree.events_reachable_from_top())[0]
        analyze = self._warm_maxsat()
        analyze(tree)
        base_misses = _shapes_encoded()
        assert base_misses == len(gate_shapes(tree))

        for probability in (0.002, 0.05, 0.7):
            # Weight-only perturbation: the structure hash is unchanged.
            patched = Scenario("p", [SetProbability(event, probability)]).apply(tree)
            analyze(patched)
        assert _shapes_encoded() == base_misses

    def test_maintenance_sweep_is_weight_only(self):
        """Repair-rate scenarios never change structure: no new shape."""
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
        assert _shapes_encoded() == len(gate_shapes(base))

    @pytest.mark.parametrize(
        "make_patch",
        [
            lambda tree: RemoveEvent(sorted(tree.events_reachable_from_top())[0]),
            lambda tree: AddRedundancy(sorted(tree.events_reachable_from_top())[0]),
        ],
        ids=["remove-event", "add-redundancy"],
    )
    def test_structural_patch_re_encodes_only_affected_fragments(self, make_patch):
        tree = random_fault_tree(num_basic_events=24, seed=9)
        analyze = self._warm_maxsat()
        analyze(tree)
        base_misses = _shapes_encoded()
        base_hits = shape_fragment.cache_info().hits

        patched = Scenario("structural", [make_patch(tree)]).apply(tree)
        report = analyze(patched)

        assert report.profile["warm_solves"] == 1
        # Only the shapes the patch introduced were encoded; every other gate
        # of the patched tree relocated a memoised fragment.
        new_shapes = gate_shapes(patched) - gate_shapes(tree)
        assert _shapes_encoded() - base_misses == len(new_shapes)
        assert shape_fragment.cache_info().hits - base_hits == len(patched.gates) - len(
            new_shapes
        )

    def test_voting_threshold_patch_re_encodes_affected_path(self):
        tree = redundant_power_supply()
        voting_gates = [
            name
            for name, gate in tree.gates.items()
            if gate.gate_type.value == "voting"
        ]
        assert voting_gates, "library voting tree must contain a voting gate"
        analyze = self._warm_maxsat()
        analyze(tree)
        base_misses = _shapes_encoded()

        gate = tree.gates[voting_gates[0]]
        patched = Scenario(
            "voting-k", [SetVotingThreshold(gate.name, (gate.k or 2) + 1)]
        ).apply(tree)
        analyze(patched)

        new_shapes = gate_shapes(patched) - gate_shapes(tree)
        assert new_shapes  # the new threshold is a shape the base never had
        assert _shapes_encoded() - base_misses == len(new_shapes)
