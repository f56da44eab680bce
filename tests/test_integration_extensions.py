"""Cross-subsystem integration tests for the extension packages.

These tests wire several of the newer subsystems together the way the
examples do — reliability models feeding the MaxSAT pipeline, uncertainty
propagation on library trees, dynamic trees flowing through the static
approximation into top-k ranking and reporting — to catch interface drift
between packages that the per-module unit tests cannot see.
"""

import pytest

from repro.analysis.contributions import cut_set_contributions, mpmcs_dominance
from repro.analysis.modules import find_modules
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.analysis.truncation import truncated_cut_sets
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.fta.dynamic import DynamicFaultTree
from repro.fta.simulation import simulate_dft
from repro.maxsat import RC2Engine
from repro.numerics import HAVE_NUMPY
from repro.reliability import (
    ExponentialFailure,
    ReliabilityAssignment,
    mpmcs_over_time,
    top_event_curve,
)
from repro.reporting.html import html_report
from repro.reporting.markdown import markdown_report
from repro.uncertainty import LognormalUncertainty, propagate_uncertainty
from repro.workloads.library import (
    emergency_shutdown_system,
    fire_protection_system,
    get_tree,
)


class TestReliabilityPipelineIntegration:
    def test_frozen_trees_flow_through_every_analysis(self):
        assignment = ReliabilityAssignment(
            fire_protection_system(),
            {"x1": ExponentialFailure(2e-4), "x2": ExponentialFailure(1e-4)},
        )
        frozen = assignment.tree_at(5000.0)
        result = MPMCSSolver(single_engine=RC2Engine()).solve(frozen)
        collection = mocus_minimal_cut_sets(frozen)
        reference_events, reference_probability = collection.most_probable()
        assert set(result.events) == set(reference_events)
        assert result.probability == pytest.approx(reference_probability, rel=1e-9)

    def test_curve_final_point_matches_direct_solve(self):
        assignment = ReliabilityAssignment(
            fire_protection_system(), {"x6": ExponentialFailure(5e-4)}
        )
        times = (10.0, 1000.0, 10000.0)
        curve = top_event_curve(assignment, times, method="exact")
        samples = mpmcs_over_time(
            assignment, times, solver=MPMCSSolver(single_engine=RC2Engine())
        )
        # The MPMCS probability can never exceed the top-event probability.
        for sample, point in zip(samples, curve.points):
            assert sample.probability <= point.value + 1e-12


class TestUncertaintyIntegration:
    pytestmark = pytest.mark.skipif(
        not HAVE_NUMPY, reason="requires numpy (absent or disabled via REPRO_NO_NUMPY=1)"
    )

    @pytest.mark.parametrize("tree_name", ["fps", "emergency-shutdown", "data-center-power"])
    def test_point_estimate_mpmcs_matches_maxsat(self, tree_name):
        tree = get_tree(tree_name)
        maxsat = MPMCSSolver(single_engine=RC2Engine()).solve(tree)
        result = propagate_uncertainty(tree, {}, num_samples=100, seed=1)
        assert result.point_estimate_mpmcs == maxsat.events

    def test_wide_uncertainty_still_brackets_the_point_estimate(self):
        tree = emergency_shutdown_system()
        spec = {
            name: LognormalUncertainty(median=probability, error_factor=5.0)
            for name, probability in tree.probabilities().items()
        }
        result = propagate_uncertainty(tree, spec, num_samples=400, seed=3)
        maxsat = MPMCSSolver(single_engine=RC2Engine()).solve(tree)
        low = result.mpmcs_probability.percentiles[5.0]
        high = result.mpmcs_probability.percentiles[95.0]
        assert low <= maxsat.probability <= high


class TestDynamicTreeIntegration:
    def build_dft(self):
        dft = DynamicFaultTree("integration-dft", top_event="top")
        dft.add_event("primary", 3e-4)
        dft.add_event("standby", 3e-4)
        dft.add_event("bus", 5e-5)
        dft.add_event("ctrl_a", 1e-4)
        dft.add_event("ctrl_b", 1e-4)
        dft.add_dynamic_gate("supply", "spare", ["primary", "standby"], dormancy=0.0)
        dft.add_dynamic_gate("dep", "fdep", ["bus", "ctrl_a", "ctrl_b"])
        dft.add_gate("control", "and", ["ctrl_a", "ctrl_b"])
        dft.add_gate("top", "or", ["supply", "control"])
        return dft

    def test_static_tree_supports_topk_modules_truncation_and_reports(self):
        dft = self.build_dft()
        static = dft.to_static_tree(2000.0)
        solver = MPMCSSolver(single_engine=RC2Engine())
        result = solver.solve(static)

        ranking = enumerate_mpmcs(static, 3, solver=solver)
        assert ranking[0].events == result.events
        assert [entry.probability for entry in ranking] == sorted(
            (entry.probability for entry in ranking), reverse=True
        )

        modules = find_modules(static)
        assert any(module.gate == static.top_event for module in modules)

        truncated = truncated_cut_sets(static, result.probability / 2.0)
        assert frozenset(result.events) in set(truncated.collection)

        markdown = markdown_report(static, result, ranking=ranking)
        assert result.events[0] in markdown
        html = html_report(static, result)
        assert "<svg" in html

    @pytest.mark.skipif(
        not HAVE_NUMPY, reason="requires numpy (absent or disabled via REPRO_NO_NUMPY=1)"
    )
    def test_simulation_bounded_by_static_contributions(self):
        dft = self.build_dft()
        static = dft.to_static_tree(2000.0)
        collection = mocus_minimal_cut_sets(static)
        dominance = mpmcs_dominance(collection)
        assert 0.0 < dominance <= 1.0
        contributions = cut_set_contributions(collection)
        assert contributions[0].cumulative_fraction == pytest.approx(dominance)

        simulated = simulate_dft(dft, 2000.0, num_samples=4000, seed=5)
        rare_event_total = sum(entry.probability for entry in contributions)
        assert simulated.unreliability <= rare_event_total + 5.0 * simulated.std_error + 1e-3
