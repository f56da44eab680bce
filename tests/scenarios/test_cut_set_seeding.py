"""Whole-tree cut sets are seeded only for backends that read them.

``SweepExecutor`` pre-fills the session cache's cut-set artifact from the
subtree cache before each scenario — but only when a requested analysis is
routed to a backend that declares it in ``CUT_SET_ANALYSES``.  The MaxSAT
backend never reads the artifact, so maxsat sweeps and monitors never
enumerate minimal cut sets; this lets them answer trees whose cut-set
enumeration exceeds the incremental guard.
"""

import pytest

from repro.api import AnalysisSession
from repro.api.cache import ARTIFACT_CUT_SETS, ARTIFACT_SUBTREE_CUT_SETS
from repro.api.registry import backend_class
from repro.exceptions import AnalysisError
from repro.monitoring import ProbabilityUpdate, TreeMonitor
from repro.scenarios import SweepExecutor, probability_sweep
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system

CUT_SET_KINDS = (ARTIFACT_CUT_SETS, ARTIFACT_SUBTREE_CUT_SETS)


@pytest.fixture(scope="module")
def entangled_tree():
    """A voting-heavy tree whose cut-set composition trips the
    ``MAX_INTERMEDIATE_PRODUCTS`` guard of the incremental enumerator."""
    return random_fault_tree(num_basic_events=80, seed=5, voting_ratio=0.05)


def _bdd_report(tree):
    return AnalysisSession().analyze(tree, ["mpmcs", "top_event"], backend="bdd")


def _bdd_answers(tree):
    report = _bdd_report(tree)
    return report.mpmcs.probability, report.top_event.exact


def _cut_set_kinds(session):
    return set(CUT_SET_KINDS) & set(session.cache_info()["by_kind"])


class TestDeclaration:
    @pytest.mark.parametrize(
        "backend, expected",
        [
            ("mocus", {"mcs", "mpmcs", "ranking", "top_event", "importance"}),
            ("brute-force", {"mcs", "mpmcs", "ranking", "top_event", "importance"}),
            ("bdd", {"mcs", "ranking"}),
            ("maxsat", set()),
            ("monte-carlo", set()),
        ],
    )
    def test_backends_declare_the_analyses_that_read_cut_sets(self, backend, expected):
        declared = backend_class(backend).CUT_SET_ANALYSES
        assert declared == frozenset(expected)
        assert declared <= backend_class(backend).capabilities()


class TestEntangledTree:
    def test_maxsat_sweep_answers_every_scenario(self, entangled_tree):
        # Perturb the base MPMCS so the optimum moves between scenarios.
        events = _bdd_report(entangled_tree).mpmcs.events[:2]
        scenarios = [
            scenario
            for event in events
            for scenario in probability_sweep(event, [1e-4, 0.3])
        ]
        report = SweepExecutor(backend="maxsat").run(entangled_tree, scenarios)
        assert report.failures == []
        assert len(report.outcomes) == len(scenarios)
        for scenario, outcome in zip(scenarios, report.outcomes):
            mpmcs, ptop = _bdd_answers(scenario.apply(entangled_tree))
            assert outcome.mpmcs_probability == pytest.approx(mpmcs, rel=1e-9)
            assert outcome.top_event == pytest.approx(ptop, rel=1e-9)

    def test_maxsat_monitor_answers_every_update(self, entangled_tree):
        events = _bdd_report(entangled_tree).mpmcs.events[:3]
        monitor = TreeMonitor(entangled_tree, backend="maxsat")
        patched = entangled_tree.copy()
        for seq, event in enumerate(events, start=1):
            delta = monitor.apply_update(ProbabilityUpdate.create({event: 0.2}, seq=seq))
            patched.set_probability(event, 0.2)
            mpmcs, ptop = _bdd_answers(patched)
            assert delta.mpmcs_probability == pytest.approx(mpmcs, rel=1e-9)
            assert delta.ptop == pytest.approx(ptop, rel=1e-9)

    def test_mocus_sweep_still_reports_the_guard(self, entangled_tree):
        event = sorted(entangled_tree.event_names)[0]
        with pytest.raises(AnalysisError, match="intermediate products"):
            SweepExecutor(backend="mocus").run(
                entangled_tree, probability_sweep(event, [0.01])
            )


class TestSeedingFollowsDemand:
    def test_maxsat_sweep_creates_no_cut_set_artifacts(self):
        executor = SweepExecutor(backend="maxsat")
        executor.run(fire_protection_system(), probability_sweep("x1", [0.01, 0.4]))
        assert _cut_set_kinds(executor.session) == set()

    def test_maxsat_monitor_creates_no_cut_set_artifacts(self):
        monitor = TreeMonitor(fire_protection_system(), backend="maxsat")
        monitor.apply_update(ProbabilityUpdate.create({"x1": 0.001}, seq=1))
        monitor.apply_update(ProbabilityUpdate.create({"x2": 0.3}, seq=2))
        assert _cut_set_kinds(monitor.executor.session) == set()

    @pytest.mark.parametrize(
        "backend, analyses",
        [
            ("mocus", ("mpmcs", "top_event")),
            ("brute-force", ("mpmcs",)),
            ("bdd", ("mcs",)),
            ("bdd", ("ranking",)),
            ("auto", ("top_event",)),
            ("auto", ("mpmcs", "importance")),
        ],
    )
    def test_cut_set_backends_still_seed(self, backend, analyses):
        report = SweepExecutor(backend=backend).run(
            fire_protection_system(),
            probability_sweep("x1", [0.01, 0.4]),
            analyses=analyses,
        )
        assert report.failures == []
        assert report.subtree_reuse["hits"] > 0

    @pytest.mark.parametrize(
        "backend, analyses",
        [
            ("bdd", ("mpmcs", "top_event")),
            ("auto", ("mpmcs",)),
            ("monte-carlo", ("top_event",)),
        ],
    )
    def test_analyses_that_skip_the_artifact_do_not_seed(self, backend, analyses):
        executor = SweepExecutor(backend=backend)
        report = executor.run(
            fire_protection_system(),
            probability_sweep("x1", [0.01, 0.4]),
            analyses=analyses,
        )
        assert report.failures == []
        assert ARTIFACT_SUBTREE_CUT_SETS not in executor.session.cache_info()["by_kind"]

    @pytest.mark.parametrize("backend", ["mocus", "bdd", "auto"])
    def test_naive_path_never_seeds(self, backend):
        report = SweepExecutor(backend=backend, incremental=False).run(
            fire_protection_system(),
            probability_sweep("x1", [0.01, 0.4]),
            analyses=("mcs", "mpmcs", "top_event"),
        )
        assert report.failures == []
        assert report.subtree_reuse == {"hits": 0, "misses": 0}

    def test_unseeded_maxsat_sweep_matches_the_seeded_mocus_sweep(self):
        tree = fire_protection_system()
        scenarios = probability_sweep("x1", [0.001, 0.01, 0.4])
        maxsat = SweepExecutor(backend="maxsat").run(tree, scenarios)
        mocus = SweepExecutor(backend="mocus").run(tree, scenarios)
        assert maxsat.subtree_reuse == {"hits": 0, "misses": 0}
        assert mocus.subtree_reuse["hits"] > 0
        for left, right in zip(maxsat.outcomes, mocus.outcomes):
            assert left.mpmcs_events == right.mpmcs_events
            assert left.mpmcs_probability == pytest.approx(right.mpmcs_probability)
            assert left.top_event == pytest.approx(right.top_event)
