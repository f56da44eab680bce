"""MaxSAT solves of sweeps and monitors go through the warm session's one path.

The certificate itself is proven in ``tests/maxsat/test_solve_batch``; here we
assert the plumbing: a ``maxsat`` sweep matches fresh per-scenario analysis,
a batched monitor update is certified from the candidate pool like a single
one, and the no-op kept for the benchmark tracer stays a no-op.
"""

from repro.api import AnalysisSession
from repro.core.pipeline import MODULE_RULE_ENGINE, ModuleOptima
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.monitoring import SyntheticFeed, TreeMonitor
from repro.scenarios import SweepExecutor, probability_sweep
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import data_center_power, fire_protection_system


class TestSweepRouting:
    def test_non_warm_backend_opts_out(self):
        tree = fire_protection_system()
        for backend in ("mocus", "maxsat"):
            assert SweepExecutor(backend=backend).precompute_rerank([tree]) == 0

    def test_maxsat_sweep_matches_fresh_analysis(self):
        tree = random_fault_tree(num_basic_events=18, seed=9)
        event = sorted(tree.events_reachable_from_top())[0]
        scenarios = probability_sweep(event, start=1e-4, stop=0.5, steps=15)

        report = SweepExecutor(backend="maxsat").run(tree, scenarios)

        assert len(report.outcomes) == len(scenarios)
        for scenario, outcome in zip(scenarios, report.outcomes):
            patched = scenario.apply(tree)
            fresh = AnalysisSession().analyze(patched, ["mpmcs"], backend="maxsat")
            exact = AnalysisSession().analyze(patched, ["top_event"], backend="bdd")
            assert outcome.error is None
            assert outcome.mpmcs_events == fresh.mpmcs.events
            assert outcome.mpmcs_probability == fresh.mpmcs.probability
            assert outcome.top_event == exact.top_event.best_estimate


class TestMonitorRouting:
    def test_apply_batch_solves_are_certified_from_the_pool(self):
        # A tree with shared nodes: some module needs a search, so updates go
        # to the incremental session.
        tree = data_center_power()
        updates = list(SyntheticFeed(tree, updates=10, seed=5))
        monitor = TreeMonitor(tree, backend="maxsat")
        monitor.apply_batch(updates)
        (session,) = monitor.executor.session.backend("maxsat")._warm_sessions.values()
        assert isinstance(session, IncrementalMaxSATSession)
        assert session.rerank_stats["certified"] > 0
        assert session.rerank_stats["pooled"] == session.rerank_stats["bnb"] == 0

    def test_modular_tree_updates_keep_module_optima(self):
        """Fig. 1 has no shared node: every update re-solves only the modules
        above the events it changed, by rule, and matches a fresh analysis."""
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat", include_reports=True)
        monitor.ensure_base()
        for update in SyntheticFeed(tree, updates=10, seed=5):
            delta = monitor.apply_update(update)
            fresh = AnalysisSession().analyze(delta.report.tree, ["mpmcs"], backend="maxsat")
            assert delta.mpmcs_events == fresh.mpmcs.events
            assert delta.report.mpmcs.engine == MODULE_RULE_ENGINE
        (optima,) = monitor.executor.session.backend("maxsat")._warm_sessions.values()
        assert isinstance(optima, ModuleOptima)
