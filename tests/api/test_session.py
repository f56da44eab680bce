"""Cross-backend agreement and artifact-cache tests for `AnalysisSession`.

The agreement suite asserts that every registered backend returns the paper's
Fig. 1 answer — MPMCS ``("x1", "x2")`` with joint probability 0.02 — through
the same ``AnalysisSession.analyze`` front door, and the cache tests prove
that composite requests compute the minimal cut sets and the BDD once per
session, and the MaxSAT hard clauses once per structure.
"""

import pytest

import repro.api.backends as backends_module
from repro.api import AnalysisSession, available_backends, backend_capabilities
from repro.api.cache import ARTIFACT_CUT_SETS
from repro.core import encoder as encoder_module
from repro.exceptions import AnalysisError
from repro.fta.builder import FaultTreeBuilder
from repro.workloads.library import fire_protection_system, redundant_power_supply

MPMCS_BACKENDS = sorted(
    name for name, caps in backend_capabilities().items() if "mpmcs" in caps
)


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("backend", MPMCS_BACKENDS)
    def test_fig1_mpmcs_through_every_backend(self, backend):
        report = AnalysisSession().analyze(
            fire_protection_system(), ["mpmcs"], backend=backend
        )
        assert report.mpmcs.events == ("x1", "x2")
        assert report.mpmcs.probability == pytest.approx(0.02)
        assert report.backends["mpmcs"] == backend

    @pytest.mark.parametrize("backend", MPMCS_BACKENDS)
    def test_voting_gate_tree_agreement(self, backend):
        expected = AnalysisSession().analyze(
            redundant_power_supply(), ["mpmcs"], backend="brute-force"
        )
        report = AnalysisSession().analyze(
            redundant_power_supply(), ["mpmcs"], backend=backend
        )
        assert report.mpmcs.events == expected.mpmcs.events
        assert report.mpmcs.probability == pytest.approx(expected.mpmcs.probability)

    @pytest.mark.parametrize(
        "backend", sorted(n for n, c in backend_capabilities().items() if "mcs" in c)
    )
    def test_cut_set_backends_agree_on_collection(self, backend):
        report = AnalysisSession().analyze(
            fire_protection_system(), ["mcs"], backend=backend
        )
        assert report.cut_sets.to_sorted_tuples() == [
            ("x3",),
            ("x4",),
            ("x1", "x2"),
            ("x5", "x6"),
            ("x5", "x7"),
        ]

    def test_tied_optima_are_canonicalised_across_backends(self):
        # Two cut sets share the maximum probability (0.1 * 0.1 == 0.01); the
        # canonical tie-break (size, then lexicographic order) must make every
        # backend return the same one.
        tree = (
            FaultTreeBuilder("tied")
            .basic_event("a", 0.1)
            .basic_event("b", 0.1)
            .basic_event("c", 0.1)
            .basic_event("d", 0.1)
            .and_gate("left", ["a", "b"])
            .and_gate("right", ["c", "d"])
            .or_gate("top", ["left", "right"])
            .top("top")
            .build()
        )
        answers = {
            backend: AnalysisSession()
            .analyze(tree, ["mpmcs"], backend=backend)
            .mpmcs.events
            for backend in MPMCS_BACKENDS
        }
        assert set(answers.values()) == {("a", "b")}, answers


class TestCompositeRequests:
    def test_acceptance_composite_matches_fig1(self):
        """The ISSUE's acceptance request: one report, paper Fig. 1 values."""
        session = AnalysisSession()
        report = session.analyze(
            fire_protection_system(), analyses=["mpmcs", "top_event", "importance"]
        )
        assert report.mpmcs.events == ("x1", "x2")
        assert report.mpmcs.probability == pytest.approx(0.02)
        assert report.top_event.exact == pytest.approx(0.0300217392, abs=1e-9)
        assert set(report.importance) == {"x1", "x2", "x3", "x4", "x5", "x6", "x7"}
        assert report.importance["x3"].fussell_vesely == pytest.approx(
            0.001 / report.top_event.min_cut_upper_bound, rel=1e-6
        )
        assert set(report.backends) == {"mpmcs", "top_event", "importance"}
        assert len(available_backends()) >= 5

    def test_unknown_analysis_rejected(self):
        with pytest.raises(AnalysisError, match="unknown analysis"):
            AnalysisSession().analyze(fire_protection_system(), ["nonsense"])

    def test_explicit_backend_must_support_all_analyses(self):
        with pytest.raises(AnalysisError, match="does not support"):
            AnalysisSession().analyze(
                fire_protection_system(), ["mpmcs", "modules"], backend="maxsat"
            )

    def test_analysis_aliases_accepted(self):
        report = AnalysisSession().analyze(
            fire_protection_system(), ["topevent", "cut-sets", "truncate"]
        )
        assert report.top_event is not None
        assert report.cut_sets is not None
        assert report.truncation is not None

    def test_monte_carlo_joins_top_event_when_samples_requested(self):
        report = AnalysisSession().analyze(
            fire_protection_system(), ["top_event"], samples=4000, seed=3
        )
        assert report.top_event.monte_carlo is not None
        assert report.top_event.monte_carlo.within(report.top_event.exact)
        assert "monte-carlo" in report.backends["top_event"]

    def test_report_to_dict_is_json_serialisable(self):
        import json

        report = AnalysisSession().analyze(
            fire_protection_system(),
            ["mpmcs", "ranking", "mcs", "top_event", "importance", "spof", "modules"],
        )
        document = json.loads(json.dumps(report.to_dict()))
        assert document["mpmcs"]["events"] == ["x1", "x2"]
        assert document["cut_sets"][0]["events"] == ["x1", "x2"]


class TestDegradedProviders:
    def test_auxiliary_mocus_failure_degrades_instead_of_raising(self, monkeypatch):
        """Auto-routed top_event must survive a MOCUS blow-up when the BDD
        backend already produced the exact probability."""

        def exploding(tree, **kwargs):
            raise AnalysisError("MOCUS exceeded the candidate limit (simulated)")

        monkeypatch.setattr(backends_module, "mocus_minimal_cut_sets", exploding)
        report = AnalysisSession().analyze(fire_protection_system(), ["top_event"])
        assert report.top_event.exact == pytest.approx(0.0300217392, abs=1e-9)
        assert report.top_event.rare_event_bound is None  # the degraded part
        assert report.warnings and "mocus" in report.warnings[0]

    def test_sole_provider_failure_still_raises(self, monkeypatch):
        def exploding(tree, **kwargs):
            raise AnalysisError("MOCUS exceeded the candidate limit (simulated)")

        monkeypatch.setattr(backends_module, "mocus_minimal_cut_sets", exploding)
        with pytest.raises(AnalysisError, match="candidate limit"):
            # importance has no other auto provider than mocus here
            AnalysisSession().analyze(fire_protection_system(), ["top_event", "importance"])


class TestSolveBudget:
    def test_composite_mpmcs_and_ranking_share_one_enumeration(self, monkeypatch):
        from repro.core.pipeline import MPMCSSolver

        calls = []
        for method in ("solve", "solve_encoding"):
            real = getattr(MPMCSSolver, method)

            def counting(self, tree, *args, method=method, real=real):
                calls.append(method)
                return real(self, tree, *args)

            monkeypatch.setattr(MPMCSSolver, method, counting)
        report = AnalysisSession().analyze(
            fire_protection_system(), ["mpmcs", "ranking"], top_k=3
        )
        # 3 ranked entries take 3 solves (the objective is the canonical
        # order, so no solve proves the ranking): the first is the modular
        # MPMCS, the others blocked whole-tree solves.  The MPMCS falls out of
        # the same enumeration for free.
        assert calls == ["solve", "solve_encoding", "solve_encoding"]
        assert report.mpmcs.events == report.ranking[0].events == ("x1", "x2")
        assert [entry.events for entry in report.ranking] == [
            ("x1", "x2"),
            ("x5", "x6"),
            ("x5", "x7"),
        ]

    def test_ranking_blocks_extend_one_working_copy(self, monkeypatch):
        from repro.core.pipeline import MPMCSSolver

        seen = []
        real = MPMCSSolver.solve_encoding

        def recording(self, tree, encoding):
            seen.append((encoding.instance, encoding.instance.num_hard))
            return real(self, tree, encoding)

        monkeypatch.setattr(MPMCSSolver, "solve_encoding", recording)
        tree = fire_protection_system()
        AnalysisSession().analyze(tree, ["ranking"], top_k=4)
        memo = tree.compiled().cnf
        base = memo.instance.num_hard
        # The first optimum comes from the modules; the analysis then owns
        # one whole-tree encoding: the three blocked solves all use it, each
        # after one more blocking clause.  The structure's memoised clauses
        # are never extended, so a new encoding of the same structure starts
        # from them again.
        assert len({id(instance) for instance, _ in seen}) == 1
        assert seen[0][0] is not memo.instance
        assert [hard for _, hard in seen] == [base + 1, base + 2, base + 3]
        assert memo.instance.num_hard == base
        assert encoder_module.encode_mpmcs(tree).instance.num_hard == base


class TestArtifactReuse:
    def test_cnf_encoding_computed_once_per_session(self, monkeypatch):
        calls = []
        real = encoder_module.assemble_structure_cnf

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(encoder_module, "assemble_structure_cnf", counting)
        session = AnalysisSession()
        tree = fire_protection_system()
        # One composite request (mpmcs + top-k ranking) plus a repeat call:
        # the structure function is Tseitin-encoded exactly once.
        session.analyze(tree, ["mpmcs", "ranking"], top_k=3)
        session.analyze(tree, ["mpmcs"])
        assert len(calls) == 1

    def test_minimal_cut_sets_computed_once_per_session(self, monkeypatch):
        calls = []
        real = backends_module.mocus_minimal_cut_sets

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(backends_module, "mocus_minimal_cut_sets", counting)
        session = AnalysisSession()
        tree = fire_protection_system()
        # importance, the probability bounds and the explicit mcs listing all
        # derive from the same cut-set collection.
        session.analyze(tree, ["mcs", "top_event", "importance"])
        session.analyze(tree, ["importance"])
        assert len(calls) == 1
        assert session.artifacts.hits_for(ARTIFACT_CUT_SETS) >= 1
        assert session.artifacts.misses_for(ARTIFACT_CUT_SETS) == 1

    def test_bdd_artifact_shared_between_analyses(self):
        session = AnalysisSession()
        tree = fire_protection_system()
        session.analyze(tree, ["mpmcs", "top_event"], backend="bdd")
        session.analyze(tree, ["top_event"], backend="bdd")
        stats = session.cache_info()["by_kind"]["bdd"]
        assert stats["misses"] == 1
        assert stats["hits"] >= 1

    def test_fresh_sessions_do_not_share_artifacts(self):
        tree = fire_protection_system()
        first = AnalysisSession()
        first.analyze(tree, ["mcs"])
        second = AnalysisSession()
        second.analyze(tree, ["mcs"])
        assert second.artifacts.hits_for(ARTIFACT_CUT_SETS) == 0

    def test_shared_cache_across_sessions_when_injected(self):
        tree = fire_protection_system()
        first = AnalysisSession()
        first.analyze(tree, ["mcs"])
        second = AnalysisSession(cache=first.artifacts)
        second.analyze(tree, ["mcs"])
        assert second.artifacts.hits_for(ARTIFACT_CUT_SETS) >= 1

    def test_report_carries_cache_stats(self):
        session = AnalysisSession()
        session.analyze(fire_protection_system(), ["mcs"])
        report = session.analyze(fire_protection_system(), ["mcs", "importance"])
        assert report.cache_stats["misses"] >= 1
        assert report.cache_stats["hits"] >= 1


class TestSessionCacheControl:
    def test_invalidate_drops_tree_artifacts(self):
        session = AnalysisSession()
        tree = fire_protection_system()
        session.analyze(tree, ["mpmcs", "top_event"])
        assert len(session.artifacts) > 0
        removed = session.invalidate(tree)
        assert removed > 0
        # the next analysis recomputes instead of hitting stale entries
        misses_before = session.artifacts.misses
        session.analyze(tree, ["top_event"])
        assert session.artifacts.misses > misses_before

    def test_invalidate_unknown_tree_is_a_noop(self):
        session = AnalysisSession()
        session.analyze(fire_protection_system(), ["top_event"])
        from repro.workloads.library import pressure_tank

        assert session.invalidate(pressure_tank()) == 0
        assert len(session.artifacts) > 0

    def test_clear_cache_resets_everything(self):
        session = AnalysisSession()
        session.analyze(fire_protection_system(), ["top_event"])
        assert len(session.artifacts) > 0
        session.clear_cache()
        assert len(session.artifacts) == 0
        assert session.cache_info()["hits"] == 0

    def test_in_place_mutation_is_detected_not_served_stale(self):
        session = AnalysisSession()
        tree = fire_protection_system()
        before = session.analyze(tree, ["mpmcs"]).mpmcs.probability
        tree.set_probability("x1", 0.5)
        after = session.analyze(tree, ["mpmcs"]).mpmcs.probability
        assert before == pytest.approx(0.02)
        assert after == pytest.approx(0.05)
