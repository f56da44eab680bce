"""The kernel dispatch seam: tier selection and error paths."""

import pytest

from repro import kernels
from repro.exceptions import ConfigurationError
from repro.numerics import HAVE_NUMPY


class TestAvailableTiers:
    def test_stdlib_tiers_always_available(self):
        assert "python" in kernels.available_tiers()

    def test_numpy_tier_tracks_numpy_availability(self):
        assert ("numpy" in kernels.available_tiers()) == HAVE_NUMPY

    def test_fastest_first_ordering(self, monkeypatch):
        expected = ("numpy", "python") if HAVE_NUMPY else ("python",)
        assert kernels.available_tiers() == expected
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        assert kernels.available_tiers() == ("python",)


class TestSelect:
    def test_auto_and_none_pick_the_best_available(self):
        best = kernels.available_tiers()[0]
        assert kernels.select(None).name == best
        assert kernels.select("auto").name == best

    @pytest.mark.parametrize("tier", ["python"])
    def test_explicit_stdlib_tiers(self, tier):
        suite = kernels.select(tier)
        assert suite.name == tier
        assert callable(suite.eval_bdd_batch)

    def test_unknown_tier_is_a_configuration_error(self):
        for tier in ("cuda", "array"):
            with pytest.raises(ConfigurationError, match="unknown kernel tier"):
                kernels.select(tier)

    def test_numpy_without_numpy_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match="numpy is unavailable"):
            kernels.select("numpy")

    @pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")
    def test_numpy_tier_when_available(self):
        assert kernels.select("numpy").name == "numpy"


class TestSessionSurface:
    def test_session_records_kernel_in_profile(self, fps_tree):
        from repro.api import AnalysisSession

        session = AnalysisSession(kernel_tier="python")
        assert session.kernels.name == "python"
        report = session.analyze(fps_tree, ["mpmcs"], backend="maxsat")
        assert report.profile["kernel"] == "python"

    def test_kernel_name_stays_out_of_canonical_reports(self, fps_tree):
        from repro.api import AnalysisSession

        documents = []
        for tier in kernels.available_tiers():
            report = AnalysisSession(kernel_tier=tier).analyze(
                fps_tree, ["mpmcs"], backend="maxsat"
            )
            assert report.profile["kernel"] == tier
            documents.append(report.to_canonical_dict())
        assert all(document == documents[0] for document in documents)

    def test_session_rejects_unknown_tier(self):
        from repro.api import AnalysisSession

        with pytest.raises(ConfigurationError):
            AnalysisSession(kernel_tier="fortran")
