"""``repro.api`` — the unified analysis facade.

One front door for every fault-tree analysis the library implements:

* a **backend registry** (:mod:`repro.api.registry`) where each resolution
  strategy — the paper's MaxSAT pipeline and the classical MOCUS / BDD /
  brute-force / Monte-Carlo baselines — plugs in behind a common
  :class:`AnalysisBackend` protocol;
* an **:class:`AnalysisSession`** (:mod:`repro.api.session`) that routes
  requests to backends and memoises expensive intermediates (minimal cut
  sets, compiled BDDs) in a shared :class:`ArtifactCache`;
* a **batch layer** (:mod:`repro.api.batch`) fanning many trees out over a
  process pool;
* one **:class:`AnalysisReport`** result type consumed uniformly by the
  :mod:`repro.reporting` renderers.

Quickstart:

.. code-block:: python

    from repro.api import AnalysisSession, analyze_many
    from repro.workloads.library import fire_protection_system

    session = AnalysisSession()
    report = session.analyze(
        fire_protection_system(), analyses=["mpmcs", "top_event", "importance"]
    )
    assert report.mpmcs.events == ("x1", "x2")

    # same answer through any registered backend
    for name in ("maxsat", "mocus", "bdd", "brute-force"):
        assert session.analyze(
            fire_protection_system(), ["mpmcs"], backend=name
        ).mpmcs.events == ("x1", "x2")
"""

from repro.api.batch import BatchItem, BatchResult, analyze_many
from repro.api.cache import (
    ARTIFACT_BDD,
    ARTIFACT_CUT_SETS,
    ARTIFACT_SUBTREE_CUT_SETS,
    ArtifactCache,
    subtree_structure_hashes,
)
from repro.api.registry import (
    AnalysisBackend,
    BackendContext,
    available_backends,
    backend_capabilities,
    backend_class,
    backends_supporting,
    canonical_backend_name,
    create_backend,
    register_backend,
)
from repro.api.report import (
    ANALYSES,
    AnalysisReport,
    AnalysisRequest,
    MPMCSSummary,
    TopEventSummary,
)
from repro.api.session import DEFAULT_ROUTES, AnalysisSession

# Importing the backends module registers the built-in strategies.
from repro.api import backends as _backends  # noqa: F401

__all__ = [
    "ANALYSES",
    "ARTIFACT_BDD",
    "ARTIFACT_CUT_SETS",
    "ARTIFACT_SUBTREE_CUT_SETS",
    "AnalysisBackend",
    "AnalysisReport",
    "AnalysisRequest",
    "AnalysisSession",
    "ArtifactCache",
    "BackendContext",
    "BatchItem",
    "BatchResult",
    "DEFAULT_ROUTES",
    "MPMCSSummary",
    "TopEventSummary",
    "analyze_many",
    "available_backends",
    "backend_capabilities",
    "backend_class",
    "backends_supporting",
    "canonical_backend_name",
    "create_backend",
    "register_backend",
    "subtree_structure_hashes",
]
