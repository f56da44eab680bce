"""repro — Maximum Probability Minimal Cut Sets for Fault Tree Analysis with MaxSAT.

A complete, self-contained Python reproduction of *"Fault Tree Analysis:
Identifying Maximum Probability Minimal Cut Sets with MaxSAT"* (Barrère &
Hankin, DSN 2020) and of the MPMCS4FTA tool it describes, including the SAT
and MaxSAT solvers the method relies on.

Quickstart
----------
The :class:`AnalysisSession` is the front door for every analysis.  One call
can combine several analyses; expensive intermediates (the minimal cut sets,
the compiled BDD) are cached per session and computed once, and the MaxSAT
encoding's hard clauses are encoded once per structure:

.. code-block:: python

    from repro import AnalysisSession, fire_protection_system

    session = AnalysisSession()
    report = session.analyze(
        fire_protection_system(),                  # the paper's Fig. 1 example
        analyses=["mpmcs", "top_event", "importance"],
    )
    print(report.mpmcs.events, report.mpmcs.probability)   # ('x1', 'x2') 0.02
    print(report.top_event.exact)                          # 0.0300217...
    print(session.cache_info())                            # artifact hits/misses

Many trees are analysed in one go with :func:`analyze_many`, which fans out
over a process pool:

.. code-block:: python

    from repro import analyze_many

    result = analyze_many(trees, analyses=["mpmcs"], workers=4)
    reports = result.reports                       # in input order

Choosing a backend
------------------
Every resolution strategy is a pluggable backend in a registry; pass
``backend=<name>`` to force one, or leave the default ``"auto"`` to route
each analysis to its preferred strategy:

``maxsat``
    The paper's six-step Weighted Partial MaxSAT pipeline — finds the MPMCS
    (and the top-k ranking) *without* enumerating all cut sets; the default
    for ``"mpmcs"`` and ``"ranking"``.
``mocus``
    Classical top-down MOCUS enumeration; the default for cut-set-derived
    analyses (``"mcs"``, ``"importance"``, ``"spof"``, ``"modules"``,
    ``"truncation"``) and exponential in the worst case.
``bdd``
    The ROBDD engine — exact top-event probability and a dynamic-programming
    MPMCS, both linear in the diagram size; the default for the exact part
    of ``"top_event"``.
``brute-force``
    Exhaustive ground truth for small trees (≈ 22 events), used by tests.
``monte-carlo``
    Sampling estimator of the top-event probability for models too large for
    exact methods (enabled under auto routing when ``samples > 0``).

``repro.api.register_backend`` adds new strategies;
``repro.api.available_backends()`` lists the registry (also:
``mpmcs4fta backends`` on the command line).  All backends break probability
ties identically (smallest cut set, then lexicographic), so their answers are
directly comparable.

The lower-level building blocks remain available — e.g.
``MPMCSSolver().solve(tree)`` runs the MaxSAT pipeline directly.

Package map
-----------
``repro.api``        The unified analysis facade: backend registry, sessions,
                     artifact cache, batch execution.
``repro.logic``      Boolean formulas, the AND/OR/k-of-n Tseitin clause
                     generators, DIMACS I/O.
``repro.sat``        The CDCL SAT solver with assumptions/cores.
``repro.maxsat``     Weighted Partial MaxSAT engines and the incremental session.
``repro.fta``        Fault-tree model, builder, Galileo/JSON parsers.
``repro.core``       The six-step MPMCS pipeline (hard clauses assembled gate by
                     gate), modular solving and top-k enumeration.
``repro.analysis``   Classical baselines: MOCUS, brute force, importance measures,
                     modules, truncation, cut-set contributions.
``repro.bdd``        ROBDD engine and BDD-based cut-set/probability analysis.
``repro.markov``     Continuous-time Markov chain substrate (uniformization).
``repro.reliability`` Time-dependent failure models and mission-time curves.
``repro.uncertainty`` Epistemic uncertainty propagation and importance.
``repro.workloads``  Canonical example trees and the random tree generator.
``repro.reporting``  JSON (Fig. 2 style), DOT, ASCII, Markdown and HTML reports.
"""

from repro.api.batch import BatchItem, BatchResult, analyze_many
from repro.api.cache import ArtifactCache
from repro.api.registry import (
    AnalysisBackend,
    available_backends,
    backend_capabilities,
    register_backend,
)
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.api.session import AnalysisSession
from repro.core.pipeline import MPMCSResult, MPMCSSolver, find_mpmcs
from repro.core.topk import RankedCutSet, enumerate_mpmcs
from repro.fta.builder import FaultTreeBuilder
from repro.fta.dynamic import DynamicFaultTree
from repro.fta.events import BasicEvent
from repro.fta.gates import Gate, GateType
from repro.fta.simulation import simulate_dft
from repro.fta.tree import FaultTree
from repro.reliability.assignment import ReliabilityAssignment
from repro.uncertainty.propagation import propagate_uncertainty
from repro.workloads.generator import GeneratorConfig, random_fault_tree
from repro.workloads.library import fire_protection_system, get_tree

__version__ = "1.1.0"

__all__ = [
    "AnalysisBackend",
    "AnalysisReport",
    "AnalysisRequest",
    "AnalysisSession",
    "ArtifactCache",
    "BasicEvent",
    "BatchItem",
    "BatchResult",
    "DynamicFaultTree",
    "FaultTree",
    "FaultTreeBuilder",
    "Gate",
    "GateType",
    "GeneratorConfig",
    "MPMCSResult",
    "MPMCSSolver",
    "RankedCutSet",
    "ReliabilityAssignment",
    "__version__",
    "analyze_many",
    "available_backends",
    "backend_capabilities",
    "enumerate_mpmcs",
    "find_mpmcs",
    "fire_protection_system",
    "get_tree",
    "propagate_uncertainty",
    "random_fault_tree",
    "register_backend",
    "simulate_dft",
]
