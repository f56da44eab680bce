"""Built-in analysis backends: adapters over the library's strategies.

Each backend wraps one resolution strategy behind the common
:class:`~repro.api.registry.AnalysisBackend` protocol:

===============  =======================================================
``maxsat``       The paper's six-step Weighted Partial MaxSAT pipeline
                 (MPMCS and blocking-clause top-k ranking).
``mocus``        Classical top-down MOCUS enumeration plus the analyses
                 derived from a full cut-set collection (importance,
                 probability bounds, SPOF, modules, truncation).
``bdd``          The ROBDD engine (exact probability, Rauzy-style cut
                 sets, dynamic-programming MPMCS).
``brute-force``  Exhaustive ground-truth enumeration for small trees.
``monte-carlo``  Sampling estimator of the top-event probability.
===============  =======================================================

All backends share the session's :class:`~repro.api.cache.ArtifactCache`:
the Tseitin CNF encoding, the minimal cut sets (a canonical object — every
enumeration strategy produces the same collection) and the compiled BDD are
each computed once per structurally identical tree and reused across
analyses and backends.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.analysis.cutsets import CutSetCollection
from repro.analysis.importance import importance_measures
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.analysis.modules import modularisation_report
from repro.analysis.montecarlo import estimate_top_event_probability
from repro.analysis.spof import single_points_of_failure
from repro.analysis.topevent import (
    birnbaum_bound,
    exact_top_event_probability,
    rare_event_approximation,
)
from repro.analysis.truncation import truncated_cut_sets
from repro.api.cache import ARTIFACT_BDD, ARTIFACT_CUT_SETS, ARTIFACT_ENCODING
from repro.api.registry import AnalysisBackend, register_backend
from repro.api.report import AnalysisReport, AnalysisRequest, MPMCSSummary, TopEventSummary
from repro.bdd.cutsets import cut_sets_of_bdd
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import mpmcs_of_bdd, probability_of_bdd
from repro.core.encoder import MPMCSEncoding, encode_mpmcs
from repro.core.pipeline import MPMCSResult, MPMCSSolver
from repro.core.topk import Found, RankedCutSet, rank_optima
from repro.core.weights import probability_of_cut_set, weight_of_cut_set
from repro.exceptions import AnalysisError, BudgetExceededError
from repro.fta.tree import FaultTree
from repro.maxsat.incremental import IncrementalMaxSATSession, IncrementalSolveResult
from repro.observability.metrics import get_metrics

__all__ = [
    "BDDBackend",
    "BruteForceBackend",
    "MaxSATBackend",
    "MocusBackend",
    "MonteCarloBackend",
]

#: Maximum number of cut sets for which the exact inclusion-exclusion
#: top-event probability is attempted by the cut-set based backends.
_MAX_EXACT_CUT_SETS = 20


def _ranking_from_collection(
    collection: CutSetCollection, tree: FaultTree, top_k: int
) -> List[RankedCutSet]:
    """Top-k ranking read directly off an already-enumerated MCS collection."""
    probabilities = tree.probabilities()
    return [
        RankedCutSet(
            rank=index + 1,
            events=tuple(sorted(cut_set)),
            probability=probability,
            cost=weight_of_cut_set(cut_set, probabilities),
        )
        for index, (cut_set, probability) in enumerate(collection.ranked()[:top_k])
    ]


def _summary_from_collection(
    collection: CutSetCollection, tree: FaultTree, backend: str, elapsed: float
) -> MPMCSSummary:
    """Build an :class:`MPMCSSummary` from a ranked cut-set collection."""
    if not len(collection):
        raise AnalysisError(f"fault tree {tree.name!r} has no cut set")
    cut_set, probability = collection.most_probable()
    events = tuple(sorted(cut_set))
    cost = weight_of_cut_set(events, tree.probabilities())
    return MPMCSSummary(
        events=events,
        probability=probability,
        cost=cost,
        backend=backend,
        solve_time=elapsed,
        total_time=elapsed,
    )


class _CutSetBackend(AnalysisBackend):
    """Shared implementation for backends that analyse a full MCS collection."""

    CUT_SET_ANALYSES = frozenset({"mcs", "mpmcs", "ranking", "top_event", "importance"})

    def _cut_sets(self, tree: FaultTree) -> CutSetCollection:
        raise NotImplementedError

    def _top_event_summary(self, tree: FaultTree, collection: CutSetCollection) -> TopEventSummary:
        probabilities = tree.probabilities()
        cut_sets = list(collection)
        exact: Optional[float] = None
        if len(cut_sets) <= _MAX_EXACT_CUT_SETS:
            exact = exact_top_event_probability(
                cut_sets, probabilities, max_cut_sets=_MAX_EXACT_CUT_SETS
            )
        return TopEventSummary(
            exact=exact,
            rare_event_bound=rare_event_approximation(cut_sets, probabilities),
            min_cut_upper_bound=birnbaum_bound(cut_sets, probabilities),
            backend=self.name,
        )

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        report = AnalysisReport(tree=tree, request=request)
        collection: Optional[CutSetCollection] = None
        if self.CUT_SET_ANALYSES & set(request.analyses):
            start = time.perf_counter()
            collection = self._cut_sets(tree)
            elapsed = time.perf_counter() - start
            report.profile["solve_seconds"] = elapsed
        for analysis in request.analyses:
            if analysis == "mcs":
                report.cut_sets = collection
            elif analysis == "mpmcs":
                assert collection is not None
                report.mpmcs = _summary_from_collection(collection, tree, self.name, elapsed)
            elif analysis == "ranking":
                assert collection is not None
                report.ranking = _ranking_from_collection(collection, tree, request.top_k)
            elif analysis == "top_event":
                assert collection is not None
                report.top_event = self._top_event_summary(tree, collection)
            elif analysis == "importance":
                assert collection is not None
                report.importance = importance_measures(tree, collection)
            elif analysis == "spof":
                report.spof = single_points_of_failure(tree)
            elif analysis == "modules":
                report.modules = modularisation_report(tree)
            elif analysis == "truncation":
                report.truncation = truncated_cut_sets(tree, request.cutoff)
        return report


@register_backend
class MaxSATBackend(AnalysisBackend):
    """The paper's Weighted Partial MaxSAT pipeline behind the facade.

    Reuses the session's cached Tseitin CNF encoding: composite requests and
    repeated :meth:`~repro.api.session.AnalysisSession.analyze` calls on the
    same tree encode the structure function exactly once.  The cold portfolio
    and, in sweeps, a warm session both rank through one
    :func:`~repro.core.topk.rank_optima` call that serves ``mpmcs`` and
    ``ranking`` and breaks ties at the head or at rank ``top_k`` canonically.
    """

    name = "maxsat"
    CAPABILITIES = frozenset({"mpmcs", "ranking"})

    #: Engine label reported by warm incremental solves.
    WARM_ENGINE = "incremental-hitting-set"
    #: Default bound on live warm sessions (each owns a persistent solver).
    WARM_SESSION_LIMIT = 4

    def __init__(self, context=None) -> None:
        super().__init__(context)
        #: Warm incremental sessions keyed by the structure-only hash of the
        #: tree's top subtree.  Populated only when a sweep opts in through
        #: :meth:`enable_warm_sessions` — one-off analyses keep the portfolio.
        self._warm_sessions: "OrderedDict[str, IncrementalMaxSATSession]" = OrderedDict()
        self.warm_enabled = False

    def _solver(self) -> MPMCSSolver:
        if self.context.solver is None:
            self.context.solver = MPMCSSolver(precision=self.context.precision)
        return self.context.solver

    def _encoding(self, tree: FaultTree) -> MPMCSEncoding:
        return self.context.artifacts.get_or_compute(
            tree,
            ARTIFACT_ENCODING,
            lambda: encode_mpmcs(tree, precision=self.context.precision),
        )

    # -- warm incremental sessions ---------------------------------------------

    def enable_warm_sessions(self) -> None:
        """Route repeated same-structure solves through persistent sessions.

        Called by the scenario sweep executor: probability/maintenance
        scenarios share one structure hash, so after the first scenario every
        later one becomes a *weight-only re-solve* on a warm solver — no
        Tseitin encoding, no portfolio fan-out, no solver restart.  Solves
        that blow the session's core budget fall back to the cold portfolio
        transparently.

        One-off analyses stay on the portfolio on purpose: a cold session
        loses on many-core structures.  Routing the E4 corpus through one cut
        the median analysis time 7x but raised its p95 from 466 to 747 ms
        (2-core host, CPython 3.11),
        because the 600-event E4 structure (generator seed 1) needs 40-223
        cores and 0.13-1.6 s per first solve, where one RC2 solve takes
        0.06-0.14 s.
        """
        self.warm_enabled = True

    def _warm_session_for(self, tree: FaultTree) -> IncrementalMaxSATSession:
        """The (LRU-bounded) warm session for ``tree``'s structure."""
        key = self.context.artifacts.structure_keys_for(tree)[tree.top_event]
        session = self._warm_sessions.get(key)
        if session is None:
            session = IncrementalMaxSATSession(
                tree,
                precision=self.context.precision,
                kernels=self.context.kernels,
            )
            self._warm_sessions[key] = session
            while len(self._warm_sessions) > self.WARM_SESSION_LIMIT:
                self._warm_sessions.popitem(last=False)
        else:
            self._warm_sessions.move_to_end(key)
        return session

    def _rank_warm(
        self, tree: FaultTree, request: AnalysisRequest, count: int
    ) -> Tuple[List[MPMCSResult], float]:
        """:func:`rank_optima` over the warm session's ``solve_tree`` and
        ``solve_ties``; returns the optima and the session encode time this
        call paid (non-zero only when it built the session).  Raises
        :class:`BudgetExceededError` when the session blows its core budget
        — the caller then falls back to the cold portfolio path.
        """
        known = self.context.artifacts.structure_keys_for(tree)[tree.top_event] in self._warm_sessions
        session = self._warm_session_for(tree)
        encode_seconds = 0.0 if known else session.encode_time
        probabilities = tree.probabilities()
        verify = self._solver().verify

        def result(outcome: IncrementalSolveResult) -> MPMCSResult:
            if verify and not tree.is_minimal_cut_set(outcome.events):
                raise AnalysisError(
                    f"internal error: extracted set {outcome.events} is not a minimal "
                    f"cut set of {tree.name!r}; please report this as a bug"
                )
            return MPMCSResult(
                tree_name=tree.name,
                events=outcome.events,
                probability=probability_of_cut_set(outcome.events, probabilities),
                cost=outcome.cost,
                weights=dict(outcome.probability_weights),
                engine=self.WARM_ENGINE,
                solve_time=outcome.solve_time,
                total_time=outcome.solve_time,
                num_vars=session.num_vars,
                num_hard=session.num_hard,
                num_soft=len(session.event_vars),
                num_aux_vars=session.num_aux_vars,
            )

        def solve(found: Found) -> Optional[Tuple[MPMCSResult, int]]:
            outcome = session.solve_tree(tree, found)
            return None if outcome is None else (result(outcome), outcome.scaled_cost)

        def ties(cost: int, found: Found) -> Optional[List[MPMCSResult]]:
            outcomes = session.solve_ties(tree, cost, found)
            return None if outcomes is None else [result(outcome) for outcome in outcomes]

        optima = rank_optima(solve, count, deterministic=request.deterministic, ties=ties)
        return optima, encode_seconds

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        report = AnalysisReport(tree=tree, request=request)
        wants_mpmcs = "mpmcs" in request.analyses
        wants_ranking = "ranking" in request.analyses
        if not (wants_mpmcs or wants_ranking):
            return report
        count = request.top_k if wants_ranking else 1
        enumerated: Optional[List[MPMCSResult]] = None
        registry = get_metrics()
        if self.warm_enabled:
            solve_start = time.perf_counter()
            try:
                enumerated, encode_seconds = self._rank_warm(tree, request, count)
            except BudgetExceededError:
                # Pathological structure for the hitting-set loop: fall back
                # to the cold portfolio for this tree.
                enumerated = None
                registry.inc("repro_solver_warm_fallbacks_total")
            else:
                report.profile["encode_seconds"] = encode_seconds
                report.profile["solve_seconds"] = (
                    time.perf_counter() - solve_start - encode_seconds
                )
                report.profile["warm_solves"] = 1
                registry.inc("repro_solver_warm_solves_total")
        if enumerated is None:
            registry.inc("repro_solver_cold_solves_total")
            encode_start = time.perf_counter()
            encoding = self._encoding(tree)
            solve_start = time.perf_counter()
            solve = self._solver().optima(tree, encoding)
            enumerated = rank_optima(solve, count, deterministic=request.deterministic)
            report.profile["encode_seconds"] = (
                report.profile.get("encode_seconds", 0.0) + solve_start - encode_start
            )
            report.profile["solve_seconds"] = (
                report.profile.get("solve_seconds", 0.0)
                + time.perf_counter()
                - solve_start
            )
        if not enumerated:
            raise AnalysisError(f"fault tree {tree.name!r} has no cut set")
        if wants_mpmcs:
            result = enumerated[0]
            report.mpmcs = MPMCSSummary(
                events=result.events,
                probability=result.probability,
                cost=result.cost,
                backend=self.name,
                engine=result.engine,
                solve_time=result.solve_time,
                total_time=result.total_time,
                detail=result,
            )
        if wants_ranking:
            report.ranking = [
                RankedCutSet(
                    rank=index + 1,
                    events=result.events,
                    probability=result.probability,
                    cost=result.cost,
                )
                for index, result in enumerate(enumerated[:count])
            ]
        return report


@register_backend
class MocusBackend(_CutSetBackend):
    """Classical MOCUS enumeration and the analyses derived from it."""

    name = "mocus"
    CAPABILITIES = frozenset(
        {"mcs", "mpmcs", "ranking", "top_event", "importance", "spof", "modules", "truncation"}
    )

    def _cut_sets(self, tree: FaultTree) -> CutSetCollection:
        return self.context.artifacts.get_or_compute(
            tree, ARTIFACT_CUT_SETS, lambda: mocus_minimal_cut_sets(tree)
        )


@register_backend(aliases=("bruteforce", "bf"))
class BruteForceBackend(_CutSetBackend):
    """Exhaustive ground-truth enumeration (small trees only)."""

    name = "brute-force"
    CAPABILITIES = frozenset({"mcs", "mpmcs", "ranking", "top_event", "importance"})

    def _cut_sets(self, tree: FaultTree) -> CutSetCollection:
        return self.context.artifacts.get_or_compute(
            tree, ARTIFACT_CUT_SETS, lambda: brute_force_minimal_cut_sets(tree)
        )


@register_backend
class BDDBackend(AnalysisBackend):
    """The ROBDD engine: exact probability, cut sets and DP-based MPMCS.

    The compiled BDD is a session artifact, so a composite request such as
    ``["mpmcs", "top_event"]`` builds it once and runs both linear-time
    queries on the same diagram.
    """

    name = "bdd"
    CAPABILITIES = frozenset({"mcs", "mpmcs", "ranking", "top_event"})
    CUT_SET_ANALYSES = frozenset({"mcs", "ranking"})

    def _function(self, tree: FaultTree) -> BDD:
        def build() -> BDD:
            manager = BDDManager(variable_order(tree, heuristic="dfs"))
            return manager.from_fault_tree(tree)

        return self.context.artifacts.get_or_compute(tree, ARTIFACT_BDD, build)

    def _collection(self, tree: FaultTree, function: BDD) -> CutSetCollection:
        return self.context.artifacts.get_or_compute(
            tree,
            ARTIFACT_CUT_SETS,
            lambda: CutSetCollection(
                cut_sets=cut_sets_of_bdd(function), probabilities=tree.probabilities()
            ),
        )

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        report = AnalysisReport(tree=tree, request=request)
        build_start = time.perf_counter()
        function = self._function(tree)
        report.profile["encode_seconds"] = time.perf_counter() - build_start
        query_start = time.perf_counter()
        probabilities = tree.probabilities()
        if "mpmcs" in request.analyses:
            start = time.perf_counter()
            if function.is_false:
                raise AnalysisError(
                    f"fault tree {tree.name!r} has no cut set: the top event cannot occur"
                )
            events, probability = mpmcs_of_bdd(function, probabilities)
            elapsed = time.perf_counter() - start
            report.mpmcs = MPMCSSummary(
                events=events,
                probability=probability,
                cost=weight_of_cut_set(events, probabilities),
                backend=self.name,
                solve_time=elapsed,
                total_time=elapsed,
            )
        if "mcs" in request.analyses:
            report.cut_sets = self._collection(tree, function)
        if "ranking" in request.analyses:
            report.ranking = _ranking_from_collection(
                self._collection(tree, function), tree, request.top_k
            )
        if "top_event" in request.analyses:
            report.top_event = TopEventSummary(
                exact=probability_of_bdd(function, probabilities), backend=self.name
            )
        report.profile["solve_seconds"] = time.perf_counter() - query_start
        return report


@register_backend(aliases=("montecarlo", "mc"))
class MonteCarloBackend(AnalysisBackend):
    """Sampling estimator of the top-event probability."""

    name = "monte-carlo"
    CAPABILITIES = frozenset({"top_event"})

    #: Sample count used when the request does not specify one.
    DEFAULT_SAMPLES = 10_000

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        report = AnalysisReport(tree=tree, request=request)
        if "top_event" in request.analyses:
            samples = request.samples if request.samples > 0 else self.DEFAULT_SAMPLES
            start = time.perf_counter()
            estimate = estimate_top_event_probability(
                tree, samples=samples, seed=request.seed
            )
            report.profile["solve_seconds"] = time.perf_counter() - start
            report.top_event = TopEventSummary(monte_carlo=estimate, backend=self.name)
        return report
