"""Built-in analysis backends: adapters over the library's strategies.

Each backend wraps one resolution strategy behind the common
:class:`~repro.api.registry.AnalysisBackend` protocol:

===============  =======================================================
``maxsat``       The paper's six-step Weighted Partial MaxSAT pipeline
                 (MPMCS and top-k ranking).
``mocus``        Classical top-down MOCUS enumeration plus the analyses
                 derived from a full cut-set collection (importance,
                 probability bounds, SPOF, modules, truncation).
``bdd``          The ROBDD engine (exact probability, Rauzy-style cut
                 sets, dynamic-programming MPMCS).
``brute-force``  Exhaustive ground-truth enumeration for small trees.
``monte-carlo``  Sampling estimator of the top-event probability.
===============  =======================================================

All backends share the session's :class:`~repro.api.cache.ArtifactCache`:
the minimal cut sets (a canonical object — every enumeration strategy
produces the same sets) and the compiled BDD are each computed once per
structure, whatever the probabilities, and reused across analyses,
backends and trees; each tree's probabilities are attached on use.
The MaxSAT encoding is not cached: its hard clauses, the independent
modules and each module's skeleton clauses are computed once per structure,
not cached per tree (:class:`~repro.fta.compiled.CompiledStructure`, shared
by every probability-only copy), and each analysis adds its own soft
clauses.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.analysis.cutsets import CutSet, CutSetCollection
from repro.analysis.importance import importance_measures
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.analysis.modules import modularisation_report
from repro.analysis.montecarlo import estimate_top_event_probability
from repro.analysis.spof import single_points_of_failure
from repro.analysis.topevent import cut_set_bounds, exact_top_event_probability
from repro.analysis.truncation import truncated_cut_sets
from repro.api.cache import ARTIFACT_BDD, ARTIFACT_CUT_SETS, ArtifactCache
from repro.api.registry import AnalysisBackend, register_backend, run_each
from repro.api.report import AnalysisReport, AnalysisRequest, MPMCSSummary, TopEventSummary
from repro.bdd.cutsets import cut_sets_of_bdd
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import FlatBDD, flatten_bdd, mpmcs_of_bdd, probability_of_bdd
from repro.core.pipeline import ModuleOptima, MPMCSResult, MPMCSSolver
from repro.core.topk import RankedCutSet
from repro.core.weights import weight_of_cut_set
from repro.exceptions import AnalysisError, ReproError
from repro.fta.compiled import CompiledStructure
from repro.fta.tree import FaultTree
from repro import kernels
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
        for index, (cut_set, probability) in enumerate(collection.ranked(top_k))
    ]


def _with_probabilities(
    artifacts: ArtifactCache, tree: FaultTree, enumerate_cut_sets: Callable[[], Tuple[CutSet, ...]]
) -> CutSetCollection:
    """``tree``'s minimal cut sets with its probabilities attached.

    The sets themselves are cached once per structure
    (:data:`~repro.api.cache.ARTIFACT_CUT_SETS`), so every tree of one
    structure, whatever its probabilities, enumerates them once.
    """
    cut_sets = artifacts.get_or_compute(tree, ARTIFACT_CUT_SETS, enumerate_cut_sets)
    return CutSetCollection.from_minimal(cut_sets, probabilities=tree.probabilities())


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

    def _enumerate(self, tree: FaultTree) -> CutSetCollection:
        raise NotImplementedError

    def _cut_sets(self, tree: FaultTree) -> CutSetCollection:
        return _with_probabilities(
            self.context.artifacts, tree, lambda: tuple(self._enumerate(tree))
        )

    def _top_event_summary(self, tree: FaultTree, collection: CutSetCollection) -> TopEventSummary:
        probabilities = tree.probabilities()
        cut_sets = list(collection)
        exact: Optional[float] = None
        if len(cut_sets) <= _MAX_EXACT_CUT_SETS:
            exact = exact_top_event_probability(
                cut_sets, probabilities, max_cut_sets=_MAX_EXACT_CUT_SETS
            )
        rare_event_bound, min_cut_upper_bound = cut_set_bounds(cut_sets, probabilities)
        return TopEventSummary(
            exact=exact,
            rare_event_bound=rare_event_bound,
            min_cut_upper_bound=min_cut_upper_bound,
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

    ``mpmcs`` and ``ranking`` are the ``top_k`` cheapest cut sets (one for
    ``mpmcs`` alone) of a walk over the tree's independent modules
    (:meth:`MPMCSSolver.solve_modules
    <repro.core.pipeline.MPMCSSolver.solve_modules>`), bottom-up: a module
    whose children are independent takes its cheapest cut sets by rule, and
    any other lists its skeleton's own cut sets on an
    :class:`~repro.maxsat.incremental.IncrementalMaxSATSession`, by at most
    ``top_k`` blocked solves.  A tree without shared nodes takes no SAT
    call, and no route builds a whole-tree encoding.

    :meth:`run` is the cold route (:meth:`MPMCSSolver.rank
    <repro.core.pipeline.MPMCSSolver.rank>`, a fresh walk per tree), and so
    is :meth:`run_batch` for a solver with a ``single_engine``.  Otherwise
    :meth:`run_batch` keeps one warm walk per structure, the structure's
    :class:`~repro.core.pipeline.ModuleOptima` for the request's count, so
    a probability-only tree re-walks only the modules above its changed
    events.  For one cut set each searched skeleton keeps its session, with
    its cores, learned clauses and candidate pool, across the trees of the
    batch; a longer ranking lists a re-walked skeleton's cut sets on a fresh
    session.  That is the only difference between the routes: every session
    starts from the unsat cores the structure's skeletons keep
    (:attr:`Skeleton.cores <repro.fta.compiled.Skeleton.cores>`).  A session
    that blows its budget even after its retry from no core fails the tree
    with an :class:`~repro.exceptions.AnalysisError` chained from the
    :class:`~repro.exceptions.BudgetExceededError`, at every count and on
    both routes.  Every route optimises the canonical order itself
    (:func:`~repro.maxsat.instance.objective_weight`), so ties need no extra
    solves and every ranking equals every other backend's.
    """

    name = "maxsat"
    CAPABILITIES = frozenset({"mpmcs", "ranking"})

    #: Default bound on live warm states (each session owns a persistent solver).
    WARM_SESSION_LIMIT = 4

    def __init__(self, context=None) -> None:
        super().__init__(context)
        #: Warm module optima keyed by their compiled structure, which every
        #: probability-only copy of a tree shares, least recently used first.
        self._warm_sessions: "OrderedDict[CompiledStructure, ModuleOptima]" = OrderedDict()

    def _solver(self) -> MPMCSSolver:
        if self.context.solver is None:
            self.context.solver = MPMCSSolver()
        return self.context.solver

    def _solve_warm(self, tree: FaultTree, count: int) -> List[MPMCSResult]:
        """The warm route: ``tree``'s ``count`` cheapest cut sets from its
        structure's kept module walk (LRU-bounded), replaced by a new one
        when it keeps another count.
        """
        structure = tree.compiled()
        optima = self._warm_sessions.pop(structure, None)
        if optima is None or optima.count != count:
            optima = ModuleOptima(structure, count)
        self._warm_sessions[structure] = optima
        while len(self._warm_sessions) > self.WARM_SESSION_LIMIT:
            self._warm_sessions.popitem(last=False)
        return self._solver().solve_modules(tree, optima)

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        return self._run(tree, request, warm=False)

    def run_batch(
        self, trees: Iterable[FaultTree], request: AnalysisRequest
    ) -> Iterator[Union[AnalysisReport, ReproError]]:
        return run_each(trees, lambda tree: self._run(tree, request, warm=True))

    def _run(self, tree: FaultTree, request: AnalysisRequest, *, warm: bool) -> AnalysisReport:
        report = AnalysisReport(tree=tree, request=request)
        wants_mpmcs = "mpmcs" in request.analyses
        wants_ranking = "ranking" in request.analyses
        if not (wants_mpmcs or wants_ranking):
            return report
        count = request.top_k if wants_ranking else 1
        registry = get_metrics()
        started = time.perf_counter()
        if warm and self._solver().single_engine is None:
            enumerated = self._solve_warm(tree, count)
            report.profile["warm_solves"] = 1
            registry.inc("repro_solver_warm_solves_total")
        else:
            registry.inc("repro_solver_cold_solves_total")
            enumerated = self._solver().rank(tree, count)
        # Encoding, module walks and checks are everything but the engines.
        solve_seconds = sum(result.solve_time for result in enumerated)
        report.profile["encode_seconds"] = time.perf_counter() - started - solve_seconds
        report.profile["solve_seconds"] = solve_seconds
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

    def _enumerate(self, tree: FaultTree) -> CutSetCollection:
        return mocus_minimal_cut_sets(tree)


@register_backend(aliases=("bruteforce", "bf"))
class BruteForceBackend(_CutSetBackend):
    """Exhaustive ground-truth enumeration (small trees only)."""

    name = "brute-force"
    CAPABILITIES = frozenset({"mcs", "mpmcs", "ranking", "top_event", "importance"})

    def _enumerate(self, tree: FaultTree) -> CutSetCollection:
        return brute_force_minimal_cut_sets(tree)


@register_backend
class BDDBackend(AnalysisBackend):
    """The ROBDD engine: exact probability, cut sets and DP-based MPMCS.

    The compiled BDD is a session artifact keyed by the structure hash of
    the top event (:data:`~repro.api.cache.ARTIFACT_BDD`), so one compilation
    serves a composite request such as ``["mpmcs", "top_event"]`` and every
    probability-perturbed tree of a sweep or monitor.  A structure whose
    compilation fails is remembered and fails fast afterwards.
    """

    name = "bdd"
    CAPABILITIES = frozenset({"mcs", "mpmcs", "ranking", "top_event"})
    CUT_SET_ANALYSES = frozenset({"mcs", "ranking"})

    def __init__(self, context=None) -> None:
        super().__init__(context)
        #: Compilation failures by structure hash of the top event's subtree.
        self._failures: Dict[str, ReproError] = {}

    def _function(self, tree: FaultTree) -> BDD:
        artifacts = self.context.artifacts
        structure = artifacts.structure_keys_for(tree)[tree.top_event]
        failure = self._failures.get(structure)
        if failure is not None:
            raise failure.with_traceback(None)

        def build() -> BDD:
            manager = BDDManager(variable_order(tree, heuristic="dfs"))
            return manager.from_fault_tree(tree)

        try:
            return artifacts.get_or_compute(tree, ARTIFACT_BDD, build)
        except (ReproError, MemoryError, RecursionError) as exc:
            if not isinstance(exc, ReproError):
                exc = AnalysisError(f"cannot compile the BDD of {tree.name!r}: {exc!r}")
            self._failures[structure] = exc
            raise exc

    def _collection(self, tree: FaultTree, function: BDD) -> CutSetCollection:
        return _with_probabilities(
            self.context.artifacts, tree, lambda: tuple(cut_sets_of_bdd(function))
        )

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        return self._report(tree, request, None)

    def run_batch(
        self, trees: Iterable[FaultTree], request: AnalysisRequest
    ) -> Iterator[Union[AnalysisReport, ReproError]]:
        """The lazy default, except that a ``top_event`` request over two or
        more trees evaluates every top event up front, in one
        ``eval_bdd_batch`` call per structure.  A batch of one keeps the
        scalar :func:`probability_of_bdd` walk, which is cheaper for one row;
        the two give bit-identical values (:mod:`repro.kernels.bdd_eval`).
        """
        if "top_event" in request.analyses:
            trees = list(trees)
            if len(trees) > 1:
                values = iter(self._top_events(trees))
                return run_each(trees, lambda tree: self._report(tree, request, next(values)))
        return super().run_batch(trees, request)

    def _top_events(self, trees: List[FaultTree]) -> List[Optional[float]]:
        """Exact P(top) per tree, one kernel call over each structure's
        ``(trees × events)`` grid; ``None`` where no diagram compiles."""
        values: List[Optional[float]] = [None] * len(trees)
        groups: Dict[str, Tuple[FlatBDD, List[int], List[List[float]]]] = {}
        for position, tree in enumerate(trees):
            try:
                flat = flatten_bdd(self._function(tree))
            except ReproError:
                continue
            structure = self.context.artifacts.structure_keys_for(tree)[tree.top_event]
            group = groups.setdefault(structure, (flat, [], []))
            group[1].append(position)
            group[2].extend(flat.probability_rows((tree.probabilities(),)))
        suite = self.context.kernels if self.context.kernels is not None else kernels.select(None)
        for flat, positions, rows in groups.values():
            for position, value in zip(positions, suite.eval_bdd_batch(flat, rows)):
                values[position] = value
        return values

    def _report(
        self, tree: FaultTree, request: AnalysisRequest, top_event: Optional[float]
    ) -> AnalysisReport:
        """The report of ``tree``; ``top_event`` is its P(top) when a batch
        pass already evaluated it."""
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
            if top_event is None:
                top_event = probability_of_bdd(function, probabilities)
            report.top_event = TopEventSummary(exact=top_event, backend=self.name)
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
