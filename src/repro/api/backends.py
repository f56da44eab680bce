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
the minimal cut sets (a canonical object — every enumeration strategy
produces the same collection) and the compiled BDD are each computed once
per structurally identical tree and reused across analyses and backends.
The MaxSAT encoding is not cached: its hard clauses, the independent
modules and each module's skeleton clauses are computed once per structure,
not cached per tree (:class:`~repro.fta.compiled.CompiledStructure`, shared
by every probability-only copy), and each analysis adds its own soft
clauses.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

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
from repro.api.cache import ARTIFACT_BDD, ARTIFACT_CUT_SETS
from repro.api.registry import AnalysisBackend, register_backend, run_each
from repro.api.report import AnalysisReport, AnalysisRequest, MPMCSSummary, TopEventSummary
from repro.bdd.cutsets import cut_sets_of_bdd
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import FlatBDD, flatten_bdd, mpmcs_of_bdd, probability_of_bdd
from repro.core.pipeline import ModuleOptima, MPMCSResult, MPMCSSolver
from repro.core.topk import Found, RankedCutSet, rank_optima
from repro.core.weights import probability_of_cut_set, weight_of_cut_set
from repro.exceptions import AnalysisError, BudgetExceededError, ReproError
from repro.fta.tree import FaultTree
from repro import kernels
from repro.maxsat.incremental import IncrementalMaxSATSession, IncrementalSolveResult
from repro.observability.metrics import get_metrics

__all__ = [
    "BDDBackend",
    "BruteForceBackend",
    "MaxSATBackend",
    "MocusBackend",
    "MonteCarloBackend",
]

#: A warm state the ``maxsat`` backend keeps per structure.
W = TypeVar("W")

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


def _module_optima(tree: FaultTree) -> ModuleOptima:
    return ModuleOptima(tree.compiled())


@register_backend
class MaxSATBackend(AnalysisBackend):
    """The paper's Weighted Partial MaxSAT pipeline behind the facade.

    :meth:`run` is the cold route, :meth:`MPMCSSolver.optima
    <repro.core.pipeline.MPMCSSolver.optima>` under one
    :func:`~repro.core.topk.rank_optima` call that serves ``mpmcs`` and
    ``ranking``.  Its first optimum is :meth:`MPMCSSolver.solve
    <repro.core.pipeline.MPMCSSolver.solve>`: the tree's independent
    modules are solved bottom-up, by rule where a module's children are
    independent and otherwise by one portfolio solve over the module's
    skeleton, its sub-modules collapsed into pseudo-events; a tree without
    shared nodes takes no SAT call.  Each further rank is one blocked
    portfolio solve of a whole-tree :func:`~repro.core.encoder.encode_mpmcs`
    (a copy of the structure's hard clauses plus the tree's soft clauses),
    built at the first of them.  :meth:`run_batch` is the warm route, with
    one warm state per structure.  A structure whose modules all solve by
    rule keeps its :class:`~repro.core.pipeline.ModuleOptima` for
    one-optimum requests, so a probability-only tree re-applies the rules
    above its changed events only.  Everything else goes to a persistent
    :class:`~repro.maxsat.incremental.IncrementalMaxSATSession`, loaded from
    the same hard clauses, so the probability-only trees of a batch become
    weight-only re-solves.  Module analysis, hard clauses and skeleton
    clauses are computed once per structure
    (:class:`~repro.fta.compiled.CompiledStructure`).  Every route
    optimises the canonical order itself
    (:func:`~repro.maxsat.instance.objective_weight`), so ties need no extra
    solves: a ranking of ``top_k`` takes ``top_k`` solves and equals every
    other backend's, and the modular answer is the whole-tree one.  One-off
    analyses stay cold on purpose: on the E4 corpus a cold session cut the
    median analysis time 7x but raised the p95 from 466 to 747 ms (2-core
    host, CPython 3.11), because a many-core structure's first solve costs
    far more than one RC2 solve.
    """

    name = "maxsat"
    CAPABILITIES = frozenset({"mpmcs", "ranking"})

    #: Engine label reported by warm incremental solves.
    WARM_ENGINE = "incremental-hitting-set"
    #: Default bound on live warm states (a session owns a persistent solver).
    WARM_SESSION_LIMIT = 4

    def __init__(self, context=None) -> None:
        super().__init__(context)
        #: Warm states (incremental sessions and module optima) keyed by the
        #: structure-only hash of the tree's top subtree and the state's
        #: builder, least recently used first.
        self._warm_sessions: "OrderedDict[Tuple[str, Callable[[FaultTree], Any]], Any]" = (
            OrderedDict()
        )

    def _solver(self) -> MPMCSSolver:
        if self.context.solver is None:
            self.context.solver = MPMCSSolver()
        return self.context.solver

    def _warm(self, tree: FaultTree, kind: Callable[[FaultTree], W]) -> Tuple[W, bool]:
        """The (LRU-bounded) warm state ``kind`` builds for ``tree``'s
        structure, and whether this call built it."""
        key = (self.context.artifacts.structure_keys_for(tree)[tree.top_event], kind)
        state = self._warm_sessions.get(key)
        if state is not None:
            self._warm_sessions.move_to_end(key)
            return state, False
        state = self._warm_sessions[key] = kind(tree)
        while len(self._warm_sessions) > self.WARM_SESSION_LIMIT:
            self._warm_sessions.popitem(last=False)
        return state, True

    def _solve_warm(self, tree: FaultTree, count: int) -> Tuple[List[MPMCSResult], float]:
        """The warm route: ``count`` optima and the encode time paid.

        One optimum of a structure whose modules all solve by rule comes
        from the structure's warm :class:`~repro.core.pipeline.ModuleOptima`,
        which re-solves only the modules above the events whose probability
        changed; anything else goes to the incremental session
        (:meth:`_rank_warm`).
        """
        if count == 1 and all(skeleton.by_rule for skeleton in tree.compiled().modules):
            optima, _ = self._warm(tree, _module_optima)
            return [self._solver().solve_modules(tree, optima)], 0.0
        return self._rank_warm(tree, count)

    def _rank_warm(self, tree: FaultTree, count: int) -> Tuple[List[MPMCSResult], float]:
        """:func:`rank_optima` over the warm session's ``solve_tree``; returns
        the optima and the session encode time this call paid (non-zero only
        when it built the session).  Raises :class:`BudgetExceededError` when
        the session blows its core budget — the caller then falls back to the
        cold portfolio path.
        """
        session, built = self._warm(tree, IncrementalMaxSATSession)
        encode_seconds = session.encode_time if built else 0.0
        probabilities = tree.probabilities()

        def result(outcome: IncrementalSolveResult) -> MPMCSResult:
            if not tree.is_minimal_cut_set(outcome.events):
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

        def solve(found: Found) -> Optional[MPMCSResult]:
            outcome = session.solve_tree(tree, found)
            return None if outcome is None else result(outcome)

        return rank_optima(solve, count), encode_seconds

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
        enumerated: Optional[List[MPMCSResult]] = None
        registry = get_metrics()
        if warm:
            solve_start = time.perf_counter()
            try:
                enumerated, encode_seconds = self._solve_warm(tree, count)
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
            started = time.perf_counter()
            enumerated = rank_optima(self._solver().optima(tree), count)
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
            return artifacts.get_or_compute_subtree(tree, tree.top_event, ARTIFACT_BDD, build)
        except (ReproError, MemoryError, RecursionError) as exc:
            if not isinstance(exc, ReproError):
                exc = AnalysisError(f"cannot compile the BDD of {tree.name!r}: {exc!r}")
            self._failures[structure] = exc
            raise exc

    def _collection(self, tree: FaultTree, function: BDD) -> CutSetCollection:
        return self.context.artifacts.get_or_compute(
            tree,
            ARTIFACT_CUT_SETS,
            lambda: CutSetCollection(
                cut_sets=cut_sets_of_bdd(function), probabilities=tree.probabilities()
            ),
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
