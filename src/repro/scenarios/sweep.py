"""The sweep executor: evaluate many scenarios with incremental re-analysis.

:class:`SweepExecutor` layers on the ordinary
:class:`~repro.api.session.AnalysisSession` — every scenario is analysed
through the same backend registry, request validation and report types as a
one-off analysis — and adds the incremental path: when a requested analysis
is routed to a backend that reads the whole-tree cut-set artifact (its
:attr:`~repro.api.registry.AnalysisBackend.CUT_SET_ANALYSES`: ``mocus``,
``brute-force``, and ``bdd`` for ``mcs``/``ranking``), each scenario's minimal
cut sets are assembled from the session cache's *subtree* artifacts (see
:mod:`repro.scenarios.incremental`) and seeded as that artifact before the
scenario is handed to the session.  Those backends then hit it instead of
re-enumerating, which turns a 200-scenario probability sweep into one
structural enumeration plus 200 cheap probability re-rankings.  Backends that
never read it (``maxsat``, ``monte-carlo``) skip the enumeration altogether.

The results are identical to fresh per-scenario analysis (the seeded
artifact is exactly what the backend would have computed); the tests
cross-check this against two independent backends.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.cache import ARTIFACT_SUBTREE_BDD
from repro.api.registry import backend_class, canonical_backend_name
from repro.api.report import AnalysisReport, AnalysisRequest, TopEventSummary
from repro.api.session import AnalysisSession
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import FlatBDD, flatten_bdd, probability_of_bdd
from repro.exceptions import AnalysisError, ReproError
from repro.fta.tree import FaultTree
from repro.scenarios.incremental import seed_session_cut_sets
from repro.scenarios.report import (
    ScenarioOutcome,
    ScenarioReport,
    mpmcs_identity_changed,
)
from repro.scenarios.scenario import Scenario

__all__ = ["SweepExecutor", "run_sweep"]

#: Default analyses of a sweep: the two quantities an operator acts on.
DEFAULT_ANALYSES: Tuple[str, ...] = ("mpmcs", "top_event")

#: Default backend.  MOCUS serves every default analysis from the (seeded)
#: cut-set artifact, which is what makes the incremental path effective.
DEFAULT_BACKEND = "mocus"


def _top_event_estimate(report: AnalysisReport) -> Optional[float]:
    if report.top_event is None:
        return None
    return report.top_event.best_estimate


class SweepExecutor:
    """Evaluates scenario families against a base tree with shared caching.

    Parameters
    ----------
    session:
        Optional pre-built :class:`AnalysisSession`; its artifact cache then
        persists across sweeps (a second sweep over the same tree starts
        fully warm).  A fresh session is created otherwise.
    incremental:
        When true (default), seed each scenario's cut sets from the subtree
        cache before analysis — for cut-set backends only, i.e. when a
        requested analysis is routed to a backend that declares it in
        :attr:`~repro.api.registry.AnalysisBackend.CUT_SET_ANALYSES` — and
        keep warm MaxSAT sessions for the ``maxsat`` backend.  ``False``
        forces the naive path — every scenario re-enumerates from scratch —
        which exists for correctness cross-checks and the speedup benchmark.
    backend:
        Registry name of the backend analysing every scenario.
    exact_top_event:
        When true (default), scenarios whose cut-set analysis returned only
        probability *bounds* — the cut-set backends cap exact
        inclusion-exclusion at 20 cut sets — get their exact top-event
        probability from the BDD engine instead.  The compiled diagram is
        cached under the *structure-only* hash of the top event's subtree
        (:data:`~repro.api.cache.ARTIFACT_SUBTREE_BDD`): the structure
        function does not depend on probabilities, so a probability-only
        sweep compiles once and evaluates per scenario in linear time.
        Trees whose BDD compilation fails (pathological orderings) fall back
        to bounds, once per distinct structure.
    """

    def __init__(
        self,
        session: Optional[AnalysisSession] = None,
        *,
        incremental: bool = True,
        backend: str = DEFAULT_BACKEND,
        exact_top_event: bool = True,
    ) -> None:
        self.session = session if session is not None else AnalysisSession()
        self.incremental = incremental
        self.backend = backend
        self.exact_top_event = exact_top_event
        self._bdd_unavailable: Set[str] = set()
        self._fill_top_event = False
        #: Whether :meth:`analyze_tree` seeds whole-tree cut sets; decided per
        #: analysis list by :meth:`prepare_analyses`.  Until then it follows
        #: ``incremental``: seeding only pre-fills a cache entry, so a wrong
        #: guess costs time, never an answer.
        self._seeds_cut_sets = incremental
        #: Batch-precomputed exact P(top) values, keyed by ``id(tree)`` and
        #: holding a strong reference to the tree so ids cannot be recycled
        #: while an entry is pending.  Filled by :meth:`precompute_top_events`,
        #: consumed (and identity-checked) by :meth:`_bdd_top_event`.
        self._pending_ptop: Dict[int, Tuple[FaultTree, float]] = {}
        if backend == "auto":
            # Automatic routing covers every analysis; mpmcs routes to maxsat.
            self._capabilities: Optional[frozenset] = None
            warm_backend = "maxsat"
        else:
            self._capabilities = backend_class(canonical_backend_name(backend)).capabilities()
            warm_backend = backend
        self._warm_backend = None
        if incremental:
            # The maxsat backend's incremental path: persistent per-structure
            # solver sessions turn the probability-only scenarios of a sweep
            # into weight-only re-solves (no re-encoding, no solver restart).
            # The opt-in is scoped to :meth:`run` so one-off analyses on a
            # shared session keep the cold portfolio; the sessions themselves
            # persist on the backend, so a second sweep starts fully warm.
            # Backends without warm sessions simply opt out here.
            try:
                instance = self.session.backend(warm_backend)
            except ReproError:
                instance = None
            if getattr(instance, "enable_warm_sessions", None) is not None:
                self._warm_backend = instance

    @property
    def uses_bdd_top_event(self) -> bool:
        """True when ``top_event`` is served by the structure-keyed BDD.

        Set by :meth:`prepare_analyses` when the configured backend cannot
        provide ``top_event`` itself; batch callers use this to decide
        whether :meth:`precompute_top_events` will pay off.
        """
        return self._fill_top_event

    @contextlib.contextmanager
    def warm_scope(self):
        """Enable the backend's warm incremental sessions for the block.

        The sweep loop wraps itself in this scope; long-lived callers (the
        live :class:`~repro.monitoring.monitor.TreeMonitor`) hold it open for
        their whole lifetime so every update is a weight-only re-solve.
        Backends without warm sessions make this a no-op.
        """
        if self._warm_backend is None:
            yield self
            return
        previous = self._warm_backend.warm_enabled
        self._warm_backend.enable_warm_sessions()
        try:
            yield self
        finally:
            self._warm_backend.warm_enabled = previous

    def prepare_analyses(
        self, analyses: Sequence[str] = DEFAULT_ANALYSES
    ) -> Tuple[str, ...]:
        """Resolve the analyses the backend itself will run (see :meth:`run`).

        Splits off the ``top_event`` request when the configured backend
        cannot serve it (the structure-keyed BDD fills it instead), and
        decides whether cut sets are seeded: only when ``incremental`` is on
        and a backend the analyses are routed to reads the cut-set artifact.
        Both decisions are recorded for :meth:`analyze_tree`.
        """
        requested = tuple(analyses)
        run_analyses = requested
        self._fill_top_event = False
        if self._capabilities is not None and "top_event" not in self._capabilities:
            # With an empty remainder this is a probability-only sweep: no
            # backend analyses at all — the structure-keyed BDD serves
            # ``top_event`` on its own, and :meth:`precompute_top_events`
            # evaluates whole scenario grids in one kernel call.
            run_analyses = tuple(a for a in requested if a != "top_event")
            self._fill_top_event = "top_event" in requested
            if not run_analyses and not self._fill_top_event:
                raise ReproError(
                    f"backend {self.backend!r} supports none of the requested "
                    f"analyses {requested!r}"
                )
        self._seeds_cut_sets = self.incremental and self._reads_cut_sets(run_analyses)
        return run_analyses

    def _reads_cut_sets(self, analyses: Tuple[str, ...]) -> bool:
        """True when a backend the session routes ``analyses`` to reads the
        whole-tree cut-set artifact (its ``CUT_SET_ANALYSES``)."""
        if not analyses:
            return False
        try:
            plan = self.session._plan(AnalysisRequest.create(analyses, backend=self.backend))
        except AnalysisError:
            # The session rejects the request itself on every analysis.
            return False
        return any(
            backend_class(name).CUT_SET_ANALYSES.intersection(assigned)
            for name, assigned in plan
        )

    def analyze_tree(
        self,
        tree: FaultTree,
        analyses: Sequence[str],
        *,
        top_k: int = 5,
        samples: int = 0,
        seed: int = 0,
    ) -> AnalysisReport:
        """One incremental analysis of ``tree``: seed, analyse, augment.

        The single-scenario core of the sweep loop, exposed for callers that
        produce trees one at a time (the live monitor): cut sets are seeded
        from the subtree cache when :meth:`prepare_analyses` decided that a
        cut-set backend will read them, the session
        analyses through the configured backend, and the exact BDD top event
        is merged in where only bounds exist.  ``analyses`` should come from
        :meth:`prepare_analyses`.  Warm solver sessions apply only inside
        :meth:`warm_scope`.
        """
        if not analyses and self._fill_top_event:
            return self._bdd_only_report(
                tree, top_k=top_k, samples=samples, seed=seed
            )
        if self._seeds_cut_sets:
            seed_session_cut_sets(tree, self.session.artifacts)
        report = self.session.analyze(
            tree, analyses, backend=self.backend, top_k=top_k, samples=samples, seed=seed
        )
        self._augment_exact_top_event(tree, report)
        return report

    def _bdd_only_report(
        self, tree: FaultTree, *, top_k: int, samples: int, seed: int
    ) -> AnalysisReport:
        """The probability-only fast path: a report served entirely by the BDD.

        Used when ``top_event`` is the *only* requested analysis and the
        configured backend cannot provide it: no backend runs at all — the
        structure-keyed BDD (batch-precomputed where possible) is the sole
        provider.  Raises :class:`AnalysisError` when the BDD is unavailable
        for this structure, mirroring the session's no-provider error.
        """
        tree.validate()
        report = AnalysisReport(
            tree=tree,
            request=AnalysisRequest.create(
                ("top_event",),
                backend=self.backend,
                top_k=top_k,
                samples=samples,
                seed=seed,
            ),
        )
        report.profile["kernel"] = self.session.kernels.name
        self._augment_exact_top_event(tree, report)
        if report.top_event is None:
            raise AnalysisError(
                f"backend {self.backend!r} does not support 'top_event' and the "
                f"BDD fast path is unavailable for tree {tree.name!r}"
            )
        report.cache_stats = self.session.artifacts.stats()
        return report

    def precompute_top_events(self, trees: Sequence[FaultTree]) -> int:
        """Batch-evaluate exact P(top) for ``trees`` through the kernel seam.

        Trees are grouped by their (structure-keyed, cached) compiled BDD and
        each group's scenario grid is evaluated in **one** kernel call — a
        ``(scenarios × events)`` probability matrix in, a P(top) vector out —
        instead of one :func:`probability_of_bdd` walk per scenario.  Results
        are staged for :meth:`_bdd_top_event`, which consumes them during the
        per-scenario analysis; values are bit-identical to the scalar walk on
        every kernel tier.

        Trees whose BDD cannot be built or evaluated are simply left out:
        the scalar fallback reproduces the exact per-scenario error handling
        (including marking the structure unavailable), and once a structure
        fails here no later tree of the same structure is batched, preserving
        the unbatched path's ordering semantics.  Returns the number of
        precomputed values.
        """
        cache = self.session.artifacts
        suite = self.session.kernels
        groups: Dict[int, Tuple[FlatBDD, List[FaultTree], List[List[float]]]] = {}
        failed_structures: Set[str] = set()
        staged = 0
        for tree in trees:
            structure_key = cache.structure_keys_for(tree)[tree.top_event]
            if structure_key in self._bdd_unavailable or structure_key in failed_structures:
                continue

            def build(tree: FaultTree = tree) -> BDD:
                manager = BDDManager(variable_order(tree, heuristic="dfs"))
                return manager.from_fault_tree(tree)

            try:
                function = cache.get_or_compute_subtree(
                    tree, tree.top_event, ARTIFACT_SUBTREE_BDD, build
                )
                flat = flatten_bdd(function)
                row = flat.probability_rows((tree.probabilities(),))[0]
            except (ReproError, MemoryError, RecursionError):
                failed_structures.add(structure_key)
                continue
            group = groups.setdefault(id(function), (flat, [], []))
            group[1].append(tree)
            group[2].append(row)
        for flat, group_trees, rows in groups.values():
            values = suite.eval_bdd_batch(flat, rows)
            for group_tree, value in zip(group_trees, values):
                self._pending_ptop[id(group_tree)] = (group_tree, value)
                staged += 1
        return staged

    @property
    def uses_batched_rerank(self) -> bool:
        """True when maxsat solves can be batched through the re-rank kernel.

        Requires the warm incremental backend (so scenarios are weight-only
        re-solves on persistent sessions) — batch callers use this to decide
        whether :meth:`precompute_rerank` will pay off.
        """
        return self._warm_backend is not None and getattr(
            self._warm_backend, "precompute_rerank", None
        ) is not None

    def precompute_rerank(self, trees: Sequence[FaultTree]) -> int:
        """Batch the first MaxSAT solve of ``trees`` through the re-rank kernel.

        Delegates to the warm backend's
        :meth:`~repro.api.backends.MaxSATBackend.precompute_rerank`: trees are
        grouped by structure and each group's weight grid runs through the
        pooled / certified / B&B / fallback ladder of
        :meth:`~repro.maxsat.incremental.IncrementalMaxSATSession.solve_batch`
        in one call — results byte-identical to the per-scenario loop, SAT
        calls near zero in steady state.  The per-scenario analysis then
        consumes the staged solves transparently.  Returns the number staged
        (0 when the backend has no batch path).
        """
        if not self.uses_batched_rerank:
            return 0
        return self._warm_backend.precompute_rerank(trees)

    def clear_staged_rerank(self) -> None:
        """Drop unconsumed staged batch solves (frees their tree references)."""
        if self.uses_batched_rerank:
            self._warm_backend.clear_staged_rerank()

    def evict_tree_artifacts(self, base: FaultTree, patched: FaultTree) -> None:
        """Public alias of the per-scenario cache eviction (see below)."""
        self._evict_scenario_artifacts(base, patched)

    def run(
        self,
        tree: FaultTree,
        scenarios: Iterable[Scenario],
        *,
        analyses: Sequence[str] = DEFAULT_ANALYSES,
        top_k: int = 5,
        samples: int = 0,
        seed: int = 0,
        stop_check: Optional[Callable[[], None]] = None,
        on_outcome: Optional[Callable[[ScenarioOutcome], None]] = None,
    ) -> ScenarioReport:
        """Analyse ``tree`` and every scenario; return the delta report.

        ``stop_check`` is the cooperative-cancellation hook: it is invoked
        before the base analysis and before every scenario, and aborting is
        done by *raising* from it (the service raises its job-cancelled /
        job-timeout errors there).  It deliberately runs outside the
        per-scenario error handling so a cancellation is never recorded as a
        failed scenario outcome.

        A ``top_event`` request outside the configured backend's capabilities
        is not forced through it: a ``maxsat`` sweep with the default
        ``("mpmcs", "top_event")`` analyses runs ``mpmcs`` through the warm
        MaxSAT path while ``top_event`` is served by the structure-keyed BDD
        (the same diagram the ``exact_top_event`` augmentation uses), so every
        backend answers the sweep's two headline questions.  Any *other*
        unsupported analysis fails loudly, exactly like a direct ``analyze``.
        """
        # Warm incremental solving is scoped to this sweep: the scope
        # restores the backend's routing afterwards so one-off analyses on a
        # shared session keep the cold portfolio (the warm sessions
        # themselves are retained for the next sweep).
        with self.warm_scope():
            return self._run(
                tree,
                scenarios,
                analyses=analyses,
                top_k=top_k,
                samples=samples,
                seed=seed,
                stop_check=stop_check,
                on_outcome=on_outcome,
            )

    def _run(
        self,
        tree: FaultTree,
        scenarios: Iterable[Scenario],
        *,
        analyses: Sequence[str],
        top_k: int,
        samples: int,
        seed: int,
        stop_check: Optional[Callable[[], None]] = None,
        on_outcome: Optional[Callable[[ScenarioOutcome], None]] = None,
    ) -> ScenarioReport:
        scenario_list = list(scenarios)
        started = time.perf_counter()
        if stop_check is not None:
            stop_check()

        # ``top_event`` is the one analysis with a backend-independent
        # fallback (the structure-keyed BDD in analyze_tree), so it alone is
        # lifted out of the backend's request.  Any other unsupported
        # analysis stays in and fails loudly in the session, exactly like a
        # direct ``analyze`` call would.
        analyses = self.prepare_analyses(analyses)

        base = self.analyze_tree(
            tree, analyses, top_k=top_k, samples=samples, seed=seed
        )
        base_top = _top_event_estimate(base)
        base_mpmcs_events = base.mpmcs.events if base.mpmcs is not None else None
        base_mpmcs_probability = base.mpmcs.probability if base.mpmcs is not None else None

        report = ScenarioReport(
            tree_name=tree.name,
            analyses=tuple(base.request.analyses),
            backend=self.backend,
            incremental=self.incremental,
            base=base,
            base_top_event=base_top,
            base_mpmcs_events=base_mpmcs_events,
            base_mpmcs_probability=base_mpmcs_probability,
        )

        # Batched precomputation: when the structure-keyed BDD serves the top
        # event and/or the warm MaxSAT backend can batch its re-ranks,
        # pre-apply every patch and push the whole scenario grid through the
        # kernel seam — one BDD evaluation pass and one solve_batch per
        # structure; the loop below then consumes the staged values.
        prepared: List[Tuple[Optional[FaultTree], Optional[ReproError]]] = []
        batch_rerank = self.uses_batched_rerank and any(
            analysis in ("mpmcs", "ranking") for analysis in analyses
        )
        if self._fill_top_event or batch_rerank:
            for scenario in scenario_list:
                try:
                    prepared.append((scenario.apply(tree), None))
                except ReproError as exc:
                    prepared.append((None, exc))
            patched_trees = [patched for patched, _ in prepared if patched is not None]
            if self._fill_top_event:
                self.precompute_top_events(patched_trees)
            if batch_rerank:
                self.precompute_rerank(patched_trees)

        for position, scenario in enumerate(scenario_list):
            # Outside the try: a cancellation raised here must abort the
            # sweep, not be recorded as one failed scenario outcome.
            if stop_check is not None:
                stop_check()
            scenario_started = time.perf_counter()
            try:
                if prepared:
                    patched, apply_error = prepared[position]
                    if apply_error is not None:
                        raise apply_error
                else:
                    patched = scenario.apply(tree)
                partial = self.analyze_tree(
                    patched, analyses, top_k=top_k, samples=samples, seed=seed
                )
            except ReproError as exc:
                failed = ScenarioOutcome(
                    name=scenario.name,
                    description=scenario.describe(),
                    time_s=time.perf_counter() - scenario_started,
                    error=str(exc),
                )
                report.outcomes.append(failed)
                if on_outcome is not None:
                    on_outcome(failed)
                continue
            self._evict_scenario_artifacts(tree, patched)
            top = _top_event_estimate(partial)
            mpmcs = partial.mpmcs
            outcome = ScenarioOutcome(
                name=scenario.name,
                description=scenario.describe(),
                top_event=top,
                top_event_delta=(
                    top - base_top if top is not None and base_top is not None else None
                ),
                mpmcs_events=mpmcs.events if mpmcs is not None else None,
                mpmcs_probability=mpmcs.probability if mpmcs is not None else None,
                mpmcs_delta=(
                    mpmcs.probability - base_mpmcs_probability
                    if mpmcs is not None and base_mpmcs_probability is not None
                    else None
                ),
                mpmcs_changed=mpmcs_identity_changed(
                    base_mpmcs_events, mpmcs.events if mpmcs is not None else None
                ),
                time_s=time.perf_counter() - scenario_started,
            )
            report.outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        self._pending_ptop.clear()
        self.clear_staged_rerank()
        report.cache_stats = self.session.cache_info()
        report.total_time_s = time.perf_counter() - started
        return report

    def _augment_exact_top_event(self, tree: FaultTree, report: AnalysisReport) -> None:
        """Fill in the exact BDD top-event probability where only bounds exist.

        The cut-set backends stop computing exact inclusion-exclusion beyond
        20 cut sets, so large perturbed trees used to report bounds only.
        This resolves the exact value through a BDD compiled once per
        *structure* (probability-only scenarios share it) and merges it into
        the report's :class:`TopEventSummary`, keeping the bounds alongside.
        """
        if not self.exact_top_event and not getattr(self, "_fill_top_event", False):
            return
        summary = report.top_event
        if summary is None and not getattr(self, "_fill_top_event", False):
            return
        if summary is not None and summary.exact is not None:
            return
        exact = self._bdd_top_event(tree)
        if exact is None:
            return
        filled = TopEventSummary(exact=exact, backend="bdd")
        report.top_event = filled if summary is None else filled.merged_with(summary)
        previous = report.backends.get("top_event")
        report.backends["top_event"] = f"{previous}+bdd" if previous else "bdd"

    def _bdd_top_event(self, tree: FaultTree) -> Optional[float]:
        """Exact P(top) via the structure-keyed BDD; ``None`` when unavailable."""
        cache = self.session.artifacts
        structure_key = cache.structure_keys_for(tree)[tree.top_event]
        if structure_key in self._bdd_unavailable:
            self._pending_ptop.pop(id(tree), None)
            return None
        pending = self._pending_ptop.pop(id(tree), None)
        if pending is not None and pending[0] is tree:
            return pending[1]

        def build() -> BDD:
            manager = BDDManager(variable_order(tree, heuristic="dfs"))
            return manager.from_fault_tree(tree)

        try:
            function = cache.get_or_compute_subtree(
                tree, tree.top_event, ARTIFACT_SUBTREE_BDD, build
            )
            return probability_of_bdd(function, tree.probabilities())
        except (ReproError, MemoryError, RecursionError):
            self._bdd_unavailable.add(structure_key)
            return None

    def _evict_scenario_artifacts(self, base: FaultTree, patched: FaultTree) -> None:
        """Drop the scenario tree's whole-tree cache entries after analysis.

        Whole-tree artifacts are keyed by a probability-including hash that
        is unique to the scenario, so once its report is assembled they are
        dead weight — without eviction a long sweep grows the session cache
        by one seeded collection (plus backend artifacts) per scenario.  The
        shared *subtree* entries, which every later scenario reuses, are
        kept; so is everything belonging to the base tree (an identity
        scenario such as ``mission-time*1`` hashes equal to it).
        """
        artifacts = self.session.artifacts
        if artifacts.key_for(patched) != artifacts.key_for(base):
            # Memory-only eviction (include_backend=False): this reclaims the
            # dead per-scenario weight from the hot tier without paying disk
            # deletions per scenario or destroying store entries that a
            # future identical scenario could reuse.
            artifacts.invalidate(patched, include_subtrees=False, include_backend=False)


def run_sweep(
    tree: FaultTree,
    scenarios: Iterable[Scenario],
    *,
    analyses: Sequence[str] = DEFAULT_ANALYSES,
    backend: str = DEFAULT_BACKEND,
    incremental: bool = True,
    session: Optional[AnalysisSession] = None,
    top_k: int = 5,
    samples: int = 0,
    seed: int = 0,
    exact_top_event: bool = True,
) -> ScenarioReport:
    """One-shot convenience wrapper around :class:`SweepExecutor`."""
    executor = SweepExecutor(
        session, incremental=incremental, backend=backend, exact_top_event=exact_top_event
    )
    return executor.run(
        tree, scenarios, analyses=analyses, top_k=top_k, samples=samples, seed=seed
    )
