"""The sweep executor: evaluate many scenarios with incremental re-analysis.

:class:`SweepExecutor` layers on the ordinary
:class:`~repro.api.session.AnalysisSession`: a sweep's scenarios are one
:meth:`~repro.api.session.AnalysisSession.run_batch`, through the same
backend registry, request validation and report types as a one-off analysis,
and each backend shares repeated work across the batch (``maxsat`` keeps a
warm solver session per structure, ``bdd`` evaluates the top events in one
kernel call).  Per scenario the executor adds two things:

* **Cut-set seeding.**  When an analysis is routed to a backend that reads
  the whole-tree cut-set artifact (its
  :attr:`~repro.api.registry.AnalysisBackend.CUT_SET_ANALYSES`), the minimal
  cut sets are assembled from the session cache's *subtree* artifacts (see
  :mod:`repro.scenarios.incremental`) and seeded as that artifact, which
  turns a 200-scenario probability sweep into one structural enumeration
  plus 200 cheap probability re-rankings.
* **Exact top events** from a ``bdd`` batch, where the backend cannot answer
  ``top_event`` or answers with bounds only.

The results are identical to fresh per-scenario analysis; the tests
cross-check this against two independent backends.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.registry import backend_class, canonical_backend_name, run_each
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.api.session import AnalysisSession
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

#: The request of the ``bdd`` batch that supplies exact top events.
_EXACT_TOP_EVENT = AnalysisRequest.create(("top_event",), backend="bdd")

Result = Union[AnalysisReport, ReproError]


def _top_event_estimate(report: AnalysisReport) -> Optional[float]:
    if report.top_event is None:
        return None
    return report.top_event.best_estimate


def _passed(results: Iterable[Union[FaultTree, ReproError]]) -> Iterator[FaultTree]:
    """The trees among ``results``, skipping the errors."""
    return (tree for tree in results if not isinstance(tree, ReproError))


class SweepExecutor:
    """Evaluates scenario families against a base tree with shared caching.

    Parameters
    ----------
    session:
        Optional pre-built :class:`AnalysisSession`; its artifact cache and
        backends then persist across sweeps (a second sweep over the same
        tree starts fully warm).  A fresh session is created otherwise.
    incremental:
        When true (default), scenarios go through the session's
        :meth:`~repro.api.session.AnalysisSession.run_batch`, with their cut
        sets seeded from the subtree cache for the cut-set backends.
        ``False`` forces the naive path — a cold
        :meth:`~repro.api.session.AnalysisSession.run` per scenario, which
        re-enumerates from scratch — for correctness cross-checks and the
        speedup benchmark.
    backend:
        Registry name of the backend analysing every scenario.
    exact_top_event:
        When true (default), scenarios whose cut-set analysis returned only
        probability *bounds* — the cut-set backends cap exact
        inclusion-exclusion at 20 cut sets — get their exact top-event
        probability from the ``bdd`` backend instead, whose diagram is
        compiled once per structure.  Trees whose BDD compilation fails
        (pathological orderings) keep the bounds.
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
        self._fill_top_event = False
        #: Whether scenarios get their cut sets seeded; decided per analysis
        #: list by :meth:`prepare_analyses`.  Until then it follows
        #: ``incremental``: seeding only pre-fills a cache entry, so a wrong
        #: guess costs time, never an answer.
        self._seeds_cut_sets = incremental
        # Automatic routing covers every analysis.
        self._capabilities = (
            None
            if backend == "auto"
            else backend_class(canonical_backend_name(backend)).capabilities()
        )

    def prepare_analyses(
        self, analyses: Sequence[str] = DEFAULT_ANALYSES
    ) -> Tuple[str, ...]:
        """Resolve the analyses the backend itself will run (see :meth:`run`).

        Splits off the ``top_event`` request when the configured backend
        cannot serve it (the ``bdd`` batch fills it instead), and decides
        whether cut sets are seeded: only when ``incremental`` is on and a
        backend the analyses are routed to reads the cut-set artifact.  Both
        decisions are recorded for :meth:`analyze_batch`.
        """
        requested = tuple(analyses)
        run_analyses = requested
        self._fill_top_event = False
        if self._capabilities is not None and "top_event" not in self._capabilities:
            # With an empty remainder this is a probability-only sweep: no
            # backend analyses at all — the bdd batch serves ``top_event`` on
            # its own.
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

    def analyze_batch(
        self,
        trees: Iterable[FaultTree],
        analyses: Sequence[str],
        *,
        top_k: int = 5,
        samples: int = 0,
        seed: int = 0,
    ) -> Iterator[Result]:
        """Analyse ``trees`` as one batch; yield one result per tree, in order.

        Each tree's cut sets are seeded if :meth:`prepare_analyses` decided so,
        the session's ``run_batch`` (a cold ``run`` per tree when
        ``incremental`` is off) analyses it, and the exact ``bdd`` top event
        is merged in where the backend has none.  A failing tree gets its
        :class:`ReproError` as its result.  ``analyses`` should come from
        :meth:`prepare_analyses`.
        """
        return self._results(
            trees, analyses, warm=self.incremental, top_k=top_k, samples=samples, seed=seed
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
        """One cold analysis of ``tree``, as a sweep with ``incremental=False``
        makes per scenario: :meth:`analyze_batch` with a cold ``run`` in place
        of the session's batch.  Raises the analysis error, if any."""
        (result,) = self._results(
            [tree], analyses, warm=False, top_k=top_k, samples=samples, seed=seed
        )
        if isinstance(result, ReproError):
            raise result
        return result

    def _results(
        self,
        trees: Iterable[FaultTree],
        analyses: Sequence[str],
        *,
        warm: bool,
        top_k: int,
        samples: int,
        seed: int,
    ) -> Iterator[Result]:
        # A probability-only sweep asks the bdd batch alone for ``top_event``.
        probability_only = not analyses and self._fill_top_event
        request = AnalysisRequest.create(
            ("top_event",) if probability_only else analyses,
            backend=self.backend,
            top_k=top_k,
            samples=samples,
            seed=seed,
        )
        source = run_each(trees, self._seeded)
        exact: Optional[Iterator[Result]] = None
        if self._fill_top_event:
            source, evaluated = itertools.tee(source)
            exact = self._exact_top_events(_passed(evaluated))
        checked, analysed = itertools.tee(source)
        if probability_only:
            reports = run_each(_passed(analysed), lambda tree: self._empty_report(tree, request))
        elif warm:
            reports = self.session.run_batch(_passed(analysed), request)
        else:
            reports = run_each(_passed(analysed), lambda tree: self.session.run(tree, request))
        for tree in checked:
            if isinstance(tree, ReproError):
                yield tree
                continue
            report = next(reports)
            top_event = next(exact) if exact is not None else None
            if isinstance(report, AnalysisReport):
                report = self._merge_exact_top_event(tree, report, top_event)
            yield report

    def _seeded(self, tree: FaultTree) -> FaultTree:
        """``tree``, its cut sets seeded if a cut-set backend will read them."""
        if self._seeds_cut_sets:
            seed_session_cut_sets(tree, self.session.artifacts)
        return tree

    def _empty_report(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        """A probability-only scenario's report: no backend runs, the ``bdd``
        batch alone fills it."""
        tree.validate()
        report = AnalysisReport(tree=tree, request=request)
        report.profile["kernel"] = self.session.kernels.name
        report.cache_stats = self.session.artifacts.stats()
        return report

    def _exact_top_events(self, trees: Iterable[FaultTree]) -> Iterator[Result]:
        """The ``bdd`` backend's top-event batch over ``trees``."""
        return self.session.backend("bdd").run_batch(trees, _EXACT_TOP_EVENT)

    def _merge_exact_top_event(
        self, tree: FaultTree, report: AnalysisReport, exact: Optional[Result]
    ) -> Result:
        """Merge the exact ``bdd`` top event into ``report`` where it lacks one.

        ``exact`` is the tree's result from the batch when the configured
        backend cannot serve ``top_event``.  A report with bounds only — the
        cut-set backends stop computing exact inclusion-exclusion beyond 20
        cut sets — asks the ``bdd`` backend for a batch of one.  The exact
        value leads the merged summary and the bounds stay alongside.  A
        probability-only report (no backend ran) without it is an error.
        """
        bounds = report.top_event
        if bounds is None and not self._fill_top_event:
            return report
        if bounds is not None and (bounds.exact is not None or not self.exact_top_event):
            return report
        if exact is None:
            (exact,) = self._exact_top_events([tree])
        if isinstance(exact, ReproError):
            if report.backends:
                return report
            return AnalysisError(
                f"backend {self.backend!r} does not support 'top_event' and the "
                f"BDD fast path is unavailable for tree {tree.name!r}"
            )
        report.top_event = None
        report.merge_from(exact, ("top_event",), "bdd")
        if bounds is not None:
            report.top_event = report.top_event.merged_with(bounds)
        return report

    def precompute_top_events(self, trees: Sequence[FaultTree]) -> List[Optional[float]]:
        """Exact P(top) per tree from one ``bdd`` batch (``None`` where the
        diagram cannot be compiled); kept for the benchmark tracer."""
        return [
            result.top_event.exact if isinstance(result, AnalysisReport) else None
            for result in self._exact_top_events(trees)
        ]

    def precompute_rerank(self, trees: Sequence[FaultTree]) -> int:
        """Does nothing and returns 0.

        Kept only because the benchmark tracer wraps it by name: every MaxSAT
        solve now runs per scenario, certified from the warm session's
        candidate pool where possible (see
        :meth:`~repro.maxsat.incremental.IncrementalMaxSATSession.solve`).
        """
        return 0

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

        The base tree is a batch of one and the scenarios are one batch;
        ``on_outcome`` gets each scenario's outcome as it completes.

        ``stop_check`` is the cooperative-cancellation hook: it is invoked
        before the base analysis and before every scenario, and aborting is
        done by *raising* from it (the service raises its job-cancelled /
        job-timeout errors there).  It deliberately runs outside the
        per-scenario error handling so a cancellation is never recorded as a
        failed scenario outcome.

        A ``top_event`` request outside the configured backend's capabilities
        is not forced through it: a ``maxsat`` sweep with the default
        ``("mpmcs", "top_event")`` analyses runs ``mpmcs`` through the warm
        MaxSAT path while ``top_event`` comes from the ``bdd`` batch (the
        same diagram the ``exact_top_event`` augmentation uses), so every
        backend answers the sweep's two headline questions.  Any *other*
        unsupported analysis fails loudly, exactly like a direct ``analyze``.
        """
        scenario_list = list(scenarios)
        started = time.perf_counter()
        if stop_check is not None:
            stop_check()
        analyses = self.prepare_analyses(analyses)
        options = {"top_k": top_k, "samples": samples, "seed": seed}
        (base,) = self.analyze_batch([tree], analyses, **options)
        if isinstance(base, ReproError):
            raise base
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

        staged, applied = itertools.tee(
            run_each(scenario_list, lambda scenario: scenario.apply(tree))
        )
        results = self.analyze_batch(_passed(applied), analyses, **options)
        for scenario in scenario_list:
            # Outside the error handling: a cancellation raised here must
            # abort the sweep, not be recorded as one failed scenario.
            if stop_check is not None:
                stop_check()
            scenario_started = time.perf_counter()
            patched = next(staged)
            result = patched if isinstance(patched, ReproError) else next(results)
            time_s = time.perf_counter() - scenario_started
            if isinstance(result, ReproError):
                outcome = ScenarioOutcome(
                    name=scenario.name,
                    description=scenario.describe(),
                    time_s=time_s,
                    error=str(result),
                )
            else:
                self.evict_tree_artifacts(tree, patched)
                top = _top_event_estimate(result)
                mpmcs = result.mpmcs
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
                    time_s=time_s,
                )
            report.outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        report.cache_stats = self.session.cache_info()
        report.total_time_s = time.perf_counter() - started
        return report

    def evict_tree_artifacts(self, base: FaultTree, patched: FaultTree) -> None:
        """Drop a scenario tree's whole-tree cache entries after analysis.

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
