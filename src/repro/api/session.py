"""The :class:`AnalysisSession` — the facade's stateful front door.

A session owns three pieces of shared state:

* an :class:`~repro.api.cache.ArtifactCache` memoising expensive per-tree
  intermediates (CNF encoding, minimal cut sets, compiled BDD);
* one :class:`~repro.core.pipeline.MPMCSSolver` (the MaxSAT portfolio),
  constructed once instead of per call;
* one instance of each backend, created lazily from the registry.

``analyze`` routes every requested analysis to a backend — an explicit one,
or per-analysis defaults under ``backend="auto"`` — and merges the partial
results into a single :class:`~repro.api.report.AnalysisReport`:

.. code-block:: python

    from repro.api import AnalysisSession
    from repro.workloads.library import fire_protection_system

    session = AnalysisSession()
    report = session.analyze(
        fire_protection_system(), analyses=["mpmcs", "top_event", "importance"]
    )
    report.mpmcs.events        # ('x1', 'x2')
    report.top_event.exact     # 0.030021740…
    session.cache_info()       # hit/miss counters proving artifact reuse

``run_batch`` runs one request over many trees (the scenarios of a sweep,
the updates of a monitor) and lets each backend share work across them.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.api.cache import ArtifactCache
from repro.api.registry import (
    AnalysisBackend,
    BackendContext,
    backend_class,
    backends_supporting,
    canonical_backend_name,
    create_backend,
    run_each,
)
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.core.pipeline import MPMCSSolver
from repro.exceptions import AnalysisError, ReproError
from repro.fta.tree import FaultTree
from repro import kernels
from repro.maxsat.instance import DEFAULT_PRECISION
from repro.observability import metrics as _metrics
from repro.observability import trace as _trace

# The built-in backends register themselves on import.
import repro.api.backends  # noqa: F401  (registration side effect)

__all__ = ["AnalysisSession", "DEFAULT_ROUTES"]

#: Preferred backend order per analysis under automatic routing.  The first
#: registered backend in each tuple wins; analyses missing from this table
#: fall back to any registered backend that supports them (sorted by name).
DEFAULT_ROUTES: Dict[str, Tuple[str, ...]] = {
    "mpmcs": ("maxsat", "bdd", "mocus", "brute-force"),
    "ranking": ("maxsat",),
    "mcs": ("mocus", "bdd", "brute-force"),
    "top_event": ("bdd", "mocus", "brute-force", "monte-carlo"),
    "importance": ("mocus", "brute-force"),
    "spof": ("mocus",),
    "modules": ("mocus",),
    "truncation": ("mocus",),
}

#: Under automatic routing, ``top_event`` is a composite: the BDD backend
#: contributes the exact probability, the MOCUS backend the classical bounds,
#: and (when ``samples > 0``) the Monte Carlo backend a sampling estimate.
_TOP_EVENT_AUTO_PROVIDERS: Tuple[str, ...] = ("bdd", "mocus")


def _validated(tree: FaultTree) -> FaultTree:
    tree.validate()
    return tree


class AnalysisSession:
    """Front door for every analysis, with routing, caching and batching.

    **Cache staleness and in-place tree mutation.**  Artifacts are keyed by a
    content hash of the tree, so mutating a tree in place (e.g.
    :meth:`FaultTree.set_probability`, :meth:`FaultTree.add_gate`) is *safe*
    with respect to correctness: the next :meth:`analyze` sees a new hash and
    recomputes.  Two hazards remain, however.  First, results already handed
    out — an :class:`AnalysisReport`, a cached ``CutSetCollection`` — are
    snapshots and are **not** updated when the tree changes; re-run the
    analysis after mutating.  Second, entries stored under the pre-mutation
    hash become unreachable garbage that :meth:`invalidate` cannot find any
    more (it can only compute the *current* hash); call :meth:`invalidate`
    *before* mutating a tree you will not analyse again, or use
    :meth:`clear_cache` to reclaim everything.  Non-destructive perturbation
    via :mod:`repro.scenarios` patches sidesteps both hazards.

    Parameters
    ----------
    mode:
        Execution mode of the MaxSAT portfolio (``"sequential"``, the
        default, or ``"process"``).  Ignored when ``solver`` is given.
    precision:
        Integer scaling applied to the ``-log`` probability weights.
    solver:
        Optional pre-configured :class:`MPMCSSolver` shared by the session.
    cache:
        Optional pre-existing :class:`ArtifactCache` (e.g. to share artifacts
        across sessions); a fresh one is created otherwise.
    kernel_tier:
        Compute-kernel tier for batch evaluation hot paths (``"numpy"``,
        ``"python"`` or ``"auto"``); resolved once here via
        :func:`repro.kernels.select` and surfaced in
        ``AnalysisReport.profile["kernel"]``.  All tiers produce bit-identical
        results — this only trades speed.
    """

    def __init__(
        self,
        *,
        mode: str = "sequential",
        precision: int = DEFAULT_PRECISION,
        solver: Optional[MPMCSSolver] = None,
        cache: Optional[ArtifactCache] = None,
        kernel_tier: Optional[str] = None,
    ) -> None:
        self.artifacts = cache if cache is not None else ArtifactCache()
        self.solver = solver if solver is not None else MPMCSSolver(mode=mode, precision=precision)
        self.kernels = kernels.select(kernel_tier)
        self.context = BackendContext(
            artifacts=self.artifacts,
            solver=self.solver,
            precision=precision,
            kernels=self.kernels,
        )
        self._backends: Dict[str, AnalysisBackend] = {}

    # -- backend access ---------------------------------------------------------------

    def backend(self, name: str) -> AnalysisBackend:
        """The session's instance of the backend registered under ``name``."""
        canonical = canonical_backend_name(name)
        instance = self._backends.get(canonical)
        if instance is None:
            instance = create_backend(canonical, self.context)
            self._backends[canonical] = instance
        return instance

    def cache_info(self) -> Dict[str, object]:
        """Hit/miss statistics of the session's artifact cache."""
        return self.artifacts.stats()

    def invalidate(self, tree: FaultTree) -> int:
        """Drop every cached artifact of ``tree``; returns the number removed.

        Call this *before* mutating a tree in place if you will not analyse
        the pre-mutation structure again — afterwards the old entries are
        keyed under a hash that can no longer be derived from the tree (see
        the class docstring on staleness).
        """
        return self.artifacts.invalidate(tree)

    def clear_cache(self) -> None:
        """Drop all cached artifacts and reset the hit/miss counters."""
        self.artifacts.clear()

    # -- analysis ----------------------------------------------------------------------

    def analyze(
        self,
        tree: FaultTree,
        analyses: Iterable[str] = ("mpmcs",),
        *,
        backend: str = "auto",
        top_k: int = 5,
        samples: int = 0,
        seed: int = 0,
        cutoff: float = 1e-9,
        deterministic: bool = True,
    ) -> AnalysisReport:
        """Run the requested analyses on ``tree`` and return one merged report.

        ``analyses`` accepts the canonical names (and common aliases) of
        :data:`repro.api.report.ANALYSES`.  ``backend`` forces every analysis
        through one registered backend; the default ``"auto"`` routes each
        analysis to its preferred backend (:data:`DEFAULT_ROUTES`).
        """
        request = AnalysisRequest.create(
            analyses,
            backend=backend,
            top_k=top_k,
            samples=samples,
            seed=seed,
            cutoff=cutoff,
            deterministic=deterministic,
        )
        return self.run(tree, request)

    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        """Execute a pre-built :class:`AnalysisRequest` against ``tree``.

        When an ambient tracer is recording (:func:`repro.observability.use_tracer`)
        the run is wrapped in an ``analyze`` span — with per-backend child
        spans — and the serialized tree is attached as ``report.trace``.  The
        span's counters mirror ``report.profile``, so the profile is a pure
        projection of the trace (:func:`repro.observability.profile_view`).
        """
        tree.validate()
        plan = self._plan(request)
        with _trace.span("analyze", tree=tree.name, backend=request.backend) as analyze_span:
            report = self._run_traced(
                tree,
                request,
                plan,
                lambda name, scoped: self.backend(name).run(tree, scoped),
                analyze_span,
            )
        if analyze_span.is_recording:
            report.trace = analyze_span.to_dict()
        return report

    def run_batch(
        self, trees: Iterable[FaultTree], request: AnalysisRequest
    ) -> Iterator[Union[AnalysisReport, ReproError]]:
        """Run one request over many trees; yield one result per tree, in order.

        Each backend of the plan analyses the batch through its
        :meth:`~repro.api.registry.AnalysisBackend.run_batch`, where repeated
        work is shared.  Per tree all else is as in :meth:`run`; a tree whose
        analysis raises a :class:`ReproError` gets the error as its result.
        ``trees`` is consumed one tree at a time, as each is analysed, unless
        a backend needs the whole batch up front.
        """
        plan = self._plan(request)
        own, *copies = itertools.tee(run_each(trees, _validated), len(plan) + 1)
        streams = {
            name: self.backend(name).run_batch(
                (tree for tree in copy if not isinstance(tree, ReproError)),
                request.restricted_to(assigned, name),
            )
            for (name, assigned), copy in zip(plan, copies)
        }
        for tree in own:
            if isinstance(tree, ReproError):
                yield tree
                continue
            pending = dict(streams)

            def partial(name: str, scoped: AnalysisRequest) -> AnalysisReport:
                result = next(pending.pop(name))
                if isinstance(result, ReproError):
                    raise result
                return result

            result: Union[AnalysisReport, ReproError]
            try:
                with _trace.span(
                    "analyze", tree=tree.name, backend=request.backend
                ) as analyze_span:
                    result = self._run_traced(tree, request, plan, partial, analyze_span)
            except ReproError as exc:
                # Keep the backends this tree did not reach in step.
                for stream in pending.values():
                    next(stream)
                result = exc
            else:
                if analyze_span.is_recording:
                    result.trace = analyze_span.to_dict()
            yield result

    def _run_traced(
        self,
        tree: FaultTree,
        request: AnalysisRequest,
        plan: List[Tuple[str, Tuple[str, ...]]],
        partial: Callable[[str, AnalysisRequest], AnalysisReport],
        analyze_span,
    ) -> AnalysisReport:
        """Merge ``partial(name, scoped)``, backend ``name``'s report, in plan
        order."""
        report = AnalysisReport(tree=tree, request=request)
        provider_counts: Dict[str, int] = {}
        for _, assigned in plan:
            for analysis in assigned:
                provider_counts[analysis] = provider_counts.get(analysis, 0) + 1
        cache_before = (
            self.artifacts.hits,
            self.artifacts.misses,
            self.artifacts.store_hits,
            self.artifacts.store_misses,
        )
        registry = _metrics.get_metrics()
        for backend_name, assigned in plan:
            scoped = request.restricted_to(assigned, backend_name)
            start = time.perf_counter()
            try:
                with _trace.span(
                    f"backend:{backend_name}", analyses=",".join(assigned)
                ) as backend_span:
                    backend_report = partial(backend_name, scoped)
                    backend_span.merge_counters(backend_report.profile)
                registry.inc("repro_analyses_total", backend=backend_name)
            except AnalysisError as exc:
                # An auxiliary provider (e.g. MOCUS contributing optional
                # top-event bounds next to the BDD's exact value) may fail on
                # trees another provider handles fine — degrade instead of
                # sinking the whole request.  A backend that is the *only*
                # provider of any assigned analysis must still raise.
                if all(provider_counts[analysis] > 1 for analysis in assigned):
                    report.warnings.append(
                        f"backend {backend_name!r} failed for "
                        f"{', '.join(assigned)}: {exc}"
                    )
                    continue
                raise
            elapsed = time.perf_counter() - start
            report.merge_from(backend_report, assigned, backend_name)
            report.timings[backend_name] = report.timings.get(backend_name, 0.0) + elapsed
            # Per-stage profile: backends contribute encode/solve stage
            # timings; numeric entries sum when several backends serve one
            # composite request.
            for key, value in backend_report.profile.items():
                report.profile[key] = report.profile.get(key, 0) + value
        report.profile["kernel"] = self.kernels.name
        report.profile["cache_hits"] = self.artifacts.hits - cache_before[0]
        report.profile["cache_misses"] = self.artifacts.misses - cache_before[1]
        if self.artifacts.backend is not None:
            report.profile["store_hits"] = self.artifacts.store_hits - cache_before[2]
            report.profile["store_misses"] = self.artifacts.store_misses - cache_before[3]
        missing = [name for name in request.analyses if name not in report.backends]
        if missing:
            detail = f"; degraded providers: {'; '.join(report.warnings)}" if report.warnings else ""
            raise AnalysisError(
                f"no backend produced the requested analyses {missing!r} "
                f"(backend={request.backend!r}){detail}"
            )
        report.cache_stats = self.artifacts.stats()
        # The profile doubles as the analyze span's counter set, making the
        # profile a pure projection of the trace (observability.profile_view).
        analyze_span.merge_counters(report.profile)
        return report

    # -- routing ----------------------------------------------------------------------

    def _plan(self, request: AnalysisRequest) -> List[Tuple[str, Tuple[str, ...]]]:
        """Group the requested analyses by the backend that will run them.

        Returns ``[(backend_name, analyses), ...]`` preserving request order.
        """
        if request.backend != "auto":
            name = canonical_backend_name(request.backend)
            capabilities = backend_class(name).capabilities()
            unsupported = [a for a in request.analyses if a not in capabilities]
            if unsupported:
                raise AnalysisError(
                    f"backend {name!r} does not support {', '.join(unsupported)}; "
                    f"its capabilities are {', '.join(sorted(capabilities))}"
                )
            return [(name, request.analyses)]

        assignments: Dict[str, List[str]] = {}
        for analysis in request.analyses:
            for backend_name in self._providers_for(analysis, request):
                assignments.setdefault(backend_name, []).append(analysis)
        return [(name, tuple(assigned)) for name, assigned in assignments.items()]

    def _providers_for(self, analysis: str, request: AnalysisRequest) -> List[str]:
        """Backends that should contribute to ``analysis`` under auto routing."""
        if analysis == "top_event":
            providers = [
                name for name in _TOP_EVENT_AUTO_PROVIDERS if self._is_registered(name)
            ]
            if request.samples > 0 and self._is_registered("monte-carlo"):
                providers.append("monte-carlo")
            if providers:
                return providers
        for candidate in DEFAULT_ROUTES.get(analysis, ()):
            if self._is_registered(candidate):
                return [candidate]
        fallback = backends_supporting(analysis)
        if not fallback:
            raise AnalysisError(f"no registered backend supports the analysis {analysis!r}")
        return [fallback[0]]

    @staticmethod
    def _is_registered(name: str) -> bool:
        try:
            canonical_backend_name(name)
        except AnalysisError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnalysisSession(backends={sorted(self._backends)}, "
            f"cache={self.artifacts!r})"
        )
