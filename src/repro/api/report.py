"""Unified analysis request/report types for the :mod:`repro.api` facade.

The paper treats MPMCS resolution as one of several interchangeable
strategies (MaxSAT pipeline vs. classical MOCUS/BDD/brute-force baselines).
The facade therefore speaks a single vocabulary:

* :class:`AnalysisRequest` — *what* to compute (``analyses``), *how* to
  compute it (``backend``), and the knobs shared by every backend
  (``top_k``, ``samples``, ``seed``, ``cutoff``).
* :class:`AnalysisReport` — the one result object every backend returns and
  every :mod:`repro.reporting` renderer consumes.  Sections a backend did not
  compute stay ``None``; :meth:`AnalysisReport.merge_from` combines partial
  reports produced by different backends.

The report deliberately reuses the library's existing result dataclasses
(:class:`~repro.core.pipeline.MPMCSResult`,
:class:`~repro.analysis.cutsets.CutSetCollection`, …) so no information is
lost going through the facade, and :attr:`AnalysisReport.mpmcs_result`
bridges back to the legacy single-result renderers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.cutsets import CutSetCollection
from repro.analysis.importance import ImportanceMeasures
from repro.analysis.montecarlo import MonteCarloEstimate
from repro.analysis.truncation import TruncationResult
from repro.core.pipeline import MPMCSResult
from repro.core.topk import RankedCutSet
from repro.core.weights import log_weight
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree

__all__ = [
    "ANALYSES",
    "AnalysisReport",
    "AnalysisRequest",
    "MPMCSSummary",
    "TopEventSummary",
]

#: Canonical analysis names accepted by the facade.
ANALYSES: Tuple[str, ...] = (
    "mpmcs",
    "ranking",
    "mcs",
    "top_event",
    "importance",
    "spof",
    "modules",
    "truncation",
)

#: Accepted spellings for each canonical analysis name.
_ANALYSIS_ALIASES: Dict[str, str] = {
    "topevent": "top_event",
    "top-event": "top_event",
    "cut_sets": "mcs",
    "cutsets": "mcs",
    "cut-sets": "mcs",
    "minimal_cut_sets": "mcs",
    "topk": "ranking",
    "top_k": "ranking",
    "top-k": "ranking",
    "truncate": "truncation",
    "single_points_of_failure": "spof",
}


def canonical_analysis(name: str) -> str:
    """Map an analysis name (or alias) to its canonical form.

    Raises :class:`AnalysisError` for unknown names.
    """
    key = name.strip().lower().replace("-", "_")
    key = _ANALYSIS_ALIASES.get(key, key)
    if key not in ANALYSES:
        raise AnalysisError(
            f"unknown analysis {name!r}; available: {', '.join(ANALYSES)}"
        )
    return key


@dataclass(frozen=True)
class AnalysisRequest:
    """A validated, immutable description of one analysis run.

    Attributes
    ----------
    analyses:
        Canonical analysis names, deduplicated, in request order.
    backend:
        Registry name of the backend to use, or ``"auto"`` to route each
        analysis to its default backend.
    top_k:
        Number of cut sets for the ``"ranking"`` analysis.
    samples / seed:
        Monte Carlo sample count and PRNG seed for the ``"top_event"``
        analysis.  ``samples == 0`` (the default) disables the Monte Carlo
        estimate under automatic routing.
    cutoff:
        Probability cutoff for the ``"truncation"`` analysis.
    deterministic:
        Read by nothing: every backend always breaks ties canonically, and
        ``maxsat`` optimises that order directly, in ``top_k`` solves.  Kept
        on the wire and in :meth:`to_canonical_dict` so old requests and
        reports still load and keep their bytes.
    """

    analyses: Tuple[str, ...] = ("mpmcs",)
    backend: str = "auto"
    top_k: int = 5
    samples: int = 0
    seed: int = 0
    cutoff: float = 1e-9
    deterministic: bool = True

    @staticmethod
    def create(
        analyses: Iterable[str] = ("mpmcs",),
        *,
        backend: str = "auto",
        top_k: int = 5,
        samples: int = 0,
        seed: int = 0,
        cutoff: float = 1e-9,
        deterministic: bool = True,
    ) -> "AnalysisRequest":
        """Normalise and validate the arguments into an :class:`AnalysisRequest`."""
        if isinstance(analyses, str):
            analyses = (analyses,)
        canonical = list(dict.fromkeys(canonical_analysis(name) for name in analyses))
        if not canonical:
            raise AnalysisError("at least one analysis must be requested")
        if top_k <= 0:
            raise AnalysisError(f"top_k must be a positive integer, got {top_k}")
        if samples < 0:
            raise AnalysisError(f"samples must be non-negative, got {samples}")
        if not 0.0 < cutoff <= 1.0:
            raise AnalysisError(f"cutoff must lie in (0, 1], got {cutoff}")
        return AnalysisRequest(
            analyses=tuple(canonical),
            backend=backend,
            top_k=top_k,
            samples=samples,
            seed=seed,
            cutoff=cutoff,
            deterministic=deterministic,
        )

    def restricted_to(self, analyses: Iterable[str], backend: str) -> "AnalysisRequest":
        """A copy of this request scoped to one backend and a subset of analyses."""
        return replace(self, analyses=tuple(analyses), backend=backend)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "analyses": list(self.analyses),
            "backend": self.backend,
            "top_k": self.top_k,
            "samples": self.samples,
            "seed": self.seed,
            "cutoff": self.cutoff,
            "deterministic": self.deterministic,
        }

    @staticmethod
    def from_dict(document: Dict[str, Any]) -> "AnalysisRequest":
        """Inverse of :meth:`to_dict` (revalidates through :meth:`create`)."""
        return AnalysisRequest.create(
            document.get("analyses", ("mpmcs",)),
            backend=document.get("backend", "auto"),
            top_k=int(document.get("top_k", 5)),
            samples=int(document.get("samples", 0)),
            seed=int(document.get("seed", 0)),
            cutoff=float(document.get("cutoff", 1e-9)),
            deterministic=bool(document.get("deterministic", True)),
        )


@dataclass(frozen=True)
class MPMCSSummary:
    """Backend-independent description of a Maximum Probability Minimal Cut Set.

    ``detail`` carries the full :class:`MPMCSResult` when the MaxSAT pipeline
    produced the answer; classical backends leave it ``None``.
    """

    events: Tuple[str, ...]
    probability: float
    cost: float
    backend: str
    engine: str = ""
    solve_time: float = 0.0
    total_time: float = 0.0
    detail: Optional[MPMCSResult] = None

    @property
    def size(self) -> int:
        return len(self.events)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": list(self.events),
            "probability": self.probability,
            "cost": self.cost,
            "size": self.size,
            "backend": self.backend,
            "engine": self.engine,
            "solve_time_s": self.solve_time,
            "total_time_s": self.total_time,
        }

    @staticmethod
    def from_dict(document: Dict[str, Any]) -> "MPMCSSummary":
        """Inverse of :meth:`to_dict`.

        The full :class:`MPMCSResult` ``detail`` does not survive the JSON
        form — only the backend-independent summary does — so a round-tripped
        summary compares equal on every serialised field.
        """
        return MPMCSSummary(
            events=tuple(document["events"]),
            probability=float(document["probability"]),
            cost=float(document["cost"]),
            backend=document.get("backend", ""),
            engine=document.get("engine", ""),
            solve_time=float(document.get("solve_time_s", 0.0)),
            total_time=float(document.get("total_time_s", 0.0)),
        )


@dataclass(frozen=True)
class TopEventSummary:
    """Top-event probability estimates, possibly merged from several backends."""

    exact: Optional[float] = None
    rare_event_bound: Optional[float] = None
    min_cut_upper_bound: Optional[float] = None
    monte_carlo: Optional[MonteCarloEstimate] = None
    backend: str = ""

    def merged_with(self, other: "TopEventSummary") -> "TopEventSummary":
        """Field-wise merge; ``self`` wins where both summaries carry a value."""
        backends = [b for b in (self.backend, other.backend) if b]
        return TopEventSummary(
            exact=self.exact if self.exact is not None else other.exact,
            rare_event_bound=(
                self.rare_event_bound
                if self.rare_event_bound is not None
                else other.rare_event_bound
            ),
            min_cut_upper_bound=(
                self.min_cut_upper_bound
                if self.min_cut_upper_bound is not None
                else other.min_cut_upper_bound
            ),
            monte_carlo=self.monte_carlo if self.monte_carlo is not None else other.monte_carlo,
            backend="+".join(dict.fromkeys(backends)),
        )

    @property
    def best_estimate(self) -> Optional[float]:
        """The most trustworthy available estimate (exact > Monte Carlo > bounds)."""
        if self.exact is not None:
            return self.exact
        if self.monte_carlo is not None:
            return self.monte_carlo.probability
        if self.min_cut_upper_bound is not None:
            return self.min_cut_upper_bound
        return self.rare_event_bound

    def to_dict(self) -> Dict[str, Any]:
        monte_carlo = None
        if self.monte_carlo is not None:
            monte_carlo = {
                "probability": self.monte_carlo.probability,
                "standard_error": self.monte_carlo.standard_error,
                "confidence_low": self.monte_carlo.confidence_low,
                "confidence_high": self.monte_carlo.confidence_high,
                "samples": self.monte_carlo.samples,
                "seed": self.monte_carlo.seed,
            }
        return {
            "exact": self.exact,
            "rare_event_bound": self.rare_event_bound,
            "min_cut_upper_bound": self.min_cut_upper_bound,
            "monte_carlo": monte_carlo,
            "backend": self.backend,
        }

    @staticmethod
    def from_dict(document: Dict[str, Any]) -> "TopEventSummary":
        """Inverse of :meth:`to_dict`.

        The Monte Carlo hit *count* is not serialised (it is derivable as
        ``probability * samples``); the reconstructed estimate carries that
        derived value, which every serialised field is independent of.
        """
        monte_carlo = None
        raw = document.get("monte_carlo")
        if raw is not None:
            monte_carlo = MonteCarloEstimate(
                probability=float(raw["probability"]),
                standard_error=float(raw["standard_error"]),
                confidence_low=float(raw["confidence_low"]),
                confidence_high=float(raw["confidence_high"]),
                samples=int(raw["samples"]),
                hits=float(raw["probability"]) * int(raw["samples"]),
                seed=int(raw["seed"]),
            )
        return TopEventSummary(
            exact=document.get("exact"),
            rare_event_bound=document.get("rare_event_bound"),
            min_cut_upper_bound=document.get("min_cut_upper_bound"),
            monte_carlo=monte_carlo,
            backend=document.get("backend", ""),
        )


@dataclass
class AnalysisReport:
    """The unified result of an :class:`~repro.api.session.AnalysisSession` run.

    Only the sections corresponding to the requested analyses are populated;
    everything else stays ``None``.  ``backends`` records which backend
    produced each section (``"bdd+mocus"`` style values appear when automatic
    routing combined several backends for one analysis).
    """

    #: The analysed tree.  ``None`` only for reports reconstructed from JSON
    #: without a model at hand (:meth:`from_dict`); such reports serialise
    #: and render tables but cannot bridge to tree-consuming renderers.
    tree: Optional[FaultTree]
    request: AnalysisRequest
    #: Fallback display name used when ``tree`` is ``None``.
    name: str = ""
    backends: Dict[str, str] = field(default_factory=dict)
    mpmcs: Optional[MPMCSSummary] = None
    ranking: Optional[List[RankedCutSet]] = None
    cut_sets: Optional[CutSetCollection] = None
    top_event: Optional[TopEventSummary] = None
    importance: Optional[Dict[str, ImportanceMeasures]] = None
    spof: Optional[List[Tuple[str, float]]] = None
    modules: Optional[Dict[str, Any]] = None
    truncation: Optional[TruncationResult] = None
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage performance breakdown: ``encode_seconds`` (CNF/BDD/cut-set
    #: structure preparation), ``solve_seconds`` (search/enumeration),
    #: ``cache_hits`` / ``cache_misses`` (artifact-cache probes during this
    #: run) and, for store-backed sessions, ``store_hits`` / ``store_misses``.
    #: Backends contribute their stage timings; the session adds the cache
    #: deltas.  Purely observational — stripped by :meth:`to_canonical_dict`.
    profile: Dict[str, Any] = field(default_factory=dict)
    #: Non-fatal degradations, e.g. an auxiliary backend that failed while
    #: another provider still satisfied the analysis.
    warnings: List[str] = field(default_factory=list)
    #: Serialized span tree (:meth:`repro.observability.Span.to_dict`) of the
    #: run, populated only when an ambient tracer was recording.  Telemetry
    #: like ``profile`` — stripped by :meth:`to_canonical_dict` — and the
    #: profile is recoverable from it via
    #: :func:`repro.observability.profile_view`.
    trace: Optional[Dict[str, Any]] = None

    @property
    def tree_name(self) -> str:
        return self.tree.name if self.tree is not None else self.name

    @property
    def analyses(self) -> Tuple[str, ...]:
        return self.request.analyses

    @property
    def mpmcs_result(self) -> Optional[MPMCSResult]:
        """Bridge to the legacy :class:`MPMCSResult`-consuming renderers.

        Returns the full pipeline result when available, otherwise synthesises
        an equivalent one from the backend-independent summary.
        """
        if self.mpmcs is None:
            return None
        if self.mpmcs.detail is not None:
            return self.mpmcs.detail
        if self.tree is None:
            return None  # synthesising weights needs the event probabilities
        weights = {name: log_weight(self.tree.probability(name)) for name in self.mpmcs.events}
        return MPMCSResult(
            tree_name=self.tree.name,
            events=self.mpmcs.events,
            probability=self.mpmcs.probability,
            cost=self.mpmcs.cost,
            weights=weights,
            engine=self.mpmcs.engine or self.mpmcs.backend,
            solve_time=self.mpmcs.solve_time,
            total_time=self.mpmcs.total_time,
        )

    def merge_from(self, other: "AnalysisReport", analyses: Iterable[str], label: str) -> None:
        """Adopt the sections listed in ``analyses`` from a partial report."""
        for analysis in analyses:
            if analysis == "mpmcs" and other.mpmcs is not None:
                self.mpmcs = other.mpmcs
            elif analysis == "ranking" and other.ranking is not None:
                self.ranking = other.ranking
            elif analysis == "mcs" and other.cut_sets is not None:
                self.cut_sets = other.cut_sets
            elif analysis == "top_event" and other.top_event is not None:
                self.top_event = (
                    self.top_event.merged_with(other.top_event)
                    if self.top_event is not None
                    else other.top_event
                )
            elif analysis == "importance" and other.importance is not None:
                self.importance = other.importance
            elif analysis == "spof" and other.spof is not None:
                self.spof = other.spof
            elif analysis == "modules" and other.modules is not None:
                self.modules = other.modules
            elif analysis == "truncation" and other.truncation is not None:
                self.truncation = other.truncation
            else:
                continue
            previous = self.backends.get(analysis)
            self.backends[analysis] = f"{previous}+{label}" if previous else label

    #: :meth:`to_dict` keys that vary between otherwise identical runs —
    #: wall-clock timings, cache telemetry, the profiling breakdown and the
    #: span trace (span ids and durations are run telemetry).
    VOLATILE_KEYS = ("timings_s", "cache", "profile", "trace")
    #: Volatile keys inside the ``mpmcs`` section: which engine won (a race
    #: in process mode, or the warm incremental path vs the cold portfolio)
    #: and how long it took are run telemetry, not analysis results.
    VOLATILE_MPMCS_KEYS = ("engine", "solve_time_s", "total_time_s")

    @staticmethod
    def canonicalize(document: Dict[str, Any]) -> Dict[str, Any]:
        """Strip run telemetry from a :meth:`to_dict` document (non-mutating).

        The single definition of "volatile" shared by
        :meth:`to_canonical_dict` and consumers holding only the JSON form.
        """
        document = {
            key: value
            for key, value in document.items()
            if key not in AnalysisReport.VOLATILE_KEYS
        }
        if document.get("mpmcs") is not None:
            document["mpmcs"] = {
                key: value
                for key, value in document["mpmcs"].items()
                if key not in AnalysisReport.VOLATILE_MPMCS_KEYS
            }
        return document

    def to_canonical_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus run telemetry (timings, cache, profile, engine).

        Two analyses of the same tree with the same request — cold portfolio
        or warm incremental, fresh session or fully cached — produce
        byte-identical canonical dicts (``json.dumps(..., sort_keys=True)``);
        only wall-clock and reuse telemetry may differ between runs.  The
        incremental-sweep benchmark asserts its speedup against exactly this
        equality.
        """
        return self.canonicalize(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable form of every populated section."""
        document: Dict[str, Any] = {
            "tree": self.tree_name,
            "analyses": list(self.analyses),
            "request": self.request.to_dict(),
            "backends": dict(self.backends),
            "timings_s": dict(self.timings),
            "cache": dict(self.cache_stats),
            "profile": dict(self.profile),
            "warnings": list(self.warnings),
        }
        # Key present only when a trace was recorded, so untraced documents
        # (the overwhelmingly common case) keep their historical shape.
        if self.trace is not None:
            document["trace"] = self.trace
        document["mpmcs"] = self.mpmcs.to_dict() if self.mpmcs is not None else None
        document["ranking"] = (
            [
                {
                    "rank": entry.rank,
                    "events": list(entry.events),
                    "probability": entry.probability,
                    "cost": entry.cost,
                }
                for entry in self.ranking
            ]
            if self.ranking is not None
            else None
        )
        document["cut_sets"] = (
            [
                {"events": sorted(cut_set), "probability": probability}
                for cut_set, probability in self.cut_sets.ranked()
            ]
            if self.cut_sets is not None and self.cut_sets.probabilities is not None
            else (
                [{"events": list(events)} for events in self.cut_sets.to_sorted_tuples()]
                if self.cut_sets is not None
                else None
            )
        )
        document["top_event"] = self.top_event.to_dict() if self.top_event is not None else None
        document["importance"] = (
            {
                name: {
                    "probability": measure.probability,
                    "birnbaum": measure.birnbaum,
                    "criticality": measure.criticality,
                    "fussell_vesely": measure.fussell_vesely,
                    "risk_achievement_worth": measure.risk_achievement_worth,
                    "risk_reduction_worth": measure.risk_reduction_worth,
                }
                for name, measure in sorted(self.importance.items())
            }
            if self.importance is not None
            else None
        )
        document["spof"] = (
            [[name, probability] for name, probability in self.spof]
            if self.spof is not None
            else None
        )
        document["modules"] = dict(self.modules) if self.modules is not None else None
        document["truncation"] = (
            {
                "cutoff": self.truncation.cutoff,
                "num_retained": self.truncation.num_retained,
                "num_pruned": self.truncation.num_pruned,
                "cut_sets": [
                    list(events) for events in self.truncation.collection.to_sorted_tuples()
                ],
            }
            if self.truncation is not None
            else None
        )
        return document

    @classmethod
    def from_dict(
        cls, document: Dict[str, Any], *, tree: Optional[FaultTree] = None
    ) -> "AnalysisReport":
        """Reconstruct a report from its :meth:`to_dict` JSON form.

        This is the service's transport inverse: the server ships
        ``report.to_dict()`` over HTTP and the client rebuilds a live
        :class:`AnalysisReport` here.  Pass the analysed ``tree`` (the client
        submitted it, so it has it) to restore the probability-bearing
        sections bit-identically — ``from_dict(r.to_dict(), tree=t).to_dict()
        == r.to_dict()``.  Without a tree the report still reconstructs, but
        cut-set collections lose their per-event probabilities (the JSON form
        only carries per-*set* products) and :attr:`mpmcs_result` is
        unavailable.
        """
        request = (
            AnalysisRequest.from_dict(document["request"])
            if document.get("request") is not None
            else AnalysisRequest.create(document.get("analyses", ("mpmcs",)))
        )
        report = cls(tree=tree, request=request, name=document.get("tree", ""))
        report.backends = dict(document.get("backends", {}))
        report.timings = dict(document.get("timings_s", {}))
        report.cache_stats = dict(document.get("cache", {}))
        report.profile = dict(document.get("profile", {}))
        report.warnings = list(document.get("warnings", []))
        report.trace = document.get("trace")
        probabilities = tree.probabilities() if tree is not None else None

        if document.get("mpmcs") is not None:
            report.mpmcs = MPMCSSummary.from_dict(document["mpmcs"])
        if document.get("ranking") is not None:
            report.ranking = [
                RankedCutSet(
                    rank=int(entry["rank"]),
                    events=tuple(entry["events"]),
                    probability=float(entry["probability"]),
                    cost=float(entry["cost"]),
                )
                for entry in document["ranking"]
            ]
        if document.get("cut_sets") is not None:
            report.cut_sets = CutSetCollection.from_minimal(
                [frozenset(entry["events"]) for entry in document["cut_sets"]],
                probabilities=probabilities,
            )
        if document.get("top_event") is not None:
            report.top_event = TopEventSummary.from_dict(document["top_event"])
        if document.get("importance") is not None:
            report.importance = {
                name: ImportanceMeasures(
                    event=name,
                    probability=float(measure["probability"]),
                    birnbaum=float(measure["birnbaum"]),
                    criticality=float(measure["criticality"]),
                    fussell_vesely=float(measure["fussell_vesely"]),
                    risk_achievement_worth=float(measure["risk_achievement_worth"]),
                    risk_reduction_worth=float(measure["risk_reduction_worth"]),
                )
                for name, measure in document["importance"].items()
            }
        if document.get("spof") is not None:
            report.spof = [(name, probability) for name, probability in document["spof"]]
        if document.get("modules") is not None:
            report.modules = dict(document["modules"])
        if document.get("truncation") is not None:
            raw = document["truncation"]
            report.truncation = TruncationResult(
                collection=CutSetCollection.from_minimal(
                    [frozenset(events) for events in raw["cut_sets"]],
                    probabilities=probabilities,
                ),
                cutoff=float(raw["cutoff"]),
                num_retained=int(raw["num_retained"]),
                num_pruned=int(raw["num_pruned"]),
            )
        return report
