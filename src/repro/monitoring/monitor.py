"""The long-lived monitor: incremental re-analysis per probability update.

:class:`TreeMonitor` owns a base tree and a current probability state.  Each
:class:`~repro.monitoring.feeds.ProbabilityUpdate` is applied as a
structure-preserving patch (only probabilities move, never the tree), so the
re-analysis rides the full incremental stack:

* every update is a batch of one through
  :meth:`~repro.scenarios.sweep.SweepExecutor.analyze_batch` (and
  :meth:`TreeMonitor.apply_batch` one batch over its updates);
* with a cut-set backend (``mocus``, ``brute-force``), the subtree cut-set
  structure is one cache hit per update (structure-only hashes never change);
  the default ``maxsat`` backend never reads cut sets, so none are built;
* with the ``maxsat`` backend, each update is a weight-only re-solve on the
  persistent :class:`~repro.maxsat.incremental.IncrementalMaxSATSession`;
* the exact P(top) comes from the ``bdd`` backend's structure-keyed diagram,
  compiled once and evaluated in linear time per update.

Every update produces a :class:`MonitorDelta` — new P(top), MPMCS identity,
deltas against both the base model and the previous update — which is pushed
into the monitor's :class:`~repro.monitoring.events.EventBuffer` (feeding the
SSE stream), evaluated by the :class:`~repro.monitoring.alerts.AlertEngine`,
and measured into the ``repro_monitor_*`` metric families.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.cache import ArtifactCache
from repro.api.report import AnalysisReport
from repro.api.session import AnalysisSession
from repro.exceptions import ReproError
from repro.fta.tree import FaultTree
from repro.monitoring.alerts import Alert, AlertEngine, AlertRule, WebhookSink
from repro.monitoring.events import EventBuffer
from repro.monitoring.feeds import ProbabilityUpdate
from repro.observability.log import log_event
from repro.observability.metrics import get_metrics
from repro.scenarios.report import mpmcs_identity_changed
from repro.scenarios.sweep import DEFAULT_ANALYSES, SweepExecutor

__all__ = ["MonitorDelta", "MonitorError", "TreeMonitor"]

#: Histogram buckets for per-update latency: live monitoring operates well
#: below the generic request buckets, so sub-millisecond resolution matters.
UPDATE_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    5.0,
)


class MonitorError(ReproError):
    """Monitor lifecycle misuse (double start, update before base, ...)."""


@dataclass
class MonitorDelta:
    """The effect of one applied update, relative to base and previous state."""

    seq: int
    timestamp: float
    ptop: Optional[float]
    previous_ptop: Optional[float]
    base_ptop: Optional[float]
    mpmcs_events: Optional[Tuple[str, ...]]
    mpmcs_probability: Optional[float]
    mpmcs_changed: bool
    changed_events: Tuple[str, ...]
    latency_s: float
    source: str = ""
    #: The full per-update report; excluded from the wire form by default.
    report: Optional[AnalysisReport] = None
    alerts: List[Alert] = field(default_factory=list)

    @property
    def ptop_delta(self) -> Optional[float]:
        if self.ptop is None or self.previous_ptop is None:
            return None
        return self.ptop - self.previous_ptop

    @property
    def base_delta(self) -> Optional[float]:
        if self.ptop is None or self.base_ptop is None:
            return None
        return self.ptop - self.base_ptop

    def to_dict(self, *, include_report: bool = False) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.timestamp,
            "ptop": self.ptop,
            "ptop_delta": self.ptop_delta,
            "previous_ptop": self.previous_ptop,
            "base_ptop": self.base_ptop,
            "base_delta": self.base_delta,
            "mpmcs": list(self.mpmcs_events) if self.mpmcs_events is not None else None,
            "mpmcs_probability": self.mpmcs_probability,
            "mpmcs_changed": self.mpmcs_changed,
            "changed_events": list(self.changed_events),
            "latency_s": self.latency_s,
            "source": self.source,
        }
        if include_report and self.report is not None:
            document["report"] = self.report.to_canonical_dict()
        return document


class TreeMonitor:
    """Applies a stream of probability updates with incremental re-analysis.

    Parameters
    ----------
    tree:
        The monitored fault tree; never mutated — every update analyses a
        patched copy whose structure (and therefore every structure-only
        cache key) is identical to the base.
    session:
        Optional shared :class:`AnalysisSession`.  A monitor-owned session
        (optionally store-backed via ``store``) is created otherwise.
    backend / analyses / top_k:
        The per-update analysis request, with the same semantics as a sweep:
        ``maxsat`` runs MPMCS through the warm incremental session and P(top)
        through the structure-keyed BDD.
    rules:
        Alert rules evaluated on every delta (see :mod:`.alerts`).
    store:
        Optional :class:`~repro.service.store.DiskArtifactStore`; backs the
        session cache and persists the alert ledger under the monitor key.
    include_reports:
        When true, every streamed delta document embeds the update's full
        canonical :class:`AnalysisReport` dict (byte-identical to a fresh
        sequential analysis of the same probabilities).
    webhook_url / webhook_sink:
        Optional outbound alert notification: every raised alert is POSTed
        as JSON to ``webhook_url`` (with retry/backoff; see
        :class:`~repro.monitoring.alerts.WebhookSink`) alongside the
        persisted ledger.  ``webhook_sink`` passes a pre-built sink instead
        (takes precedence; used by tests to inject a transport).
    """

    def __init__(
        self,
        tree: FaultTree,
        *,
        session: Optional[AnalysisSession] = None,
        backend: str = "maxsat",
        analyses: Sequence[str] = DEFAULT_ANALYSES,
        top_k: int = 5,
        rules: Sequence[AlertRule] = (),
        store: Any = None,
        incremental: bool = True,
        exact_top_event: bool = True,
        include_reports: bool = False,
        buffer_size: int = 4096,
        name: Optional[str] = None,
        webhook_url: Optional[str] = None,
        webhook_sink: Optional[WebhookSink] = None,
    ) -> None:
        tree.validate()
        self.tree = tree
        self.name = name or f"monitor-{tree.name}"
        if session is None:
            session = AnalysisSession(cache=ArtifactCache(backend=store))
        self.executor = SweepExecutor(
            session,
            incremental=incremental,
            backend=backend,
            exact_top_event=exact_top_event,
        )
        self.backend = backend
        self.top_k = top_k
        self.include_reports = include_reports
        self._analyses = self.executor.prepare_analyses(analyses)
        self.events = EventBuffer(max_events=buffer_size)
        self.monitor_key = hashlib.sha256(
            f"monitor:{tree.name}".encode("utf-8")
        ).hexdigest()
        sinks: List[Any] = []
        if webhook_sink is not None:
            sinks.append(webhook_sink)
        elif webhook_url:
            sinks.append(WebhookSink(webhook_url))
        self.engine = AlertEngine(
            rules, store=store, ledger_key=self.monitor_key, sinks=sinks
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        self._started_at = time.time()
        self._base_probabilities = dict(tree.probabilities())
        self._current: Dict[str, float] = dict(self._base_probabilities)
        self._known_events = set(tree.event_names)
        self._updates_applied = 0
        self._last_update_at: Optional[float] = None
        self._last_seq = 0
        self._base_report: Optional[AnalysisReport] = None
        self._base_ptop: Optional[float] = None
        self._previous_ptop: Optional[float] = None
        self._previous_mpmcs: Optional[Tuple[str, ...]] = None
        self._unknown_events = 0

    # -- base analysis -----------------------------------------------------

    @staticmethod
    def _ptop_of(report: AnalysisReport) -> Optional[float]:
        if report.top_event is None:
            return None
        return report.top_event.best_estimate

    def ensure_base(self) -> AnalysisReport:
        """Analyse the base tree once; every delta is relative to it."""
        with self._lock:
            if self._base_report is None:
                (report,) = self.executor.analyze_batch(
                    [self.tree], self._analyses, top_k=self.top_k
                )
                if isinstance(report, ReproError):
                    raise report
                self._base_report = report
                self._base_ptop = self._ptop_of(report)
                self._previous_ptop = self._base_ptop
                self._previous_mpmcs = (
                    report.mpmcs.events if report.mpmcs is not None else None
                )
                self._last_update_at = time.time()
                self.events.append(
                    "base",
                    {
                        "tree": self.tree.name,
                        "backend": self.backend,
                        "ptop": self._base_ptop,
                        "mpmcs": (
                            list(self._previous_mpmcs)
                            if self._previous_mpmcs is not None
                            else None
                        ),
                    },
                )
            return self._base_report

    # -- the per-update hot path -------------------------------------------

    def apply_update(self, update: ProbabilityUpdate) -> MonitorDelta:
        """Apply one update, re-analyse incrementally, stream the delta: a
        batch of one (:meth:`apply_batch`)."""
        (delta,) = self.apply_batch([update])
        return delta

    def _stage_locked(
        self, update: ProbabilityUpdate
    ) -> Tuple[List[str], FaultTree]:
        """Fold one update into the current state; return its patched tree.

        Staging is cumulative: each staged update sees every earlier one, so
        a batch staged in order produces exactly the per-update trees the
        unbatched loop would have analysed.
        """
        registry = get_metrics()
        changed: List[str] = []
        for event, value in update.values:
            if event not in self._known_events:
                self._unknown_events += 1
                registry.inc("repro_monitor_unknown_events_total", tree=self.tree.name)
                log_event(
                    "monitoring.monitor",
                    "unknown_event_dropped",
                    tree=self.tree.name,
                    dropped=event,
                )
                continue
            if self._current.get(event) != value:
                changed.append(event)
            self._current[event] = value

        # Structure-preserving patch: a plain copy with the current
        # probability state — every structure-only cache key is unchanged.
        patched = self.tree.copy()
        for event, value in self._current.items():
            if self._base_probabilities.get(event) != value:
                patched.set_probability(event, value)
        return changed, patched

    def _record_locked(
        self,
        update: ProbabilityUpdate,
        changed: List[str],
        patched: FaultTree,
        started: float,
        report: Union[AnalysisReport, ReproError],
    ) -> MonitorDelta:
        """Record the analysed update: state, metrics, alerts and events."""
        if isinstance(report, ReproError):
            raise report
        registry = get_metrics()
        self.executor.evict_tree_artifacts(self.tree, patched)

        self._updates_applied += 1
        self._last_update_at = time.time()
        seq = update.seq if update.seq is not None else self._last_seq + 1
        self._last_seq = seq

        ptop = self._ptop_of(report)
        mpmcs = report.mpmcs
        mpmcs_events = mpmcs.events if mpmcs is not None else None
        delta = MonitorDelta(
            seq=seq,
            timestamp=update.timestamp,
            ptop=ptop,
            previous_ptop=self._previous_ptop,
            base_ptop=self._base_ptop,
            mpmcs_events=mpmcs_events,
            mpmcs_probability=mpmcs.probability if mpmcs is not None else None,
            mpmcs_changed=mpmcs_identity_changed(self._previous_mpmcs, mpmcs_events),
            changed_events=tuple(sorted(changed)),
            latency_s=time.perf_counter() - started,
            source=update.source,
            report=report,
        )
        self._previous_ptop = ptop
        self._previous_mpmcs = mpmcs_events

        registry.inc("repro_monitor_updates_total", tree=self.tree.name)
        registry.observe(
            "repro_monitor_update_latency_seconds",
            delta.latency_s,
            buckets=UPDATE_LATENCY_BUCKETS,
            tree=self.tree.name,
        )
        if ptop is not None:
            registry.set_gauge("repro_monitor_ptop", ptop, tree=self.tree.name)
        if delta.mpmcs_changed:
            registry.inc("repro_monitor_mpmcs_changes_total", tree=self.tree.name)

        delta.alerts = self.engine.evaluate(delta)
        self.events.append(
            "delta", delta.to_dict(include_report=self.include_reports)
        )
        for alert in delta.alerts:
            self.events.append("alert", alert.to_dict())
        return delta

    def apply_batch(
        self, updates: Sequence[ProbabilityUpdate]
    ) -> List[MonitorDelta]:
        """Apply a chunk of updates as one batch.

        All updates are staged first (cumulatively, in order) and the staged
        trees are analysed as one :meth:`SweepExecutor.analyze_batch`: their
        exact top-event probabilities come from a single kernel call over
        the whole ``(updates × events)`` grid, and the MaxSAT re-solves are
        the per-update ones, answered from the warm session's candidate pool
        where it certifies them.  The per-update deltas, reports, alerts and
        streamed events are identical to calling :meth:`apply_update` in a
        loop — batching only removes per-update BDD work.
        """
        if not updates:
            return []
        self.ensure_base()
        with self._lock:
            staged: List[Tuple[ProbabilityUpdate, List[str], FaultTree, float]] = []
            for update in updates:
                started = time.perf_counter()
                changed, patched = self._stage_locked(update)
                staged.append((update, changed, patched, started))
            reports = self.executor.analyze_batch(
                [patched for _, _, patched, _ in staged], self._analyses, top_k=self.top_k
            )
            return [
                self._record_locked(update, changed, patched, started, report)
                for (update, changed, patched, started), report in zip(staged, reports)
            ]

    # -- the watchdog ------------------------------------------------------

    def check_staleness(self, *, now: Optional[float] = None) -> List[Alert]:
        """Evaluate the feed-staleness watchdog rules; streams any alerts."""
        now = time.time() if now is None else now
        with self._lock:
            last = self._last_update_at if self._last_update_at is not None else self._started_at
            age = max(0.0, now - last)
            get_metrics().set_gauge(
                "repro_monitor_feed_age_seconds", age, tree=self.tree.name
            )
            alerts = self.engine.check_staleness(age, seq=self._last_seq, now=now)
            for alert in alerts:
                self.events.append("alert", alert.to_dict())
            return alerts

    # -- lifecycle ---------------------------------------------------------

    def run(
        self,
        feed: Any,
        *,
        max_updates: Optional[int] = None,
        batch_size: int = 1,
    ) -> int:
        """Drain ``feed`` synchronously; returns the number of updates applied.

        Stops early when :meth:`stop` was called or ``max_updates`` is
        reached.  The event stream is closed on exit (after a final ``end``
        event), so attached SSE clients terminate cleanly.

        ``batch_size > 1`` drains the feed in chunks through
        :meth:`apply_batch` — one kernel-batched P(top) evaluation per chunk
        instead of one BDD walk per update, with identical per-update deltas
        and events.  Suited to replay/backfill feeds; for live trickle feeds
        the default of 1 keeps per-update latency minimal.
        """
        if batch_size < 1:
            raise MonitorError(f"batch_size must be a positive integer, got {batch_size}")
        self.ensure_base()
        applied = 0
        try:
            if batch_size == 1:
                for update in feed:
                    if self._stop.is_set():
                        break
                    self.apply_update(update)
                    applied += 1
                    if max_updates is not None and applied >= max_updates:
                        break
                    self.check_staleness()
            else:
                iterator = iter(feed)
                while not self._stop.is_set():
                    budget = batch_size
                    if max_updates is not None:
                        budget = min(budget, max_updates - applied)
                    if budget <= 0:
                        break
                    chunk: List[ProbabilityUpdate] = []
                    for update in iterator:
                        chunk.append(update)
                        if len(chunk) >= budget:
                            break
                    if not chunk:
                        break
                    self.apply_batch(chunk)
                    applied += len(chunk)
                    if max_updates is not None and applied >= max_updates:
                        break
                    self.check_staleness()
        finally:
            close = getattr(feed, "close", None)
            if close is not None:
                close()
            self._finish()
        return applied

    def _finish(self) -> None:
        if not self.events.closed:
            self.events.append(
                "end",
                {
                    "tree": self.tree.name,
                    "updates": self._updates_applied,
                    "alerts": len(self.engine.alerts),
                },
            )
            self.events.close()
        log_event(
            "monitoring.monitor",
            "monitor_stopped",
            tree=self.tree.name,
            updates=self._updates_applied,
            alerts=len(self.engine.alerts),
        )

    def start(
        self,
        feed: Any,
        *,
        max_updates: Optional[int] = None,
        batch_size: int = 1,
        watchdog_interval_s: Optional[float] = None,
    ) -> "TreeMonitor":
        """Run the monitor loop on a daemon thread (plus a watchdog thread).

        The watchdog thread exists because a blocked feed iterator never
        returns control to the loop; it polls :meth:`check_staleness` every
        ``watchdog_interval_s`` (default: a quarter of the tightest staleness
        budget) until the monitor stops.
        """
        if self._thread is not None:
            raise MonitorError(f"monitor {self.name!r} is already running")
        if batch_size < 1:
            raise MonitorError(f"batch_size must be a positive integer, got {batch_size}")
        self.ensure_base()  # fail fast, before the thread detaches errors
        self._thread = threading.Thread(
            target=self.run,
            args=(feed,),
            kwargs={"max_updates": max_updates, "batch_size": batch_size},
            name=f"repro-monitor-{self.tree.name}",
            daemon=True,
        )
        self._thread.start()
        budgets = [
            rule.max_age_s
            for rule in self.engine.rules
            if hasattr(rule, "max_age_s")
        ]
        if budgets:
            interval = (
                watchdog_interval_s
                if watchdog_interval_s is not None
                else max(0.05, min(budgets) / 4)
            )
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                args=(interval,),
                name=f"repro-monitor-watchdog-{self.tree.name}",
                daemon=True,
            )
            self._watchdog.start()
        return self

    def _watchdog_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            if self.events.closed:
                return
            self.check_staleness()

    def stop(self, *, timeout: float = 10.0) -> None:
        """Request the loop to stop and join its threads."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout)
            self._watchdog = None
        if self._base_report is not None and not self.events.closed:
            self._finish()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def status(self) -> Dict[str, Any]:
        """JSON-ready status document (the ``GET /monitor`` body)."""
        with self._lock:
            return {
                "name": self.name,
                "tree": self.tree.name,
                "backend": self.backend,
                "analyses": list(self._analyses),
                "running": self.running,
                "updates": self._updates_applied,
                "last_seq": self._last_seq,
                "ptop": self._previous_ptop,
                "base_ptop": self._base_ptop,
                "mpmcs": (
                    list(self._previous_mpmcs)
                    if self._previous_mpmcs is not None
                    else None
                ),
                "alerts": len(self.engine.alerts),
                "unknown_events": self._unknown_events,
                "last_event_id": self.events.last_id,
                "stream_closed": self.events.closed,
                "rules": [rule.to_dict() for rule in self.engine.rules],
            }
