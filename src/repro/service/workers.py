"""Job execution: worker pool, and scenario sweeps routed through campaigns.

Two layers live here:

* :func:`run_parallel_sweep` delivers the ROADMAP's "parallel sweeps" item.
  Internally it is a **one-stage campaign**: the scenario grid becomes a
  single ``sweep`` stage of a :class:`~repro.campaigns.spec.CampaignSpec`,
  and the :class:`~repro.campaigns.runner.CampaignRunner` chunks it, fans the
  chunks over spawn processes, persists every finished chunk in the
  completion ledger of the shared
  :class:`~repro.service.store.DiskArtifactStore`, and merges in chunk order.
  One execution path serves the standalone helper, the ``sweep`` job kind and
  full campaign jobs; the merged
  :class:`~repro.scenarios.report.ScenarioReport` stays canonically identical
  to a sequential run over the same grid
  (:meth:`~repro.scenarios.report.ScenarioReport.to_canonical_dict`).
* :class:`JobRunner` / :class:`WorkerPool` execute the queued jobs of
  :class:`~repro.service.jobs.JobQueue`: each pool thread owns a runner with
  a persistent store-backed :class:`~repro.api.session.AnalysisSession`, so
  repeated jobs over structurally similar trees get warmer and warmer.
  Runners enforce the queue's cooperative cancellation and per-job timeouts:
  a :class:`_JobGuard` is polled at scenario/chunk boundaries (and wired into
  the MaxSAT portfolio's engine ``stop_check`` hook), so a cancelled job
  settles as ``cancelled`` and a timed-out one fails with a distinguishable
  ``timed out after …`` reason.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.cache import ArtifactCache
from repro.api.report import AnalysisRequest
from repro.api.session import AnalysisSession
from repro.campaigns.runner import (
    CampaignOutcome,
    CampaignRunner,
    materialise_tree,
    merge_scenario_reports,
)
from repro.campaigns.spec import CampaignError, CampaignSpec, StageSpec
from repro.exceptions import ReproError
from repro.fta.parsers.json_format import parse_json_document
from repro.fta.serializers import to_json_document
from repro.fta.tree import FaultTree
from repro.observability.log import log_event
from repro.observability.trace import Tracer, use_tracer
from repro.reliability.assignment import ReliabilityAssignment
from repro.scenarios.planner import HardeningAction, pareto_frontier, validate_actions
from repro.scenarios.report import ScenarioReport
from repro.scenarios.scenario import Scenario
from repro.scenarios.serialization import actions_from_spec, scenarios_from_spec
from repro.scenarios.sweep import DEFAULT_ANALYSES, DEFAULT_BACKEND
from repro.service.jobs import Job, JobCancelled, JobError, JobQueue, JobTimeout
from repro.service.store import DiskArtifactStore, open_store

__all__ = [
    "JobRunner",
    "WorkerPool",
    "decode_campaign_payload",
    "decode_frontier_payload",
    "decode_sweep_payload",
    "merge_scenario_reports",
    "run_parallel_sweep",
]

#: Frontier methods accepted over the wire.
_FRONTIER_METHODS = ("auto", "exact", "greedy")


def _materialised_tree(
    payload: Dict[str, Any]
) -> Tuple[FaultTree, Optional[ReliabilityAssignment], Optional[float]]:
    """Decode the payload's tree, materialising reliability models if present.

    Thin wrapper over :func:`repro.campaigns.runner.materialise_tree` mapping
    its errors onto :class:`JobError` (the HTTP 400 vocabulary).
    """
    try:
        return materialise_tree(
            payload.get("tree"), payload.get("models"), payload.get("mission_time")
        )
    except CampaignError as exc:
        raise JobError(str(exc).replace("campaign", "job payload", 1)) from exc


def decode_sweep_payload(
    payload: Dict[str, Any]
) -> Tuple[FaultTree, List[Scenario]]:
    """Decode (and thereby fully validate) a sweep job payload.

    Shared by :meth:`JobRunner.execute` and the HTTP submit path: running it
    at submission time turns malformed trees, patches and specs into
    immediate HTTP 400s instead of per-scenario failures mid-job.
    """
    tree, assignment, mission_time = _materialised_tree(payload)
    spec = payload.get("scenarios")
    if spec is None:
        raise JobError("sweep job payload needs a 'scenarios' list or family spec")
    scenarios = scenarios_from_spec(
        spec, assignment=assignment, mission_time=mission_time
    )
    return tree, scenarios


def decode_frontier_payload(
    payload: Dict[str, Any]
) -> Tuple[FaultTree, List[HardeningAction], Dict[str, Any]]:
    """Decode (and thereby fully validate) a frontier job payload."""
    tree, _, _ = _materialised_tree(payload)
    actions = actions_from_spec(payload.get("actions"))
    validate_actions(tree, actions)
    method = payload.get("method", "auto")
    if method not in _FRONTIER_METHODS:
        raise JobError(
            f"unknown frontier method {method!r}; expected one of "
            f"{', '.join(_FRONTIER_METHODS)}"
        )
    precision = payload.get("precision", 10**6)
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < 1:
        raise JobError(f"'precision' must be a positive integer, got {precision!r}")
    return tree, actions, {"method": method, "precision": precision}


def decode_campaign_payload(payload: Dict[str, Any]) -> CampaignSpec:
    """Decode (and thereby fully validate) a campaign job payload.

    The payload carries the campaign spec document under ``spec`` (or is the
    spec document itself, for convenience).  Decoding validates the DAG, the
    tree and — stage by stage — every scenario/action document, so malformed
    campaigns are immediate HTTP 400s.
    """
    document = payload.get("spec", payload)
    try:
        spec = CampaignSpec.from_dict(document)
    except CampaignError as exc:
        raise JobError(str(exc)) from exc
    tree, assignment, mission_time = materialise_tree(
        spec.tree, spec.models, spec.mission_time
    )
    for stage in spec.stages:
        if stage.kind == "sweep":
            raw = stage.payload.get("scenarios")
            if raw is None:
                raise JobError(
                    f"sweep stage {stage.name!r} needs a 'scenarios' list or family spec"
                )
            scenarios_from_spec(raw, assignment=assignment, mission_time=mission_time)
        elif stage.kind == "frontier":
            actions = actions_from_spec(stage.payload.get("actions"))
            validate_actions(tree, actions)
            method = stage.payload.get("method", "auto")
            if method not in _FRONTIER_METHODS:
                raise JobError(
                    f"stage {stage.name!r}: unknown frontier method {method!r}; "
                    f"expected one of {', '.join(_FRONTIER_METHODS)}"
                )
    return spec


def _partition(items: Sequence[Any], parts: int) -> List[Sequence[Any]]:
    """Split ``items`` into at most ``parts`` contiguous, order-preserving chunks."""
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    chunks: List[Sequence[Any]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def run_parallel_sweep(
    tree: FaultTree,
    scenarios: Sequence[Scenario],
    *,
    workers: int,
    store_path: Optional[str] = None,
    analyses: Sequence[str] = DEFAULT_ANALYSES,
    backend: str = DEFAULT_BACKEND,
    incremental: bool = True,
    exact_top_event: bool = True,
    top_k: int = 5,
    samples: int = 0,
    seed: int = 0,
    cache_max_entries: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    stop_check: Optional[Any] = None,
    on_outcome: Optional[Any] = None,
) -> ScenarioReport:
    """Evaluate a scenario sweep partitioned over ``workers`` processes.

    Internally this is a **one-stage campaign**: the grid becomes a single
    ``sweep`` stage, chunked into at most ``workers`` contiguous slices, each
    executed through the unmodified sequential
    :class:`~repro.scenarios.sweep.SweepExecutor` (in spawn worker processes
    when ``workers > 1``, in-process otherwise).  Each worker's executor
    analyses its own slice as one batch — one BDD kernel pass per structure,
    per chunk — and solves MaxSAT scenarios on its own warm sessions.  With a
    ``store_path`` every finished chunk is persisted in the campaign
    completion ledger, so an
    identical sweep — same tree, configuration and scenarios — resumes from
    the ledger instead of recomputing, and a sweep killed mid-run only redoes
    its unfinished chunks.

    Results are canonically identical to the sequential executor on the same
    grid — compare :meth:`ScenarioReport.to_canonical_dict` — whether chunks
    were computed or replayed from the ledger.  ``workers <= 1`` (or a
    platform without subprocess support) degrades to in-process execution
    over a store-backed session.  Scenarios without a JSON wire form (live
    bound maintenance patches) run unledgered: everything still executes and
    merges, nothing persists.

    ``stop_check`` is a zero-argument callable polled at scenario and chunk
    boundaries; aborting is done by raising from it.  ``on_outcome`` is the
    campaign runner's per-scenario progress hook (at-least-once delivery;
    see :class:`~repro.campaigns.runner.CampaignRunner`): the service uses it
    to stream partial sweep results while the job runs.
    """
    scenario_list = list(scenarios)
    started = time.perf_counter()

    tree_document: Optional[Dict[str, Any]]
    try:
        tree_document = to_json_document(tree)
    except ReproError:
        # No faithful tree document means no trustworthy content addresses:
        # run the campaign without a store so nothing mis-keyed persists.
        tree_document = None

    fan_out = workers if len(scenario_list) > 1 else 0
    if scenario_list and fan_out > 1:
        chunk_count = min(fan_out, len(scenario_list))
        chunk_size = -(-len(scenario_list) // chunk_count)  # ceil division
    else:
        chunk_size = 0  # one chunk
    spec = CampaignSpec(
        name=f"parallel-sweep-{tree.name}",
        tree=tree_document if tree_document is not None else {"name": tree.name},
        stages=(
            StageSpec(name="sweep", kind="sweep", payload={"chunk_size": chunk_size}),
        ),
        analyses=tuple(analyses),
        backend=backend,
        incremental=incremental,
        exact_top_event=exact_top_event,
        top_k=top_k,
        samples=samples,
        seed=seed,
        workers=fan_out,
    )
    runner = CampaignRunner(
        store_path=store_path if tree_document is not None else None,
        session=session,
        cache_max_entries=cache_max_entries,
        stop_check=stop_check,
        on_outcome=on_outcome,
    )
    outcome = runner.run(spec, tree=tree, scenario_overrides={"sweep": scenario_list})
    report = outcome.report()
    if report is None:  # pragma: no cover - a sweep stage always yields a report
        raise ReproError("parallel sweep produced no report")
    report.total_time_s = time.perf_counter() - started
    return report


class _JobGuard:
    """Cancellation/timeout guard for one running job.

    Callable form (``guard()`` -> bool) feeds the MaxSAT portfolio's engine
    ``stop_check`` hook; :meth:`check` is the raising form polled at
    scenario/chunk boundaries.  Timeouts are measured from the job's claim
    time, so queue wait does not count against the budget.
    """

    def __init__(self, job: Job) -> None:
        self.job = job
        started = job.started_at if job.started_at is not None else time.time()
        self.deadline = started + job.timeout if job.timeout is not None else None

    def expired(self) -> bool:
        return self.deadline is not None and time.time() > self.deadline

    def __call__(self) -> bool:
        return self.job.cancel_event.is_set() or self.expired()

    def check(self) -> None:
        if self.job.cancel_event.is_set():
            raise JobCancelled(f"job {self.job.id} was cancelled")
        if self.expired():
            raise JobTimeout(f"timed out after {self.job.timeout:g}s")


class JobRunner:
    """Executes queued jobs against a persistent store-backed session.

    One runner per worker thread: the session (and its memory cache tier) is
    reused across jobs, while the disk store shares artifacts with every
    other runner, process and past service run.  ``mode`` is the session's
    MaxSAT portfolio mode; the default ``"sequential"`` polls the job guard,
    so cancelling a job stops its running analysis.
    """

    def __init__(
        self,
        *,
        store_path: Optional[str] = None,
        store: Optional[DiskArtifactStore] = None,
        cache_max_entries: Optional[int] = None,
        sweep_workers: int = 0,
        mode: str = "sequential",
    ) -> None:
        if store is None:
            store = open_store(store_path)
        elif store_path is None:
            store_path = str(store.root)
        self.store = store
        self.store_path = store_path
        self.cache_max_entries = cache_max_entries
        self.sweep_workers = sweep_workers
        self.session = AnalysisSession(
            mode=mode,
            cache=ArtifactCache(max_entries=cache_max_entries, backend=store),
        )

    # -- payload decoding -------------------------------------------------------------

    @staticmethod
    def _tree_from(payload: Dict[str, Any]) -> FaultTree:
        document = payload.get("tree")
        if not isinstance(document, dict):
            raise JobError("job payload needs a 'tree' JSON document")
        return parse_json_document(document)

    @staticmethod
    def _request_from(payload: Dict[str, Any]) -> AnalysisRequest:
        # The job payload is a superset of the request document (extra keys
        # like "tree" are ignored by from_dict), so the wire decode is the
        # report module's own inverse — one place defines the fields.
        return AnalysisRequest.from_dict(payload)

    # -- job kinds --------------------------------------------------------------------

    def execute(self, job: Job) -> Dict[str, Any]:
        """Run one claimed job and return its JSON-serialisable result.

        The job's cancellation/timeout guard is active for the whole run:
        wired into the session's MaxSAT portfolio (engine ``stop_check``) and
        polled at scenario/chunk boundaries by the sweep and campaign paths.
        :class:`JobCancelled` / :class:`JobTimeout` escape to the worker
        loop, which settles the job accordingly.

        The whole run executes under a fresh per-job :class:`Tracer`; the
        resulting span tree is attached to ``job.trace`` even when the job
        fails, so ``GET /jobs/<id>/trace`` covers error postmortems too.
        """
        guard = _JobGuard(job)
        portfolio = getattr(self.session.solver, "portfolio", None)
        if portfolio is not None:
            portfolio.external_stop = guard
        tracer = Tracer()
        try:
            with use_tracer(tracer), tracer.span(
                f"job:{job.kind}", job_id=job.id
            ):
                guard.check()
                if job.kind == "analyze":
                    return self._run_analyze(job.payload)
                if job.kind == "batch":
                    return self._run_batch(job.payload, guard)
                if job.kind == "sweep":
                    return self._run_sweep(job.payload, guard, progress=job.progress)
                if job.kind == "frontier":
                    return self._run_frontier(job.payload)
                if job.kind == "campaign":
                    return self._run_campaign(job.payload, guard)
                raise JobError(f"unknown job kind {job.kind!r}")
        finally:
            job.trace = tracer.to_dict()
            if portfolio is not None:
                portfolio.external_stop = None

    def _run_analyze(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tree = self._tree_from(payload)
        report = self.session.run(tree, self._request_from(payload))
        return {"kind": "analyze", "tree": tree.name, "report": report.to_dict()}

    def _run_batch(
        self, payload: Dict[str, Any], guard: Optional[_JobGuard] = None
    ) -> Dict[str, Any]:
        documents = payload.get("trees")
        if not isinstance(documents, list) or not documents:
            raise JobError("batch job payload needs a non-empty 'trees' list")
        request = self._request_from(payload)
        items: List[Dict[str, Any]] = []
        for index, document in enumerate(documents):
            # Outside the per-item handler: cancellation aborts the batch, it
            # is never recorded as one failed tree.
            if guard is not None:
                guard.check()
            try:
                tree = parse_json_document(document)
                report = self.session.run(tree, request)
                items.append(
                    {"index": index, "tree": tree.name, "ok": True, "report": report.to_dict()}
                )
            except (JobCancelled, JobTimeout):
                raise
            except Exception as exc:  # noqa: BLE001 - failures are data in a batch
                name = document.get("name", f"#{index}") if isinstance(document, dict) else f"#{index}"
                log_event(
                    "service.workers",
                    "batch_item_failed",
                    index=index,
                    tree=name,
                    error=str(exc),
                )
                items.append({"index": index, "tree": name, "ok": False, "error": str(exc)})
        return {
            "kind": "batch",
            "num_ok": sum(1 for item in items if item["ok"]),
            "items": items,
        }

    def _run_sweep(
        self,
        payload: Dict[str, Any],
        guard: Optional[_JobGuard] = None,
        progress: Optional[Any] = None,
    ) -> Dict[str, Any]:
        tree, scenarios = decode_sweep_payload(payload)
        # A missing/zero workers field means "use the service default" (the
        # CLI always sends the key, with 0 when the user did not choose).
        workers = int(payload.get("workers") or 0) or self.sweep_workers
        on_outcome = None
        if progress is not None:
            total = len(scenarios)

            def on_outcome(outcome: Any) -> None:
                # The buffer closes when the job settles; a replayed chunk
                # racing a cancellation must not crash the worker over a
                # progress frame nobody can receive anymore.
                if not progress.closed:
                    document = outcome.to_dict()
                    document["total"] = total
                    progress.append("scenario", document)

        report = run_parallel_sweep(
            tree,
            scenarios,
            workers=workers,
            store_path=self.store_path,
            analyses=tuple(payload.get("analyses", DEFAULT_ANALYSES)),
            backend=payload.get("backend", DEFAULT_BACKEND),
            incremental=bool(payload.get("incremental", True)),
            exact_top_event=bool(payload.get("exact_top_event", True)),
            top_k=int(payload.get("top_k", 5)),
            samples=int(payload.get("samples", 0)),
            seed=int(payload.get("seed", 0)),
            cache_max_entries=self.cache_max_entries,
            session=self.session if workers <= 1 else None,
            stop_check=guard.check if guard is not None else None,
            on_outcome=on_outcome,
        )
        return {
            "kind": "sweep",
            "tree": tree.name,
            "workers": workers,
            "num_scenarios": len(report),
            "report": report.to_dict(),
        }

    def _run_frontier(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tree, actions, options = decode_frontier_payload(payload)
        frontier = pareto_frontier(
            tree,
            actions,
            method=options["method"],
            precision=options["precision"],
            cache=self.session.artifacts,
        )
        return {
            "kind": "frontier",
            "tree": tree.name,
            "method": frontier.method,
            "num_points": len(frontier),
            "frontier": frontier.to_dict(),
        }

    def _run_campaign(
        self, payload: Dict[str, Any], guard: Optional[_JobGuard] = None
    ) -> Dict[str, Any]:
        spec = decode_campaign_payload(payload)
        runner = CampaignRunner(
            store=self.store,
            store_path=self.store_path,
            session=self.session,
            cache_max_entries=self.cache_max_entries,
            stop_check=guard.check if guard is not None else None,
        )
        outcome: CampaignOutcome = runner.run(spec)
        document = outcome.to_dict()
        document["kind"] = "campaign"
        document["result"] = outcome.result_document()
        return document


class WorkerPool:
    """Threads draining a :class:`JobQueue`, one :class:`JobRunner` each.

    Analysis is CPU-bound pure Python, so thread-level parallelism mostly
    provides job-level concurrency (a long sweep does not block a quick
    status-probe analysis); true parallel compute comes from the process
    fan-out inside sweep/campaign jobs (``workers`` in the payload).  Each
    runner solves MaxSAT in-process with the sequential portfolio.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        workers: int = 2,
        store_path: Optional[str] = None,
        store: Optional[DiskArtifactStore] = None,
        cache_max_entries: Optional[int] = None,
        sweep_workers: int = 0,
        poll_interval: float = 0.2,
    ) -> None:
        if workers < 1:
            raise JobError(f"worker pool needs at least one worker, got {workers}")
        self.queue = queue
        self.num_workers = workers
        # One store handle shared by every runner (and the service's health
        # view): the handle is just counters + path mapping, and sharing it
        # makes its statistics reflect the whole pool.
        self._runner_config = {
            "store_path": store_path,
            "store": store if store is not None else open_store(store_path),
            "cache_max_entries": cache_max_entries,
            "sweep_workers": sweep_workers,
        }
        self._poll_interval = poll_interval
        self._threads: List[threading.Thread] = []
        self._runners: List[JobRunner] = []
        self._runners_lock = threading.Lock()
        self._stop = threading.Event()

    def start(self) -> "WorkerPool":
        if self._threads:
            raise JobError("worker pool already started")
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _worker_loop(self) -> None:
        runner = JobRunner(**self._runner_config)
        with self._runners_lock:
            self._runners.append(runner)
        while not self._stop.is_set():
            job = self.queue.claim(timeout=self._poll_interval)
            if job is None:
                continue
            try:
                result = runner.execute(job)
            except JobCancelled:
                log_event("service.workers", "job_cancelled", job=job.id, kind=job.kind)
                self.queue.finish_cancelled(job.id)
            except JobTimeout as exc:
                log_event(
                    "service.workers",
                    "job_timed_out",
                    job=job.id,
                    kind=job.kind,
                    error=str(exc),
                )
                self.queue.fail(job.id, str(exc))
            except Exception as exc:  # noqa: BLE001 - job failures are results
                # An engine interrupted by the guard surfaces as a generic
                # solver error; attribute it to the cancellation/timeout that
                # actually caused it.
                if job.cancel_event.is_set():
                    log_event(
                        "service.workers", "job_cancelled", job=job.id, kind=job.kind
                    )
                    self.queue.finish_cancelled(job.id)
                elif (
                    job.timeout is not None
                    and job.started_at is not None
                    and time.time() > job.started_at + job.timeout
                ):
                    log_event(
                        "service.workers", "job_timed_out", job=job.id, kind=job.kind
                    )
                    self.queue.fail(job.id, f"timed out after {job.timeout:g}s")
                else:
                    log_event(
                        "service.workers",
                        "job_failed",
                        job=job.id,
                        kind=job.kind,
                        error=str(exc),
                    )
                    self.queue.fail(job.id, str(exc))
            else:
                self.queue.finish(job.id, result)

    def cache_stats(self) -> Dict[str, Any]:
        """Merged artifact-cache statistics across every runner in the pool.

        Counters (including the per-kind ``store_hits``/``store_misses`` of
        store-backed sessions) sum field-wise, so the ``/health`` document
        shows fleet-wide cache effectiveness rather than one thread's view.
        """
        with self._runners_lock:
            parts = [runner.session.artifacts.stats() for runner in self._runners]
        from repro.campaigns.runner import _merge_cache_stats

        return _merge_cache_stats(parts)

    def stop(self, *, timeout: float = 5.0) -> None:
        """Stop accepting work and join the worker threads."""
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()
