"""Dependency-free HTTP/JSON front end for the analysis service.

Built on :class:`http.server.ThreadingHTTPServer` — no web framework, in
keeping with the library's pure-standard-library policy.  The wire format is
exactly the job payload/result vocabulary of :mod:`repro.service.workers`,
so anything expressible through the Python API is expressible over HTTP:

====== ========================== ==============================================
Method Path                       Meaning
====== ========================== ==============================================
GET    ``/health``                liveness + queue and store statistics
GET    ``/backends``              registered analysis backends and capabilities
POST   ``/analyze``               submit a single-tree analysis job
POST   ``/batch``                 submit a many-trees batch job
POST   ``/sweep``                 submit a scenario sweep job
POST   ``/frontier``              submit a Pareto-frontier mitigation-planning job
POST   ``/campaigns``             submit (or resume) a resumable campaign
GET    ``/campaigns``             list known campaigns and their states
GET    ``/campaigns/<id>``        campaign status with per-stage chunk progress
GET    ``/campaigns/<id>/result`` the finished campaign's result (409 until done)
POST   ``/campaigns/<id>/resume`` resubmit a campaign by id (resumes from ledger)
GET    ``/jobs``                  list jobs in the ledger
GET    ``/jobs/<id>``             one job's status document
GET    ``/jobs/<id>/result``      the finished job's result (409 until done)
POST   ``/jobs/<id>/cancel``      cancel a queued job, or request cooperative
                                  cancellation of a running one
GET    ``/sweeps/<id>/stream``    SSE stream of a sweep job's per-scenario
                                  progress (``Last-Event-ID`` replays)
POST   ``/monitor``               start the live tree monitor (409 if running)
GET    ``/monitor``               monitor status document (404 if none)
GET    ``/monitor/alerts``        the monitor's alert ledger
GET    ``/monitor/stream``        SSE stream of monitor deltas and alerts
POST   ``/monitor/stop``          stop the running monitor
====== ========================== ==============================================

The two ``/…/stream`` endpoints speak ``text/event-stream``
(:mod:`repro.monitoring.sse`): every frame carries the strictly-increasing
buffer id, so a client reconnecting with ``Last-Event-ID`` receives exactly
the events it missed.  Streams end with an ``end`` event when the source
(monitor or job) finishes.

Campaign identity is content-addressed (the id is a hash of the canonical
spec document), so ``POST /campaigns`` with a spec whose campaign already ran
— fully or partially — resumes it from the completion ledger instead of
recomputing; ``/campaigns/<id>/resume`` does the same by id alone, using the
spec persisted in the ledger's state record (it therefore works even after a
service restart).

Submissions return ``202 Accepted`` with the job status document; pass
``"wait": true`` (optionally ``"timeout": seconds``) in the body to block
until the job settles and receive the result inline (``200``).

:class:`ServiceClient` is the matching :mod:`urllib`-based client used by the
``repro submit`` / ``repro jobs`` CLI subcommands, the tests and the demo.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union
from urllib.parse import urlsplit

from repro.api.registry import available_backends
from repro.campaigns.ledger import campaign_state
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ReproError
from repro.fta.parsers.json_format import parse_json_document
from repro.fta.serializers import to_json_document
from repro.fta.tree import FaultTree
from repro.monitoring.events import EventBuffer
from repro.monitoring.feeds import feed_from_spec
from repro.monitoring.monitor import TreeMonitor
from repro.monitoring.sse import SSEClient, format_sse
from repro.observability.log import log_event
from repro.observability.metrics import enable_metrics
from repro.scenarios.serialization import monitor_rules_from_spec
from repro.scenarios.sweep import DEFAULT_ANALYSES
from repro.service.jobs import CONTROL_PRIORITY, Job, JobError, JobQueue, JobStatus
from repro.service.store import open_store
from repro.service.workers import (
    WorkerPool,
    decode_campaign_payload,
    decode_frontier_payload,
    decode_sweep_payload,
)

__all__ = ["AnalysisService", "ServiceClient", "ServiceError", "serve"]

#: Refuse request bodies larger than this (a tree document of this size is
#: far beyond anything the analyses handle anyway).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServiceError(ReproError):
    """Client-side error talking to the analysis service."""


class AnalysisService:
    """The deployable unit: job queue + worker pool + shared disk store.

    Parameters
    ----------
    store_path:
        Directory of the shared :class:`~repro.service.store.DiskArtifactStore`;
        ``None`` runs with in-memory caches only (artifacts die with the
        process).
    workers:
        Worker *threads* draining the job queue (job-level concurrency).
    sweep_workers:
        Default process fan-out for sweep jobs that do not specify their own
        ``workers``; ``0`` keeps sweeps in-process.
    cache_max_entries:
        LRU bound for each runner's in-memory cache tier.
    """

    def __init__(
        self,
        *,
        store_path: Optional[str] = None,
        workers: int = 2,
        sweep_workers: int = 0,
        cache_max_entries: Optional[int] = None,
        max_finished: int = 256,
    ) -> None:
        self.store_path = store_path
        # The service path is observability-enabled by default: a real
        # process-wide registry backs ``GET /metrics`` out of the box, while
        # plain-library users keep the zero-cost no-op default.
        self.metrics = enable_metrics()
        self.queue = JobQueue(max_finished=max_finished)
        self._store_view = open_store(store_path)
        self.pool = WorkerPool(
            self.queue,
            workers=workers,
            store_path=store_path,
            store=self._store_view,
            cache_max_entries=cache_max_entries,
            sweep_workers=sweep_workers,
        )
        self.started_at = time.time()
        self._started = False
        # Campaign id -> {"name", "spec", "jobs": [...]} for campaigns seen by
        # *this* process; campaigns from earlier runs are reachable through
        # the ledger's state records in the store.
        self._campaigns: Dict[str, Dict[str, Any]] = {}
        self._campaigns_lock = threading.Lock()
        # The service hosts at most one live monitor at a time (it pins a
        # warm solver session and a BDD); POST /monitor while one runs is 409.
        self._monitor: Optional[TreeMonitor] = None
        self._monitor_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "AnalysisService":
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def stop(self) -> None:
        with self._monitor_lock:
            monitor = self._monitor
        if monitor is not None and monitor.running:
            monitor.stop()
        if self._started:
            self.pool.stop()
            self._started = False

    # -- operations (shared by HTTP handler and direct Python use) --------------------

    def submit(self, kind: str, payload: Dict[str, Any]) -> Job:
        """Validate the payload early and enqueue the job.

        Sweep and frontier payloads are *fully decoded* here — tree, patch
        parameters, family specs, reliability models, hardening actions — so
        a malformed submission is rejected with an immediate HTTP 400 instead
        of failing later, once per scenario, in a worker.  (The decoded
        objects are discarded; workers decode again from the queued JSON.)
        """
        if kind in ("analyze", "sweep", "frontier") and not isinstance(
            payload.get("tree"), dict
        ):
            raise JobError(f"{kind} payload needs a 'tree' JSON document")
        if kind == "sweep":
            decode_sweep_payload(payload)
        if kind == "frontier":
            decode_frontier_payload(payload)
        if kind == "batch" and not isinstance(payload.get("trees"), list):
            raise JobError("batch payload needs a 'trees' list of JSON documents")
        return self.queue.submit(kind, payload)

    # -- campaigns --------------------------------------------------------------------

    def submit_campaign(self, payload: Dict[str, Any]) -> Tuple[Job, str]:
        """Validate a campaign spec and enqueue its orchestration job.

        The job runs at :data:`~repro.service.jobs.CONTROL_PRIORITY`, above
        the default priority of bulk work, so a backlog of sweep jobs never
        starves campaign orchestration.  Submitting a spec whose campaign
        already has ledger state *is* a resume — identity is content-based.
        """
        spec = decode_campaign_payload(payload)
        campaign_id = spec.campaign_id()
        job = self.queue.submit(
            "campaign", {"spec": spec.to_dict()}, priority=CONTROL_PRIORITY
        )
        with self._campaigns_lock:
            entry = self._campaigns.setdefault(
                campaign_id, {"name": spec.name, "spec": spec.to_dict(), "jobs": []}
            )
            entry["jobs"].append(job.id)
        return job, campaign_id

    def _campaign_spec(self, campaign_id: str) -> CampaignSpec:
        """Resolve a campaign id to its spec — registry first, then ledger."""
        with self._campaigns_lock:
            entry = self._campaigns.get(campaign_id)
        if entry is not None:
            return CampaignSpec.from_dict(entry["spec"])
        state = campaign_state(self._store_view, campaign_id)
        if state is not None and isinstance(state.get("spec"), dict):
            return CampaignSpec.from_dict(state["spec"])
        raise JobError(f"unknown campaign id {campaign_id!r}")

    def campaign_status(self, campaign_id: str) -> Dict[str, Any]:
        """Ledger-derived status document with per-stage chunk progress."""
        spec = self._campaign_spec(campaign_id)
        runner = CampaignRunner(store=self._store_view)
        document = runner.status(spec)
        with self._campaigns_lock:
            entry = self._campaigns.get(campaign_id)
            document["jobs"] = list(entry["jobs"]) if entry is not None else []
        return document

    def campaign_result(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """The finished campaign's result document from the ledger, or ``None``."""
        self._campaign_spec(campaign_id)  # 404 for unknown ids
        state = campaign_state(self._store_view, campaign_id)
        if state is not None and state.get("status") == "done":
            return state.get("result")
        return None

    def resume_campaign(self, campaign_id: str) -> Tuple[Job, str]:
        """Resubmit a campaign by id; the ledger supplies completed chunks."""
        spec = self._campaign_spec(campaign_id)
        return self.submit_campaign({"spec": spec.to_dict()})

    def campaigns(self) -> List[Dict[str, Any]]:
        """Every campaign this process has seen, with its current ledger state."""
        with self._campaigns_lock:
            known = {
                campaign_id: dict(entry) for campaign_id, entry in self._campaigns.items()
            }
        documents: List[Dict[str, Any]] = []
        for campaign_id, entry in sorted(known.items()):
            state = campaign_state(self._store_view, campaign_id)
            documents.append(
                {
                    "campaign": campaign_id,
                    "name": entry["name"],
                    "status": (state or {}).get("status", "unknown"),
                    "jobs": list(entry["jobs"]),
                }
            )
        return documents

    # -- live monitoring --------------------------------------------------------------

    def start_monitor(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Build and start a :class:`TreeMonitor` from the request payload.

        Payload shape::

            {"tree": <tree document>,
             "feed": {"type": "synthetic" | "file" | "http", ...},
             "rules": [<rule documents>],          # optional
             "backend": "maxsat", "analyses": [...], "top_k": 5,
             "max_updates": 500, "include_reports": false,
             "webhook_url": "https://...", "batch_size": 1}

        The monitor runs on its own daemon thread (plus a staleness-watchdog
        thread when the rules ask for one), re-analysing through a
        store-backed session so its artifacts and alert ledger persist.
        """
        tree_document = payload.get("tree")
        if not isinstance(tree_document, dict):
            raise JobError("monitor payload needs a 'tree' JSON document")
        feed_spec = payload.get("feed")
        if not isinstance(feed_spec, dict):
            raise JobError("monitor payload needs a 'feed' spec object")
        max_updates = payload.get("max_updates")
        if max_updates is not None and (
            not isinstance(max_updates, int)
            or isinstance(max_updates, bool)
            or max_updates < 1
        ):
            raise JobError(f"'max_updates' must be a positive integer, got {max_updates!r}")
        batch_size = payload.get("batch_size", 1)
        if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
            raise JobError(f"'batch_size' must be a positive integer, got {batch_size!r}")
        webhook_url = payload.get("webhook_url")
        if webhook_url is not None and not isinstance(webhook_url, str):
            raise JobError(f"'webhook_url' must be a string, got {webhook_url!r}")
        tree = parse_json_document(tree_document)
        rules = monitor_rules_from_spec(payload.get("rules"))
        with self._monitor_lock:
            if self._monitor is not None and self._monitor.running:
                raise JobError("a monitor is already running; POST /monitor/stop first")
            monitor = TreeMonitor(
                tree,
                backend=payload.get("backend", "maxsat"),
                analyses=tuple(payload.get("analyses", DEFAULT_ANALYSES)),
                top_k=int(payload.get("top_k", 5)),
                rules=rules,
                store=self._store_view,
                include_reports=bool(payload.get("include_reports", False)),
                buffer_size=int(payload.get("buffer_size", 4096)),
                webhook_url=webhook_url,
            )
            feed = feed_from_spec(feed_spec, tree=tree)
            monitor.start(feed, max_updates=max_updates, batch_size=batch_size)
            self._monitor = monitor
        log_event(
            "service.http",
            "monitor_started",
            tree=tree.name,
            feed=feed_spec.get("type"),
            rules=len(rules),
        )
        return monitor.status()

    def _require_monitor(self) -> TreeMonitor:
        with self._monitor_lock:
            monitor = self._monitor
        if monitor is None:
            raise JobError("no monitor is running")
        return monitor

    def monitor_status(self) -> Dict[str, Any]:
        return self._require_monitor().status()

    def monitor_alerts(self) -> List[Dict[str, Any]]:
        return self._require_monitor().engine.ledger()

    def monitor_events(self) -> EventBuffer:
        return self._require_monitor().events

    def stop_monitor(self) -> Dict[str, Any]:
        monitor = self._require_monitor()
        monitor.stop()
        log_event("service.http", "monitor_stopped", tree=monitor.tree.name)
        return monitor.status()

    def sweep_progress(self, job_id: str) -> EventBuffer:
        """The progress buffer behind ``GET /sweeps/<id>/stream``."""
        return self.queue.get(job_id).progress

    def health(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "workers": self.pool.num_workers,
            "jobs": self.queue.stats(),
            # Merged across every runner: includes per-kind store_hits /
            # store_misses for store-backed sessions, so hit *rates* are
            # visible next to the store's entry counts.
            "cache": self.pool.cache_stats(),
        }
        if self._store_view is not None:
            document["store"] = self._store_view.stats()
        return document

    def metrics_text(self) -> str:
        """The process-wide registry in Prometheus text exposition format."""
        return self.metrics.render_prometheus()

    @staticmethod
    def backends() -> Dict[str, List[str]]:
        return {
            name: sorted(cls.capabilities())
            for name, cls in available_backends().items()
        }


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto an :class:`AnalysisService` instance."""

    service: AnalysisService  # injected by _handler_for
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; the CLI announces the endpoint once

    def _send_json(self, status: int, document: Dict[str, Any]) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, *, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if length > MAX_BODY_BYTES:
            # The oversize body is rejected *unread*; close the connection so
            # a keep-alive client cannot desynchronise on the leftover bytes.
            self.close_connection = True
            raise JobError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            document = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise JobError("request body must be a JSON object")
        return document

    # -- routing ----------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path == "/health":
                self._send_json(200, self.service.health())
            elif path == "/metrics":
                self._send_text(
                    200,
                    self.service.metrics_text(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/backends":
                self._send_json(200, {"backends": self.service.backends()})
            elif path == "/jobs":
                self._send_json(
                    200, {"jobs": [job.to_dict() for job in self.service.queue.jobs()]}
                )
            elif path.startswith("/jobs/") and path.endswith("/result"):
                self._get_result(path[len("/jobs/") : -len("/result")])
            elif path.startswith("/jobs/") and path.endswith("/trace"):
                self._get_trace(path[len("/jobs/") : -len("/trace")])
            elif path.startswith("/jobs/"):
                job = self.service.queue.get(path[len("/jobs/") :])
                self._send_json(200, {"job": job.to_dict()})
            elif path.startswith("/sweeps/") and path.endswith("/stream"):
                job_id = path[len("/sweeps/") : -len("/stream")]
                self._stream_buffer(self.service.sweep_progress(job_id))
            elif path == "/monitor":
                self._send_json(200, {"monitor": self.service.monitor_status()})
            elif path == "/monitor/alerts":
                self._send_json(200, {"alerts": self.service.monitor_alerts()})
            elif path == "/monitor/stream":
                self._stream_buffer(self.service.monitor_events())
            elif path == "/campaigns":
                self._send_json(200, {"campaigns": self.service.campaigns()})
            elif path.startswith("/campaigns/") and path.endswith("/result"):
                campaign_id = path[len("/campaigns/") : -len("/result")]
                result = self.service.campaign_result(campaign_id)
                if result is None:
                    self._error(409, f"campaign {campaign_id} has no result yet")
                else:
                    self._send_json(200, {"result": result})
            elif path.startswith("/campaigns/"):
                campaign_id = path[len("/campaigns/") :]
                self._send_json(200, {"campaign": self.service.campaign_status(campaign_id)})
            else:
                self._error(404, f"unknown path {path!r}")
        except JobError as exc:
            self._error(404 if self._is_not_found(exc) else 400, str(exc))

    @staticmethod
    def _is_not_found(exc: JobError) -> bool:
        message = str(exc)
        return (
            "unknown job id" in message
            or "unknown campaign id" in message
            or "no monitor is running" in message
        )

    @staticmethod
    def _is_conflict(exc: JobError) -> bool:
        return "already running" in str(exc)

    # -- streaming --------------------------------------------------------------------

    def _stream_buffer(
        self, buffer: EventBuffer, *, poll_interval_s: float = 0.25
    ) -> None:
        """Serve one :class:`EventBuffer` as a ``text/event-stream`` response.

        Honours ``Last-Event-ID`` (replay starts after it), follows the
        buffer live, and ends the response once the buffer is closed and
        drained — the final frame a client sees is the source's ``end``
        event.  A vanished client (broken pipe) terminates the stream
        silently; the buffer itself is untouched, so reconnection resumes.
        """
        header = self.headers.get("Last-Event-ID")
        try:
            last_id = int(header) if header else 0
        except ValueError:
            raise JobError(f"Last-Event-ID must be an integer, got {header!r}")
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # No Content-Length: the stream is delimited by connection close, so
        # this keep-alive connection cannot be reused afterwards.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            while True:
                events, closed = buffer.wait_for(last_id, timeout=poll_interval_s)
                for event in events:
                    self.wfile.write(format_sse(event))
                    last_id = event.id
                if events:
                    self.wfile.flush()
                elif closed:
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path in ("/analyze", "/batch", "/sweep", "/frontier"):
                self._submit(path.lstrip("/"))
            elif path.startswith("/jobs/") and path.endswith("/cancel"):
                job = self.service.queue.cancel(path[len("/jobs/") : -len("/cancel")])
                self._send_json(200, {"job": job.to_dict()})
            elif path == "/campaigns":
                self._submit_campaign()
            elif path.startswith("/campaigns/") and path.endswith("/resume"):
                campaign_id = path[len("/campaigns/") : -len("/resume")]
                job, campaign_id = self.service.resume_campaign(campaign_id)
                self._send_json(202, {"job": job.to_dict(), "campaign": campaign_id})
            elif path == "/monitor":
                payload = self._read_body()
                self._send_json(202, {"monitor": self.service.start_monitor(payload)})
            elif path == "/monitor/stop":
                self._send_json(200, {"monitor": self.service.stop_monitor()})
            else:
                self._error(404, f"unknown path {path!r}")
        except JobError as exc:
            if self._is_not_found(exc):
                self._error(404, str(exc))
            elif self._is_conflict(exc):
                self._error(409, str(exc))
            else:
                self._error(400, str(exc))
        except ReproError as exc:
            self._error(400, str(exc))

    # -- handlers ---------------------------------------------------------------------

    def _submit(self, kind: str) -> None:
        payload = self._read_body()
        wait = bool(payload.pop("wait", False))
        # Validate the timeout *before* enqueueing: failing afterwards would
        # drop the connection while leaving an orphan job the client never
        # learns the id of.
        raw_timeout = payload.pop("timeout", None)
        try:
            timeout = float(raw_timeout) if raw_timeout is not None else None
        except (TypeError, ValueError) as exc:
            raise JobError(f"'timeout' must be a number, got {raw_timeout!r}") from exc
        job = self.service.submit(kind, payload)
        if not wait:
            self._send_json(202, {"job": job.to_dict()})
            return
        job = self.service.queue.wait(job.id, timeout=timeout)
        status = 200 if job.status.terminal else 202
        self._send_json(status, {"job": job.to_dict(include_result=True)})

    def _submit_campaign(self) -> None:
        payload = self._read_body()
        wait = bool(payload.pop("wait", False))
        raw_timeout = payload.pop("timeout", None)
        try:
            timeout = float(raw_timeout) if raw_timeout is not None else None
        except (TypeError, ValueError) as exc:
            raise JobError(f"'timeout' must be a number, got {raw_timeout!r}") from exc
        job, campaign_id = self.service.submit_campaign(payload)
        if not wait:
            self._send_json(202, {"job": job.to_dict(), "campaign": campaign_id})
            return
        job = self.service.queue.wait(job.id, timeout=timeout)
        status = 200 if job.status.terminal else 202
        self._send_json(
            status, {"job": job.to_dict(include_result=True), "campaign": campaign_id}
        )

    def _get_result(self, job_id: str) -> None:
        job = self.service.queue.get(job_id)
        if job.status is JobStatus.DONE:
            self._send_json(200, {"job": job.to_dict(include_result=True)})
        elif job.status is JobStatus.FAILED:
            self._send_json(200, {"job": job.to_dict(include_result=True)})
        else:
            self._error(409, f"job {job_id} is {job.status.value}; no result yet")

    def _get_trace(self, job_id: str) -> None:
        job = self.service.queue.get(job_id)
        if not job.status.terminal:
            self._error(409, f"job {job_id} is {job.status.value}; no trace yet")
        elif job.trace is None:
            # e.g. cancelled while still queued: no worker ever ran it.
            self._error(409, f"job {job_id} recorded no trace")
        else:
            self._send_json(200, {"job": job_id, "trace": job.trace})


def _handler_for(service: AnalysisService) -> Type[_ServiceRequestHandler]:
    return type(
        "BoundServiceRequestHandler", (_ServiceRequestHandler,), {"service": service}
    )


def serve(
    service: AnalysisService,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    background: bool = True,
    start_workers: bool = True,
) -> ThreadingHTTPServer:
    """Start the worker pool and the HTTP server; returns the live server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_port``).  With ``background=True`` (default) the accept
    loop runs on a daemon thread and the call returns immediately — shut down
    with ``server.shutdown()`` followed by ``service.stop()``.  With
    ``background=False`` the caller owns the accept loop
    (``server.serve_forever()``), which is what the ``repro serve`` CLI does.
    """
    server = ThreadingHTTPServer((host, port), _handler_for(service))
    if start_workers:
        service.start()
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-service-http", daemon=True
        )
        thread.start()
    return server


class ServiceClient:
    """Minimal :mod:`urllib`-based client for the service endpoints."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport --------------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception as parse_exc:  # noqa: BLE001 - best-effort detail extraction
                log_event(
                    "service.http",
                    "error_detail_unparseable",
                    method=method,
                    path=path,
                    status=exc.code,
                    error=type(parse_exc).__name__,
                )
                detail = ""
            raise ServiceError(
                f"{method} {path} failed with HTTP {exc.code}: {detail or exc.reason}"
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach {self.base_url}: {exc.reason}") from exc

    @staticmethod
    def _tree_document(tree: Union[FaultTree, Dict[str, Any]]) -> Dict[str, Any]:
        return to_json_document(tree) if isinstance(tree, FaultTree) else tree

    # -- endpoints --------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def backends(self) -> Dict[str, List[str]]:
        return self._request("GET", "/backends")["backends"]

    def submit_analyze(
        self, tree: Union[FaultTree, Dict[str, Any]], **options: Any
    ) -> Dict[str, Any]:
        payload = {"tree": self._tree_document(tree), **options}
        return self._request("POST", "/analyze", payload)["job"]

    def submit_sweep(
        self,
        tree: Union[FaultTree, Dict[str, Any]],
        scenarios: Union[Sequence[Dict[str, Any]], Dict[str, Any]],
        **options: Any,
    ) -> Dict[str, Any]:
        payload = {"tree": self._tree_document(tree), "scenarios": scenarios, **options}
        return self._request("POST", "/sweep", payload)["job"]

    def submit_batch(
        self, trees: Sequence[Union[FaultTree, Dict[str, Any]]], **options: Any
    ) -> Dict[str, Any]:
        payload = {"trees": [self._tree_document(tree) for tree in trees], **options}
        return self._request("POST", "/batch", payload)["job"]

    def submit_frontier(
        self,
        tree: Union[FaultTree, Dict[str, Any]],
        actions: Sequence[Dict[str, Any]],
        **options: Any,
    ) -> Dict[str, Any]:
        payload = {
            "tree": self._tree_document(tree),
            "actions": list(actions),
            **options,
        }
        return self._request("POST", "/frontier", payload)["job"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")["job"]

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The span tree of a terminal job (409 -> ServiceError until then)."""
        return self._request("GET", f"/jobs/{job_id}/trace")["trace"]

    def metrics_text(self) -> str:
        """Scrape ``GET /metrics`` and return the raw Prometheus text."""
        request = urllib.request.Request(f"{self.base_url}/metrics", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach {self.base_url}: {exc.reason}") from exc

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")["job"]

    def submit_campaign(
        self, spec: Union["CampaignSpec", Dict[str, Any]], **options: Any
    ) -> Dict[str, Any]:
        """Submit a campaign spec; returns ``{"job": ..., "campaign": <id>}``."""
        document = spec.to_dict() if isinstance(spec, CampaignSpec) else spec
        payload = {"spec": document, **options}
        return self._request("POST", "/campaigns", payload)

    def campaigns(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/campaigns")["campaigns"]

    def campaign(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{campaign_id}")["campaign"]

    def campaign_result(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{campaign_id}/result")["result"]

    def resume_campaign(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/campaigns/{campaign_id}/resume")

    # -- live monitoring --------------------------------------------------------------

    def start_monitor(
        self,
        tree: Union[FaultTree, Dict[str, Any]],
        *,
        feed: Dict[str, Any],
        rules: Optional[Sequence[Dict[str, Any]]] = None,
        **options: Any,
    ) -> Dict[str, Any]:
        """``POST /monitor``: start the live monitor; returns its status."""
        payload: Dict[str, Any] = {
            "tree": self._tree_document(tree),
            "feed": dict(feed),
            **options,
        }
        if rules is not None:
            payload["rules"] = list(rules)
        return self._request("POST", "/monitor", payload)["monitor"]

    def monitor(self) -> Dict[str, Any]:
        return self._request("GET", "/monitor")["monitor"]

    def monitor_alerts(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/monitor/alerts")["alerts"]

    def stop_monitor(self) -> Dict[str, Any]:
        return self._request("POST", "/monitor/stop")["monitor"]

    def stream_monitor(
        self,
        *,
        last_event_id: int = 0,
        retry_interval_s: float = 0.5,
        max_retries: int = 10,
    ) -> "SSEClient":
        """Iterator over ``GET /monitor/stream`` events.

        Returns a reconnecting :class:`~repro.monitoring.sse.SSEClient`:
        iterate it for :class:`~repro.monitoring.sse.SSEvent` records
        (``delta``/``alert``/``base``/``end`` kinds).  A dropped connection
        reconnects with ``Last-Event-ID``, so no event is observed twice and
        none is skipped while the server still buffers it.
        """
        return SSEClient(
            f"{self.base_url}/monitor/stream",
            last_event_id=last_event_id,
            timeout_s=self.timeout,
            retry_interval_s=retry_interval_s,
            max_retries=max_retries,
        )

    def stream_sweep(
        self,
        job_id: str,
        *,
        last_event_id: int = 0,
        retry_interval_s: float = 0.5,
        max_retries: int = 10,
    ) -> "SSEClient":
        """Iterator over ``GET /sweeps/<id>/stream`` per-scenario progress."""
        return SSEClient(
            f"{self.base_url}/sweeps/{job_id}/stream",
            last_event_id=last_event_id,
            timeout_s=self.timeout,
            retry_interval_s=retry_interval_s,
            max_retries=max_retries,
        )

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll_interval: float = 0.1
    ) -> Dict[str, Any]:
        """Poll until the job settles; returns the result-bearing document."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in ("done", "failed", "cancelled"):
                if job["status"] == "done" or job["status"] == "failed":
                    return self.result(job_id)
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(f"job {job_id} did not finish within {timeout:g}s")
            time.sleep(poll_interval)
