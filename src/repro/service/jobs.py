"""In-process job queue for the analysis service.

A :class:`Job` is one unit of submitted work — a single-tree analysis, a
batch of trees, a whole scenario sweep, or a campaign orchestration job —
described by a JSON-serialisable payload and resolved to a JSON-serialisable
result, so the same objects flow unchanged through the HTTP layer.
:class:`JobQueue` is the thread-safe queue the
:class:`~repro.service.workers.WorkerPool` drains: submission never blocks,
claiming blocks with an optional timeout, and every state transition
(``queued -> running -> done | failed | cancelled``, or
``queued -> cancelled``) is recorded with timestamps for the status
endpoints.

Claiming is **priority-ordered**: jobs with a higher ``priority`` are claimed
before lower ones, and jobs of equal priority are claimed strictly FIFO.
Campaign control-plane jobs are submitted above the default priority so a
queue full of bulk sweep chunks never starves orchestration.

Cancellation covers *running* jobs cooperatively: :meth:`JobQueue.cancel` on
a running job sets the job's :attr:`Job.cancel_event`, which the
:class:`~repro.service.workers.JobRunner` polls (and forwards into the
analysis engines' ``stop_check`` hook); the worker then settles the job as
``cancelled`` at the next check point.  Per-job ``timeout`` uses the same
mechanism — a timed-out job lands in ``failed`` with a distinguishable
``timed out after …`` reason.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.monitoring.events import EventBuffer
from repro.observability.metrics import get_metrics

__all__ = [
    "CONTROL_PRIORITY",
    "Job",
    "JobCancelled",
    "JobError",
    "JobQueue",
    "JobStatus",
    "JobTimeout",
    "JOB_KINDS",
]

#: Work types the service understands (see :mod:`repro.service.workers`).
JOB_KINDS = ("analyze", "batch", "sweep", "frontier", "campaign")

#: Priority used for campaign control-plane jobs: above the default ``0`` of
#: bulk work, so orchestration is claimed ahead of a backlog of chunk jobs.
CONTROL_PRIORITY = 10


class JobError(ReproError):
    """Invalid job submission or an operation on a job in the wrong state."""


class JobCancelled(JobError):
    """Raised inside a worker when a running job's cancellation fired."""


class JobTimeout(JobError):
    """Raised inside a worker when a running job exceeded its time budget."""


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class Job:
    """One submitted unit of work and its lifecycle record."""

    id: str
    kind: str
    payload: Dict[str, Any]
    status: JobStatus = JobStatus.QUEUED
    priority: int = 0
    timeout: Optional[float] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Cooperative-cancellation flag shared with the executing worker; set by
    #: :meth:`JobQueue.cancel` while the job is running.
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Serialized span tree recorded by the worker that executed the job
    #: (see :mod:`repro.observability.trace`); served by
    #: ``GET /jobs/<id>/trace`` once the job is terminal.
    trace: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: Live progress stream: workers append per-scenario/per-chunk events
    #: while the job runs, ``GET /sweeps/<id>/stream`` replays and follows
    #: them as Server-Sent Events.  Closed by the queue when the job settles,
    #: which is what terminates attached streams.
    progress: EventBuffer = field(default_factory=EventBuffer, repr=False)

    @property
    def cancel_requested(self) -> bool:
        return self.cancel_event.is_set()

    def to_dict(self, *, include_result: bool = False) -> Dict[str, Any]:
        """JSON-ready status document (results are fetched separately by default)."""
        document: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status.value,
            "priority": self.priority,
            "timeout": self.timeout,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_result:
            document["result"] = self.result
        return document


class JobQueue:
    """Thread-safe priority queue of :class:`Job` objects with a status ledger.

    Claiming order is highest ``priority`` first, FIFO within one priority.
    Finished jobs stay queryable until ``max_finished`` older ones push them
    out, so a polling client always has a window to collect its result.
    """

    def __init__(self, *, max_finished: int = 256) -> None:
        if max_finished < 1:
            raise JobError(f"max_finished must be at least 1, got {max_finished}")
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._job_done = threading.Condition(self._lock)
        # Min-heap of (-priority, submission sequence, job id): the heap pops
        # the highest priority first and, within one priority, the smallest
        # sequence number — strict FIFO.
        self._pending: List[Tuple[int, int, str]] = []
        self._jobs: "Dict[str, Job]" = {}
        self._finished_order: List[str] = []
        self._max_finished = max_finished
        self._next_id = 0
        self._next_seq = 0
        self._closed = False
        # Publish zeroed gauges immediately: scrapes see the queue families
        # from service start, not only after the first job transition.
        self._update_gauges()

    # -- submission -------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: Dict[str, Any],
        *,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Job:
        """Enqueue a new job and return its ledger entry.

        ``priority`` orders claiming (higher first); ``timeout`` bounds the
        job's running time (enforced cooperatively by the worker).
        """
        if kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}")
        if timeout is not None and timeout <= 0:
            raise JobError(f"job timeout must be positive, got {timeout!r}")
        with self._lock:
            if self._closed:
                raise JobError("the job queue is closed")
            self._next_id += 1
            job = Job(
                id=f"job-{self._next_id:06d}",
                kind=kind,
                payload=payload,
                priority=priority,
                timeout=timeout,
            )
            self._jobs[job.id] = job
            self._next_seq += 1
            heapq.heappush(self._pending, (-priority, self._next_seq, job.id))
            registry = get_metrics()
            registry.inc("repro_jobs_submitted_total", kind=kind)
            self._update_gauges()
            self._not_empty.notify()
            return job

    # -- worker side ------------------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority queued job and mark it running.

        Blocks up to ``timeout`` seconds (forever when ``None``) and returns
        ``None`` on timeout or once the queue is closed and drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._pending:
                    _, _, job_id = heapq.heappop(self._pending)
                    job = self._jobs.get(job_id)
                    if job is None or job.status is not JobStatus.QUEUED:
                        # Cancelled while waiting — possibly already trimmed
                        # from the ledger by _remember_finished.
                        continue
                    job.status = JobStatus.RUNNING
                    job.started_at = time.time()
                    get_metrics().observe(
                        "repro_queue_claim_latency_seconds",
                        max(0.0, job.started_at - job.submitted_at),
                        kind=job.kind,
                    )
                    self._update_gauges()
                    return job
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)

    def finish(self, job_id: str, result: Dict[str, Any]) -> Job:
        """Resolve a running job successfully."""
        return self._settle(job_id, JobStatus.DONE, result=result)

    def fail(self, job_id: str, error: str) -> Job:
        """Resolve a running job with an error message."""
        return self._settle(job_id, JobStatus.FAILED, error=error)

    def finish_cancelled(self, job_id: str) -> Job:
        """Settle a running job whose cooperative cancellation took effect."""
        return self._settle(job_id, JobStatus.CANCELLED)

    def _settle(
        self,
        job_id: str,
        status: JobStatus,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> Job:
        with self._lock:
            job = self._require(job_id)
            if job.status is not JobStatus.RUNNING:
                raise JobError(f"job {job_id} is {job.status.value}, not running")
            job.status = status
            job.result = result
            job.error = error
            job.finished_at = time.time()
            # The final "end" frame is what tells a streaming client the job
            # settled (a bare close is indistinguishable from a dropped
            # connection, which clients answer by reconnecting forever).
            job.progress.append("end", {"job": job.id, "status": status.value})
            job.progress.close()
            get_metrics().inc(
                "repro_jobs_completed_total", kind=job.kind, status=status.value
            )
            self._remember_finished(job.id)
            self._update_gauges()
            self._job_done.notify_all()
            return job

    # -- client side ------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._require(job_id)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job immediately, or a running one cooperatively.

        A queued job settles as ``cancelled`` right away and is never handed
        to a worker.  A *running* job cannot be stopped preemptively — its
        worker may be deep inside a solver — so cancellation is requested via
        :attr:`Job.cancel_event`; the worker polls it (the analysis engines'
        ``stop_check`` hook) and settles the job as ``cancelled`` at the next
        check point.  The returned job still reads ``running`` in that case;
        observe the transition through :meth:`wait` or :meth:`get`.  Jobs
        already in a terminal state raise :class:`JobError`.
        """
        with self._lock:
            job = self._require(job_id)
            if job.status is JobStatus.QUEUED:
                job.status = JobStatus.CANCELLED
                job.finished_at = time.time()
                job.progress.append("end", {"job": job.id, "status": "cancelled"})
                job.progress.close()
                get_metrics().inc(
                    "repro_jobs_completed_total", kind=job.kind, status="cancelled"
                )
                self._remember_finished(job.id)
                self._update_gauges()
                self._job_done.notify_all()
                return job
            if job.status is JobStatus.RUNNING:
                job.cancel_event.set()
                return job
            raise JobError(
                f"job {job_id} is already {job.status.value}; nothing to cancel"
            )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state (or the timeout passes)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            job = self._require(job_id)
            while not job.status.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._job_done.wait(remaining)
            return job

    def jobs(self) -> List[Job]:
        """Every job still in the ledger, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.id)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            counts = {status.value: 0 for status in JobStatus}
            for job in self._jobs.values():
                counts[job.status.value] += 1
            counts["total"] = len(self._jobs)
            return counts

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting submissions and wake blocked :meth:`claim` calls."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    # -- internals (callers hold the lock) --------------------------------------------

    def _update_gauges(self) -> None:
        """Refresh the queue-depth and per-state job-count gauges.

        Counts every state on every transition (the ledger is bounded by
        ``max_finished``, so this stays O(hundreds)): terminal counts must
        *decrease* when old jobs are trimmed, which an incremental +1/-1
        scheme would miss.
        """
        counts = {status: 0 for status in JobStatus}
        for job in self._jobs.values():
            counts[job.status] += 1
        registry = get_metrics()
        registry.set_gauge("repro_queue_depth", counts[JobStatus.QUEUED])
        for status, count in counts.items():
            registry.set_gauge("repro_jobs_by_state", count, state=status.value)

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job id {job_id!r}")
        return job

    def _remember_finished(self, job_id: str) -> None:
        self._finished_order.append(job_id)
        while len(self._finished_order) > self._max_finished:
            stale = self._finished_order.pop(0)
            self._jobs.pop(stale, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
