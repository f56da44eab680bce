"""``repro.service`` — persistent artifacts, job queue and analysis service.

The missing layer between the :mod:`repro.api` facade and a deployable tool:

* a **persistent, content-addressed artifact store**
  (:class:`~repro.service.store.DiskArtifactStore`) plugging into
  :class:`~repro.api.cache.ArtifactCache` as its second tier, so cut sets
  and BDDs computed by one process are reused by the next —
  across restarts and across concurrent workers;
* a **job queue and worker pool** (:mod:`repro.service.jobs`,
  :mod:`repro.service.workers`) accepting analysis, batch, scenario-sweep
  and Pareto-frontier jobs, with sweeps partitioned over a process pool
  whose workers share artifacts through the disk store
  (:func:`run_parallel_sweep`);
* a **dependency-free HTTP/JSON front end** (:mod:`repro.service.http`,
  built on :mod:`http.server`) to submit trees and sweeps, poll job status
  and fetch finished reports, plus the matching ``repro serve`` /
  ``repro submit`` / ``repro jobs`` CLI subcommands;
* **resumable campaigns** (:mod:`repro.campaigns`, re-exported here): a
  declarative stage DAG over the job queue whose per-chunk completion
  ledger lives in the same disk store, so a killed service resumes a
  campaign exactly where it stopped (``POST /campaigns``,
  ``repro campaign run/status/resume``).

Quickstart:

.. code-block:: python

    from repro.service import AnalysisService, ServiceClient, serve

    service = AnalysisService(store_path="/tmp/repro-store", workers=2)
    server = serve(service, host="127.0.0.1", port=0)   # port 0: ephemeral
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    job = client.submit_analyze(tree_document, analyses=["mpmcs", "top_event"])
    report = client.wait(job["id"])["result"]
"""

from repro.campaigns import CampaignOutcome, CampaignRunner, CampaignSpec, run_campaign
from repro.service.jobs import CONTROL_PRIORITY, Job, JobQueue, JobStatus
from repro.service.store import DiskArtifactStore
from repro.service.workers import (
    JobRunner,
    WorkerPool,
    merge_scenario_reports,
    run_parallel_sweep,
)
from repro.service.http import AnalysisService, ServiceClient, serve

__all__ = [
    "AnalysisService",
    "CONTROL_PRIORITY",
    "CampaignOutcome",
    "CampaignRunner",
    "CampaignSpec",
    "DiskArtifactStore",
    "Job",
    "JobQueue",
    "JobRunner",
    "JobStatus",
    "ServiceClient",
    "WorkerPool",
    "merge_scenario_reports",
    "run_campaign",
    "run_parallel_sweep",
    "serve",
]
