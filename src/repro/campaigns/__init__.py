"""repro.campaigns — resumable sweep campaigns over the analysis service.

A campaign is a declarative DAG of named stages (scenario ``sweep``\\ s,
Pareto ``frontier`` probes, ``report`` merges) over one fault tree.  Stages
fan out into content-addressed chunks; a persistent completion ledger in the
artifact store records every finished chunk, so a killed-and-restarted
campaign resumes exactly where it stopped — completed chunks are served from
the ledger with zero recomputation, and the merged report is canonically
byte-identical to an uninterrupted run.

Entry points:

* :class:`CampaignSpec` / :func:`sweep_stage` / :func:`frontier_stage` /
  :func:`report_stage` — build the declarative spec (JSON round-trippable).
* :class:`CampaignRunner` / :func:`run_campaign` — execute with
  ledger-backed resume, per-chunk retry with capped exponential backoff,
  and optional process fan-out.
* :class:`CompletionLedger` — the per-chunk persistence layer (rides the
  :class:`~repro.service.store.DiskArtifactStore` entry format).
"""

from repro.campaigns.ledger import (
    CompletionLedger,
    campaign_state,
    chunk_record_key,
    state_record_key,
)
from repro.campaigns.runner import (
    CampaignOutcome,
    CampaignRunner,
    StageStats,
    materialise_tree,
    merge_scenario_reports,
    run_campaign,
)
from repro.campaigns.spec import (
    DEFAULT_CHUNK_SIZE,
    STAGE_KINDS,
    CampaignError,
    CampaignSpec,
    Chunk,
    StageSpec,
    document_hash,
    frontier_stage,
    report_stage,
    sweep_stage,
)

__all__ = [
    "CampaignError",
    "CampaignOutcome",
    "CampaignRunner",
    "CampaignSpec",
    "Chunk",
    "CompletionLedger",
    "DEFAULT_CHUNK_SIZE",
    "STAGE_KINDS",
    "StageSpec",
    "StageStats",
    "campaign_state",
    "chunk_record_key",
    "document_hash",
    "frontier_stage",
    "materialise_tree",
    "merge_scenario_reports",
    "report_stage",
    "run_campaign",
    "state_record_key",
    "sweep_stage",
]
