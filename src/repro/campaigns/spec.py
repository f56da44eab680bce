"""Declarative campaign specifications: named stages forming a small DAG.

A :class:`CampaignSpec` describes a whole resumable workload over one fault
tree: each :class:`StageSpec` names a unit of the pipeline — a scenario
``sweep``, a Pareto ``frontier`` probe, or a ``report`` merge — and declares
the stages it ``depends_on``.  Stages fan out into **content-addressed
chunks**: a sweep stage's scenario grid is partitioned into contiguous
slices, and every chunk is identified by a SHA-256 hash over everything that
determines its result (tree document, stage configuration, the chunk's
scenario documents and its position).  Chunk hashes are the resume currency:
a :class:`~repro.campaigns.runner.CampaignRunner` consults the completion
ledger under ``(campaign id, chunk hash)`` before computing anything, so a
restarted campaign re-executes exactly the chunks whose results are missing.

Everything here is JSON-first — a spec round-trips losslessly through
:meth:`CampaignSpec.to_dict` / :meth:`CampaignSpec.from_dict` (the campaign
wire format re-exported by :mod:`repro.scenarios.serialization`), and the
campaign id is a content hash of that canonical JSON, so submitting the same
spec twice *is* a resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ReproError

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "Chunk",
    "StageSpec",
    "STAGE_KINDS",
    "sweep_stage",
    "frontier_stage",
    "report_stage",
]

#: Stage kinds the runner understands.
STAGE_KINDS = ("sweep", "frontier", "report")

#: Default scenarios per sweep chunk when the stage does not choose.
DEFAULT_CHUNK_SIZE = 16


class CampaignError(ReproError):
    """Malformed campaign specification (bad DAG, unknown kind, bad payload)."""


def _canonical_json(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def document_hash(document: Any) -> str:
    """SHA-256 hex digest of a JSON document's canonical serialisation."""
    return hashlib.sha256(_canonical_json(document).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StageSpec:
    """One named stage of a campaign DAG.

    Parameters
    ----------
    name:
        Unique stage name within the campaign.
    kind:
        ``sweep`` (scenario grid, chunked), ``frontier`` (Pareto probe,
        single chunk) or ``report`` (merge of the dependencies' results,
        single chunk).
    payload:
        Kind-specific JSON configuration: a sweep stage carries a
        ``scenarios`` list/family spec (the wire format of
        :func:`repro.scenarios.serialization.scenarios_from_spec`) plus an
        optional ``chunk_size``; a frontier stage carries ``actions`` and
        optionally ``method``/``precision``; a report stage needs no payload.
    depends_on:
        Names of stages that must complete before this one starts.
    """

    name: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    depends_on: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(f"stage name must be a non-empty string, got {self.name!r}")
        if self.kind not in STAGE_KINDS:
            raise CampaignError(
                f"unknown stage kind {self.kind!r}; expected one of {', '.join(STAGE_KINDS)}"
            )
        if not isinstance(self.payload, dict):
            raise CampaignError(
                f"stage {self.name!r}: payload must be a JSON object, got {self.payload!r}"
            )
        object.__setattr__(self, "depends_on", tuple(self.depends_on))

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.payload:
            document["payload"] = self.payload
        if self.depends_on:
            document["depends_on"] = list(self.depends_on)
        return document

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "StageSpec":
        if not isinstance(document, Mapping):
            raise CampaignError(f"stage document must be an object, got {document!r}")
        unknown = set(document) - {"name", "kind", "payload", "depends_on"}
        if unknown:
            raise CampaignError(
                f"stage document has unknown fields: {', '.join(sorted(unknown))}"
            )
        try:
            name = document["name"]
            kind = document["kind"]
        except KeyError as exc:
            raise CampaignError(f"stage document is missing {exc}") from exc
        return StageSpec(
            name=name,
            kind=kind,
            payload=dict(document.get("payload", {})),
            depends_on=tuple(document.get("depends_on", ())),
        )


@dataclass(frozen=True)
class Chunk:
    """One content-addressed unit of stage work.

    ``hash`` identifies the chunk's *result*: it covers the campaign's tree
    and analysis configuration, the stage name and kind, the chunk index and
    the chunk-specific payload slice, so two chunks share a hash exactly when
    recomputing either would reproduce the other's output byte for byte.
    """

    stage: str
    index: int
    hash: str
    #: Kind-specific work description (e.g. the chunk's scenario documents).
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CampaignSpec:
    """A named, resumable pipeline over one fault tree.

    The analysis configuration (``analyses``, ``backend``, ``top_k``, …)
    is campaign-global so every stage — and every chunk — analyses under
    identical settings; this is what makes the merged report of a resumed
    campaign byte-identical to an uninterrupted run.
    """

    name: str
    tree: Dict[str, Any]
    stages: Tuple[StageSpec, ...]
    analyses: Tuple[str, ...] = ("mpmcs", "top_event")
    backend: str = "mocus"
    incremental: bool = True
    exact_top_event: bool = True
    top_k: int = 5
    samples: int = 0
    seed: int = 0
    models: Optional[Dict[str, Any]] = None
    mission_time: Optional[float] = None
    #: Process fan-out for executing ready chunks (0/1 = in-process).
    workers: int = 0
    #: Retry budget per chunk (attempts beyond the first).
    max_retries: int = 2
    #: Base delay of the capped exponential backoff between chunk retries.
    retry_base_delay_s: float = 0.1
    #: Backoff cap.
    retry_max_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(f"campaign name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.tree, dict):
            raise CampaignError("campaign spec needs a 'tree' JSON document")
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "analyses", tuple(self.analyses))
        if not self.stages:
            raise CampaignError("campaign spec needs at least one stage")
        if self.max_retries < 0:
            raise CampaignError(f"max_retries must be >= 0, got {self.max_retries}")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate stage names in campaign {self.name!r}")
        known = set(names)
        for stage in self.stages:
            missing = [dep for dep in stage.depends_on if dep not in known]
            if missing:
                raise CampaignError(
                    f"stage {stage.name!r} depends on unknown stage(s) "
                    f"{', '.join(sorted(missing))}"
                )
            if stage.name in stage.depends_on:
                raise CampaignError(f"stage {stage.name!r} depends on itself")
        self.topological_order()  # raises on cycles

    # -- DAG ----------------------------------------------------------------------

    def stage(self, name: str) -> StageSpec:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise CampaignError(f"campaign {self.name!r} has no stage {name!r}")

    def topological_order(self) -> List[StageSpec]:
        """Stages in dependency order (declaration order breaks ties).

        Raises :class:`CampaignError` when the dependency graph has a cycle.
        """
        done: Dict[str, bool] = {}
        order: List[StageSpec] = []
        remaining = list(self.stages)
        while remaining:
            progressed = False
            still: List[StageSpec] = []
            for stage in remaining:
                if all(done.get(dep) for dep in stage.depends_on):
                    done[stage.name] = True
                    order.append(stage)
                    progressed = True
                else:
                    still.append(stage)
            if not progressed:
                cycle = ", ".join(sorted(stage.name for stage in still))
                raise CampaignError(
                    f"campaign {self.name!r} has a dependency cycle involving: {cycle}"
                )
            remaining = still
        return order

    # -- identity -----------------------------------------------------------------

    def campaign_id(self) -> str:
        """Content hash of the canonical spec document — the campaign's identity.

        Two textually different but canonically identical specs share an id,
        so resubmitting a spec resumes its campaign instead of redoing it.
        """
        return document_hash(self.to_dict())[:32]

    # -- chunking -----------------------------------------------------------------

    def chunks_for(self, stage: StageSpec, scenario_documents: Sequence[Dict[str, Any]]) -> List[Chunk]:
        """Content-addressed chunks of one sweep stage's scenario grid.

        ``scenario_documents`` is the stage's *expanded* scenario list in
        wire form (family specs are expanded by the runner before chunking so
        the chunk hash covers the concrete scenarios, not the spec sugar).
        Chunks are contiguous, order-preserving slices; outcome concatenation
        in chunk order therefore reproduces the sequential scenario order.
        """
        raw = stage.payload.get("chunk_size", DEFAULT_CHUNK_SIZE)
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
            raise CampaignError(
                f"stage {stage.name!r}: chunk_size must be a non-negative integer, got {raw!r}"
            )
        chunk_size = raw or max(1, len(scenario_documents))
        base = self._chunk_base(stage)
        chunks: List[Chunk] = []
        documents = list(scenario_documents)
        if not documents:
            slices: List[List[Dict[str, Any]]] = [[]]
        else:
            slices = [
                documents[start : start + chunk_size]
                for start in range(0, len(documents), chunk_size)
            ]
        for index, piece in enumerate(slices):
            digest = document_hash({**base, "index": index, "scenarios": piece})
            chunks.append(
                Chunk(stage=stage.name, index=index, hash=digest, payload={"scenarios": piece})
            )
        return chunks

    def single_chunk_for(self, stage: StageSpec) -> Chunk:
        """The one chunk of a non-fanning stage (frontier, report)."""
        digest = document_hash({**self._chunk_base(stage), "index": 0, "payload": stage.payload})
        return Chunk(stage=stage.name, index=0, hash=digest, payload=dict(stage.payload))

    def _chunk_base(self, stage: StageSpec) -> Dict[str, Any]:
        """Everything every chunk hash of ``stage`` must cover besides its slice."""
        return {
            "tree": self.tree,
            "models": self.models,
            "mission_time": self.mission_time,
            "analyses": list(self.analyses),
            "backend": self.backend,
            "incremental": self.incremental,
            "exact_top_event": self.exact_top_event,
            "top_k": self.top_k,
            "samples": self.samples,
            "seed": self.seed,
            "stage": stage.name,
            "kind": stage.kind,
        }

    # -- wire format --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON document (the campaign wire format)."""
        document: Dict[str, Any] = {
            "name": self.name,
            "tree": self.tree,
            "stages": [stage.to_dict() for stage in self.stages],
            "analyses": list(self.analyses),
            "backend": self.backend,
            "incremental": self.incremental,
            "exact_top_event": self.exact_top_event,
            "top_k": self.top_k,
            "samples": self.samples,
            "seed": self.seed,
            "workers": self.workers,
            "max_retries": self.max_retries,
            "retry_base_delay_s": self.retry_base_delay_s,
            "retry_max_delay_s": self.retry_max_delay_s,
        }
        if self.models is not None:
            document["models"] = self.models
        if self.mission_time is not None:
            document["mission_time"] = self.mission_time
        return document

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "CampaignSpec":
        """Reconstruct a spec from its wire document (inverse of :meth:`to_dict`)."""
        if not isinstance(document, Mapping):
            raise CampaignError(f"campaign document must be an object, got {document!r}")
        known = {
            "name", "tree", "stages", "analyses", "backend", "incremental",
            "exact_top_event", "top_k", "samples", "seed", "workers",
            "max_retries", "retry_base_delay_s", "retry_max_delay_s",
            "models", "mission_time",
        }
        unknown = set(document) - known
        if unknown:
            raise CampaignError(
                f"campaign document has unknown fields: {', '.join(sorted(unknown))}"
            )
        try:
            name = document["name"]
            tree = document["tree"]
            stages = document["stages"]
        except KeyError as exc:
            raise CampaignError(f"campaign document is missing {exc}") from exc
        if not isinstance(stages, Sequence) or isinstance(stages, (str, bytes)):
            raise CampaignError("campaign 'stages' must be a list of stage documents")
        try:
            return CampaignSpec(
                name=name,
                tree=tree,
                stages=tuple(StageSpec.from_dict(stage) for stage in stages),
                analyses=tuple(document.get("analyses", ("mpmcs", "top_event"))),
                backend=document.get("backend", "mocus"),
                incremental=bool(document.get("incremental", True)),
                exact_top_event=bool(document.get("exact_top_event", True)),
                top_k=int(document.get("top_k", 5)),
                samples=int(document.get("samples", 0)),
                seed=int(document.get("seed", 0)),
                workers=int(document.get("workers", 0)),
                max_retries=int(document.get("max_retries", 2)),
                retry_base_delay_s=float(document.get("retry_base_delay_s", 0.1)),
                retry_max_delay_s=float(document.get("retry_max_delay_s", 5.0)),
                models=document.get("models"),
                mission_time=document.get("mission_time"),
            )
        except CampaignError:
            raise
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"malformed campaign document: {exc}") from exc


# -- convenience constructors ------------------------------------------------------


def sweep_stage(
    name: str,
    scenarios: "Sequence[Dict[str, Any]] | Dict[str, Any]",
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    depends_on: Sequence[str] = (),
) -> StageSpec:
    """A scenario-sweep stage over an explicit list or a family spec."""
    return StageSpec(
        name=name,
        kind="sweep",
        payload={"scenarios": scenarios, "chunk_size": chunk_size},
        depends_on=tuple(depends_on),
    )


def frontier_stage(
    name: str,
    actions: Sequence[Dict[str, Any]],
    *,
    method: str = "auto",
    precision: int = 10**6,
    depends_on: Sequence[str] = (),
) -> StageSpec:
    """A Pareto-frontier mitigation-planning stage."""
    return StageSpec(
        name=name,
        kind="frontier",
        payload={"actions": list(actions), "method": method, "precision": precision},
        depends_on=tuple(depends_on),
    )


def report_stage(name: str, *, depends_on: Sequence[str]) -> StageSpec:
    """A merge stage combining the results of its dependencies."""
    return StageSpec(name=name, kind="report", depends_on=tuple(depends_on))
