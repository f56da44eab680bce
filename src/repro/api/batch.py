"""Batch execution: run one analysis request over many fault trees.

``analyze_many`` is the throughput layer of the facade.  Sequentially it
shares a single :class:`~repro.api.session.AnalysisSession` across all trees
— structurally identical trees therefore share cached artifacts — and with
``workers > 1`` it fans the trees out over a :class:`ProcessPoolExecutor`,
which is what the scalability studies need to saturate a multi-core host.

Failures are captured per tree (one malformed model must not sink a
thousand-tree sweep): each :class:`BatchItem` carries either a report or the
error message, and :attr:`BatchResult.reports` lists the successful reports
in input order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.api.report import AnalysisReport, AnalysisRequest
from repro.api.session import AnalysisSession
from repro.fta.tree import FaultTree

__all__ = ["BatchItem", "BatchResult", "analyze_many"]


@dataclass(frozen=True)
class BatchItem:
    """Outcome for one tree of a batch: a report, or the error that stopped it."""

    index: int
    tree_name: str
    report: Optional[AnalysisReport] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass
class BatchResult:
    """Outcomes of :func:`analyze_many`, in input order."""

    items: List[BatchItem]

    @property
    def reports(self) -> List[AnalysisReport]:
        """The successful reports, in input order."""
        return [item.report for item in self.items if item.report is not None]

    @property
    def failures(self) -> List[BatchItem]:
        """The failed items, in input order."""
        return [item for item in self.items if not item.ok]

    @property
    def num_ok(self) -> int:
        return sum(1 for item in self.items if item.ok)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[BatchItem]:
        return iter(self.items)

    def raise_on_failure(self) -> "BatchResult":
        """Raise the first captured error (if any); returns ``self`` otherwise."""
        for item in self.items:
            if not item.ok:
                raise RuntimeError(
                    f"analysis of tree #{item.index} ({item.tree_name!r}) failed: {item.error}"
                )
        return self


def _analyze_one(payload: Tuple[int, FaultTree, AnalysisRequest]) -> BatchItem:
    """Worker: analyse one tree in its own session (runs in a subprocess)."""
    index, tree, request = payload
    try:
        report = AnalysisSession().run(tree, request)
        return BatchItem(index=index, tree_name=tree.name, report=report)
    except Exception as exc:  # noqa: BLE001 - failures are data in a batch
        return BatchItem(index=index, tree_name=tree.name, error=str(exc))


def analyze_many(
    trees: Iterable[FaultTree],
    analyses: Iterable[str] = ("mpmcs",),
    *,
    backend: str = "auto",
    workers: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    request: Optional[AnalysisRequest] = None,
    top_k: int = 5,
    samples: int = 0,
    seed: int = 0,
    cutoff: float = 1e-9,
) -> BatchResult:
    """Analyse every tree in ``trees`` and return a :class:`BatchResult`.

    Parameters
    ----------
    trees:
        The fault trees to analyse (materialised up front to fix the order).
    analyses / backend / top_k / samples / seed / cutoff:
        Forwarded to :meth:`AnalysisSession.analyze` for every tree; ignored
        when an explicit ``request`` is given.
    workers:
        ``None``, ``0`` or ``1`` runs sequentially in-process, sharing one
        session (and hence one artifact cache) across all trees.  Larger
        values fan out over a process pool with one fresh session per task;
        if the platform cannot spawn subprocesses the batch silently degrades
        to sequential execution.
    session:
        Optional pre-built session for the sequential path (its artifact
        cache then persists across batches, and its solver answers every
        tree).  The sessions the batch creates use a default
        :class:`~repro.core.pipeline.MPMCSSolver`.
    """
    tree_list: Sequence[FaultTree] = list(trees)
    if request is None:
        request = AnalysisRequest.create(
            analyses,
            backend=backend,
            top_k=top_k,
            samples=samples,
            seed=seed,
            cutoff=cutoff,
        )

    payloads = [(index, tree, request) for index, tree in enumerate(tree_list)]

    if workers is not None and workers > 1 and len(tree_list) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunksize = max(1, len(payloads) // (workers * 4))
                items = list(pool.map(_analyze_one, payloads, chunksize=chunksize))
            return BatchResult(items=sorted(items, key=lambda item: item.index))
        except (OSError, PermissionError):  # pragma: no cover - platform dependent
            pass  # sandboxed platforms without fork/spawn: degrade gracefully

    shared = session if session is not None else AnalysisSession()
    items = []
    for index, tree, scoped_request in payloads:
        try:
            report = shared.run(tree, scoped_request)
            items.append(BatchItem(index=index, tree_name=tree.name, report=report))
        except Exception as exc:  # noqa: BLE001 - failures are data in a batch
            items.append(BatchItem(index=index, tree_name=tree.name, error=str(exc)))
    return BatchResult(items=items)
