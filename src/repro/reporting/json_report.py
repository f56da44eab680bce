"""JSON analysis report — the machine-readable equivalent of paper Fig. 2.

MPMCS4FTA runs on the command line and "outputs the solution in a JSON file
that is used to graphically display the fault tree and the MPMCS in a web
browser".  :func:`analysis_report` produces an equivalent document: the full
fault tree (nodes, gates, probabilities), the MPMCS with its joint
probability, the per-event ``-log`` weights (Table I), solver/engine
information and instance-size statistics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.api.report import AnalysisReport
from repro.core.pipeline import MPMCSResult
from repro.core.weights import log_weights
from repro.fta.serializers import to_json_document
from repro.fta.tree import FaultTree

__all__ = ["analysis_report", "report_document", "write_analysis_report"]

#: Report format version, bumped on breaking schema changes.
REPORT_VERSION = "1.0"

#: Version of the unified multi-analysis document (:func:`report_document`).
UNIFIED_REPORT_VERSION = "2.0"


def analysis_report(tree: FaultTree, result: MPMCSResult) -> Dict[str, Any]:
    """Build the analysis report document for ``tree`` and its MPMCS ``result``."""
    probabilities = tree.probabilities()
    weights = log_weights(probabilities)
    mpmcs_members = set(result.events)

    nodes = []
    for event in tree.events.values():
        nodes.append(
            {
                "name": event.name,
                "kind": "basic-event",
                "probability": event.probability,
                "weight": weights[event.name],
                "description": event.description,
                "in_mpmcs": event.name in mpmcs_members,
            }
        )
    for gate in tree.gates.values():
        nodes.append(
            {
                "name": gate.name,
                "kind": "gate",
                "type": gate.gate_type.value,
                "k": gate.k,
                "children": list(gate.children),
                "description": gate.description,
            }
        )

    return {
        "report_version": REPORT_VERSION,
        "tool": "repro-mpmcs4fta",
        "tree": to_json_document(tree),
        "nodes": nodes,
        "solution": {
            "mpmcs": list(result.events),
            "probability": result.probability,
            "cost": result.cost,
            "weights": dict(result.weights),
            "size": result.size,
        },
        "solver": {
            "engine": result.engine,
            "solve_time_s": result.solve_time,
            "total_time_s": result.total_time,
            "sat_calls": result.sat_calls,
        },
        "instance": {
            "variables": result.num_vars,
            "hard_clauses": result.num_hard,
            "soft_clauses": result.num_soft,
            "auxiliary_variables": result.num_aux_vars,
        },
        "statistics": tree.statistics(),
    }


def report_document(report: AnalysisReport) -> Dict[str, Any]:
    """Unified JSON document for an :class:`~repro.api.report.AnalysisReport`.

    Contains the serialised fault tree, the tree statistics and one section
    per requested analysis (``report.to_dict()``).  When the report includes
    an MPMCS, the legacy Fig. 2-style ``solution`` / ``solver`` / ``instance``
    sections are embedded as well so existing consumers keep working.
    """
    document: Dict[str, Any] = {
        "report_version": UNIFIED_REPORT_VERSION,
        "tool": "repro-mpmcs4fta",
        "tree": to_json_document(report.tree),
        "statistics": report.tree.statistics(),
        "results": report.to_dict(),
    }
    result = report.mpmcs_result
    if result is not None:
        legacy = analysis_report(report.tree, result)
        document["solution"] = legacy["solution"]
        document["solver"] = legacy["solver"]
        document["instance"] = legacy["instance"]
    return document


def write_analysis_report(
    tree: FaultTree,
    result: MPMCSResult,
    path: Union[str, Path],
    *,
    indent: int = 2,
) -> Path:
    """Write the analysis report to ``path`` and return the resolved path."""
    path = Path(path)
    document = analysis_report(tree, result)
    path.write_text(json.dumps(document, indent=indent) + "\n", encoding="utf-8")
    return path
