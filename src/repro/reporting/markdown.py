"""Full Markdown analysis report.

Combines, in one human-readable document, the pieces an analyst would want
after an MPMCS run: the tree statistics, the Table I-style weight table, the
MPMCS itself, an optional ranking of the top-k cut sets, importance measures,
single points of failure and the solver information.  Used by the
CLI's ``report`` sub-command and by the examples.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.importance import ImportanceMeasures
from repro.core.pipeline import MPMCSResult
from repro.core.topk import RankedCutSet
from repro.fta.tree import FaultTree
from repro.reporting.tables import markdown_table, weights_table

__all__ = ["markdown_report", "write_markdown_report"]


def markdown_report(
    tree: FaultTree,
    result: MPMCSResult,
    *,
    ranking: Optional[Sequence[RankedCutSet]] = None,
    importance: Optional[Dict[str, ImportanceMeasures]] = None,
    spofs: Optional[Iterable[tuple]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a Markdown analysis report.

    Parameters
    ----------
    tree / result:
        The analysed fault tree and its MPMCS result.
    ranking:
        Optional top-k cut sets (from :func:`repro.core.topk.enumerate_mpmcs`).
    importance:
        Optional importance measures keyed by event name.
    spofs:
        Optional single points of failure as ``(event, probability)`` pairs.
    title:
        Report title; defaults to the tree name.
    """
    tree.validate()
    lines: List[str] = []
    lines.append(f"# MPMCS analysis — {title or tree.name}")
    lines.append("")

    statistics = tree.statistics()
    lines.append("## Fault tree")
    lines.append("")
    lines.append(
        markdown_table(
            ["Nodes", "Basic events", "Gates", "AND", "OR", "Voting", "Depth"],
            [[
                statistics["num_nodes"],
                statistics["num_basic_events"],
                statistics["num_gates"],
                statistics["num_and_gates"],
                statistics["num_or_gates"],
                statistics["num_voting_gates"],
                statistics["depth"],
            ]],
        )
    )
    lines.append("")

    lines.append("## Event probabilities and -log weights (Table I)")
    lines.append("")
    lines.append(weights_table(tree))
    lines.append("")

    lines.append("## Maximum Probability Minimal Cut Set")
    lines.append("")
    lines.append(f"* **MPMCS**: {{{', '.join(result.events)}}}")
    lines.append(f"* **Joint probability**: {result.probability:.6g}")
    lines.append(f"* **MaxSAT objective (-log cost)**: {result.cost:.6f}")
    lines.append(f"* **Cut set size**: {result.size}")
    lines.append(f"* **Engine**: {result.engine}")
    lines.append(f"* **Solve time**: {result.solve_time * 1000.0:.2f} ms")
    lines.append("")

    if ranking:
        lines.append("## Most probable minimal cut sets")
        lines.append("")
        rows = [
            [entry.rank, "{" + ", ".join(entry.events) + "}", f"{entry.probability:.6g}",
             f"{entry.cost:.4f}"]
            for entry in ranking
        ]
        lines.append(markdown_table(["Rank", "Cut set", "Probability", "-log cost"], rows))
        lines.append("")

    if importance:
        lines.append("## Importance measures")
        lines.append("")
        rows = []
        ordered = sorted(importance.values(), key=lambda m: -m.fussell_vesely)
        for measure in ordered:
            rows.append(
                [
                    measure.event,
                    f"{measure.probability:g}",
                    f"{measure.birnbaum:.4g}",
                    f"{measure.criticality:.4g}",
                    f"{measure.fussell_vesely:.4g}",
                    f"{measure.risk_achievement_worth:.4g}",
                    f"{measure.risk_reduction_worth:.4g}",
                ]
            )
        lines.append(
            markdown_table(
                ["Event", "p", "Birnbaum", "Criticality", "Fussell-Vesely", "RAW", "RRW"],
                rows,
            )
        )
        lines.append("")

    if spofs is not None:
        lines.append("## Single points of failure")
        lines.append("")
        spof_list = list(spofs)
        if spof_list:
            rows = [[name, f"{probability:g}"] for name, probability in spof_list]
            lines.append(markdown_table(["Event", "Probability"], rows))
        else:
            lines.append("None — no single basic event triggers the top event.")
        lines.append("")

    lines.append("## Solver")
    lines.append("")
    lines.append(
        markdown_table(
            ["Variables", "Hard clauses", "Soft clauses", "Auxiliary variables"],
            [[result.num_vars, result.num_hard, result.num_soft, result.num_aux_vars]],
        )
    )
    lines.append("")
    return "\n".join(lines)


def write_markdown_report(
    tree: FaultTree,
    result: MPMCSResult,
    path: Union[str, Path],
    **kwargs: object,
) -> Path:
    """Write the Markdown report to ``path`` and return the resolved path."""
    path = Path(path)
    path.write_text(markdown_report(tree, result, **kwargs), encoding="utf-8")
    return path
