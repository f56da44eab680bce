"""One rendering entry point for every format, fed by an `AnalysisReport`.

The :mod:`repro.api` facade produces a single
:class:`~repro.api.report.AnalysisReport` regardless of which backend did the
work; :func:`render_report` turns that object into any of the library's
output formats, and :func:`write_report` picks the format from the file
suffix:

.. code-block:: python

    from repro.api import AnalysisSession
    from repro.reporting import render_report, write_report

    report = AnalysisSession().analyze(tree, ["mpmcs", "ranking", "importance", "spof"])
    print(render_report(report, "ascii"))        # terminal rendering
    write_report(report, "out/fps.html")          # self-contained HTML viewer
    write_report(report, "out/fps.json")          # unified machine-readable doc
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.api.report import AnalysisReport
from repro.exceptions import ReproError
from repro.reporting.ascii_art import render_tree
from repro.reporting.dot import to_dot
from repro.reporting.html import html_report
from repro.reporting.json_report import report_document
from repro.reporting.markdown import markdown_report
from repro.reporting.tables import scenario_delta_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> api)
    from repro.scenarios.report import ScenarioReport

__all__ = [
    "FORMATS",
    "SCENARIO_FORMATS",
    "render_profile",
    "render_report",
    "render_scenario_report",
    "write_report",
]

#: Formats supported by :func:`render_report`.
FORMATS = ("json", "markdown", "html", "dot", "ascii")

#: File suffix -> format, used by :func:`write_report`.
_SUFFIX_FORMATS = {
    ".json": "json",
    ".md": "markdown",
    ".markdown": "markdown",
    ".html": "html",
    ".htm": "html",
    ".dot": "dot",
    ".gv": "dot",
    ".txt": "ascii",
}


def _require_mpmcs(report: AnalysisReport, fmt: str):
    result = report.mpmcs_result
    if result is None:
        raise ReproError(
            f"the {fmt!r} report format needs the 'mpmcs' analysis; "
            f"this report only contains {', '.join(report.analyses)}"
        )
    return result


def render_report(report: AnalysisReport, fmt: str = "json") -> str:
    """Render ``report`` in ``fmt`` (one of :data:`FORMATS`)."""
    fmt = fmt.strip().lower()
    if fmt == "json":
        return json.dumps(report_document(report), indent=2)
    if fmt == "markdown":
        return markdown_report(
            report.tree,
            _require_mpmcs(report, fmt),
            ranking=report.ranking,
            importance=report.importance,
            spofs=report.spof,
        )
    if fmt == "html":
        return html_report(report.tree, _require_mpmcs(report, fmt))
    if fmt == "dot":
        highlight = report.mpmcs.events if report.mpmcs is not None else ()
        return to_dot(report.tree, highlight=highlight)
    if fmt == "ascii":
        highlight = report.mpmcs.events if report.mpmcs is not None else ()
        return render_tree(report.tree, highlight=highlight)
    raise ReproError(f"unknown report format {fmt!r}; expected one of {', '.join(FORMATS)}")


def render_profile(report: AnalysisReport) -> str:
    """Human-readable per-stage performance breakdown of one analysis run.

    Shows the stage timings (``encode_seconds`` — CNF/BDD/cut-set structure
    preparation, ``solve_seconds`` — search and enumeration) and the
    artifact-cache counters the run accumulated, so the effect of warm
    sessions and cached artifacts is visible without running a benchmark.
    """
    profile = report.profile
    lines = ["performance profile:"]
    if not profile:
        lines.append("  (no profiling data recorded)")
        return "\n".join(lines)
    for key in ("encode_seconds", "solve_seconds"):
        if key in profile:
            stage = key.replace("_seconds", "")
            lines.append(f"  {stage:<12}: {profile[key]:.6f}s")
    for key in ("kernel", "warm_solves", "cache_hits", "cache_misses", "store_hits", "store_misses"):
        if key in profile:
            lines.append(f"  {key:<12}: {profile[key]}")
    extras = sorted(
        key
        for key in profile
        if key
        not in {
            "encode_seconds",
            "solve_seconds",
            "kernel",
            "warm_solves",
            "cache_hits",
            "cache_misses",
            "store_hits",
            "store_misses",
        }
    )
    for key in extras:
        lines.append(f"  {key:<12}: {profile[key]}")
    for backend, seconds in sorted(report.timings.items()):
        lines.append(f"  backend {backend}: {seconds:.6f}s")
    return "\n".join(lines)


#: Formats supported by :func:`render_scenario_report`.
SCENARIO_FORMATS = ("json", "markdown", "text")


def render_scenario_report(report: "ScenarioReport", fmt: str = "markdown", *, limit: int = 0) -> str:
    """Render a :class:`~repro.scenarios.ScenarioReport` delta table.

    ``"markdown"`` produces the per-scenario delta table, ``"json"`` the full
    machine-readable document (:meth:`ScenarioReport.to_dict`), and
    ``"text"`` a compact terminal summary: the table plus base values and the
    cache-reuse counters proving incremental re-analysis.
    """
    fmt = fmt.strip().lower()
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "markdown":
        return scenario_delta_table(report, limit=limit)
    if fmt == "text":
        lines = [
            f"tree     : {report.tree_name}",
            f"backend  : {report.backend}   "
            f"({'incremental' if report.incremental else 'naive'} sweep, "
            f"{len(report)} scenario(s), {report.total_time_s:.3f}s)",
        ]
        if report.base_top_event is not None:
            lines.append(f"base P(top) : {report.base_top_event:.6e}")
        if report.base_mpmcs_events is not None:
            lines.append(
                f"base MPMCS  : {{{', '.join(report.base_mpmcs_events)}}}"
                f"  p={report.base_mpmcs_probability:.6g}"
            )
        reuse = report.subtree_reuse
        lines.append(
            f"subtree cache: {reuse['hits']} hits / {reuse['misses']} misses"
        )
        lines.append("")
        lines.append(scenario_delta_table(report, limit=limit))
        return "\n".join(lines)
    raise ReproError(
        f"unknown scenario report format {fmt!r}; expected one of {', '.join(SCENARIO_FORMATS)}"
    )


def write_report(
    report: AnalysisReport,
    path: Union[str, Path],
    *,
    fmt: str = "",
) -> Path:
    """Write ``report`` to ``path``, inferring the format from the suffix.

    An explicit ``fmt`` overrides the inference; unknown suffixes default to
    the unified JSON document.
    """
    path = Path(path)
    chosen = fmt.strip().lower() or _SUFFIX_FORMATS.get(path.suffix.lower(), "json")
    text = render_report(report, chosen)
    path.write_text(text + ("" if text.endswith("\n") else "\n"), encoding="utf-8")
    return path
