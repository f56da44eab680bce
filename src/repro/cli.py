"""Command-line interface — the MPMCS4FTA-equivalent front end.

The original tool "runs in the command line and outputs the solution in a JSON
file".  This CLI mirrors that workflow and adds a few conveniences:

.. code-block:: console

    # analyse a JSON or Galileo model and write the Fig. 2-style report
    $ mpmcs4fta analyze model.json -o report.json
    $ mpmcs4fta analyze model.dft --format galileo --top-k 3

    # analyse one of the built-in canonical trees (e.g. the paper's example)
    $ mpmcs4fta analyze --builtin fps

    # pick a resolution strategy from the backend registry
    $ mpmcs4fta analyze --builtin fps --backend bdd
    $ mpmcs4fta backends                            # list the registry

    # generate a random benchmark tree and save it
    $ mpmcs4fta generate --events 1000 --seed 7 -o random.json

    # print the Table I-style probability/weight table
    $ mpmcs4fta weights --builtin fps

    # classical analyses around the MPMCS
    $ mpmcs4fta mcs --builtin fps --limit 10        # enumerate minimal cut sets
    $ mpmcs4fta importance --builtin fps            # Birnbaum / Fussell-Vesely / RAW
    $ mpmcs4fta topevent --builtin fps              # exact + approximate P(top)

Every analysis subcommand dispatches through one
:class:`repro.api.AnalysisSession`, so composite invocations share cached
artifacts (minimal cut sets, compiled BDD) instead of recomputing them per
analysis.

The module is also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.analysis.contributions import cut_set_contributions
from repro.api import AnalysisSession, available_backends, backend_class
from repro.exceptions import ReproError
from repro.fta.parsers.galileo import parse_galileo_file
from repro.fta.parsers.json_format import parse_json_file
from repro.fta.parsers.openpsa import parse_openpsa_file, to_openpsa
from repro.fta.serializers import to_galileo, to_json
from repro.fta.tree import FaultTree
from repro.logic.dimacs import parse_wcnf
from repro.monitoring import (
    FeedStaleness,
    MpmcsChanged,
    PTopJump,
    PTopThreshold,
    TreeMonitor,
    feed_from_spec,
)
from repro.maxsat.bruteforce import BruteForceEngine
from repro.maxsat.hitting_set import HittingSetEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.rc2 import RC2Engine
from repro.observability.log import JsonLinesLogger, set_logger
from repro.reporting.ascii_art import render_tree
from repro.reporting.dot import to_dot
from repro.reporting.json_report import analysis_report
from repro.reporting.live import (
    render_alert,
    render_delta,
    render_monitor_status,
    render_scenario_progress,
)
from repro.reporting.tables import frontier_table, markdown_table, weights_table
from repro.reporting.unified import render_profile, render_scenario_report, write_report
from repro.campaigns import CampaignRunner, campaign_state
from repro.service import AnalysisService, ServiceClient
from repro.service import serve as start_service
from repro.service.store import open_store
from repro.reliability import (
    PeriodicallyTestedComponent,
    ReliabilityAssignment,
    RepairableComponent,
)
from repro.scenarios import (
    AddRedundancy,
    AddSpareChild,
    Harden,
    HardeningAction,
    RemoveEvent,
    ScaleMissionTime,
    ScaleProbability,
    Scenario,
    SetProbability,
    SetVotingThreshold,
    SweepExecutor,
    campaign_from_dict,
    mission_time_sweep,
    pareto_frontier,
    plan_mitigation,
    probability_sweep,
    rank_actions,
    repair_rate_sweep,
    scale_sweep,
    sweep_values,
    test_interval_sweep,
)
from repro.uncertainty.distributions import LognormalUncertainty
from repro.uncertainty.importance import uncertainty_importance
from repro.uncertainty.propagation import propagate_uncertainty
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES, get_tree

#: MaxSAT engine factories selectable from the command line.
_ENGINE_FACTORIES = {
    "rc2": RC2Engine,
    "hitting-set": HittingSetEngine,
    "brute-force": BruteForceEngine,
}

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="mpmcs4fta",
        description="Maximum Probability Minimal Cut Sets for Fault Tree Analysis with MaxSAT",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="compute the MPMCS of a fault tree")
    _add_tree_source_arguments(analyze)
    analyze.add_argument("-o", "--output", type=Path, help="write the JSON report to this path")
    analyze.add_argument(
        "--top-k", type=int, default=1, help="number of cut sets to enumerate (default: 1)"
    )
    analyze.add_argument("--dot", type=Path, help="also write a Graphviz DOT rendering")
    analyze.add_argument(
        "--quiet", action="store_true", help="suppress the ASCII tree rendering"
    )
    analyze.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage timing breakdown (encode/solve seconds, cache hits)",
    )
    analyze.add_argument(
        "--kernel",
        choices=("auto", "numpy", "python"),
        default="auto",
        help="numeric kernel tier for batch evaluation (default: auto = fastest available)",
    )

    weights = subparsers.add_parser(
        "weights", help="print the probability / -log weight table (paper Table I)"
    )
    _add_tree_source_arguments(weights)

    show = subparsers.add_parser("show", help="print a fault tree as ASCII art")
    _add_tree_source_arguments(show)

    mcs = subparsers.add_parser("mcs", help="enumerate minimal cut sets by probability")
    _add_tree_source_arguments(mcs)
    mcs.add_argument("--limit", type=int, default=20, help="maximum number of cut sets to list")
    mcs.add_argument(
        "--method",
        choices=("maxsat", "mocus"),
        default="maxsat",
        help="enumeration method (default: iterated MaxSAT)",
    )

    importance = subparsers.add_parser(
        "importance", help="component importance measures (Birnbaum, Fussell-Vesely, RAW, RRW)"
    )
    _add_tree_source_arguments(importance)
    importance.add_argument("--top", type=int, default=10, help="number of components to list")

    topevent = subparsers.add_parser(
        "topevent", help="top-event probability (exact BDD, rare-event bound, Monte Carlo)"
    )
    _add_tree_source_arguments(topevent)
    topevent.add_argument(
        "--samples", type=int, default=20_000, help="Monte Carlo sample count (default: 20000)"
    )
    topevent.add_argument("--seed", type=int, default=0, help="Monte Carlo PRNG seed")

    generate = subparsers.add_parser("generate", help="generate a random benchmark fault tree")
    generate.add_argument("--events", type=int, default=100, help="number of basic events")
    generate.add_argument("--seed", type=int, default=0, help="PRNG seed")
    generate.add_argument(
        "--voting-ratio", type=float, default=0.0, help="fraction of voting gates"
    )
    generate.add_argument(
        "--out-format",
        choices=("json", "galileo", "openpsa"),
        default="json",
        help="output format",
    )
    generate.add_argument("-o", "--output", type=Path, help="output file (default: stdout)")

    report = subparsers.add_parser(
        "report", help="write a full Markdown or HTML analysis report"
    )
    _add_tree_source_arguments(report)
    report.add_argument("-o", "--output", type=Path, required=True, help="report file to write")
    report.add_argument(
        "--to", choices=("markdown", "html"), default="markdown", help="report format"
    )
    report.add_argument(
        "--top-k", type=int, default=5, help="cut sets to rank in the Markdown report"
    )

    uncertainty = subparsers.add_parser(
        "uncertainty", help="Monte Carlo uncertainty propagation on the event probabilities"
    )
    _add_tree_source_arguments(uncertainty)
    uncertainty.add_argument(
        "--error-factor",
        type=float,
        default=3.0,
        help="lognormal error factor applied to every event (default: 3)",
    )
    uncertainty.add_argument("--samples", type=int, default=2000, help="Monte Carlo samples")
    uncertainty.add_argument("--seed", type=int, default=2020, help="PRNG seed")

    modules = subparsers.add_parser(
        "modules", help="detect independent modules (sub-trees) of the fault tree"
    )
    _add_tree_source_arguments(modules)

    truncate = subparsers.add_parser(
        "truncate", help="enumerate minimal cut sets above a probability cutoff"
    )
    _add_tree_source_arguments(truncate)
    truncate.add_argument(
        "--cutoff", type=float, default=1e-9, help="probability cutoff (default: 1e-9)"
    )
    truncate.add_argument("--limit", type=int, default=20, help="cut sets to print")

    whatif = subparsers.add_parser(
        "whatif", help="apply what-if patches to a model and show the base-vs-scenario deltas"
    )
    _add_tree_source_arguments(whatif)
    whatif.add_argument(
        "--set", dest="set_probability", action="append", default=[], metavar="EVENT=PROB",
        help="set a basic event probability (repeatable)",
    )
    whatif.add_argument(
        "--scale", action="append", default=[], metavar="EVENT=FACTOR",
        help="multiply a basic event probability by a factor (repeatable)",
    )
    whatif.add_argument(
        "--harden", action="append", default=[], metavar="EVENT[=FACTOR]",
        help="harden an event by a factor (default 0.1; repeatable)",
    )
    whatif.add_argument(
        "--remove", action="append", default=[], metavar="EVENT",
        help="remove a basic event and simplify the tree (repeatable)",
    )
    whatif.add_argument(
        "--redundancy", action="append", default=[], metavar="EVENT[=COPIES]",
        help="back an event with redundant unit(s) that must all fail (repeatable)",
    )
    whatif.add_argument(
        "--spare", action="append", default=[], metavar="GATE=PROB",
        help="add a fresh spare child with the given probability to an AND/voting gate",
    )
    whatif.add_argument(
        "--set-k", dest="set_k", action="append", default=[], metavar="GATE=K",
        help="change the threshold of a voting gate (repeatable)",
    )
    whatif.add_argument(
        "--mission-factor", type=float, default=None,
        help="rescale all probabilities to FACTOR times the mission time",
    )
    whatif.add_argument("--name", default="what-if", help="scenario name for the report")
    whatif.add_argument("-o", "--output", type=Path, help="write the JSON scenario report")

    sweep = subparsers.add_parser(
        "sweep", help="evaluate a parametric scenario sweep with incremental re-analysis"
    )
    _add_tree_source_arguments(sweep)
    sweep.add_argument("--event", help="basic event swept by --values/--start/--stop")
    sweep.add_argument(
        "--values", help="comma-separated probability values for --event"
    )
    sweep.add_argument("--start", type=float, help="sweep range start (with --stop)")
    sweep.add_argument("--stop", type=float, help="sweep range stop (with --start)")
    sweep.add_argument("--steps", type=int, default=20, help="points in the range (default: 20)")
    sweep.add_argument(
        "--linear", action="store_true", help="space range points linearly instead of log"
    )
    sweep.add_argument(
        "--scale-factors",
        help="comma-separated factors: sweep scales of --event instead of absolute values",
    )
    sweep.add_argument(
        "--mission-factors", help="comma-separated mission-time factors to sweep"
    )
    sweep.add_argument(
        "--repair-rate",
        help="comma-separated repair rates (/h) for --event: sweep the maintenance "
        "policy of a repairable component (the first value is the current policy)",
    )
    sweep.add_argument(
        "--test-interval",
        help="comma-separated test intervals (h) for --event: sweep the inspection "
        "policy of a periodically tested component (the first value is the current policy)",
    )
    sweep.add_argument(
        "--failure-rate", type=float,
        help="failure rate (/h) of --event's component model "
        "(required with --repair-rate/--test-interval)",
    )
    sweep.add_argument(
        "--no-incremental", action="store_true",
        help="disable subtree artifact reuse (naive per-scenario re-analysis)",
    )
    sweep.add_argument(
        "--limit", type=int, default=0, help="table rows to print (0 = all)"
    )
    sweep.add_argument("-o", "--output", type=Path, help="write the JSON sweep report")

    plan = subparsers.add_parser(
        "plan", help="budgeted mitigation planning: which events to harden first"
    )
    _add_tree_source_arguments(plan)
    plan.add_argument(
        "--action", action="append", default=[], metavar="EVENT=COST", required=True,
        help="candidate hardening action and its cost (repeatable)",
    )
    plan.add_argument(
        "--factor", type=float, default=0.1,
        help="hardening factor applied by every action (default: 0.1)",
    )
    plan.add_argument(
        "--budget", type=float, default=None,
        help="total budget (required unless --pareto is given)",
    )
    plan.add_argument(
        "--method", choices=("greedy", "exact", "auto"), default=None,
        help="greedy cost-effectiveness baseline or exact MaxSAT planner "
        "(default: greedy; --pareto defaults to auto)",
    )
    plan.add_argument(
        "--objective", choices=("mpmcs", "top-event"), default="mpmcs",
        help="quantity the greedy planner minimises (default: mpmcs)",
    )
    plan.add_argument(
        "--pareto", action="store_true",
        help="enumerate the whole cost-vs-risk Pareto frontier instead of "
        "planning at a single budget point",
    )
    plan.add_argument(
        "-o", "--output", type=Path,
        help="write the plan/frontier JSON document to this path",
    )

    subparsers.add_parser(
        "backends", help="list the registered analysis backends and their capabilities"
    )

    serve = subparsers.add_parser(
        "serve", help="run the HTTP analysis service (submit/poll/fetch over JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765, help="TCP port (default: 8765; 0 = ephemeral)")
    serve.add_argument(
        "--store", type=Path, default=None,
        help="directory of the persistent artifact store shared across runs and workers",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="job worker threads (default: 2)"
    )
    serve.add_argument(
        "--sweep-workers", type=int, default=0,
        help="default process fan-out for sweep jobs (default: 0 = in-process)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="LRU bound on each worker's in-memory artifact cache (default: unbounded)",
    )
    serve.add_argument(
        "--log-json", type=Path, default=None, metavar="PATH",
        help="append structured JSON-lines events to this file",
    )

    metrics = subparsers.add_parser(
        "metrics", help="scrape and print the Prometheus metrics of a running service"
    )
    metrics.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL"
    )

    submit = subparsers.add_parser(
        "submit", help="submit a tree (or a scenario sweep over it) to a running service"
    )
    _add_tree_source_arguments(submit)
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL"
    )
    submit.add_argument(
        "--analyses", default="mpmcs,top_event",
        help="comma-separated analyses for analyze jobs (default: mpmcs,top_event)",
    )
    submit.add_argument("--top-k", type=int, default=5, help="cut sets for the ranking analysis")
    submit.add_argument("--samples", type=int, default=0, help="Monte Carlo samples")
    submit.add_argument("--seed", type=int, default=0, help="Monte Carlo PRNG seed")
    submit.add_argument(
        "--sweep-event", help="submit a sweep job varying this basic event instead"
    )
    submit.add_argument(
        "--sweep-values", help="comma-separated probability values for --sweep-event"
    )
    submit.add_argument("--sweep-start", type=float, help="sweep range start (with --sweep-stop)")
    submit.add_argument("--sweep-stop", type=float, help="sweep range stop (with --sweep-start)")
    submit.add_argument(
        "--sweep-steps", type=int, default=20, help="points in the sweep range (default: 20)"
    )
    submit.add_argument(
        "--sweep-mission-factors",
        help="comma-separated mission-time factors: submit a mission-time sweep",
    )
    submit.add_argument(
        "--sweep-workers", type=int, default=0,
        help="process fan-out for the sweep job (default: 0 = service default)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of waiting for the result",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="seconds to wait for the result"
    )
    submit.add_argument("-o", "--output", type=Path, help="write the result JSON to this path")

    jobs = subparsers.add_parser(
        "jobs", help="list jobs on a running service, or inspect/cancel one"
    )
    jobs.add_argument("job_id", nargs="?", help="job id (omit to list every job)")
    jobs.add_argument("--url", default="http://127.0.0.1:8765", help="service base URL")
    jobs.add_argument(
        "--result", action="store_true", help="fetch the finished job's result JSON"
    )
    jobs.add_argument("--cancel", action="store_true", help="cancel a queued job")
    jobs.add_argument("-o", "--output", type=Path, help="write fetched result JSON to this path")

    monitor = subparsers.add_parser(
        "monitor",
        help="monitor a tree against a live probability feed with incremental "
        "re-analysis and alerting (local, or on a running service with --url)",
    )
    _add_tree_source_arguments(monitor)
    monitor.add_argument(
        "--url", default=None,
        help="start the monitor on a running service at this base URL and "
        "follow its SSE stream, instead of monitoring in-process",
    )
    feed_group = monitor.add_argument_group("feed source (default: synthetic walk)")
    feed_group.add_argument(
        "--feed-file", type=Path, default=None, metavar="PATH",
        help="tail this JSON-lines file of update documents",
    )
    feed_group.add_argument(
        "--feed-url", default=None, metavar="URL",
        help="poll this HTTP endpoint for update documents",
    )
    feed_group.add_argument(
        "--updates", type=int, default=100,
        help="synthetic walk length in updates (default: 100)",
    )
    feed_group.add_argument("--seed", type=int, default=0, help="synthetic walk PRNG seed")
    feed_group.add_argument(
        "--events-per-update", type=int, default=1,
        help="basic events perturbed per synthetic update (default: 1)",
    )
    feed_group.add_argument(
        "--volatility", type=float, default=0.35,
        help="log-space step size of the synthetic walk (default: 0.35)",
    )
    feed_group.add_argument(
        "--interval", type=float, default=0.0, metavar="SECONDS",
        help="pause between synthetic updates / feed polls (default: 0)",
    )
    feed_group.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="stop a file feed after this long without a new line (default: tail forever)",
    )
    alert_group = monitor.add_argument_group("alert rules")
    alert_group.add_argument(
        "--alert-ptop", type=float, default=None, metavar="THRESHOLD",
        help="alert when P(top) rises above this threshold",
    )
    alert_group.add_argument(
        "--alert-ptop-below", type=float, default=None, metavar="THRESHOLD",
        help="alert when P(top) falls below this threshold",
    )
    alert_group.add_argument(
        "--alert-hysteresis", type=float, default=0.0, metavar="WIDTH",
        help="hysteresis band applied to the P(top) threshold rules (default: 0)",
    )
    alert_group.add_argument(
        "--alert-jump", type=float, default=None, metavar="FACTOR",
        help="alert when P(top) moves by more than this relative factor in one update",
    )
    alert_group.add_argument(
        "--alert-stale", type=float, default=None, metavar="SECONDS",
        help="alert when the feed goes silent for this long",
    )
    alert_group.add_argument(
        "--no-alert-mpmcs", action="store_true",
        help="disable the default alert on MPMCS identity changes",
    )
    alert_group.add_argument(
        "--alert-webhook", default=None, metavar="URL",
        help="POST every alert as JSON to this http(s) endpoint (local mode)",
    )
    monitor.add_argument(
        "--max-updates", type=int, default=None,
        help="stop after applying this many updates (default: drain the feed)",
    )
    monitor.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="drain the feed in chunks of N updates, batching the BDD "
        "top-event evaluation across each chunk (default: 1)",
    )
    monitor.add_argument("--top-k", type=int, default=5, help="cut sets per update report")
    monitor.add_argument(
        "--store", type=Path, default=None,
        help="artifact-store directory backing the cache and the alert ledger (local mode)",
    )
    monitor.add_argument(
        "--alerts-only", action="store_true",
        help="print only alerts, not every delta line",
    )
    monitor.add_argument(
        "--log-json", type=Path, default=None, metavar="PATH",
        help="append structured JSON-lines events to this file (local mode)",
    )

    watch = subparsers.add_parser(
        "watch",
        help="attach to a running service's monitor (or a sweep job's) SSE "
        "stream and render events live",
    )
    watch.add_argument(
        "job_id", nargs="?", default=None,
        help="sweep job id: follow /sweeps/<id>/stream instead of /monitor/stream",
    )
    watch.add_argument("--url", default="http://127.0.0.1:8765", help="service base URL")
    watch.add_argument(
        "--last-event-id", type=int, default=0,
        help="resume the stream after this event id (default: 0 = from the start)",
    )
    watch.add_argument(
        "--alerts-only", action="store_true",
        help="print only alerts, not every delta line",
    )
    watch.add_argument(
        "--max-events", type=int, default=None,
        help="detach after rendering this many events (default: until the stream ends)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run, inspect or resume a resumable sweep campaign (local or via a service)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a campaign spec (JSON file) with ledger-backed resume"
    )
    campaign_run.add_argument("spec", type=Path, help="campaign spec JSON file")
    campaign_run.add_argument(
        "--store", type=Path, default=None,
        help="artifact-store directory holding the completion ledger "
        "(local mode; omit for in-memory, no resume across runs)",
    )
    campaign_run.add_argument(
        "--url", default=None,
        help="submit to a running service at this base URL instead of running locally",
    )
    campaign_run.add_argument(
        "--workers", type=int, default=None,
        help="override the spec's process fan-out (local mode)",
    )
    campaign_run.add_argument(
        "--no-wait", action="store_true",
        help="with --url: return the job id immediately instead of waiting",
    )
    campaign_run.add_argument(
        "--timeout", type=float, default=600.0, help="seconds to wait for the result"
    )
    campaign_run.add_argument(
        "-o", "--output", type=Path, help="write the campaign result JSON to this path"
    )
    campaign_run.add_argument(
        "--log-json", type=Path, default=None, metavar="PATH",
        help="append structured JSON-lines events to this file (local mode)",
    )

    campaign_status = campaign_sub.add_parser(
        "status", help="per-stage chunk progress of a campaign, from its ledger"
    )
    campaign_status.add_argument("campaign_id", help="campaign id (content hash of the spec)")
    campaign_status.add_argument(
        "--store", type=Path, default=None, help="artifact-store directory (local mode)"
    )
    campaign_status.add_argument(
        "--url", default=None, help="query a running service at this base URL"
    )

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume a campaign by id using the spec persisted in its ledger"
    )
    campaign_resume.add_argument("campaign_id", help="campaign id (content hash of the spec)")
    campaign_resume.add_argument(
        "--store", type=Path, default=None, help="artifact-store directory (local mode)"
    )
    campaign_resume.add_argument(
        "--url", default=None, help="resume on a running service at this base URL"
    )
    campaign_resume.add_argument(
        "--workers", type=int, default=None,
        help="override the spec's process fan-out (local mode)",
    )
    campaign_resume.add_argument(
        "--timeout", type=float, default=600.0, help="seconds to wait for the result"
    )
    campaign_resume.add_argument(
        "-o", "--output", type=Path, help="write the campaign result JSON to this path"
    )
    campaign_resume.add_argument(
        "--log-json", type=Path, default=None, metavar="PATH",
        help="append structured JSON-lines events to this file (local mode)",
    )

    solve_wcnf = subparsers.add_parser(
        "solve-wcnf", help="solve a DIMACS WCNF file with one built-in MaxSAT engine"
    )
    solve_wcnf.add_argument("wcnf", type=Path, help="WCNF file (classic format)")
    solve_wcnf.add_argument(
        "--engine",
        choices=sorted(_ENGINE_FACTORIES),
        default="rc2",
        help="MaxSAT engine to use: rc2 (default; core-guided OLL), hitting-set "
        "(implicit hitting set) or brute-force (exhaustive, small instances only)",
    )
    solve_wcnf.add_argument(
        "--show-model", action="store_true", help="print the optimal assignment"
    )

    return parser


def _add_tree_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", nargs="?", type=Path, help="fault tree model file")
    parser.add_argument(
        "--format",
        choices=("json", "galileo", "openpsa"),
        default=None,
        help="input format (default: inferred from the file extension)",
    )
    parser.add_argument(
        "--builtin",
        choices=sorted(set(NAMED_TREES)),
        help="analyse a built-in canonical tree instead of a file",
    )
    parser.add_argument(
        "--mission-time",
        type=float,
        default=None,
        help="mission time used to convert Galileo lambda= rates to probabilities "
        "(default: 1) and to freeze maintenance-policy sweeps "
        "(required with --repair-rate/--test-interval)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto",) + tuple(sorted(available_backends())),
        default="auto",
        help="analysis backend from the registry (default: auto routing)",
    )


def _load_tree(args: argparse.Namespace) -> FaultTree:
    """Shared tree-loading helper used by every tree-consuming subcommand.

    Resolves ``--builtin`` names, infers the input format from the file
    extension and applies the ``--mission-time`` probability assignment for
    Galileo rate models — the boilerplate that used to be repeated across
    subcommands.
    """
    if args.builtin:
        return get_tree(args.builtin)
    if args.model is None:
        raise ReproError("either a model file or --builtin must be provided")
    fmt = args.format
    if fmt is None:
        suffix = args.model.suffix.lower()
        if suffix in (".dft", ".galileo"):
            fmt = "galileo"
        elif suffix in (".xml", ".opsa"):
            fmt = "openpsa"
        else:
            fmt = "json"
    if fmt == "galileo":
        mission_time = args.mission_time if args.mission_time is not None else 1.0
        return parse_galileo_file(args.model, mission_time=mission_time)
    if fmt == "openpsa":
        return parse_openpsa_file(args.model)
    return parse_json_file(args.model)


def _supports(backend: str, analysis: str) -> bool:
    """True when ``backend`` (or auto routing) can produce ``analysis``."""
    if backend == "auto":
        return True
    return analysis in backend_class(backend).capabilities()


# -- analysis subcommands (dispatch through one AnalysisSession) -----------------------


def _command_analyze(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    analyses = ["mpmcs"]
    if args.top_k > 1:
        analyses.append("ranking")
    report = session.analyze(
        tree, analyses, backend=args.backend, top_k=max(args.top_k, 1)
    )
    summary = report.mpmcs

    if not args.quiet:
        print(render_tree(tree, highlight=summary.events))
        print()
    print(f"MPMCS      : {{{', '.join(summary.events)}}}")
    print(f"Probability: {summary.probability:.6g}")
    print(f"Cost (-log): {summary.cost:.5f}")
    print(f"Engine     : {summary.engine or summary.backend}   "
          f"({summary.solve_time:.3f}s solve, {summary.total_time:.3f}s total)")

    if args.profile:
        print()
        print(render_profile(report))

    if args.top_k > 1 and report.ranking:
        print()
        print(f"Top-{args.top_k} minimal cut sets by probability:")
        for entry in report.ranking:
            members = ", ".join(entry.events)
            print(f"  #{entry.rank}: {{{members}}}  p={entry.probability:.6g}")

    if args.output:
        document = analysis_report(tree, report.mpmcs_result)
        args.output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"\nJSON report written to {args.output}")
    if args.dot:
        args.dot.write_text(to_dot(tree, highlight=summary.events), encoding="utf-8")
        print(f"DOT rendering written to {args.dot}")
    return 0


def _command_weights(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    print(weights_table(tree))
    return 0


def _command_show(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    print(render_tree(tree))
    return 0


def _command_mcs(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    want_spof = _supports(args.backend, "spof")
    if args.method == "mocus":
        analyses = ["mcs"] + (["spof"] if want_spof else [])
        report = session.analyze(tree, analyses, backend=args.backend)
        ranked = report.cut_sets.ranked()[: args.limit]
        entries = [(index + 1, tuple(sorted(cs)), p) for index, (cs, p) in enumerate(ranked)]
        enumerator = report.backends["mcs"].upper()
        print(f"{len(report.cut_sets)} minimal cut sets total ({enumerator}); "
              f"showing {len(entries)}:")
    else:
        analyses = ["ranking"] + (["spof"] if want_spof else [])
        report = session.analyze(tree, analyses, backend=args.backend, top_k=args.limit)
        entries = [(entry.rank, entry.events, entry.probability) for entry in report.ranking]
        ranking_backend = report.backends["ranking"]
        label = "iterated MaxSAT" if ranking_backend == "maxsat" else ranking_backend.upper()
        print(f"top {len(entries)} minimal cut sets ({label}):")
    for rank, events, probability in entries:
        print(f"  #{rank:>3}: p={probability:10.4e}  {{{', '.join(events)}}}")
    if report.spof:
        print(f"single points of failure: {', '.join(name for name, _ in report.spof)}")
    return 0


def _command_importance(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    report = session.analyze(tree, ["importance"], backend=args.backend)
    measures = report.importance
    ranked = sorted(measures.values(), key=lambda m: m.fussell_vesely, reverse=True)[: args.top]
    rows = [
        [
            m.event,
            f"{m.probability:g}",
            f"{m.birnbaum:.4e}",
            f"{m.criticality:.4e}",
            f"{m.fussell_vesely:.4f}",
            f"{m.risk_achievement_worth:.2f}",
            f"{m.risk_reduction_worth:.2f}",
        ]
        for m in ranked
    ]
    print(markdown_table(
        ["event", "p", "Birnbaum", "criticality", "Fussell-Vesely", "RAW", "RRW"], rows
    ))
    return 0


def _command_topevent(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    analyses = ["top_event"]
    if _supports(args.backend, "mcs"):
        analyses.append("mcs")
    report = session.analyze(
        tree, analyses, backend=args.backend, samples=args.samples, seed=args.seed
    )
    summary = report.top_event
    if summary.exact is not None:
        print(f"exact (BDD)              : {summary.exact:.6e}")
    if summary.rare_event_bound is not None:
        print(f"rare-event upper bound   : {summary.rare_event_bound:.6e}")
    estimate = summary.monte_carlo
    if estimate is not None:
        print(
            f"Monte Carlo ({estimate.samples} samples): {estimate.probability:.6e} "
            f"[95% CI {estimate.confidence_low:.3e} .. {estimate.confidence_high:.3e}]"
        )
    if report.cut_sets is not None:
        print(f"minimal cut sets         : {len(report.cut_sets)} "
              f"(order {report.cut_sets.order()})")
    return 0


def _command_report(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    if args.to == "html":
        report = session.analyze(tree, ["mpmcs"], backend=args.backend)
    else:
        report = session.analyze(
            tree,
            ["mpmcs", "ranking", "importance", "spof"],
            backend=args.backend,
            top_k=max(args.top_k, 1),
        )
    path = write_report(report, args.output, fmt=args.to)
    print(f"{args.to} report written to {path}")
    return 0


def _command_modules(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    report = session.analyze(tree, ["modules"], backend=args.backend).modules
    print(f"gates          : {report['num_gates']}")
    print(f"modules        : {report['num_modules']} "
          f"({report['num_proper_modules']} proper, "
          f"{report['module_fraction']:.0%} of gates)")
    if report["largest_proper_module"]:
        print(f"largest proper : {report['largest_proper_module']} "
              f"({report['largest_proper_module_size']} nodes)")
    print(f"module gates   : {', '.join(report['module_gates'])}")
    return 0


def _command_truncate(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    result = session.analyze(
        tree, ["truncation"], backend=args.backend, cutoff=args.cutoff
    ).truncation
    print(f"cutoff {args.cutoff:g}: {result.num_retained} cut sets retained, "
          f"{result.num_pruned} candidates pruned")
    if result.num_retained == 0:
        return 0
    contributions = cut_set_contributions(result.collection)[: args.limit]
    for entry in contributions:
        members = ", ".join(entry.events)
        print(f"  #{entry.rank:>3}: p={entry.probability:10.4e}  "
              f"({entry.fraction:6.1%} of retained risk)  {{{members}}}")
    return 0


def _command_uncertainty(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    if args.error_factor < 1.0:
        raise ReproError(f"--error-factor must be at least 1, got {args.error_factor}")
    spec = {
        name: LognormalUncertainty(median=probability, error_factor=args.error_factor)
        for name, probability in tree.probabilities().items()
    }
    result = propagate_uncertainty(tree, spec, num_samples=args.samples, seed=args.seed)
    top = result.top_event
    print(f"top-event probability over {result.num_samples} samples "
          f"(lognormal EF={args.error_factor:g} on every event):")
    print(f"  mean {top.mean:.4e}   std {top.std:.4e}")
    for percentile, value in sorted(top.percentiles.items()):
        print(f"  P{percentile:g}: {value:.4e}")
    print(f"MPMCS identity stability: {result.mpmcs_identity_stability:.1%} "
          f"(most frequent: {{{', '.join(result.mpmcs_frequencies[0][0])}}})")
    print("uncertainty importance (Spearman rank correlation with the top event):")
    for measure in uncertainty_importance(result)[:10]:
        print(f"  {measure.event:<30s} {measure.spearman:+.3f}")
    return 0


def _split_kv(text: str, flag: str) -> "tuple[str, str]":
    """Split an ``NAME=VALUE`` CLI argument, with a helpful error."""
    name, separator, value = text.partition("=")
    if not separator or not name or not value:
        raise ReproError(f"{flag} expects NAME=VALUE, got {text!r}")
    return name, value


def _parse_float(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ReproError(f"{flag}: {text!r} is not a number") from exc


def _parse_float_list(text: str, flag: str) -> "list[float]":
    return [_parse_float(part, flag) for part in text.split(",") if part.strip()]


def _whatif_patches(args: argparse.Namespace) -> "list":
    patches = []
    for item in args.set_probability:
        event, value = _split_kv(item, "--set")
        patches.append(SetProbability(event, _parse_float(value, "--set")))
    for item in args.scale:
        event, value = _split_kv(item, "--scale")
        patches.append(ScaleProbability(event, _parse_float(value, "--scale")))
    for item in args.harden:
        event, separator, value = item.partition("=")
        factor = _parse_float(value, "--harden") if separator else None
        patches.append(Harden(event, factor=factor))
    for item in args.remove:
        patches.append(RemoveEvent(item))
    for item in args.redundancy:
        event, separator, value = item.partition("=")
        copies = int(_parse_float(value, "--redundancy")) if separator else 1
        patches.append(AddRedundancy(event, copies=copies))
    for item in args.spare:
        gate, value = _split_kv(item, "--spare")
        patches.append(AddSpareChild(gate, _parse_float(value, "--spare")))
    for item in args.set_k:
        gate, value = _split_kv(item, "--set-k")
        patches.append(SetVotingThreshold(gate, int(_parse_float(value, "--set-k"))))
    if args.mission_factor is not None:
        patches.append(ScaleMissionTime(args.mission_factor))
    if not patches:
        raise ReproError(
            "whatif needs at least one patch (--set/--scale/--harden/--remove/"
            "--redundancy/--spare/--set-k/--mission-factor)"
        )
    return patches


def _sweep_backend(backend: str) -> str:
    """Scenario sweeps need a concrete backend; auto routes to MOCUS."""
    return "mocus" if backend == "auto" else backend


def _command_whatif(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    scenario = Scenario(args.name, _whatif_patches(args))
    executor = SweepExecutor(session, backend=_sweep_backend(args.backend))
    report = executor.run(tree, [scenario])
    print(render_scenario_report(report, "text"))
    failures = report.failures
    if args.output:
        args.output.write_text(
            render_scenario_report(report, "json") + "\n", encoding="utf-8"
        )
        print(f"\nJSON scenario report written to {args.output}")
    if failures:
        print(f"error: scenario failed: {failures[0].error}", file=sys.stderr)
        return 1
    return 0


def _maintenance_sweep_scenarios(
    tree: FaultTree, args: argparse.Namespace
) -> "tuple[FaultTree, list]":
    """Build the (materialised tree, scenarios) of a maintenance-policy sweep.

    ``--repair-rate``/``--test-interval`` sweep the named component's
    maintenance policy: the event's reliability model is built from
    ``--failure-rate`` with the *first* swept value as the current policy, the
    base tree is the assignment frozen at ``--mission-time``, and each
    scenario re-freezes the perturbed model at the same time.
    """
    if args.repair_rate and args.test_interval:
        raise ReproError("use either --repair-rate or --test-interval, not both")
    if not args.event:
        raise ReproError("--repair-rate/--test-interval need --event")
    if args.failure_rate is None:
        raise ReproError(
            "--repair-rate/--test-interval need --failure-rate to build the "
            "component's reliability model"
        )
    if args.mission_time is None:
        # Silently freezing at the 1h Galileo default would make every
        # maintenance policy look identical (P ~ lambda*t regardless of the
        # repair rate); demand an explicit choice instead.
        raise ReproError(
            "--repair-rate/--test-interval need --mission-time to freeze the "
            "perturbed models at"
        )
    assignment = ReliabilityAssignment(tree)
    if args.repair_rate:
        rates = _parse_float_list(args.repair_rate, "--repair-rate")
        if not rates:
            raise ReproError("--repair-rate needs at least one repair rate")
        assignment.assign(args.event, RepairableComponent(args.failure_rate, rates[0]))
        scenarios = repair_rate_sweep(
            assignment, args.event, rates, mission_time=args.mission_time
        )
    else:
        intervals = _parse_float_list(args.test_interval, "--test-interval")
        if not intervals:
            raise ReproError("--test-interval needs at least one test interval")
        assignment.assign(
            args.event, PeriodicallyTestedComponent(args.failure_rate, intervals[0])
        )
        scenarios = test_interval_sweep(
            assignment, args.event, intervals, mission_time=args.mission_time
        )
    return assignment.tree_at(args.mission_time), scenarios


def _command_sweep(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    if args.repair_rate or args.test_interval:
        tree, scenarios = _maintenance_sweep_scenarios(tree, args)
    elif args.mission_factors:
        scenarios = mission_time_sweep(_parse_float_list(args.mission_factors, "--mission-factors"))
    elif args.event and args.scale_factors:
        scenarios = scale_sweep(args.event, _parse_float_list(args.scale_factors, "--scale-factors"))
    elif args.event and args.values:
        scenarios = probability_sweep(args.event, _parse_float_list(args.values, "--values"))
    elif args.event and args.start is not None and args.stop is not None:
        values = sweep_values(args.start, args.stop, args.steps, log_spaced=not args.linear)
        scenarios = probability_sweep(args.event, values)
    else:
        raise ReproError(
            "sweep needs --event with --values/--scale-factors/--start+--stop/"
            "--repair-rate/--test-interval, or --mission-factors"
        )
    executor = SweepExecutor(
        session, incremental=not args.no_incremental, backend=_sweep_backend(args.backend)
    )
    report = executor.run(tree, scenarios)
    print(render_scenario_report(report, "text", limit=args.limit))
    if args.output:
        args.output.write_text(
            render_scenario_report(report, "json") + "\n", encoding="utf-8"
        )
        print(f"\nJSON sweep report written to {args.output}")
    return 0


def _command_plan(session: AnalysisSession, tree: FaultTree, args: argparse.Namespace) -> int:
    actions = []
    for item in args.action:
        event, value = _split_kv(item, "--action")
        actions.append(
            HardeningAction(event, cost=_parse_float(value, "--action"), factor=args.factor)
        )
    if args.pareto:
        if args.objective != "mpmcs":
            raise ReproError("the Pareto frontier optimises the 'mpmcs' objective only")
        return _command_plan_pareto(session, tree, actions, args)
    if args.budget is None:
        raise ReproError("plan needs --budget (or --pareto for the whole frontier)")
    if args.method == "auto":
        raise ReproError("--method auto applies to --pareto only; use greedy or exact")
    plan = plan_mitigation(
        tree,
        actions,
        args.budget,
        method=args.method or "greedy",
        objective=args.objective.replace("-", "_"),
        cache=session.artifacts,
    )
    print(f"method      : {plan.method}   (budget {plan.budget:g}, spent {plan.total_cost:g})")
    selected = ", ".join(action.label for action in plan.selected) or "(nothing)"
    print(f"harden      : {selected}")
    print(f"MPMCS       : {{{', '.join(plan.base_mpmcs)}}} p={plan.base_mpmcs_probability:.6g}"
          f"  ->  {{{', '.join(plan.new_mpmcs)}}} p={plan.new_mpmcs_probability:.6g}")
    print(f"P(top)      : {plan.base_top_event:.6e}  ->  {plan.new_top_event:.6e}"
          f"  ({plan.top_event_reduction:+.3e} reduction)")
    print()
    print("tornado ranking (one action at a time):")
    rows = [
        [
            impact.action.event,
            f"{impact.action.cost:g}",
            f"{impact.top_event_after:.4e}",
            f"{impact.top_event_reduction:.4e}",
            f"{impact.reduction_per_cost:.4e}",
        ]
        for impact in rank_actions(tree, actions, cache=session.artifacts)
    ]
    print(markdown_table(["event", "cost", "P(top) after", "reduction", "reduction/cost"], rows))
    if args.output:
        args.output.write_text(
            json.dumps(plan.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"\nplan JSON written to {args.output}")
    return 0


def _command_plan_pareto(
    session: AnalysisSession,
    tree: FaultTree,
    actions: "list[HardeningAction]",
    args: argparse.Namespace,
) -> int:
    frontier = pareto_frontier(
        tree, actions, method=args.method or "auto", cache=session.artifacts
    )
    print(f"method      : {frontier.method}   ({len(frontier)} Pareto point(s))")
    print(
        f"base MPMCS  : {{{', '.join(frontier.base_mpmcs)}}}"
        f"  p={frontier.base_mpmcs_probability:.6g}"
        f"   P(top) {frontier.base_top_event:.6e}"
    )
    if args.budget is not None:
        best = frontier.best_within(args.budget)
        chosen = ", ".join(best.events) or "(nothing)"
        print(
            f"budget {args.budget:g} buys: {chosen}"
            f"  ->  P(MPMCS) {best.mpmcs_probability:.6g}"
            f"   P(top) {best.top_event:.6e}"
        )
    print()
    print(frontier_table(frontier))
    if args.output:
        args.output.write_text(
            json.dumps(frontier.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"\nfrontier JSON written to {args.output}")
    return 0


# -- tree-free subcommands -------------------------------------------------------------


def _command_generate(args: argparse.Namespace) -> int:
    tree = random_fault_tree(
        num_basic_events=args.events, seed=args.seed, voting_ratio=args.voting_ratio
    )
    if args.out_format == "json":
        text = to_json(tree)
    elif args.out_format == "galileo":
        text = to_galileo(tree)
    else:
        text = to_openpsa(tree)
    if args.output:
        args.output.write_text(text + ("\n" if not text.endswith("\n") else ""), encoding="utf-8")
        print(f"wrote {tree.num_nodes}-node tree to {args.output}")
    else:
        print(text)
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    rows = [
        [name, ", ".join(sorted(cls.capabilities()))]
        for name, cls in available_backends().items()
    ]
    print(markdown_table(["backend", "capabilities"], rows))
    return 0


def _command_solve_wcnf(args: argparse.Namespace) -> int:
    document = parse_wcnf(args.wcnf.read_text(encoding="utf-8"))
    instance = WPMaxSATInstance(precision=1)
    instance.ensure_num_vars(document.num_vars)
    for clause in document.hard:
        instance.add_hard(list(clause))
    for weight, clause in document.soft:
        instance.add_soft(list(clause), weight)
    engine = _ENGINE_FACTORIES[args.engine]()
    result = engine.solve(instance)
    print(f"status : {result.status.value}")
    if result.model is not None:
        print(f"cost   : {result.cost}")
        print(f"engine : {result.engine}  ({result.solve_time:.3f}s, "
              f"{result.sat_calls} SAT calls, {result.conflicts} conflicts)")
        if args.show_model:
            assignment = " ".join(
                str(var if result.model.get(var, False) else -var)
                for var in range(1, document.num_vars + 1)
            )
            print(f"model  : {assignment}")
    return 0


def _install_json_log(path: Optional[Path]) -> None:
    """Route structured events to ``path`` for this process (no-op when None)."""
    if path is not None:
        set_logger(JsonLinesLogger(path))


def _command_metrics(args: argparse.Namespace) -> int:
    print(ServiceClient(args.url).metrics_text(), end="")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    _install_json_log(args.log_json)
    service = AnalysisService(
        store_path=str(args.store) if args.store else None,
        workers=args.workers,
        sweep_workers=args.sweep_workers,
        cache_max_entries=args.cache_max_entries,
    )
    server = start_service(
        service, host=args.host, port=args.port, background=False
    )
    store_note = f" (store: {args.store})" if args.store else " (no persistent store)"
    print(
        f"repro service listening on http://{args.host}:{server.server_port}"
        f" with {args.workers} worker(s){store_note}"
    )
    print("endpoints: /health /metrics /backends /analyze /batch /sweep /frontier /campaigns /jobs /monitor  — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.stop()
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    tree = _load_tree(args)
    client = ServiceClient(args.url, timeout=args.timeout)
    wants_sweep = bool(
        args.sweep_event or args.sweep_values or args.sweep_mission_factors
    )
    if wants_sweep:
        if args.sweep_mission_factors:
            spec = {
                "family": "mission_time_sweep",
                "factors": _parse_float_list(args.sweep_mission_factors, "--sweep-mission-factors"),
            }
        elif args.sweep_event and args.sweep_values:
            spec = {
                "family": "probability_sweep",
                "event": args.sweep_event,
                "values": _parse_float_list(args.sweep_values, "--sweep-values"),
            }
        elif args.sweep_event and args.sweep_start is not None and args.sweep_stop is not None:
            spec = {
                "family": "probability_sweep",
                "event": args.sweep_event,
                "start": args.sweep_start,
                "stop": args.sweep_stop,
                "steps": args.sweep_steps,
            }
        else:
            raise ReproError(
                "sweep submission needs --sweep-event with --sweep-values or "
                "--sweep-start+--sweep-stop, or --sweep-mission-factors"
            )
        job = client.submit_sweep(
            tree,
            spec,
            backend=_sweep_backend(args.backend),
            workers=args.sweep_workers,
            top_k=args.top_k,
            samples=args.samples,
            seed=args.seed,
        )
    else:
        analyses = [name.strip() for name in args.analyses.split(",") if name.strip()]
        job = client.submit_analyze(
            tree,
            analyses=analyses,
            backend=args.backend,
            top_k=args.top_k,
            samples=args.samples,
            seed=args.seed,
        )
    print(f"submitted {job['id']} ({'sweep' if wants_sweep else 'analyze'}, "
          f"status: {job['status']})")
    if args.no_wait:
        print(f"poll with: repro jobs {job['id']} --url {args.url} --result")
        return 0
    done = client.wait(job["id"], timeout=args.timeout)
    if done["status"] != "done":
        print(f"error: job {job['id']} {done['status']}: {done.get('error')}", file=sys.stderr)
        return 1
    result = done["result"]
    if args.output:
        args.output.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"result JSON written to {args.output}")
    elif wants_sweep:
        report = result["report"]
        best = min(
            (s for s in report["scenarios"] if s.get("top_event") is not None),
            key=lambda s: s["top_event"],
            default=None,
        )
        print(f"sweep over {result['num_scenarios']} scenario(s), "
              f"base P(top) = {report['base']['top_event']:.6e}")
        if best is not None:
            print(f"best scenario: {best['name']}  P(top) = {best['top_event']:.6e}")
    else:
        report = result["report"]
        if report.get("mpmcs"):
            print(f"MPMCS      : {{{', '.join(report['mpmcs']['events'])}}}  "
                  f"p={report['mpmcs']['probability']:.6g}")
        top = report.get("top_event") or {}
        estimate = top.get("exact", None)
        if estimate is None:
            estimate = top.get("min_cut_upper_bound")
        if estimate is not None:
            print(f"P(top)     : {estimate:.6e}")
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.job_id is None:
        entries = client.jobs()
        if not entries:
            print("no jobs")
            return 0
        rows = [
            [job["id"], job["kind"], job["status"], job.get("error") or ""]
            for job in entries
        ]
        print(markdown_table(["id", "kind", "status", "error"], rows))
        return 0
    if args.cancel:
        job = client.cancel(args.job_id)
        print(f"{job['id']}: {job['status']}")
        return 0
    if args.result:
        job = client.result(args.job_id)
        if job["status"] != "done":
            print(f"error: job {job['id']} {job['status']}: {job.get('error')}", file=sys.stderr)
            return 1
        text = json.dumps(job["result"], indent=2)
        if args.output:
            args.output.write_text(text + "\n", encoding="utf-8")
            print(f"result JSON written to {args.output}")
        else:
            print(text)
        return 0
    job = client.job(args.job_id)
    print(json.dumps(job, indent=2))
    return 0


def _monitor_rules(args: argparse.Namespace) -> list:
    """Alert rules from the ``repro monitor`` flags (default: MPMCS changes)."""
    rules: list = []
    if args.alert_ptop is not None:
        rules.append(PTopThreshold(
            args.alert_ptop, direction="above", hysteresis=args.alert_hysteresis
        ))
    if args.alert_ptop_below is not None:
        rules.append(PTopThreshold(
            args.alert_ptop_below, direction="below", hysteresis=args.alert_hysteresis
        ))
    if not args.no_alert_mpmcs:
        rules.append(MpmcsChanged())
    if args.alert_jump is not None:
        rules.append(PTopJump(args.alert_jump))
    if args.alert_stale is not None:
        rules.append(FeedStaleness(args.alert_stale))
    return rules


def _monitor_feed_spec(args: argparse.Namespace) -> Dict[str, Any]:
    """Wire-form feed spec from the ``repro monitor`` flags."""
    if args.feed_file is not None and args.feed_url is not None:
        raise ReproError("--feed-file and --feed-url are mutually exclusive")
    if args.feed_file is not None:
        spec: Dict[str, Any] = {"type": "file", "path": str(args.feed_file)}
        if args.interval > 0:
            spec["poll_interval_s"] = args.interval
        if args.idle_timeout is not None:
            spec["idle_timeout_s"] = args.idle_timeout
        return spec
    if args.feed_url is not None:
        spec = {"type": "http", "url": args.feed_url}
        if args.interval > 0:
            spec["poll_interval_s"] = args.interval
        return spec
    return {
        "type": "synthetic",
        "updates": args.updates,
        "seed": args.seed,
        "events_per_update": args.events_per_update,
        "volatility": args.volatility,
        "interval_s": args.interval,
    }


def _render_stream_event(
    kind: str,
    data: Any,
    *,
    alerts_only: bool,
    scenario_count: int = 0,
) -> None:
    """Print one monitor/sweep stream event (shared by monitor and watch)."""
    if kind == "alert":
        print(render_alert(data))
    elif alerts_only:
        return
    elif kind == "delta":
        print(render_delta(data))
    elif kind == "scenario":
        print(render_scenario_progress(data, count=scenario_count))
    elif kind == "base":
        mpmcs = data.get("mpmcs")
        shown = "{" + ", ".join(mpmcs) + "}" if mpmcs else "n/a"
        ptop = data.get("ptop")
        ptop_text = f"{ptop:.6g}" if ptop is not None else "n/a"
        print(f"base ({data.get('backend', '?')}): P(top)={ptop_text} mpmcs={shown}")
    elif kind == "end":
        parts = [f"{key}={value}" for key, value in sorted(data.items())] if isinstance(data, dict) else []
        print(f"stream ended ({', '.join(parts)})" if parts else "stream ended")


def _monitor_backend(backend: str) -> str:
    # The tree-source --backend defaults to "auto"; a monitor wants the warm
    # incremental MaxSAT path unless something else was asked for explicitly.
    return "maxsat" if backend == "auto" else backend


def _command_monitor(args: argparse.Namespace) -> int:
    tree = _load_tree(args)
    rules = _monitor_rules(args)
    feed_spec = _monitor_feed_spec(args)
    if args.url:
        return _monitor_remote(args, tree, rules, feed_spec)

    _install_json_log(args.log_json)
    store = open_store(str(args.store)) if args.store else None
    monitor = TreeMonitor(
        tree,
        backend=_monitor_backend(args.backend),
        top_k=args.top_k,
        rules=rules,
        store=store,
        webhook_url=args.alert_webhook,
    )
    feed = feed_from_spec(feed_spec, tree=tree)
    monitor.start(feed, max_updates=args.max_updates, batch_size=args.batch_size)
    last_id = 0
    try:
        while True:
            events, closed = monitor.events.wait_for(last_id, timeout=0.5)
            for event in events:
                last_id = event.id
                _render_stream_event(
                    event.kind, event.data, alerts_only=args.alerts_only
                )
            if closed and not events:
                break
    except KeyboardInterrupt:
        print("\nstopping monitor")
    finally:
        monitor.stop()
    for line in render_monitor_status(monitor.status()):
        print(line)
    return 0


def _monitor_remote(
    args: argparse.Namespace,
    tree: FaultTree,
    rules: list,
    feed_spec: Dict[str, Any],
) -> int:
    client = ServiceClient(args.url)
    status = client.start_monitor(
        tree,
        feed=feed_spec,
        rules=[rule.to_dict() for rule in rules],
        backend=_monitor_backend(args.backend),
        top_k=args.top_k,
        max_updates=args.max_updates,
        batch_size=args.batch_size,
        webhook_url=args.alert_webhook,
    )
    print(f"monitor {status['name']} started on {args.url}")
    try:
        for event in client.stream_monitor():
            _render_stream_event(
                event.event, event.data, alerts_only=args.alerts_only
            )
    except KeyboardInterrupt:
        print("\ndetaching; stopping remote monitor")
        client.stop_monitor()
    for line in render_monitor_status(client.monitor()):
        print(line)
    return 0


def _command_watch(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.job_id:
        stream = client.stream_sweep(args.job_id, last_event_id=args.last_event_id)
    else:
        stream = client.stream_monitor(last_event_id=args.last_event_id)
    rendered = 0
    scenarios = 0
    try:
        for event in stream:
            if event.event == "scenario":
                scenarios += 1
            _render_stream_event(
                event.event,
                event.data,
                alerts_only=args.alerts_only,
                scenario_count=scenarios,
            )
            rendered += 1
            if args.max_events is not None and rendered >= args.max_events:
                break
    except KeyboardInterrupt:
        print("\ndetached")
    return 0


def _load_campaign_spec_document(path: Path) -> Dict[str, Any]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read campaign spec {path}: {exc}") from exc
    if isinstance(document, dict) and isinstance(document.get("spec"), dict):
        document = document["spec"]
    if not isinstance(document, dict):
        raise ReproError("campaign spec file must hold a JSON object")
    return document


def _print_campaign_outcome(document: Dict[str, Any]) -> None:
    print(f"campaign {document['campaign']} ({document['name']}): {document['status']}")
    rows = [
        [
            stage["name"],
            stage["kind"],
            stage["status"],
            str(stage["chunks_total"]),
            str(stage["ledger_hits"]),
            str(stage["executed"]),
        ]
        for stage in document.get("stages", [])
    ]
    if rows:
        print(markdown_table(
            ["stage", "kind", "status", "chunks", "ledger hits", "executed"], rows
        ))
    if document.get("error"):
        print(f"error: {document['error']}", file=sys.stderr)


def _local_campaign_store(args: argparse.Namespace):
    if args.store is None:
        raise ReproError(
            f"'campaign {args.campaign_command}' needs --url (service mode) "
            "or --store (local ledger directory)"
        )
    return open_store(str(args.store))


def _resolve_local_spec(store: Any, campaign_id: str, workers: Optional[int]):
    state = campaign_state(store, campaign_id)
    if state is None or not isinstance(state.get("spec"), dict):
        raise ReproError(f"unknown campaign id {campaign_id!r} in this store")
    document = dict(state["spec"])
    if workers is not None:
        document["workers"] = workers
    return campaign_from_dict(document)


def _write_campaign_result(args: argparse.Namespace, result: Dict[str, Any]) -> None:
    if getattr(args, "output", None):
        args.output.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"campaign result JSON written to {args.output}")


def _command_campaign(args: argparse.Namespace) -> int:
    if args.url and getattr(args, "store", None):
        raise ReproError("--url and --store are mutually exclusive")
    handler = {
        "run": _command_campaign_run,
        "status": _command_campaign_status,
        "resume": _command_campaign_resume,
    }[args.campaign_command]
    return handler(args)


def _command_campaign_run(args: argparse.Namespace) -> int:
    document = _load_campaign_spec_document(args.spec)
    if args.workers is not None:
        document = {**document, "workers": args.workers}
    if args.url:
        client = ServiceClient(args.url, timeout=args.timeout)
        response = client.submit_campaign(
            document, wait=not args.no_wait, timeout=args.timeout
        )
        job = response["job"]
        print(f"campaign {response['campaign']} submitted as job {job['id']} "
              f"(status: {job['status']})")
        if args.no_wait:
            print(f"poll with: repro campaign status {response['campaign']} --url {args.url}")
            return 0
        if job["status"] != "done":
            print(f"error: job {job['id']} {job['status']}: {job.get('error')}",
                  file=sys.stderr)
            return 1
        outcome = job["result"]
        _print_campaign_outcome(outcome)
        _write_campaign_result(args, outcome["result"])
        return 0
    _install_json_log(args.log_json)
    spec = campaign_from_dict(document)
    store = open_store(str(args.store)) if args.store else None
    outcome = CampaignRunner(store=store).run(spec)
    _print_campaign_outcome(outcome.to_dict())
    _write_campaign_result(args, outcome.result_document())
    return 0 if outcome.status == "done" else 1


def _command_campaign_status(args: argparse.Namespace) -> int:
    if args.url:
        document = ServiceClient(args.url).campaign(args.campaign_id)
    else:
        store = _local_campaign_store(args)
        spec = _resolve_local_spec(store, args.campaign_id, None)
        document = CampaignRunner(store=store).status(spec)
    print(json.dumps(document, indent=2))
    return 0


def _command_campaign_resume(args: argparse.Namespace) -> int:
    if args.url:
        client = ServiceClient(args.url, timeout=args.timeout)
        response = client.resume_campaign(args.campaign_id)
        job = response["job"]
        print(f"campaign {response['campaign']} resuming as job {job['id']}")
        done = client.wait(job["id"], timeout=args.timeout)
        if done["status"] != "done":
            print(f"error: job {job['id']} {done['status']}: {done.get('error')}",
                  file=sys.stderr)
            return 1
        outcome = done["result"]
        _print_campaign_outcome(outcome)
        _write_campaign_result(args, outcome["result"])
        return 0
    _install_json_log(args.log_json)
    store = _local_campaign_store(args)
    spec = _resolve_local_spec(store, args.campaign_id, args.workers)
    outcome = CampaignRunner(store=store).run(spec)
    _print_campaign_outcome(outcome.to_dict())
    _write_campaign_result(args, outcome.result_document())
    return 0 if outcome.status == "done" else 1


#: Subcommands that operate on a fault tree: loaded once, analysed through
#: one shared session per invocation.
_TREE_COMMANDS: Dict[str, Callable[[AnalysisSession, FaultTree, argparse.Namespace], int]] = {
    "analyze": _command_analyze,
    "weights": _command_weights,
    "show": _command_show,
    "mcs": _command_mcs,
    "importance": _command_importance,
    "topevent": _command_topevent,
    "report": _command_report,
    "uncertainty": _command_uncertainty,
    "modules": _command_modules,
    "truncate": _command_truncate,
    "whatif": _command_whatif,
    "sweep": _command_sweep,
    "plan": _command_plan,
}

#: Subcommands that do not take a fault tree.
_PLAIN_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "generate": _command_generate,
    "backends": _command_backends,
    "solve-wcnf": _command_solve_wcnf,
    "serve": _command_serve,
    "metrics": _command_metrics,
    "submit": _command_submit,
    "jobs": _command_jobs,
    "monitor": _command_monitor,
    "watch": _command_watch,
    "campaign": _command_campaign,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = _TREE_COMMANDS.get(args.command)
        if handler is not None:
            tree = _load_tree(args)
            session = AnalysisSession(kernel_tier=getattr(args, "kernel", None))
            return handler(session, tree, args)
        return _PLAIN_COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
