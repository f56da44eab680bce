#!/usr/bin/env python3
"""Fold per-run benchmark records into a cumulative perf history.

The benchmark smoke jobs each write a machine-readable JSON record:

* ``BENCH_sweep.json``    — E12, incremental MaxSAT sweep (``speedup_vs_cold``)
* ``BENCH_campaign.json`` — E13, campaign resume overhead (``resume_speedup``)
* ``BENCH_monitor.json``  — E14, live monitor updates (``speedup_vs_cold``)
* ``BENCH_kernels.json``  — E15, batched BDD evaluation (``numpy_speedup_vs_scalar``)
* ``BENCH_rerank.json``   — E16, warm MaxSAT re-solve loop (``loop_scenarios_per_s``)

This tool appends each record to ``BENCH_history.json`` (one entry list per
benchmark id, newest last) and **fails with exit 1** when a headline metric
regresses by more than ``--max-regression`` (default 30%) against the previous
entry, so CI catches a perf cliff before it merges.  First entries have no
baseline and always pass.

Run from the repository root::

    python tools/bench_history.py --history BENCH_history.json \
        BENCH_sweep.json BENCH_campaign.json BENCH_monitor.json

With no record paths given, the tool reads the ``BENCH_SWEEP_JSON`` /
``BENCH_CAMPAIGN_JSON`` / ``BENCH_MONITOR_JSON`` environment variables (the
same ones the benchmarks honour), skipping files that do not exist — so the
CI step works unchanged whichever subset of benchmarks a job ran.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: benchmark id -> the record key that serves as the headline (higher=better).
HEADLINE_METRICS = {
    "E12-incremental-maxsat-sweep": "speedup_vs_cold",
    "E13-campaign-resume-overhead": "resume_speedup",
    "E14-live-monitor-updates": "speedup_vs_cold",
    "E15-kernel-batch-bdd-eval": "numpy_speedup_vs_scalar",
    "E16-maxsat-warm-solve-loop": "loop_scenarios_per_s",
}

#: (env var, default filename) pairs probed when no record paths are given.
DEFAULT_RECORDS = (
    ("BENCH_SWEEP_JSON", "BENCH_sweep.json"),
    ("BENCH_CAMPAIGN_JSON", "BENCH_campaign.json"),
    ("BENCH_MONITOR_JSON", "BENCH_monitor.json"),
    ("BENCH_KERNELS_JSON", "BENCH_kernels.json"),
    ("BENCH_RERANK_JSON", "BENCH_rerank.json"),
)


def load_record(path: Path) -> Dict[str, Any]:
    record = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(record, dict) or "benchmark" not in record:
        raise ValueError(f"{path}: not a benchmark record (no 'benchmark' key)")
    return record


def load_history(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    if not path.exists():
        return {}
    history = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(history, dict):
        raise ValueError(f"{path}: history must be a JSON object")
    return history


def headline_of(record: Dict[str, Any]) -> Optional[float]:
    key = HEADLINE_METRICS.get(record["benchmark"])
    if key is None or key not in record:
        return None
    return float(record[key])


def check_regression(
    previous: Optional[Dict[str, Any]],
    entry: Dict[str, Any],
    max_regression: float,
) -> Optional[str]:
    """A human-readable failure line, or ``None`` when the entry passes."""
    if previous is None:
        return None
    old = previous.get("headline")
    new = entry.get("headline")
    if old is None or new is None or old <= 0:
        return None
    if new < old * (1.0 - max_regression):
        drop = (1.0 - new / old) * 100.0
        return (
            f"{entry['record']['benchmark']}: headline fell {drop:.0f}% "
            f"({old:g} -> {new:g}), over the {max_regression * 100:.0f}% budget"
        )
    return None


def append_records(
    history: Dict[str, List[Dict[str, Any]]],
    records: List[Dict[str, Any]],
    *,
    label: str = "",
    max_regression: float = 0.30,
) -> Tuple[List[str], List[str]]:
    """Append each record to the history; returns (summary, regressions)."""
    summary: List[str] = []
    regressions: List[str] = []
    for record in records:
        benchmark = record["benchmark"]
        entries = history.setdefault(benchmark, [])
        entry = {
            "label": label,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "headline": headline_of(record),
            "record": record,
        }
        failure = check_regression(
            entries[-1] if entries else None, entry, max_regression
        )
        entries.append(entry)
        baseline = entries[-2]["headline"] if len(entries) > 1 else None
        summary.append(
            f"{benchmark:34} headline={entry['headline']!s:>8} "
            f"baseline={baseline!s:>8} entries={len(entries)}"
        )
        if failure:
            regressions.append(failure)
    return summary, regressions


def _default_record_paths() -> List[Path]:
    paths = []
    for env_var, default in DEFAULT_RECORDS:
        path = Path(os.environ.get(env_var, default))
        if path.exists():
            paths.append(path)
    return paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "records",
        nargs="*",
        type=Path,
        help="benchmark record files (default: probe the BENCH_*_JSON env vars)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path("BENCH_history.json"),
        help="cumulative history file to append to (default: %(default)s)",
    )
    parser.add_argument(
        "--label",
        default=os.environ.get("GITHUB_SHA", ""),
        help="tag for the new entries (default: $GITHUB_SHA when set)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="fail when a headline drops more than this fraction "
        "vs the previous entry (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    record_paths = args.records or _default_record_paths()
    if not record_paths:
        print("bench_history: no benchmark records found, nothing to do")
        return 0
    try:
        records = [load_record(path) for path in record_paths]
        history = load_history(args.history)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"bench_history: {error}", file=sys.stderr)
        return 1

    summary, regressions = append_records(
        history, records, label=args.label, max_regression=args.max_regression
    )
    args.history.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )
    for line in summary:
        print(line)
    print(f"history: {args.history} ({sum(len(v) for v in history.values())} entries)")
    if regressions:
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
