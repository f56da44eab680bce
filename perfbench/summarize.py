"""Summarise run records: median, quartiles and spread of every metric.

Usage, from the repository root::

    python3 perfbench/summarize.py [RECORD.json ...] [--output SUMMARY.json]

Without record arguments every record under ``perfbench/records/`` is read.
Records are grouped by workload, trace mode and source digest; the spread of
a metric is the distance between its first and third quartile over its
median, the figure the benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

RECORDS = Path(__file__).resolve().parent / "records"


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        key = f"{record['workload']} trace={record['trace']} src={record['source_sha256'][:12]}"
        groups.setdefault(key, []).append(record)
    summary: Dict[str, Any] = {}
    for key, group in sorted(groups.items()):
        metrics: Dict[str, Any] = {}
        for name, first in group[0]["metrics"].items():
            values = [record["metrics"][name]["value"] for record in group]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "unit": first["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        summary[key] = {
            "runs": len(group),
            "seeds": sorted(record["seed"] for record in group),
            "seconds": sorted({record["seconds"] for record in group}),
            "failed": sum(record["failed"] for record in group),
            "attempted": sum(record["attempted"] for record in group),
            "host": group[0]["host"],
            "metrics": metrics,
        }
    return summary


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)
    paths = args.records or sorted(
        path for path in RECORDS.glob("*.json") if not path.name.endswith(".spans.json")
    )
    summary = summarize([json.loads(path.read_text()) for path in paths])
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, {group['failed']}/{group['attempted']} failed")
        for name, metric in group["metrics"].items():
            print(
                f"  {name:36s} {metric['median']:12.6g} {metric['unit']:9s}"
                f" spread {metric['spread']:.3f}"
            )
    if args.output is not None:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
