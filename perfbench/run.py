"""Run one benchmark workload and print its result as the last line of stdout.

Usage, from the repository root::

    python3 perfbench/run.py --workload e4-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a traced
replay and prints the per-layer metrics.  A full record of the run (host,
commit, raw samples, every metric with its unit) is written under
``perfbench/records/``, with the spans of a traced run beside it.  The
program is imported from ``src/`` next to this directory; without it the
run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "perfbench" / "records"
WORKLOAD_NAMES = ("e4-cold", "sweep-drift", "sweep-flip", "monitor-flip")

#: String hashing is seeded per process unless ``PYTHONHASHSEED`` is set,
#: and the program's set and dict iteration orders follow it: cut-set
#: seeding of the pinned tree took 0.52-0.55 s under one hash seed and
#: 0.65-0.75 s under another, reproducibly.  Runs fix it, so that their
#: figures differ by the inputs and the program, not by the hash seed.
HASH_SEED = "0"


def _fix_hash_seed() -> None:
    """Re-execute this process with ``PYTHONHASHSEED=HASH_SEED`` unless it has it."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _import_program()
    _fix_hash_seed()
    from perfbench.harness import run

    result, record, spans = run(
        args.workload, args.seed, args.seconds, bool(args.trace), root=ROOT
    )
    RECORDS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    stem = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (RECORDS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RECORDS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
