#!/usr/bin/env python3
"""Scalability study: regenerate the paper's "thousands of nodes in seconds" claim.

The script sweeps random fault trees of increasing size through the MaxSAT
pipeline, comparing the individual MaxSAT engines on the whole-tree encoding,
the default module-by-module solver (``MPMCSSolver()``) and the classical
baselines (MOCUS enumeration, BDD), and prints a compact
table — the same data the benchmark harness measures (experiments E4–E6), in
a form convenient for quick interactive exploration.

Run it with::

    python examples/scalability_study.py            # default sweep
    python examples/scalability_study.py 200 800    # custom sizes
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MPMCSSolver, random_fault_tree
from repro.analysis.mocus import mocus_mpmcs
from repro.bdd.probability import bdd_mpmcs
from repro.exceptions import AnalysisError
from repro.maxsat import HittingSetEngine, RC2Engine

DEFAULT_SIZES = [100, 300, 1000, 2000]
MOCUS_BUDGET = 50_000
BDD_LIMIT = 600


def timed(function, *args, **kwargs):
    start = time.perf_counter()
    try:
        value = function(*args, **kwargs)
        return value, time.perf_counter() - start, "ok"
    except (AnalysisError, RecursionError, MemoryError) as exc:
        return None, time.perf_counter() - start, f"failed ({type(exc).__name__})"


def main(argv) -> int:
    sizes = [int(arg) for arg in argv[1:]] or DEFAULT_SIZES
    print(f"{'events':>7} {'nodes':>7} {'|MPMCS|':>8} {'P(MPMCS)':>11} "
          f"{'rc2':>8} {'modules':>10} {'hitting-set':>11} {'mocus':>10} {'bdd':>10}")

    for size in sizes:
        tree = random_fault_tree(num_basic_events=size, seed=42, event_reuse=0.05)

        rc2_result, rc2_time, _ = timed(MPMCSSolver(single_engine=RC2Engine()).solve, tree)
        modules_result, modules_time, _ = timed(MPMCSSolver().solve, tree)
        _, hitting_set_time, hitting_set_status = timed(
            MPMCSSolver(single_engine=HittingSetEngine()).solve, tree
        )
        _, mocus_time, mocus_status = timed(mocus_mpmcs, tree, max_candidates=MOCUS_BUDGET)
        if size <= BDD_LIMIT:
            _, bdd_time, bdd_status = timed(bdd_mpmcs, tree)
        else:
            bdd_time, bdd_status = 0.0, "skipped"

        def cell(elapsed, status="ok"):
            return f"{elapsed:7.2f}s" if status == "ok" else f"{status[:9]:>9}"

        assert rc2_result is not None and modules_result is not None
        print(
            f"{size:>7} {tree.num_nodes:>7} {rc2_result.size:>8} "
            f"{rc2_result.probability:>11.3e} "
            f"{cell(rc2_time):>8} {cell(modules_time):>10} "
            f"{cell(hitting_set_time, hitting_set_status):>11} "
            f"{cell(mocus_time, mocus_status):>10} {cell(bdd_time, bdd_status):>10}"
        )

    print("\nReading the table: the MaxSAT pipeline (rc2 / modules) stays in the "
          "seconds range at thousands of nodes, while exhaustive enumeration (mocus) "
          "hits its candidate budget — the gap the paper's formulation closes.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
