"""E4 — Section IV scalability claim.

"The results of our analytical evaluation indicate that the method is able to
scale to fault trees with thousands of nodes in seconds."

The authors' benchmark trees are not published, so the claim is reproduced on
seeded random fault trees (:mod:`repro.workloads.generator`) spanning two orders of magnitude in
size, up to several thousand nodes.  For every size the benchmark records the
wall-clock time of the full pipeline (encode + solve + extract) and asserts:

* the result is a genuine minimal cut set of the tree (soundness),
* the multi-thousand-node instances complete within a seconds-scale budget —
  the *shape* of the paper's claim — and
* the solve makes exactly the pinned number of SAT calls with no conflict,
  and its SAT calls propagate exactly the pinned number of literals:
  counted work, which a loaded host cannot blur the way it blurs wall time,
  so a change to the encoding or the solver that adds work shows here.
"""

import time

import pytest

from repro.core.pipeline import MPMCSSolver
from repro.maxsat import RC2Engine
from repro.sat.cdcl import CDCLSolver
from repro.workloads.generator import random_fault_tree

from benchmarks.conftest import emit

#: SAT calls RC2 makes on each row's tree (0 conflicts on every row).
SAT_CALLS = {100: 13, 250: 2, 500: 2, 1000: 3, 2000: 2, 4000: 2}

#: Literals those SAT calls propagate, summed over every ``CDCLSolver.solve``.
PROPAGATIONS = {100: 625, 250: 341, 500: 562, 1000: 1995, 2000: 2704, 4000: 4935}

#: (number of basic events, seconds budget for one full pipeline run).
SIZES = [
    (100, 5.0),
    (250, 5.0),
    (500, 10.0),
    (1000, 20.0),
    (2000, 30.0),
    (4000, 60.0),
]

_series = []


class _CountingRC2(RC2Engine):
    """RC2 that keeps the result of its last solve, for its work counters."""

    def solve(self, instance):
        self.last = super().solve(instance)
        return self.last


@pytest.mark.parametrize("num_events,budget_s", SIZES, ids=[f"n{n}" for n, _ in SIZES])
def test_bench_scalability(benchmark, monkeypatch, num_events, budget_s):
    propagations = []
    solve = CDCLSolver.solve

    def counting_solve(self, assumptions=()):
        result = solve(self, assumptions)
        propagations.append(result.propagations)
        return result

    monkeypatch.setattr(CDCLSolver, "solve", counting_solve)
    tree = random_fault_tree(
        num_basic_events=num_events, seed=42, voting_ratio=0.05, event_reuse=0.05
    )
    engine = _CountingRC2()
    solver = MPMCSSolver(single_engine=engine)

    start = time.perf_counter()
    result = benchmark.pedantic(solver.solve, args=(tree,), rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    assert tree.is_minimal_cut_set(result.events)
    assert result.probability > 0.0
    assert elapsed < budget_s, (
        f"{tree.num_nodes}-node tree took {elapsed:.1f}s, above the seconds-scale budget"
    )
    assert (engine.last.sat_calls, engine.last.conflicts) == (SAT_CALLS[num_events], 0)
    assert sum(propagations) == PROPAGATIONS[num_events]

    _series.append(
        f"events={num_events:5d}  nodes={tree.num_nodes:5d}  vars={result.num_vars:6d}  "
        f"hard={result.num_hard:6d}  |MPMCS|={result.size:3d}  "
        f"P={result.probability:9.3e}  sat_calls={engine.last.sat_calls:3d}  "
        f"time={elapsed:6.2f}s"
    )
    if num_events == SIZES[-1][0]:
        emit(
            "E4 — scalability of the MaxSAT pipeline on random fault trees "
            "(paper claim: thousands of nodes in seconds)",
            _series,
        )
