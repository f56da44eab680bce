"""Former MaxSAT re-rank scoring kernels (one per dispatch tier), kept for the benchmark.

Nothing in the library calls these kernels any more.  The batched re-rank
ladder that used them was deleted: a warm
:class:`repro.maxsat.incremental.IncrementalMaxSATSession` now certifies
re-solves from its candidate pool inside ``solve``.  They stay only because
the benchmark's tracing wrapper rebuilds :class:`repro.kernels.KernelSuite`
by field name; they can go once a benchmark-only change drops that wrapper.

* :func:`greedy_lower_bound_*` — the disjoint-core packing bound.  Given a
  family of pairwise-disjoint cores (as event-column index lists), any
  hitting set must pay at least the cheapest element of each core, so
  ``LB_k = Σ_core min_{e ∈ core} W[k][e]`` lower-bounds scenario ``k``'s
  minimum hitting-set cost.  The numpy tier turns the inner ``min`` into one
  vectorised column-wise reduction per core.
* :func:`score_candidates_*` — the cost of every candidate under every
  scenario in one pass: a candidate incidence structure (each candidate as a
  sorted list of event-column indices) against a ``scenarios × events``
  matrix of *scaled integer* weights gives the ``candidates × scenarios``
  score matrix (one int64 matmul on the numpy tier).

All arithmetic is on Python/``int64`` integers (the solver's scaled-weight
domain), so every tier returns **identical** exact values — there is no
floating-point divergence to manage.  The ``python`` tier is the oracle the
property tests compare the numpy tier against.

The numpy tier delegates to the reference implementation when a weight could
overflow signed 64-bit accumulation (absurdly large ``precision`` settings);
results stay exact either way.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.numerics import require_numpy

__all__ = [
    "greedy_lower_bound_numpy",
    "greedy_lower_bound_python",
    "score_candidates_numpy",
    "score_candidates_python",
]

#: Largest per-event scaled weight the numpy tier accepts: a full row sum must
#: stay within int64, so the bound leaves ~2^16 headroom for the event count.
_INT64_SAFE_WEIGHT = 1 << 46


def score_candidates_python(
    candidates: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Reference tier: exact integer candidate scores, plain nested loops.

    ``candidates[i]`` lists the event-column indices of pooled candidate
    ``i``; ``rows[k]`` is scenario ``k``'s scaled-weight row.  Returns the
    ``candidates × scenarios`` score matrix as nested lists.
    """
    out: List[List[int]] = []
    for candidate in candidates:
        members = list(candidate)
        out.append([sum(row[j] for j in members) for row in rows])
    return out


def score_candidates_numpy(
    candidates: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> List[List[int]]:
    """numpy tier: one int64 matmul scores every (candidate, scenario) pair."""
    np = require_numpy("the numpy kernel tier")
    if not candidates:
        return []
    if not rows:
        return [[] for _ in candidates]
    if max((max(row) if row else 0) for row in rows) > _INT64_SAFE_WEIGHT:
        return score_candidates_python(candidates, rows)
    weights = np.asarray(rows, dtype=np.int64)  # scenarios × events
    incidence = np.zeros((len(candidates), weights.shape[1]), dtype=np.int64)
    for index, candidate in enumerate(candidates):
        for j in candidate:
            incidence[index, j] = 1
    return (incidence @ weights.T).tolist()


def greedy_lower_bound_python(
    cores: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> List[int]:
    """Reference tier: per-scenario disjoint-core packing bound."""
    members = [list(core) for core in cores]
    return [sum(min(row[j] for j in core) for core in members) for row in rows]


def greedy_lower_bound_numpy(
    cores: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> List[int]:
    """numpy tier: one vectorised column-wise ``min`` per disjoint core."""
    np = require_numpy("the numpy kernel tier")
    if not rows:
        return []
    if not cores:
        return [0] * len(rows)
    if max((max(row) if row else 0) for row in rows) > _INT64_SAFE_WEIGHT:
        return greedy_lower_bound_python(cores, rows)
    weights = np.asarray(rows, dtype=np.int64)  # scenarios × events
    totals = np.zeros(weights.shape[0], dtype=np.int64)
    for core in cores:
        totals += weights[:, list(core)].min(axis=1)
    return totals.tolist()
