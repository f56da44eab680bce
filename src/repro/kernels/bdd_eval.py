"""Batch BDD probability evaluation kernels (one per dispatch tier).

Input contract (shared by every tier): a :class:`repro.bdd.probability.FlatBDD`
node-array form and a sequence of per-scenario probability rows, each row
listing the probability of ``flat.events[j]`` at column ``j``.  Output: one
``P(top)`` float per scenario.

Every tier performs the same per-node recurrence in the same children-first
order::

    P(node) = p * P(high) + (1 - p) * P(low)

with the identical IEEE-754 operation sequence (multiply, subtract-from-one,
multiply, add), so both tiers return bit-for-bit equal doubles.  The
``python`` tier is the reference oracle; the ``numpy`` tier flips the loop
structure — one vectorised pass *across all scenarios* per node — which is
where the batch speedup comes from on wide scenario grids.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.numerics import require_numpy

__all__ = [
    "eval_bdd_batch_numpy",
    "eval_bdd_batch_python",
]


def eval_bdd_batch_python(flat, rows: Sequence[Sequence[float]]) -> List[float]:
    """Reference tier: plain-list forward pass, one scenario at a time."""
    var_index, low, high, root = flat.var_index, flat.low, flat.high, flat.root
    out: List[float] = []
    for row in rows:
        values = [0.0, 1.0]
        append = values.append
        for index, lo, hi in zip(var_index, low, high):
            p = row[index]
            append(p * values[hi] + (1.0 - p) * values[lo])
        out.append(values[root])
    return out


def eval_bdd_batch_numpy(flat, rows: Sequence[Sequence[float]]) -> List[float]:
    """numpy tier: per node, one vectorised step across the whole scenario grid."""
    np = require_numpy("the numpy kernel tier")
    num_rows = len(rows)
    if num_rows == 0:
        return []
    if not len(flat.var_index):
        return [1.0 if flat.root == 1 else 0.0] * num_rows
    # Event-major layout: ``grid[j]`` is the contiguous probability vector of
    # event ``j`` across all scenarios, and ``complement`` precomputes the
    # elementwise ``1.0 - p`` once (the identical IEEE-754 subtraction the
    # python tier performs per node, hoisted out of the node loop).
    grid = np.ascontiguousarray(np.asarray(rows, dtype=np.float64).T)
    complement = 1.0 - grid
    values = np.empty((flat.num_nodes, num_rows), dtype=np.float64)
    values[0] = 0.0
    values[1] = 1.0
    scratch = np.empty(num_rows, dtype=np.float64)
    multiply, add = np.multiply, np.add
    position = 2
    for index, lo, hi in zip(flat.var_index, flat.low, flat.high):
        # p * P(high) + (1 - p) * P(low), in the scalar operand order, with
        # preallocated output buffers so the loop never allocates.
        target = values[position]
        multiply(grid[index], values[hi], out=target)
        multiply(complement[index], values[lo], out=scratch)
        add(target, scratch, out=target)
        position += 1
    return values[flat.root].tolist()
