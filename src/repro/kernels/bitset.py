"""Bitset and buffer kernels for the SAT/MaxSAT solver layer.

Unlike the floating-point tiers in :mod:`repro.kernels.bdd_eval`, these
kernels are tier-independent: Python's arbitrary-precision integers *are* the
fast packed-bitset implementation (one machine-word ``AND``/``OR`` per 64
cores), and the stdlib :mod:`array` module provides the contiguous signed
byte buffer the CDCL solver assigns through.  They live here so every solver
hot loop draws its data layout from one place, with a deliberately naive
set-based reference (:func:`set_based_hitting_set`) kept as the oracle the
property tests compare the packed search against.

Contents:

* :class:`CoverageIndex` — packed-int coverage masks over a family of sets:
  each element's coverage and the mask of cores a set of elements hits (the
  ``unhit_mask`` machinery of :mod:`repro.maxsat.hitting_set`'s search).
* :func:`set_based_hitting_set` — reference minimum-cost hitting set using
  plain sets of core indices; exponential bookkeeping, test-only.
* :func:`make_assign_buffer` — the CDCL assignment buffer (contiguous signed
  bytes instead of a list of ints).
* :func:`popcount` — portable bit population count.
"""

from __future__ import annotations

from array import array
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    MutableSequence,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "CoverageIndex",
    "make_assign_buffer",
    "popcount",
    "set_based_hitting_set",
]


def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (non-negative)."""
    return bin(mask).count("1")


def make_assign_buffer(initial: Sequence[int] = (0,)) -> MutableSequence[int]:
    """Contiguous signed-byte buffer for CDCL variable assignments.

    Values are the solver's ternary encoding (``0`` unassigned, ``1`` true,
    ``-1`` false); slot 0 is unused, matching 1-based variable indexing.
    Supports ``append`` for :meth:`CDCLSolver.new_var` growth.
    """
    return array("b", initial)


class CoverageIndex:
    """Packed-int coverage masks for a family of sets ("cores").

    Bit ``i`` of every mask refers to core ``i`` (in input order).  An
    element's *coverage* is the mask of cores containing it, so testing
    whether a partial choice still misses a core is one integer ``AND`` and
    extending a branch is ``unhit & ~coverage[element]`` — two integer ops
    instead of a scan over the core list, regardless of how many cores there
    are.
    """

    __slots__ = ("cores", "coverage", "all_mask")

    def __init__(self, cores: Sequence[FrozenSet[Hashable]]) -> None:
        self.cores: Tuple[FrozenSet[Hashable], ...] = tuple(cores)
        coverage: Dict[Hashable, int] = {}
        for index, core in enumerate(self.cores):
            bit = 1 << index
            for element in core:
                coverage[element] = coverage.get(element, 0) | bit
        self.coverage = coverage
        #: Mask with one bit per core: the "every core unhit" start state.
        self.all_mask = (1 << len(self.cores)) - 1

    def __len__(self) -> int:
        return len(self.cores)

    def mask_of(self, elements: Iterable[Hashable]) -> int:
        """Mask of all cores hit by ``elements`` (unknown elements hit none)."""
        coverage = self.coverage
        mask = 0
        for element in elements:
            mask |= coverage.get(element, 0)
        return mask


def set_based_hitting_set(
    cores: Sequence[FrozenSet[Hashable]],
    weights: Dict[Hashable, int],
) -> Tuple[Set[Hashable], int]:
    """Reference minimum-cost hitting set using plain set bookkeeping.

    Branch-and-bound over sets of *core indices* instead of packed masks —
    deliberately simple and obviously correct, used as the oracle the
    property tests compare :func:`repro.maxsat.hitting_set.
    minimum_cost_hitting_set` (the packed-int production search) against.
    Only suitable for small instances.
    """
    if not cores:
        return set(), 0

    sorted_cores = [sorted(core, key=lambda lit: weights.get(lit, 0)) for core in cores]
    best_set: Optional[Set[Hashable]] = None
    best_cost = sum(weights.get(lit, 0) for core in cores for lit in core) + 1

    def search(chosen: Set[Hashable], cost: int, unhit: Set[int]) -> None:
        nonlocal best_set, best_cost
        if cost >= best_cost:
            return
        if not unhit:
            best_set, best_cost = set(chosen), cost
            return
        core_index = min(unhit, key=lambda i: len(sorted_cores[i]))
        for element in sorted_cores[core_index]:
            new_cost = cost + weights.get(element, 0)
            if new_cost >= best_cost:
                continue
            still_unhit = {i for i in unhit if element not in cores[i]}
            chosen.add(element)
            search(chosen, new_cost, still_unhit)
            chosen.discard(element)

    search(set(), 0, set(range(len(cores))))
    assert best_set is not None  # every core is non-empty -> some cover exists
    return best_set, best_cost


# Re-exported for the solver layer; intentionally a List alias so callers can
# type against MutableSequence[int] without importing array directly.
AssignBuffer = MutableSequence[int]
