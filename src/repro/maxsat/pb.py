"""Pseudo-Boolean (weighted sum) constraint encoding.

The exact mitigation planner (:mod:`repro.scenarios.planner`) asserts
constraints of the form ``sum(w_i * r_i) <= bound`` over literals ``r_i`` with
integer weights ``w_i``.  We use the *Generalized Totalizer Encoding* (GTE)
[Joshi, Martins & Manquinho 2015]: a balanced merge tree in which every node
carries one indicator variable per distinct reachable partial sum.  Sums above
the bound of interest are collapsed into a single "overflow" indicator, which
keeps the encoding compact when the bound is small.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.exceptions import SolverError
from repro.logic.cnf import Literal

__all__ = ["GeneralizedTotalizer", "encode_weighted_at_most"]


class GeneralizedTotalizer:
    """Generalized totalizer over weighted literals.

    Parameters
    ----------
    terms:
        Sequence of ``(weight, literal)`` pairs with positive integer weights.
    bound:
        Sums strictly greater than ``bound`` are collapsed into a single
        overflow indicator; the encoding can therefore only be used to assert
        ``sum <= k`` for ``k <= bound``.
    new_var / add_clause:
        Callable allocating a fresh variable index, and callable receiving
        each generated clause (a list of literals).
    """

    def __init__(
        self,
        terms: Sequence[Tuple[int, Literal]],
        bound: int,
        new_var: Callable[[], int],
        add_clause: Callable[[List[Literal]], None],
    ) -> None:
        if not terms:
            raise SolverError("generalized totalizer requires at least one term")
        if bound < 0:
            raise SolverError("bound must be non-negative")
        for weight, _ in terms:
            if weight <= 0:
                raise SolverError("weights must be positive integers")
        self._new_var = new_var
        self._add_clause = add_clause
        self.bound = bound
        # Root node: mapping  partial-sum -> indicator literal  (sum >= value).
        # The special key ``bound + 1`` represents "sum exceeds the bound".
        self.sums: Dict[int, Literal] = self._build(list(terms))

    # -- tree construction --------------------------------------------------------

    def _build(self, terms: List[Tuple[int, Literal]]) -> Dict[int, Literal]:
        if len(terms) == 1:
            weight, lit = terms[0]
            return {self._clip(weight): lit}
        mid = len(terms) // 2
        left = self._build(terms[:mid])
        right = self._build(terms[mid:])
        return self._merge(left, right)

    def _clip(self, value: int) -> int:
        """Collapse sums above the bound onto the overflow bucket ``bound + 1``."""
        return value if value <= self.bound else self.bound + 1

    def _merge(self, left: Dict[int, Literal], right: Dict[int, Literal]) -> Dict[int, Literal]:
        # Possible sums of the merged node.
        values = set()
        for lv in left:
            values.add(self._clip(lv))
        for rv in right:
            values.add(self._clip(rv))
        for lv in left:
            for rv in right:
                values.add(self._clip(lv + rv))

        node: Dict[int, Literal] = {value: self._new_var() for value in sorted(values)}

        # Counting clauses: child sums imply parent sums.
        for lv, llit in left.items():
            self._add_clause([-llit, node[self._clip(lv)]])
        for rv, rlit in right.items():
            self._add_clause([-rlit, node[self._clip(rv)]])
        for lv, llit in left.items():
            for rv, rlit in right.items():
                self._add_clause([-llit, -rlit, node[self._clip(lv + rv)]])

        # Ordering clauses: an indicator for a larger sum implies indicators for
        # every smaller sum, keeping the unary structure consistent.
        ordered = sorted(node)
        for smaller, larger in zip(ordered, ordered[1:]):
            self._add_clause([-node[larger], node[smaller]])
        return node

    # -- constraint emission --------------------------------------------------------

    def assert_at_most(self, k: int) -> None:
        """Add unit clauses asserting that the weighted sum is at most ``k``."""
        if k > self.bound:
            raise SolverError(
                f"cannot assert sum <= {k}: encoding was built with bound {self.bound}"
            )
        for value, lit in self.sums.items():
            if value > k:
                self._add_clause([-lit])


def encode_weighted_at_most(
    terms: Sequence[Tuple[int, Literal]],
    k: int,
    new_var: Callable[[], int],
    add_clause: Callable[[List[Literal]], None],
) -> None:
    """Add clauses enforcing ``sum(w_i * l_i) <= k``.

    Terms whose individual weight already exceeds ``k`` force their literal to
    false directly; the remaining terms go through the generalized totalizer.
    """
    if k < 0:
        raise SolverError("bound must be non-negative")
    remaining: List[Tuple[int, Literal]] = []
    for weight, lit in terms:
        if weight > k:
            add_clause([-lit])
        else:
            remaining.append((weight, lit))
    if not remaining:
        return
    total = sum(weight for weight, _ in remaining)
    if total <= k:
        return
    gte = GeneralizedTotalizer(remaining, k, new_var, add_clause)
    gte.assert_at_most(k)
