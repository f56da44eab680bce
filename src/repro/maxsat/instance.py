"""Weighted Partial MaxSAT instance model.

An instance consists of *hard* clauses that every solution must satisfy and
*soft* clauses, each carrying a positive weight; the objective is to find an
assignment satisfying all hard clauses while minimising the total weight of
falsified soft clauses.

Weights may be provided as floats (the MPMCS pipeline produces real-valued
``-log p`` weights, paper Step 3).  Internally every weight is scaled to an
integer using a configurable ``precision`` so that the MaxSAT algorithms can
perform exact arithmetic; results report both the scaled integer cost and
the original-scale float cost.  A caller may instead give a soft clause its
integer weight outright: the MPMCS encoding gives each event the
:func:`objective_weight` that makes the canonical order the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.logic.cnf import Literal

__all__ = [
    "SoftClause",
    "SolverMemo",
    "WPMaxSATInstance",
    "DEFAULT_PRECISION",
    "objective_weight",
    "scale_weight",
]

#: Default scale factor applied to float weights (1e-9 weight resolution).
DEFAULT_PRECISION = 10**9


def scale_weight(weight: float, precision: int) -> int:
    """Quantise a float weight to the integer solver scale (rounding, min 1).

    The single definition of weight quantisation: every consumer — instance
    construction, the MPMCS objective of both MaxSAT routes — must
    agree bit-for-bit on this mapping, or two solvers could disagree on
    which of two near-tied optima is cheaper.
    """
    if weight <= 0 or not math.isfinite(weight):
        raise SolverError(f"weight must be positive and finite, got {weight}")
    return max(1, int(round(weight * precision)))


def objective_weight(weight: float, rank: int, count: int, precision: int) -> int:
    """Integer MPMCS objective weight of an event whose name has sorted ``rank``.

    ``W(e) = ((s(e)·(N+1) + 1) << (N+1)) − (1 << (N − r(e)))`` with
    ``s(e) = scale_weight(weight, precision)``, ``N = count`` events and
    ``r(e) = rank`` (0-based).  Summed over a set ``C`` of events this is
    ``((s(C)·(N+1) + |C|) << (N+1)) − Σ 2^(N−r(e))``, and the subtracted part
    is below ``2^(N+1)``, so the sums order sets by scaled cost, then size,
    then sorted names (Boolean lexicographic optimisation, Marques-Silva et
    al., AMAI 2011), and no two sets cost the same.  Every weight is
    positive, so an optimum stays an inclusion-minimal cut set.
    """
    shift = count + 1
    return ((scale_weight(weight, precision) * shift + 1) << shift) - (1 << (count - rank))


def _checked_clause(literals: Sequence[Literal]) -> Tuple[Literal, ...]:
    """``literals`` as a tuple, each checked to be a non-zero, non-bool ``int``."""
    clause = tuple(literals)
    for lit in clause:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise SolverError(f"invalid literal {lit!r}: literals are non-zero integers")
    return clause


class SolverMemo:
    """A slot for one solver loaded with an instance's first hard clauses.

    :meth:`WPMaxSATInstance.keep_loaded_solver` gives an instance one and its
    copies share it; hard clauses are only ever appended, so every holder's
    first ``num_hard`` hard clauses are the ones it was made for.
    :func:`~repro.maxsat.engine.new_sat_solver` fills ``solver`` on first
    use, over the first ``num_vars`` variables, and hands out copies of it;
    nothing solves on it.  A pickle keeps the slot but not the solver.
    """

    __slots__ = ("num_vars", "num_hard", "solver")

    def __init__(self, num_vars: int, num_hard: int) -> None:
        self.num_vars = num_vars
        self.num_hard = num_hard
        self.solver = None

    def __reduce__(self):
        return SolverMemo, (self.num_vars, self.num_hard)


@dataclass(frozen=True)
class SoftClause:
    """A soft clause with its original float weight and scaled integer weight."""

    literals: Tuple[Literal, ...]
    weight: float
    scaled_weight: int
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.literals:
            raise SolverError("soft clause must contain at least one literal")
        if self.weight <= 0 or not math.isfinite(self.weight):
            raise SolverError(f"soft clause weight must be positive and finite, got {self.weight}")
        if self.scaled_weight <= 0:
            raise SolverError("scaled soft clause weight must be positive")


class WPMaxSATInstance:
    """A Weighted Partial MaxSAT instance.

    Parameters
    ----------
    precision:
        Scale factor used to convert float weights to integers.  The default of
        ``10**9`` keeps nine decimal digits, far below the probability
        resolution that matters for fault-tree analysis.
    """

    def __init__(self, *, precision: int = DEFAULT_PRECISION) -> None:
        if precision <= 0:
            raise SolverError("precision must be a positive integer")
        self.precision = precision
        self._hard: List[Tuple[Literal, ...]] = []
        self._soft: List[SoftClause] = []
        self._num_vars = 0
        self._solver_memo: Optional[SolverMemo] = None

    # -- construction ---------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def solver_memo(self) -> Optional[SolverMemo]:
        """The memo of a solver loaded with this instance's first hard
        clauses, if kept."""
        return self._solver_memo

    def keep_loaded_solver(self) -> None:
        """Keep one loaded solver for the current hard clauses, shared by copies.

        For an instance whose copies are solved many times over, such as a
        structure's memoised hard clauses: each engine then copies one
        solver (:meth:`~repro.sat.cdcl.CDCLSolver.copy`) instead of loading
        every clause again.  Hard clauses added later are loaded on top of
        the copy.
        """
        self._solver_memo = SolverMemo(self._num_vars, len(self._hard))

    @property
    def hard(self) -> Tuple[Tuple[Literal, ...], ...]:
        return tuple(self._hard)

    @property
    def soft(self) -> Tuple[SoftClause, ...]:
        return tuple(self._soft)

    @property
    def num_hard(self) -> int:
        return len(self._hard)

    @property
    def num_soft(self) -> int:
        return len(self._soft)

    def ensure_num_vars(self, count: int) -> None:
        self._num_vars = max(self._num_vars, count)

    def new_var(self) -> int:
        self._num_vars += 1
        return self._num_vars

    def add_hard(self, literals: Sequence[Literal]) -> None:
        """Add a hard (mandatory) clause.

        The one place a hard clause is checked before it reaches a solver
        (:func:`~repro.maxsat.engine.new_sat_solver` loads the clauses as
        they are stored).
        """
        clause = _checked_clause(literals)
        if not clause:
            raise SolverError("hard clause cannot be empty")
        self.ensure_num_vars(max(map(abs, clause)))
        self._hard.append(clause)

    def add_soft(
        self,
        literals: Sequence[Literal],
        weight: float,
        *,
        label: Optional[str] = None,
        scaled_weight: Optional[int] = None,
    ) -> SoftClause:
        """Add a soft clause with the given positive weight.

        The engines optimise ``scaled_weight``, by default
        :func:`scale_weight` of ``weight``; ``weight`` itself is what
        :attr:`~repro.maxsat.result.MaxSATResult.float_cost` sums.
        """
        clause = _checked_clause(literals)
        if clause:
            self.ensure_num_vars(max(map(abs, clause)))
        if scaled_weight is None:
            scaled_weight = scale_weight(weight, self.precision)
        soft = SoftClause(
            literals=clause, weight=float(weight), scaled_weight=scaled_weight, label=label
        )
        self._soft.append(soft)
        return soft

    # -- inspection -------------------------------------------------------------

    def falsified_by(self, model: Mapping[int, bool]) -> List[SoftClause]:
        """The soft clauses ``model`` falsifies."""
        return [
            soft
            for soft in self._soft
            if not any(model.get(abs(lit), False) == (lit > 0) for lit in soft.literals)
        ]

    def cost_of_model(self, model: Mapping[int, bool]) -> int:
        """Scaled cost (total weight of soft clauses falsified) of ``model``."""
        return sum(soft.scaled_weight for soft in self.falsified_by(model))

    def hard_satisfied_by(self, model: Mapping[int, bool]) -> bool:
        """Check whether every hard clause is satisfied by ``model``."""
        for clause in self._hard:
            if not any(model.get(abs(lit), False) == (lit > 0) for lit in clause):
                return False
        return True

    def copy(self) -> "WPMaxSATInstance":
        clone = WPMaxSATInstance(precision=self.precision)
        clone._hard = list(self._hard)
        clone._soft = list(self._soft)
        clone._num_vars = self._num_vars
        clone._solver_memo = self._solver_memo
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WPMaxSATInstance(vars={self._num_vars}, hard={len(self._hard)}, "
            f"soft={len(self._soft)})"
        )
