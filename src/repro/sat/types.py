"""Common result types and the abstract interface shared by SAT solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from repro.exceptions import SolverError
from repro.logic.cnf import Literal

__all__ = ["SatStatus", "SatResult", "BaseSatSolver"]


class SatStatus(enum.Enum):
    """Outcome of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatResult:
    """Result of a single :meth:`BaseSatSolver.solve` call.

    Attributes
    ----------
    status:
        Whether the instance (under the given assumptions) is satisfiable.
    model:
        A total assignment ``variable -> bool`` when satisfiable, else ``None``.
    core:
        When unsatisfiable under assumptions, a subset of the assumption
        literals that is sufficient for unsatisfiability (the *failed
        assumptions* / unsat core).  Empty when the instance is unsatisfiable
        on its own.
    conflicts / decisions / propagations:
        Search statistics, useful for the benchmark harness.
    """

    status: SatStatus
    model: Optional[Dict[int, bool]] = None
    core: FrozenSet[Literal] = frozenset()
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT

    def value(self, var: int) -> bool:
        """Return the model value of ``var`` (false when unassigned)."""
        if self.model is None:
            raise SolverError("no model available: instance was not satisfiable")
        return self.model.get(var, False)


class BaseSatSolver:
    """Interface implemented by the CDCL solver (and the tests' DPLL oracle).

    Solvers are incremental: clauses may be added between ``solve`` calls, and
    each call may carry *assumption literals* that are temporarily forced true.
    """

    def add_clause(self, literals: Sequence[Literal]) -> None:
        raise NotImplementedError

    def solve(self, assumptions: Iterable[Literal] = ()) -> SatResult:
        raise NotImplementedError
