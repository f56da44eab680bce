"""Result types returned by every MaxSAT engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import SolverError

__all__ = ["MaxSATStatus", "MaxSATResult"]


class MaxSATStatus(enum.Enum):
    """Outcome of a MaxSAT solve."""

    OPTIMUM = "optimum"
    UNSATISFIABLE = "unsatisfiable"  # the hard clauses alone are unsatisfiable
    UNKNOWN = "unknown"              # budget exhausted before proving optimality


@dataclass
class MaxSATResult:
    """Result of a Weighted Partial MaxSAT solve.

    Attributes
    ----------
    status:
        Whether an optimum was found, the hard clauses were unsatisfiable, or
        the solve was inconclusive (budget exhausted).
    model:
        An optimal assignment ``variable -> bool`` when ``status`` is OPTIMUM.
    cost:
        Scaled integer cost (total scaled weight of falsified soft clauses).
    float_cost:
        The sum of the float weights of the falsified soft clauses.
    engine:
        Name of the engine configuration that produced the result
        (``rc2+hitting-set`` when RC2 handed the solve over).
    solve_time / sat_calls / conflicts:
        Performance counters for the benchmark harness.
    """

    status: MaxSATStatus
    model: Optional[Dict[int, bool]] = None
    cost: int = 0
    float_cost: float = 0.0
    engine: str = ""
    solve_time: float = 0.0
    sat_calls: int = 0
    conflicts: int = 0

    @property
    def is_optimum(self) -> bool:
        return self.status is MaxSATStatus.OPTIMUM

    def value(self, var: int) -> bool:
        """Return the model value of ``var`` (false when unassigned)."""
        if self.model is None:
            raise SolverError("no model available")
        return self.model.get(var, False)
