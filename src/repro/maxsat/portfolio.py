"""Sequential MaxSAT portfolio: the paper's Step 5 without the race.

The paper runs several pre-configured MaxSAT solvers in parallel and keeps
the answer of the first to finish.  Measured here, the race lost to the
module-by-module route on 172 of 173 searched trees, so nothing in the
library builds a :class:`PortfolioSolver` any more: the MPMCS pipeline
solves module by module, whole-tree solves take one engine (RC2, which
hands a solve that outgrows its core budget to the hitting set engine), and
the mitigation planner solves with RC2.  What is left runs a list of engines
one after another and returns the first conclusive result, with a
:class:`PortfolioReport` of per-engine timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError, SolverError
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.hitting_set import HittingSetEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.rc2 import RC2Engine
from repro.maxsat.result import MaxSATResult, MaxSATStatus

__all__ = ["PortfolioSolver", "PortfolioReport", "default_engines"]


def default_engines() -> List[MaxSATEngine]:
    """Two different algorithms: core-guided OLL (RC2), then implicit
    hitting set, run only if RC2 is inconclusive."""
    return [RC2Engine(), HittingSetEngine()]


@dataclass
class PortfolioReport:
    """Record of one portfolio run.

    Attributes
    ----------
    winner:
        Name of the engine whose result was returned.
    result:
        The winning result.
    engine_times:
        Seconds each engine that ran took.
    engine_statuses:
        Final status string per engine that ran (``optimum``, ``unknown``,
        ``error: ...``).
    total_time:
        Wall-clock duration of the whole portfolio run.
    """

    winner: str
    result: MaxSATResult
    engine_times: Dict[str, float] = field(default_factory=dict)
    engine_statuses: Dict[str, str] = field(default_factory=dict)
    total_time: float = 0.0


class PortfolioSolver:
    """Run MaxSAT engines on one instance in list order; first conclusive wins.

    The engines after the first conclusive one never start.

    Parameters
    ----------
    engines:
        Engines to run, in order.  Defaults to :func:`default_engines`.
    """

    def __init__(self, engines: Optional[Sequence[MaxSATEngine]] = None) -> None:
        self.engines: List[MaxSATEngine] = list(engines) if engines is not None else default_engines()
        if not self.engines:
            raise ConfigurationError("portfolio requires at least one engine")
        names = [engine.name for engine in self.engines]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"portfolio engine names must be unique, got {names}")
        #: Optional cooperative-cancellation hook: a zero-argument callable
        #: returning True when the whole portfolio should stop; every engine
        #: polls it.
        self.external_stop: "Optional[Callable[[], bool]]" = None

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        """Solve ``instance`` and return only the winning result."""
        return self.solve_with_report(instance).result

    def solve_with_report(self, instance: WPMaxSATInstance) -> PortfolioReport:
        """Solve ``instance`` and return the winning result plus per-engine data."""
        start = time.perf_counter()
        times: Dict[str, float] = {}
        statuses: Dict[str, str] = {}
        for engine in self.engines:
            engine.stop_check = self.external_stop
            engine_start = time.perf_counter()
            try:
                result = engine.solve(instance)
                statuses[engine.name] = result.status.value
            except SolverError as exc:
                statuses[engine.name] = f"error: {exc}"
                continue
            finally:
                times[engine.name] = time.perf_counter() - engine_start
            if result.status is not MaxSATStatus.UNKNOWN:
                return PortfolioReport(
                    winner=engine.name,
                    result=result,
                    engine_times=times,
                    engine_statuses=statuses,
                    total_time=time.perf_counter() - start,
                )
        raise SolverError("no portfolio engine produced a conclusive result")
