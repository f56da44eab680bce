"""Parallel MaxSAT portfolio (paper Step 5).

The paper observes that individual (Max)SAT solvers behave very differently
across instances, and therefore runs *multiple pre-configured solvers in
parallel, picking up the solution of the solver that finishes first*.  This
module reproduces that architecture:

* a :class:`PortfolioSolver` holds a list of heterogeneous engines (by
  default RC2, then the implicit hitting set engine);
* ``solve`` runs the engines on the same instance — sequentially in list
  order (default: the engines are pure Python, so in-process threads would
  only share one interpreter lock), or in one worker process per engine
  (true OS-level parallelism, the original tool's architecture);
* the first engine to return a conclusive result (OPTIMUM or UNSATISFIABLE)
  wins; its result is returned together with a :class:`PortfolioReport`
  recording per-engine timings.  Sequential mode never starts the engines
  after the winner; process mode terminates the losers still running.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, SolverError
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.hitting_set import HittingSetEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.rc2 import RC2Engine
from repro.maxsat.result import MaxSATResult, MaxSATStatus

__all__ = ["PortfolioSolver", "PortfolioReport", "default_engines"]

_VALID_MODES = ("sequential", "process")


def default_engines() -> List[MaxSATEngine]:
    """The default engine line-up used by the MPMCS pipeline.

    Two different algorithms: core-guided OLL (RC2) and implicit hitting set.
    Sequential mode runs the hitting set engine only if RC2 is inconclusive;
    process mode races the two.
    """
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
        Seconds each finished engine ran (terminated losers are absent).
    engine_statuses:
        Final status string per engine (``optimum``, ``unknown``, ``error`` ...).
    total_time:
        Wall-clock duration of the whole portfolio run.
    """

    winner: str
    result: MaxSATResult
    engine_times: Dict[str, float] = field(default_factory=dict)
    engine_statuses: Dict[str, str] = field(default_factory=dict)
    total_time: float = 0.0


def _run_engine_in_process(
    engine: MaxSATEngine, instance: WPMaxSATInstance, writer: Connection
) -> None:
    """Body of one portfolio worker process: send back the result or the error."""
    try:
        writer.send(engine.solve(instance))
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        writer.send(f"error: {exc}")


class PortfolioSolver:
    """Run several MaxSAT engines on the same instance; first conclusive wins.

    Parameters
    ----------
    engines:
        Engine configurations to race.  Defaults to :func:`default_engines`.
    mode:
        ``"sequential"`` (default) runs the engines one after another in list
        order and returns the first conclusive result without starting the
        rest; ``"process"`` races one OS process per engine and terminates
        the losers (the original tool's architecture, at the price of a
        process start per engine and solve).
    """

    def __init__(
        self,
        engines: Optional[Sequence[MaxSATEngine]] = None,
        *,
        mode: str = "sequential",
    ) -> None:
        if mode not in _VALID_MODES:
            raise ConfigurationError(
                f"invalid portfolio mode {mode!r}; expected one of {_VALID_MODES}"
            )
        self.engines: List[MaxSATEngine] = list(engines) if engines is not None else default_engines()
        if not self.engines:
            raise ConfigurationError("portfolio requires at least one engine")
        names = [engine.name for engine in self.engines]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"portfolio engine names must be unique, got {names}")
        self.mode = mode
        #: Optional external cooperative-cancellation hook: a zero-argument
        #: callable returning True when the *whole* portfolio should stop
        #: (the analysis service wires a job's cancel/timeout guard here).
        #: Honoured by sequential mode only — engines in process mode run in
        #: their own processes, so a live callable cannot follow them there.
        self.external_stop: "Optional[Callable[[], bool]]" = None

    # -- public API ------------------------------------------------------------

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        """Solve ``instance`` and return only the winning result."""
        return self.solve_with_report(instance).result

    def solve_with_report(self, instance: WPMaxSATInstance) -> PortfolioReport:
        """Solve ``instance`` and return the winning result plus per-engine data."""
        if self.mode == "process":
            return self._solve_process(instance)
        return self._solve_sequential(instance)

    # -- sequential mode ------------------------------------------------------------

    def _solve_sequential(self, instance: WPMaxSATInstance) -> PortfolioReport:
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

    # -- process mode -----------------------------------------------------------------

    def _solve_process(self, instance: WPMaxSATInstance) -> PortfolioReport:
        start = time.perf_counter()
        times: Dict[str, float] = {}
        statuses: Dict[str, str] = {}
        results: Dict[str, MaxSATResult] = {}
        workers: Dict[Connection, Tuple[str, multiprocessing.Process]] = {}
        try:
            # The platform's default start method (fork on Linux): a spawned
            # worker re-imports the package, which costs about 0.3 s per solve.
            for engine in self.engines:
                reader, writer = multiprocessing.Pipe(duplex=False)
                worker = multiprocessing.Process(
                    target=_run_engine_in_process, args=(engine, instance, writer), daemon=True
                )
                worker.start()
                # Only the child may hold the write end, so its exit reads as EOF.
                writer.close()
                workers[reader] = (engine.name, worker)
            pending = list(workers)
            conclusive = False
            while pending and not conclusive:
                for reader in wait(pending):
                    pending.remove(reader)
                    name = workers[reader][0]
                    try:
                        outcome = reader.recv()
                    except EOFError:
                        outcome = "error: engine process exited without a result"
                    if isinstance(outcome, str):
                        statuses[name] = outcome
                        continue
                    times[name] = outcome.solve_time
                    statuses[name] = outcome.status.value
                    results[name] = outcome
                    conclusive = conclusive or outcome.status is not MaxSATStatus.UNKNOWN
        finally:
            # The losers are still solving: stop them rather than wait for them.
            for reader, (_, worker) in workers.items():
                worker.terminate()
                worker.join()
                reader.close()

        winner_name, winner_result = self._pick_winner(results, times)
        return PortfolioReport(
            winner=winner_name,
            result=winner_result,
            engine_times=times,
            engine_statuses=statuses,
            total_time=time.perf_counter() - start,
        )

    @staticmethod
    def _pick_winner(
        results: Dict[str, MaxSATResult], times: Dict[str, float]
    ) -> Tuple[str, MaxSATResult]:
        """Pick the conclusive result with the shortest solve time."""
        conclusive = {
            name: result
            for name, result in results.items()
            if result.status is not MaxSATStatus.UNKNOWN
        }
        if not conclusive:
            raise SolverError("no portfolio engine produced a conclusive result")
        winner_name = min(conclusive, key=lambda name: times.get(name, float("inf")))
        return winner_name, conclusive[winner_name]
