"""Parallel MaxSAT portfolio (paper Step 5).

The paper observes that individual (Max)SAT solvers behave very differently
across instances, and therefore runs *multiple pre-configured solvers in
parallel, picking up the solution of the solver that finishes first*.  This
module reproduces that architecture:

* a :class:`PortfolioSolver` holds a list of heterogeneous engines (by
  default RC2, linear SAT-UNSAT search and Fu–Malik);
* ``solve`` launches every engine on the same instance — in worker threads
  (default, with cooperative cancellation of the losers), in worker processes
  (true OS-level parallelism, matching the original tool most closely), or
  sequentially (deterministic, useful for tests and ablation benchmarks);
* the first engine to return a conclusive result (OPTIMUM or UNSATISFIABLE)
  wins; its result is returned together with a :class:`PortfolioReport`
  recording per-engine timings.  Sequential mode stops at the first
  conclusive engine in list order, so the later engines never run.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, SolverError
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.fumalik import FuMalikEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.linear import LinearSearchEngine
from repro.maxsat.rc2 import RC2Engine
from repro.maxsat.result import MaxSATResult, MaxSATStatus

__all__ = ["PortfolioSolver", "PortfolioReport", "default_engines"]

_VALID_MODES = ("thread", "process", "sequential")


def default_engines() -> List[MaxSATEngine]:
    """The default heterogeneous engine line-up used by the MPMCS pipeline."""
    return [RC2Engine(), LinearSearchEngine(), FuMalikEngine()]


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
        Wall-clock seconds each engine ran before finishing or being cancelled
        (engines cancelled cooperatively report the time until cancellation).
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


def _run_engine_in_process(engine: MaxSATEngine, instance: WPMaxSATInstance) -> MaxSATResult:
    """Top-level helper (picklable) executed inside portfolio worker processes."""
    return engine.solve(instance)


class PortfolioSolver:
    """Run several MaxSAT engines on the same instance; first finisher wins.

    Parameters
    ----------
    engines:
        Engine configurations to race.  Defaults to :func:`default_engines`.
    mode:
        ``"thread"`` (default) races the engines in threads with cooperative
        cancellation; ``"process"`` uses one OS process per engine (closest to
        the original tool's architecture, at the price of fork/pickle
        overhead); ``"sequential"`` runs engines one after another in list
        order and returns the first conclusive result without starting the
        rest (used by deterministic tests and the ablation benchmark).
    """

    def __init__(
        self,
        engines: Optional[Sequence[MaxSATEngine]] = None,
        *,
        mode: str = "thread",
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
        #: Honoured by the sequential and thread modes — engines in process
        #: mode are pickled into their workers, so a live callable cannot
        #: follow them there.
        self.external_stop: "Optional[Callable[[], bool]]" = None

    # -- public API ------------------------------------------------------------

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        """Solve ``instance`` and return only the winning result."""
        return self.solve_with_report(instance).result

    def solve_with_report(self, instance: WPMaxSATInstance) -> PortfolioReport:
        """Solve ``instance`` and return the winning result plus per-engine data."""
        if self.mode == "sequential":
            return self._solve_sequential(instance)
        if self.mode == "process":
            return self._solve_process(instance)
        return self._solve_thread(instance)

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

    # -- thread mode -------------------------------------------------------------------

    def _solve_thread(self, instance: WPMaxSATInstance) -> PortfolioReport:
        start = time.perf_counter()
        stop_event = threading.Event()
        times: Dict[str, float] = {}
        statuses: Dict[str, str] = {}
        results: Dict[str, MaxSATResult] = {}
        lock = threading.Lock()

        external = self.external_stop

        def run(engine: MaxSATEngine) -> None:
            if external is None:
                engine.stop_check = stop_event.is_set
            else:
                engine.stop_check = lambda: stop_event.is_set() or external()
            engine_start = time.perf_counter()
            try:
                result = engine.solve(instance)
            except SolverError as exc:
                with lock:
                    statuses[engine.name] = f"error: {exc}"
                    times[engine.name] = time.perf_counter() - engine_start
                return
            with lock:
                times[engine.name] = time.perf_counter() - engine_start
                statuses[engine.name] = result.status.value
                results[engine.name] = result
                if result.status is not MaxSATStatus.UNKNOWN:
                    stop_event.set()

        threads = [
            threading.Thread(target=run, args=(engine,), name=f"portfolio-{engine.name}")
            for engine in self.engines
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        winner_name, winner_result = self._pick_winner(results, times)
        return PortfolioReport(
            winner=winner_name,
            result=winner_result,
            engine_times=times,
            engine_statuses=statuses,
            total_time=time.perf_counter() - start,
        )

    # -- process mode -----------------------------------------------------------------

    def _solve_process(self, instance: WPMaxSATInstance) -> PortfolioReport:
        start = time.perf_counter()
        times: Dict[str, float] = {}
        statuses: Dict[str, str] = {}
        results: Dict[str, MaxSATResult] = {}

        with concurrent.futures.ProcessPoolExecutor(max_workers=len(self.engines)) as pool:
            futures = {
                pool.submit(_run_engine_in_process, engine, instance): engine.name
                for engine in self.engines
            }
            pending = set(futures)
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                conclusive = False
                for future in done:
                    name = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:  # noqa: BLE001 - report, do not crash
                        statuses[name] = f"error: {exc}"
                        continue
                    times[name] = result.solve_time
                    statuses[name] = result.status.value
                    results[name] = result
                    if result.status is not MaxSATStatus.UNKNOWN:
                        conclusive = True
                if conclusive:
                    for future in pending:
                        future.cancel()
                    break

        winner_name, winner_result = self._pick_winner(results, times)
        return PortfolioReport(
            winner=winner_name,
            result=winner_result,
            engine_times=times,
            engine_statuses=statuses,
            total_time=time.perf_counter() - start,
        )

    # -- shared -------------------------------------------------------------------------

    @staticmethod
    def _pick_winner(
        results: Dict[str, MaxSATResult], times: Dict[str, float]
    ) -> Tuple[str, MaxSATResult]:
        """Pick the fastest conclusive result (OPTIMUM preferred over UNSAT)."""
        conclusive = {
            name: result
            for name, result in results.items()
            if result.status is not MaxSATStatus.UNKNOWN
        }
        if not conclusive:
            raise SolverError("no portfolio engine produced a conclusive result")
        winner_name = min(conclusive, key=lambda name: times.get(name, float("inf")))
        return winner_name, conclusive[winner_name]
