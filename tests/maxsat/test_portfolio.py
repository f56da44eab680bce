"""Unit tests for the parallel MaxSAT portfolio (paper Step 5)."""

import multiprocessing
import time

import pytest

from repro.exceptions import ConfigurationError, SolverError
from repro.maxsat import (
    BruteForceEngine,
    HittingSetEngine,
    MaxSATEngine,
    MaxSATResult,
    MaxSATStatus,
    PortfolioSolver,
    RC2Engine,
    WPMaxSATInstance,
)
from repro.maxsat.portfolio import default_engines


def sample_instance():
    instance = WPMaxSATInstance(precision=1)
    instance.add_hard([1, 2])
    instance.add_hard([2, 3])
    instance.add_soft([-1], 4)
    instance.add_soft([-2], 9)
    instance.add_soft([-3], 2)
    return instance


class TestConfiguration:
    def test_default_engines_are_heterogeneous(self):
        engines = default_engines()
        assert [engine.name for engine in engines] == ["rc2", "hitting-set"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSolver(mode="gpu")

    def test_thread_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSolver(mode="thread")

    def test_default_mode_is_sequential(self):
        assert PortfolioSolver().mode == "sequential"

    def test_empty_engine_list_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSolver(engines=[])

    def test_duplicate_engine_names_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSolver(engines=[RC2Engine(), RC2Engine()])


@pytest.mark.parametrize("mode", ["sequential", "process"])
class TestSolving:
    def test_portfolio_returns_optimum(self, mode):
        portfolio = PortfolioSolver(mode=mode)
        result = portfolio.solve(sample_instance())
        assert result.status is MaxSATStatus.OPTIMUM
        # Optimal cover of clauses (1|2) and (2|3): set x1 and x3 true (4 + 2 = 6),
        # cheaper than x2 alone (9).
        assert result.cost == 6

    def test_report_contains_every_engine(self, mode):
        portfolio = PortfolioSolver(engines=[RC2Engine(), HittingSetEngine()], mode=mode)
        report = portfolio.solve_with_report(sample_instance())
        assert report.winner in {"rc2", "hitting-set"}
        assert report.result.status is MaxSATStatus.OPTIMUM
        assert set(report.engine_statuses) <= {"rc2", "hitting-set"}
        assert report.total_time >= 0.0

    def test_single_engine_portfolio(self, mode):
        portfolio = PortfolioSolver(engines=[RC2Engine()], mode=mode)
        result = portfolio.solve(sample_instance())
        assert result.engine == "rc2"
        assert result.status is MaxSATStatus.OPTIMUM

    def test_unsatisfiable_instance(self, mode):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1])
        instance.add_hard([-1])
        instance.add_soft([2], 1)
        result = PortfolioSolver(mode=mode).solve(instance)
        assert result.status is MaxSATStatus.UNSATISFIABLE

    def test_winner_result_matches_brute_force(self, mode):
        reference = BruteForceEngine().solve(sample_instance())
        result = PortfolioSolver(mode=mode).solve(sample_instance())
        assert result.cost == reference.cost


class TestCostOfSampleInstance:
    def test_reference_cost(self):
        """Pin down the sample instance's optimum so the parametrised tests above
        assert a meaningful value: covering clauses (1|2) and (2|3) costs
        min(weight(x2)=9, weight(x1)+weight(x3)=4+2) = 6."""
        result = BruteForceEngine().solve(sample_instance())
        assert result.cost == 6


class CountingEngine(MaxSATEngine):
    """Stub engine that counts ``solve`` calls and returns a fixed status."""

    def __init__(self, name, status):
        super().__init__()
        self.name = name
        self.status = status
        self.calls = 0

    def solve(self, instance):
        self.calls += 1
        return MaxSATResult(status=self.status, engine=self.name)


class TestSequentialStopsAtFirstConclusive:
    def test_second_engine_never_runs_after_a_conclusive_first(self):
        first = CountingEngine("first", MaxSATStatus.OPTIMUM)
        second = CountingEngine("second", MaxSATStatus.OPTIMUM)
        report = PortfolioSolver(engines=[first, second], mode="sequential").solve_with_report(
            sample_instance()
        )
        assert report.winner == "first"
        assert (first.calls, second.calls) == (1, 0)
        assert set(report.engine_statuses) == {"first"}

    def test_inconclusive_engine_falls_through_to_the_next(self):
        first = CountingEngine("first", MaxSATStatus.UNKNOWN)
        second = CountingEngine("second", MaxSATStatus.OPTIMUM)
        report = PortfolioSolver(engines=[first, second], mode="sequential").solve_with_report(
            sample_instance()
        )
        assert report.winner == "second"
        assert (first.calls, second.calls) == (1, 1)
        assert report.engine_statuses == {"first": "unknown", "second": "optimum"}


class SlowEngine(MaxSATEngine):
    """Stub engine that sleeps before giving up (module level: picklable)."""

    name = "slow"
    SLEEP_S = 3.0

    def solve(self, instance):
        time.sleep(self.SLEEP_S)
        return MaxSATResult(status=MaxSATStatus.UNKNOWN, engine=self.name)


class TestProcessMode:
    def test_returns_at_first_conclusive_result_and_stops_the_losers(self):
        portfolio = PortfolioSolver(engines=[SlowEngine(), RC2Engine()], mode="process")
        start = time.perf_counter()
        report = portfolio.solve_with_report(sample_instance())
        elapsed = time.perf_counter() - start
        assert report.winner == "rc2"
        assert report.result.cost == 6
        assert elapsed < SlowEngine.SLEEP_S / 2
        assert "slow" not in report.engine_statuses
        assert multiprocessing.active_children() == []

    def test_all_inconclusive_raises(self):
        portfolio = PortfolioSolver(
            engines=[CountingEngine("first", MaxSATStatus.UNKNOWN)], mode="process"
        )
        with pytest.raises(SolverError):
            portfolio.solve_with_report(sample_instance())
        assert multiprocessing.active_children() == []


class TestCancellation:
    def test_default_portfolio_polls_external_stop_in_every_engine(self):
        """The service cancels a running analysis through ``external_stop``."""
        portfolio = PortfolioSolver()
        polls = {engine.name: 0 for engine in portfolio.engines}
        running = [None]

        def stop():
            polls[running[0]] += 1
            return True

        for engine in portfolio.engines:

            def solve(instance, name=engine.name, inner=engine.solve):
                running[0] = name
                return inner(instance)

            engine.solve = solve
        portfolio.external_stop = stop
        with pytest.raises(SolverError):
            portfolio.solve_with_report(sample_instance())
        assert all(count >= 1 for count in polls.values()), polls

    @pytest.mark.parametrize(
        "engine_factory",
        [RC2Engine, HittingSetEngine],
        ids=["rc2", "hitting-set"],
    )
    def test_cancellation_observed_between_engine_iterations(self, engine_factory):
        """A pre-fired stop check halts the engine before its first oracle call.

        The CDCL solver polls the stop check at restart boundaries; the
        engines must *also* poll it between their own iterations (oracle
        rebuilds, core relaxations) so that a lost race stops promptly even
        when each individual SAT call is short.
        """
        engine = engine_factory()
        calls = {"n": 0}

        def stop_immediately():
            calls["n"] += 1
            return True

        engine.stop_check = stop_immediately
        result = engine.solve(sample_instance())
        assert result.status is MaxSATStatus.UNKNOWN
        assert result.sat_calls == 0
        assert calls["n"] >= 1
