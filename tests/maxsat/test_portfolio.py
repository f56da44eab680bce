"""Unit tests for the sequential MaxSAT portfolio."""

import ast
from pathlib import Path

import pytest

import repro
import repro.maxsat
from repro.exceptions import ConfigurationError, SolverError
from repro.maxsat import (
    BruteForceEngine,
    HittingSetEngine,
    MaxSATEngine,
    MaxSATResult,
    MaxSATStatus,
    RC2Engine,
    WPMaxSATInstance,
)
from repro.maxsat.portfolio import PortfolioSolver, default_engines


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

    def test_mode_keyword_is_gone(self):
        # The process race was deleted with its ``mode`` knob.
        with pytest.raises(TypeError):
            PortfolioSolver(mode="process")

    def test_empty_engine_list_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSolver(engines=[])

    def test_duplicate_engine_names_rejected(self):
        with pytest.raises(ConfigurationError):
            PortfolioSolver(engines=[RC2Engine(), RC2Engine()])


class TestSolving:
    def test_portfolio_returns_optimum(self):
        portfolio = PortfolioSolver()
        result = portfolio.solve(sample_instance())
        assert result.status is MaxSATStatus.OPTIMUM
        # Optimal cover of clauses (1|2) and (2|3): set x1 and x3 true (4 + 2 = 6),
        # cheaper than x2 alone (9).
        assert result.cost == 6

    def test_report_contains_every_engine(self):
        portfolio = PortfolioSolver(engines=[RC2Engine(), HittingSetEngine()])
        report = portfolio.solve_with_report(sample_instance())
        assert report.winner in {"rc2", "hitting-set"}
        assert report.result.status is MaxSATStatus.OPTIMUM
        assert set(report.engine_statuses) <= {"rc2", "hitting-set"}
        assert report.total_time >= 0.0

    def test_single_engine_portfolio(self):
        portfolio = PortfolioSolver(engines=[RC2Engine()])
        result = portfolio.solve(sample_instance())
        assert result.engine == "rc2"
        assert result.status is MaxSATStatus.OPTIMUM

    def test_hitting_set_first_answers_alone(self):
        portfolio = PortfolioSolver(engines=[HittingSetEngine(), RC2Engine()])
        report = portfolio.solve_with_report(sample_instance())
        assert report.winner == "hitting-set"
        assert report.result.cost == 6
        assert set(report.engine_statuses) == set(report.engine_times) == {"hitting-set"}

    def test_unsatisfiable_instance(self):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1])
        instance.add_hard([-1])
        instance.add_soft([2], 1)
        result = PortfolioSolver().solve(instance)
        assert result.status is MaxSATStatus.UNSATISFIABLE

    def test_winner_result_matches_brute_force(self):
        reference = BruteForceEngine().solve(sample_instance())
        result = PortfolioSolver().solve(sample_instance())
        assert result.cost == reference.cost


class TestCostOfSampleInstance:
    def test_reference_cost(self):
        """Pin down the sample instance's optimum so the tests above
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
        report = PortfolioSolver(engines=[first, second]).solve_with_report(
            sample_instance()
        )
        assert report.winner == "first"
        assert (first.calls, second.calls) == (1, 0)
        assert set(report.engine_statuses) == {"first"}

    def test_inconclusive_engine_falls_through_to_the_next(self):
        first = CountingEngine("first", MaxSATStatus.UNKNOWN)
        second = CountingEngine("second", MaxSATStatus.OPTIMUM)
        report = PortfolioSolver(engines=[first, second]).solve_with_report(
            sample_instance()
        )
        assert report.winner == "second"
        assert (first.calls, second.calls) == (1, 1)
        assert report.engine_statuses == {"first": "unknown", "second": "optimum"}

    def test_unsatisfiable_first_engine_is_conclusive(self):
        first = CountingEngine("first", MaxSATStatus.UNSATISFIABLE)
        second = CountingEngine("second", MaxSATStatus.OPTIMUM)
        report = PortfolioSolver(engines=[first, second]).solve_with_report(
            sample_instance()
        )
        assert report.winner == "first"
        assert report.result.status is MaxSATStatus.UNSATISFIABLE
        assert (first.calls, second.calls) == (1, 0)

    def test_engine_error_is_recorded_and_the_next_engine_answers(self):
        class FailingEngine(MaxSATEngine):
            name = "failing"

            def solve(self, instance):
                raise SolverError("out of budget")

        second = CountingEngine("second", MaxSATStatus.OPTIMUM)
        report = PortfolioSolver(engines=[FailingEngine(), second]).solve_with_report(
            sample_instance()
        )
        assert report.winner == "second"
        assert report.engine_statuses == {"failing": "error: out of budget", "second": "optimum"}
        assert set(report.engine_times) == {"failing", "second"}

    def test_all_inconclusive_raises(self):
        portfolio = PortfolioSolver(engines=[CountingEngine("first", MaxSATStatus.UNKNOWN)])
        with pytest.raises(SolverError):
            portfolio.solve_with_report(sample_instance())


class TestCancellation:
    def test_default_portfolio_polls_external_stop_in_every_engine(self):
        """Every engine polls the portfolio's ``external_stop``."""
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


SRC = Path(repro.__file__).parent


def _imported_modules(path):
    """Every module name ``path`` imports, ``from`` imports as ``module.name``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


class TestNothingInTheLibraryRaces:
    @pytest.mark.parametrize("name", ["PortfolioSolver", "PortfolioReport"])
    def test_repro_maxsat_does_not_export(self, name):
        assert name not in repro.maxsat.__all__
        assert not hasattr(repro.maxsat, name)

    def test_only_the_portfolio_module_mentions_it_in_an_import(self):
        importers = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "portfolio.py"
            and any(
                module == "repro.maxsat.portfolio"
                or module.startswith("repro.maxsat.portfolio.")
                or module in ("repro.maxsat.PortfolioSolver", "repro.maxsat.PortfolioReport")
                for module in _imported_modules(path)
            )
        ]
        assert importers == []

    def test_no_maxsat_module_imports_multiprocessing(self):
        importers = [
            path.name
            for path in sorted((SRC / "maxsat").glob("*.py"))
            if any(
                module == "multiprocessing" or module.startswith("multiprocessing.")
                for module in _imported_modules(path)
            )
        ]
        assert importers == []
