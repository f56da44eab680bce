"""Tied optima: the canonical objective makes every optimum unique.

Every event's weight is ``objective_weight``, which orders cut sets by scaled
cost, then size, then sorted names.  So every exact engine returns the
canonical optimum in one solve, each blocked solve returns the next one, and
a ranking of a tree whose modules all solve by rule takes no solve at all on
the cold and the warm route, however many optima tie.
"""

import json
import random

import pytest

from repro.api import AnalysisRequest, AnalysisSession
from repro.core.encoder import encode_mpmcs
from repro.core.pipeline import MPMCSSolver
from repro.core.weights import log_weight
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import BruteForceEngine, HittingSetEngine, RC2Engine
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.maxsat.instance import DEFAULT_PRECISION, scale_weight
from repro.monitoring import ProbabilityUpdate, TreeMonitor
from repro.sat.cdcl import CDCLSolver
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import probability_walk, random_fault_tree


def _ladder(rungs, probability=0.1):
    """``OR`` of ``rungs`` two-event ``AND`` gates: with one probability for
    every event, all ``rungs`` minimal cut sets tie."""
    builder = FaultTreeBuilder(f"ladder-{rungs}")
    for rung in range(rungs):
        builder.basic_event(f"a{rung}", probability)
        builder.basic_event(f"b{rung}", probability)
        builder.and_gate(f"g{rung}", [f"a{rung}", f"b{rung}"])
    builder.or_gate("top", [f"g{rung}" for rung in range(rungs)])
    return builder.top("top").build()


def _and_of_ors(width, probability=0.1):
    """``AND`` of ``width`` two-event ``OR`` gates: 2^width tied MPMCS."""
    builder = FaultTreeBuilder(f"and-of-{width}-ors")
    for index in range(width):
        builder.basic_event(f"a{index:02d}", probability)
        builder.basic_event(f"b{index:02d}", probability)
        builder.or_gate(f"g{index:02d}", [f"a{index:02d}", f"b{index:02d}"])
    builder.and_gate("top", [f"g{index:02d}" for index in range(width)])
    return builder.top("top").build()


def _or_chain(depth, probability=0.01):
    """A ``depth``-deep chain of two-input ``OR`` gates: ``depth`` tied singletons."""
    builder = FaultTreeBuilder(f"or-chain-{depth}")
    for index in range(depth):
        builder.basic_event(f"e{index:04d}", probability)
    previous = "e0000"
    for index in range(1, depth):
        builder.or_gate(f"g{index:04d}", [previous, f"e{index:04d}"])
        previous = f"g{index:04d}"
    return builder.top(previous).build()


def _palette_tree(seed):
    """A small random tree whose probabilities come from a three-value palette."""
    tree = random_fault_tree(num_basic_events=8 + seed % 6, seed=seed, voting_ratio=0.2)
    rng = random.Random(seed)
    for name in sorted(tree.events):
        tree.set_probability(name, rng.choice((0.05, 0.1, 0.2)))
    return tree


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


def _events(report):
    return [entry.events for entry in report.ranking]


class TestEnginesAgreeOnTies:
    """Every exact engine returns the one canonical optimum of an encoding."""

    TREES = {
        "ladder": lambda: _ladder(6),
        "and-of-ors": lambda: _and_of_ors(6),
        "or-chain": lambda: _or_chain(12),
        "tied-random": lambda: _palette_tree(7),
    }

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_engines_return_the_same_event_set(self, name):
        tree = self.TREES[name]()
        encoding = encode_mpmcs(tree)
        expected = AnalysisSession().analyze(tree, ["mpmcs"], backend="bdd").mpmcs.events
        solvers = {
            "rc2": MPMCSSolver(single_engine=RC2Engine()),
            "hitting-set": MPMCSSolver(single_engine=HittingSetEngine()),
            "brute-force": MPMCSSolver(single_engine=BruteForceEngine()),
        }
        for label, solver in solvers.items():
            assert solver.solve_encoding(tree, encoding).events == expected, label


def _count_calls(monkeypatch, owner, attribute):
    calls = []
    original = getattr(owner, attribute)

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, attribute, counting)
    return calls


def _expected_and_of_ors(width):
    """The canonical top 3 of :func:`_and_of_ors`: every cut set picks one event
    per gate, all cost the same, so the least sorted names come first."""
    heads = [f"a{index:02d}" for index in range(width)]
    last, before = f"{width - 1:02d}", f"{width - 2:02d}"
    return [
        tuple(heads),
        tuple(sorted(heads[:-1] + [f"b{last}"])),
        tuple(sorted(heads[:-2] + [f"a{last}", f"b{before}"])),
    ]


class TestTieHeavyRegressions:
    """Exponentially many ties cost no solve: the counts are the contract."""

    ANALYSES = ["mpmcs", "ranking"]

    def _routes(self, tree, monkeypatch):
        """The cold and the warm report, each checked to take no solve: every
        module of these trees solves by rule, so both rank module by module."""
        calls = [
            _count_calls(monkeypatch, owner, attribute)
            for owner, attribute in (
                (MPMCSSolver, "solve"),
                (MPMCSSolver, "solve_encoding"),
                (IncrementalMaxSATSession, "solve"),
                (CDCLSolver, "solve"),
            )
        ]
        cold = AnalysisSession().analyze(tree, self.ANALYSES, backend="maxsat", top_k=3)
        request = AnalysisRequest.create(self.ANALYSES, backend="maxsat", top_k=3)
        (warm,) = list(AnalysisSession().run_batch([tree], request))
        assert [len(made) for made in calls] == [0, 0, 0, 0]
        return cold, warm

    @pytest.mark.parametrize(
        "tree", [_and_of_ors(10), _or_chain(1500)], ids=["and-of-10-ors", "or-chain-1500"]
    )
    def test_matches_bdd(self, tree, monkeypatch):
        expected = AnalysisSession().analyze(tree, self.ANALYSES, backend="bdd", top_k=3)
        for report in self._routes(tree, monkeypatch):
            assert _events(report) == _events(expected)
            assert report.mpmcs.events == expected.mpmcs.events
            assert [entry.probability for entry in report.ranking] == [
                entry.probability for entry in expected.ranking
            ]

    def test_and_of_20_ors(self, monkeypatch):
        # bdd ranks by enumerating all 2^20 cut sets, so its MPMCS is the
        # reference here and the ranking is spelled out.
        tree = _and_of_ors(20)
        expected = AnalysisSession().analyze(tree, ["mpmcs"], backend="bdd").mpmcs
        for report in self._routes(tree, monkeypatch):
            assert report.mpmcs.events == expected.events
            assert report.mpmcs.probability == expected.probability
            assert _events(report) == _expected_and_of_ors(20)


class TestWarmEnumerationWithTies:
    def test_solves_per_scenario_do_not_grow_with_ties(self, monkeypatch):
        warm_calls = _count_calls(monkeypatch, IncrementalMaxSATSession, "solve")
        sat_calls = _count_calls(monkeypatch, CDCLSolver, "solve")
        analyses = ("mpmcs", "ranking")
        for rungs in (3, 5, 9):
            tree = _ladder(rungs)
            monitor = TreeMonitor(
                tree, backend="maxsat", analyses=analyses, top_k=3, include_reports=True
            )
            monitor.ensure_base()
            delta = monitor.apply_update(
                ProbabilityUpdate.create({"a0": 0.1, "b1": 0.1}, seq=1)
            )
            # The ladder's modules all solve by rule: no solve, however many
            # optima tie.
            assert warm_calls == sat_calls == []
            fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
            expected = fresh.analyze_tree(tree.copy(), fresh.prepare_analyses(analyses), top_k=3)
            assert _canonical(delta.report) == _canonical(expected)
            assert delta.mpmcs_events == ("a0", "b0")

    def test_ranking_with_more_ties_than_top_k_matches_cold(self):
        tree = _ladder(7)
        analyses = ("mpmcs", "ranking", "top_event")
        warm = SweepExecutor(AnalysisSession(), backend="maxsat")
        cold = SweepExecutor(AnalysisSession(), backend="maxsat")
        (report,) = warm.analyze_batch([tree], warm.prepare_analyses(analyses), top_k=3)
        expected = cold.analyze_tree(tree, cold.prepare_analyses(analyses), top_k=3)
        assert _canonical(report) == _canonical(expected)
        assert [item.events for item in report.ranking] == [
            ("a0", "b0"),
            ("a1", "b1"),
            ("a2", "b2"),
        ]

    def test_clamped_walk_matches_fresh_analysis(self):
        tree = random_fault_tree(num_basic_events=25, seed=1, voting_ratio=0.1)
        # A volatile walk pins many events at its bounds, so optima tie often.
        walk = list(
            probability_walk(
                tree,
                steps=30,
                seed=0,
                events_per_step=4,
                volatility=1.5,
                probability_range=(0.01, 0.3),
            )
        )
        analyses = ("mpmcs", "ranking")
        monitor = TreeMonitor(tree, backend="maxsat", analyses=analyses, include_reports=True)
        fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
        prepared = fresh.prepare_analyses(analyses)
        state = dict(tree.probabilities())
        tied = []
        for seq, values in enumerate(walk, start=1):
            delta = monitor.apply_update(ProbabilityUpdate.create(values, seq=seq))
            state.update(values)
            patched = tree.copy()
            for name, value in state.items():
                patched.set_probability(name, value)
            expected = fresh.analyze_tree(patched, prepared, top_k=5)
            assert _canonical(delta.report) == _canonical(expected)
            scaled = [
                sum(scale_weight(log_weight(state[name]), DEFAULT_PRECISION) for name in entry.events)
                for entry in expected.ranking[:2]
            ]
            tied.append(len(scaled) == 2 and scaled[0] == scaled[1])
        assert any(tied)
