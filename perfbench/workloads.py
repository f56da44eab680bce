"""The benchmark's four workloads: seeded inputs, timed operations and oracles.

Every workload drives the public API the way a user does, as a closed loop
with one client: the next operation starts only when the previous one has
returned.  An operation is one ``AnalysisSession().analyze`` call
(``e4-cold``), one scenario of a ``SweepExecutor.run`` call (the sweeps) or
one ``TreeMonitor.apply_update`` call (``monitor-flip``).

Every operation is timed in reference time by a :class:`HostClock`, which
takes the host's changing speed out of the figures (see
:mod:`perfbench.cpus`).

Inputs depend only on the workload seed and are built during set-up:
input item ``i`` depends only on the seed and ``i``.  Structures whose cost
swings by orders of magnitude between generator seeds are pinned (see
:data:`FULL`), so the seed moves probabilities, sweep grids and walks, not
the size of the problem.

The oracles run after the timed phase.  An operation fails when it raises
one of ``COUNTED_ERRORS`` or when its answer disagrees with the oracle; a
failure is counted and the run goes on.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.cpus import HostClock
from repro.api import AnalysisSession
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import mpmcs_of_bdd, probability_of_bdd
from repro.core.pipeline import MPMCSSolver
from repro.core.weights import probability_of_cut_set
from repro.exceptions import AnalysisError, BudgetExceededError
from repro.fta.tree import FaultTree
from repro.maxsat.rc2 import RC2Engine
from repro.monitoring.alerts import MpmcsChanged, PTopJump
from repro.monitoring.feeds import ProbabilityUpdate
from repro.monitoring.monitor import TreeMonitor
from repro.scenarios import Scenario, SetProbability, SweepExecutor, probability_sweep
from repro.workloads.generator import probability_walk, random_fault_tree
from repro.workloads.library import fire_protection_system

__all__ = [
    "COUNTED_ERRORS",
    "FULL",
    "Phase",
    "Scale",
    "WORKLOADS",
    "Workload",
    "measure",
]

#: Errors counted as failed operations instead of aborting the run.
COUNTED_ERRORS = (AnalysisError, BudgetExceededError)

#: An MPMCS answer matches the oracle when its log-probability is within
#: this distance of the optimum.  The solver optimises integer-scaled
#: ``-log`` weights (precision 1e9), so a tie broken differently by the
#: quantisation moves the log-probability by far less than this.
LOG_PROBABILITY_TOLERANCE = 1e-6

#: Relative tolerance on the exact top-event probability.
TOP_EVENT_TOLERANCE = 1e-9

#: Trees up to this many basic events are checked against the ``bdd``
#: backend; larger ones against a single RC2 engine, because BDD
#: compilation of E4 trees above ~800 events took 1 s to more than 20 s.
BDD_ORACLE_MAX_EVENTS = 800

#: E4's log-uniform event probability range (the generator default).
E4_PROBABILITY_RANGE = (1e-5, 0.2)

#: Probability draws per E4 structure in the corpus every run covers.  With
#: a fresh draw per cycle from the workload seed, one structure's facade
#: time moved by up to 2.5x between draws, and runs of different seeds
#: differed by 25% in throughput, reproducibly, on the draws they held.
E4_DRAWS = 10

#: Probability range of the drift and flip scenarios.
SCENARIO_PROBABILITY_RANGE = (1e-4, 0.5)

#: Events changed per flip scenario and per monitor update.
EVENTS_PER_CHANGE = 4

#: Log-space volatility of the monitor's probability walk.
WALK_VOLATILITY = 1.5


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads.

    ``e4_pool`` holds ``(basic events, generator seed)`` of the pinned E4
    structures; ``pinned_tree`` the same for the tree the sweeps and the
    monitor share; ``grid_size`` the scenarios per sweep ``run()`` call;
    ``episode_updates`` the updates per monitor episode.
    """

    e4_pool: Tuple[Tuple[int, int], ...]
    pinned_tree: Tuple[int, int]
    grid_size: int
    episode_updates: int = 250


#: The benchmark's inputs.  The E4 structures span 200 to 800 basic events,
#: with facade times of 0.3 s to 1 s on a 2-core host: one analysis of a
#: tree of 1000 or 2000 events took 1.2 s to 7 s and moved 2x between
#: probability draws, so a run of tens of seconds held too few of them to
#: report a steady figure.  The pinned tree has 4104 minimal cut sets and
#: about 0.8 s of cut-set seeding.
FULL = Scale(
    e4_pool=((200, 0), (300, 0), (500, 1), (600, 1), (800, 0)),
    pinned_tree=(60, 5),
    grid_size=150,
)


def _rng(seed: int, index: int) -> random.Random:
    """An independent, reproducible stream for one input of one seed."""
    return random.Random(seed * 1_000_003 + index)


def _log_uniform(rng: random.Random, bounds: Tuple[float, float]) -> float:
    low, high = bounds
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def e4_tree(events: int, generator_seed: int) -> FaultTree:
    """One E4 generator tree (5% voting gates, 5% event reuse)."""
    return random_fault_tree(
        num_basic_events=events,
        seed=generator_seed,
        voting_ratio=0.05,
        event_reuse=0.05,
    )


def pinned_tree(scale: Scale) -> FaultTree:
    """The tree shared by the sweep and monitor workloads."""
    events, generator_seed = scale.pinned_tree
    return random_fault_tree(
        num_basic_events=events, seed=generator_seed, voting_ratio=0.05
    )


def redraw_probabilities(tree: FaultTree, rng: random.Random) -> FaultTree:
    """A copy of ``tree`` with every event probability drawn afresh."""
    copy = tree.copy()
    for name in sorted(copy.event_names):
        copy.set_probability(name, _log_uniform(rng, E4_PROBABILITY_RANGE))
    return copy


@dataclass
class Phase:
    """What one timed phase did: its inputs, timings, errors and answers.

    ``plan`` lists the input items processed, in order.  ``busy_s`` is the
    reference time spent inside operations; benchmark bookkeeping between
    operations is excluded.  ``answers`` holds one entry per attempted
    operation, ``None`` where the operation raised.  ``setups_s`` holds the
    reference times of set-ups a workload repeats inside the phase (the
    monitor's, one per episode).  ``clock`` times everything.
    """

    plan: List[Any] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    busy_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    first_results_s: List[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    answers: List[Any] = field(default_factory=list)
    setups_s: List[float] = field(default_factory=list)
    clock: HostClock = field(default_factory=HostClock, repr=False)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def single(self, call: Callable[[], Any]) -> None:
        """Run and time one operation; ``call`` returns its answer.

        An error from ``COUNTED_ERRORS`` is counted, leaves ``None`` as the
        answer, and the run goes on.
        """
        self.attempted += 1
        started = self.clock.start()
        try:
            answer = call()
        except COUNTED_ERRORS as exc:
            self.busy_s += self.clock.stop(started)
            self.errors[type(exc).__name__] += 1
            self.answers.append(None)
            return
        elapsed = self.clock.stop(started)
        self.busy_s += elapsed
        self.completed += 1
        self.latencies_s.append(elapsed)
        self.first_results_s.append(elapsed)
        self.answers.append(answer)


class Workload:
    """A named workload: set-up, a stream of inputs, operations and an oracle.

    ``item_s`` is the nominal duration of one input item on the reference
    host (2 cores, CPython 3.11).  A run of ``seconds`` processes
    ``round(seconds / item_s)`` items, so two commits measured with the same
    ``seconds`` do exactly the same work, and a run takes about ``seconds``.
    ``setup_repeats`` is the least number of timed set-ups per run.
    """

    name = ""
    why = ""
    item_s = 1.0
    setup_repeats = 3

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self, items: int) -> Any:
        """Build ``items`` input items (``state.inputs``) and long-lived objects."""
        raise NotImplementedError

    def warm_up(self, state: Any) -> None:
        """Pay one-time lazy costs (imports, first calls) before timing."""

    def items_for(self, seconds: float) -> int:
        """Input items a run of ``seconds`` processes (at least one)."""
        return max(1, round(seconds / self.item_s))

    def operate(self, state: Any, item: Any, phase: Phase) -> None:
        """Run and time the operations of one input item."""
        raise NotImplementedError

    def mismatches(self, state: Any, phase: Phase) -> int:
        """Answers of ``phase`` that disagree with the oracle."""
        raise NotImplementedError


def measure(
    workload: Workload,
    state: Any,
    *,
    deadline_s: Optional[float] = None,
    clock: Optional[HostClock] = None,
) -> Phase:
    """Process every input item of ``state`` in order, timed by ``clock``.

    ``deadline_s`` cuts the phase short, between items, once that much wall
    time has passed; it keeps a run of a much slower commit within the time
    a run may take.
    """
    phase = Phase(clock=clock or HostClock())
    started = time.perf_counter()
    for item in state.inputs:
        phase.plan.append(item)
        workload.operate(state, item, phase)
        if deadline_s is not None and time.perf_counter() - started >= deadline_s:
            break
    return phase


def _mpmcs_matches(
    tree: FaultTree,
    probabilities: Dict[str, float],
    events: Optional[Tuple[str, ...]],
    probability: Optional[float],
    expected_probability: float,
) -> bool:
    """A minimal cut set of ``tree`` whose probability is the oracle's optimum.

    ``probabilities`` are the event probabilities the answer was computed
    for; ``tree`` only supplies the structure.
    """
    if events is None or probability is None:
        return False
    if not math.isclose(probability, probability_of_cut_set(events, probabilities), rel_tol=1e-12):
        return False
    if abs(math.log(probability) - math.log(expected_probability)) > LOG_PROBABILITY_TOLERANCE:
        return False
    return tree.is_minimal_cut_set(events)


# -- e4-cold ---------------------------------------------------------------------


@dataclass
class _E4State:
    inputs: List[List[FaultTree]]


class E4Cold(Workload):
    """Fresh ``AnalysisSession().analyze(tree, ["mpmcs"])`` per tree.

    The inputs come from a fixed corpus: ``E4_DRAWS`` probability draws of
    every pinned structure.  One input item is a cycle over Fig. 1 and one
    draw of every structure, in a seeded order; the seed also deals each
    structure's draws to the cycles, so ``E4_DRAWS`` cycles hold every draw
    once.  Whole cycles keep the size mix of every phase the same.  Set-up
    builds the corpus and a copy of each tree per cycle.
    """

    name = "e4-cold"
    why = "the paper's scalability claim on the path users run: cold facade, portfolio and SAT"
    item_s = 2.0

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        super().__init__(seed, scale)
        #: Oracle BDDs by structure name: every tree of one structure shares it.
        self._functions: Dict[str, BDD] = {}
        #: Oracle optima by tree content, so the traced replay's identical
        #: inputs reuse the untraced phase's answers.
        self._expected: Dict[Tuple[Any, ...], float] = {}

    def setup(self, items: int) -> _E4State:
        fig1 = fire_protection_system()
        corpus = []
        for events, generator_seed in self.scale.e4_pool:
            structure = e4_tree(events, generator_seed)
            corpus.append(
                [redraw_probabilities(structure, random.Random(draw)) for draw in range(E4_DRAWS)]
            )
        deal = random.Random(self.seed)
        orders = [deal.sample(range(E4_DRAWS), E4_DRAWS) for _ in corpus]
        cycles = []
        for cycle in range(items):
            trees = [fig1] + [
                draws[order[cycle % E4_DRAWS]].copy() for draws, order in zip(corpus, orders)
            ]
            _rng(self.seed, cycle).shuffle(trees)
            cycles.append(trees)
        return _E4State(inputs=cycles)

    def warm_up(self, state: _E4State) -> None:
        AnalysisSession().analyze(fire_protection_system(), ["mpmcs"])

    def operate(self, state: _E4State, trees: List[FaultTree], phase: Phase) -> None:
        for tree in trees:
            phase.single(lambda: self.analyze(tree))

    @staticmethod
    def analyze(tree: FaultTree) -> Tuple[Tuple[str, ...], float]:
        mpmcs = AnalysisSession().analyze(tree, ["mpmcs"]).mpmcs
        return mpmcs.events, mpmcs.probability

    def oracle_probability(self, tree: FaultTree) -> float:
        """The optimum from the structure's BDD, or from RC2 on large trees.

        The BDD is the one the ``bdd`` backend compiles, compiled once per
        structure and evaluated with each tree's probabilities.
        """
        if len(tree.event_names) <= BDD_ORACLE_MAX_EVENTS:
            if tree.name not in self._functions:
                self._functions[tree.name] = compile_bdd(tree)
            return mpmcs_of_bdd(self._functions[tree.name], tree.probabilities())[1]
        return MPMCSSolver(single_engine=RC2Engine()).solve(tree).probability

    def mismatches(self, state: _E4State, phase: Phase) -> int:
        trees = [tree for cycle in phase.plan for tree in cycle]
        wrong = 0
        for tree, answer in zip(trees, phase.answers):
            if answer is None:
                continue
            key = (tree.name, tuple(sorted(tree.probabilities().items())))
            if key not in self._expected:
                self._expected[key] = self.oracle_probability(tree)
            if not _mpmcs_matches(tree, tree.probabilities(), *answer, self._expected[key]):
                wrong += 1
        return wrong


# -- sweeps ---------------------------------------------------------------------


@dataclass
class _SweepState:
    tree: FaultTree
    inputs: List[List[Scenario]]


def compile_bdd(tree: FaultTree) -> BDD:
    """The BDD the ``bdd`` backend compiles for ``tree`` (same ordering)."""
    return BDDManager(variable_order(tree, heuristic="dfs")).from_fault_tree(tree)


def _answer_matches(
    tree: FaultTree,
    function: BDD,
    probabilities: Dict[str, float],
    answer: Tuple[Optional[Tuple[str, ...]], Optional[float], Optional[float]],
) -> bool:
    """One (MPMCS, its probability, P(top)) answer against the BDD oracle."""
    events, probability, top = answer
    expected_top = probability_of_bdd(function, probabilities)
    if top is None or not math.isclose(top, expected_top, rel_tol=TOP_EVENT_TOLERANCE):
        return False
    _, expected = mpmcs_of_bdd(function, probabilities)
    return _mpmcs_matches(tree, probabilities, events, probability, expected)


class _Sweep(Workload):
    """One fresh ``SweepExecutor(backend="maxsat").run()`` per input grid.

    Each scenario is one operation.  Its latency is the gap between its
    outcome and the previous one; the first outcome of a call, which waits
    for the base analysis and the batched precomputation, is the call's
    first result instead.
    """

    item_s = 2.5

    def setup(self, items: int) -> _SweepState:
        tree = pinned_tree(self.scale)
        grids = [self.grid(tree, _rng(self.seed, call)) for call in range(items)]
        return _SweepState(tree=tree, inputs=grids)

    def warm_up(self, state: _SweepState) -> None:
        SweepExecutor(backend="maxsat").run(
            fire_protection_system(), probability_sweep("x1", start=1e-3, stop=0.5, steps=3)
        )

    def grid(self, tree: FaultTree, rng: random.Random) -> List[Scenario]:
        raise NotImplementedError

    def operate(self, state: _SweepState, grid: List[Scenario], phase: Phase) -> None:
        # A call lasts seconds, so the clock splits it at every outcome,
        # taking a speed reading (and re-pinning) there.
        parts: List[float] = []
        clock = phase.clock

        def on_outcome(_: Any) -> None:
            nonlocal mark
            elapsed, mark = clock.mark(mark)
            parts.append(elapsed)

        phase.attempted += len(grid)
        mark = clock.start()
        try:
            report = SweepExecutor(backend="maxsat").run(state.tree, grid, on_outcome=on_outcome)
        except COUNTED_ERRORS as exc:
            phase.busy_s += sum(parts) + clock.stop(mark)
            phase.errors[type(exc).__name__] += len(grid)
            phase.answers.extend([None] * len(grid))
            return
        phase.busy_s += sum(parts) + clock.stop(mark)
        if parts:
            phase.first_results_s.append(parts[0])
            phase.latencies_s.extend(parts[1:])
        for outcome in report.outcomes:
            if outcome.error is not None:
                phase.errors["ScenarioError"] += 1
                phase.answers.append(None)
                continue
            phase.completed += 1
            phase.answers.append(
                (outcome.mpmcs_events, outcome.mpmcs_probability, outcome.top_event)
            )

    def mismatches(self, state: _SweepState, phase: Phase) -> int:
        function = compile_bdd(state.tree)
        scenarios = [scenario for grid in phase.plan for scenario in grid]
        wrong = 0
        for scenario, answer in zip(scenarios, phase.answers):
            if answer is None:
                continue
            probabilities = scenario.apply(state.tree).probabilities()
            if not _answer_matches(state.tree, function, probabilities, answer):
                wrong += 1
        return wrong


class SweepDrift(_Sweep):
    """A log-spaced probability sweep of one seeded event."""

    name = "sweep-drift"
    why = "one optimum throughout: pooled re-rank and batched BDD, dominated by cut-set seeding"

    def grid(self, tree: FaultTree, rng: random.Random) -> List[Scenario]:
        event = rng.choice(sorted(tree.event_names))
        low, high = SCENARIO_PROBABILITY_RANGE
        return probability_sweep(event, start=low, stop=high, steps=self.scale.grid_size)


class SweepFlip(_Sweep):
    """Scenarios that each set a few seeded events to log-uniform values."""

    name = "sweep-flip"
    why = "many distinct optima: the only workload reaching the certified, B&B and fallback rungs"

    def grid(self, tree: FaultTree, rng: random.Random) -> List[Scenario]:
        events = sorted(tree.event_names)
        return [
            Scenario(
                f"flip-{index}",
                [
                    SetProbability(event, _log_uniform(rng, SCENARIO_PROBABILITY_RANGE))
                    for event in rng.sample(events, EVENTS_PER_CHANGE)
                ],
            )
            for index in range(self.scale.grid_size)
        ]


# -- monitor-flip ---------------------------------------------------------------


@dataclass
class _MonitorState:
    tree: FaultTree
    monitor: TreeMonitor
    inputs: List[List[ProbabilityUpdate]]
    #: Whether ``monitor`` has not been fed yet.
    fresh: bool = True


def build_monitor(tree: FaultTree) -> TreeMonitor:
    """A live monitor of ``tree`` with its base analysis done."""
    monitor = TreeMonitor(tree, rules=(MpmcsChanged(), PTopJump(0.5)))
    monitor.ensure_base()
    return monitor


class MonitorFlip(Workload):
    """Fresh ``TreeMonitor`` objects fed seeded probability walks, one update at a time.

    One input item is an *episode*: a fresh monitor fed one walk of
    ``scale.episode_updates`` updates from the tree's base probabilities.
    A monitor's update latency grows with its age, as its solver session
    collects cores and optima (from 11 ms to 15-28 ms over 1500 updates,
    depending on the walk), so one long walk per run made the figures
    depend on the run's length and swing between seeds; episodes of equal
    length keep every run's mix of ages the same.  Set-up builds every walk
    and the first monitor; each later episode builds its own monitor,
    timed as a set-up.
    """

    name = "monitor-flip"
    why = "the per-request latency path: warm solve_tree, scalar BDD and alerts per update"
    item_s = 4.0
    #: Every later episode times a monitor build as a set-up as well.
    setup_repeats = 1

    def setup(self, items: int) -> _MonitorState:
        tree = pinned_tree(self.scale)
        episodes = []
        for episode in range(items):
            walk = probability_walk(
                tree,
                steps=self.scale.episode_updates,
                seed=self.seed * 1_000_003 + episode,
                events_per_step=EVENTS_PER_CHANGE,
                volatility=WALK_VOLATILITY,
            )
            episodes.append(
                [
                    ProbabilityUpdate.create(values, seq=seq, timestamp=float(seq))
                    for seq, values in enumerate(walk, start=1)
                ]
            )
        return _MonitorState(tree=tree, monitor=build_monitor(tree), inputs=episodes)

    def operate(
        self, state: _MonitorState, episode: List[ProbabilityUpdate], phase: Phase
    ) -> None:
        if not state.fresh:
            started = phase.clock.start()
            state.monitor = None  # free the previous monitor before building the next
            state.monitor = build_monitor(state.tree)
            phase.setups_s.append(phase.clock.stop(started))
        state.fresh = False
        monitor = state.monitor

        for update in episode:

            def apply(update: ProbabilityUpdate = update) -> Tuple[Any, ...]:
                delta = monitor.apply_update(update)
                return delta.mpmcs_events, delta.mpmcs_probability, delta.ptop

            phase.single(apply)

    def mismatches(self, state: _MonitorState, phase: Phase) -> int:
        function = compile_bdd(state.tree)
        answers = iter(phase.answers)
        wrong = 0
        for episode in phase.plan:
            current = dict(state.tree.probabilities())
            for update, answer in zip(episode, answers):
                current.update(update.values)
                if answer is not None and not _answer_matches(state.tree, function, current, answer):
                    wrong += 1
        return wrong


#: Workloads by name, in the order the documentation lists them.
WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (E4Cold, SweepDrift, SweepFlip, MonitorFlip)
}
