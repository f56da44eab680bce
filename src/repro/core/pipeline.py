"""The six-step MPMCS resolution pipeline (paper Section III).

:class:`MPMCSSolver` wires together the fault-tree formula transformation, the
Tseitin CNF conversion, the log-space weight transformation, the Weighted
Partial MaxSAT encoding, its resolution (module by module, or by one engine
on a whole-tree encoding) and the reverse log-space transformation, and
returns an :class:`MPMCSResult` describing the Maximum Probability Minimal
Cut Set of a fault tree.

Example
-------
.. code-block:: python

    from repro.workloads.library import fire_protection_system
    from repro.core import MPMCSSolver

    tree = fire_protection_system()
    result = MPMCSSolver().solve(tree)
    assert result.events == ("x1", "x2")
    assert abs(result.probability - 0.02) < 1e-9
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.encoder import MPMCSEncoding, encode_mpmcs, event_weights, weigh_events
from repro.core.weights import probability_of_cut_set
from repro.exceptions import AnalysisError, BudgetExceededError, NoCutSetError
from repro.fta.compiled import CompiledStructure, Skeleton
from repro.fta.gates import Gate, GateType
from repro.fta.tree import FaultTree
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.incremental import SESSION_ENGINE, IncrementalMaxSATSession
from repro.maxsat.rc2 import RC2Engine
from repro.maxsat.result import MaxSATResult, MaxSATStatus

__all__ = [
    "MODULE_RULE_ENGINE",
    "MPMCSResult",
    "MPMCSSolver",
    "ModuleOptima",
    "find_mpmcs",
    "rank_optima",
]


@dataclass
class MPMCSResult:
    """Outcome of an MPMCS analysis.

    Attributes
    ----------
    tree_name:
        Name of the analysed fault tree.
    events:
        The Maximum Probability Minimal Cut Set, sorted by event name.
    probability:
        Joint probability of the cut set (product of event probabilities,
        independence assumed — the paper's ``PF(t)``).
    cost:
        The MaxSAT objective value, i.e. the total ``-log`` weight of the cut
        set's events.
    weights:
        Per-event ``-log`` weights of the cut-set members (Table I values for
        the events in the solution).
    engine:
        Name of the MaxSAT engine that produced the solution.
    solve_time:
        Wall-clock seconds spent in the MaxSAT resolution step (Step 5).
    total_time:
        Wall-clock seconds of the whole pipeline (Steps 1–6).
    num_vars / num_hard / num_soft / num_aux_vars:
        Size of the encoded MaxSAT instance, reported for the scalability
        benchmarks.
    sat_calls:
        SAT calls of the MaxSAT resolution step; a ranking counts its
        skeleton walks on the first entry only.
    encoding_sizes:
        ``(num_vars, num_hard, num_aux_vars)`` of the whole-tree encoding,
        or the compiled structure whose memoised hard clauses give them on
        first read: a modular solve never needs those clauses itself.
    """

    tree_name: str
    events: Tuple[str, ...]
    probability: float
    cost: float
    weights: Dict[str, float] = field(default_factory=dict)
    engine: str = ""
    solve_time: float = 0.0
    total_time: float = 0.0
    num_soft: int = 0
    sat_calls: int = 0
    encoding_sizes: Union[Tuple[int, int, int], CompiledStructure] = field(
        default=(0, 0, 0), repr=False, compare=False
    )

    def _sizes(self) -> Tuple[int, int, int]:
        """``encoding_sizes``, read off the structure's clauses on first use."""
        if isinstance(self.encoding_sizes, CompiledStructure):
            cnf = self.encoding_sizes.cnf
            self.encoding_sizes = (cnf.instance.num_vars, cnf.instance.num_hard, cnf.num_aux_vars)
        return self.encoding_sizes

    @property
    def num_vars(self) -> int:
        return self._sizes()[0]

    @property
    def num_hard(self) -> int:
        return self._sizes()[1]

    @property
    def num_aux_vars(self) -> int:
        return self._sizes()[2]

    @property
    def size(self) -> int:
        """Number of events in the cut set."""
        return len(self.events)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form used by the JSON report and the CLI."""
        return {
            "tree": self.tree_name,
            "mpmcs": list(self.events),
            "probability": self.probability,
            "cost": self.cost,
            "weights": dict(self.weights),
            "engine": self.engine,
            "solve_time_s": self.solve_time,
            "total_time_s": self.total_time,
            "instance": {
                "variables": self.num_vars,
                "hard_clauses": self.num_hard,
                "soft_clauses": self.num_soft,
                "auxiliary_variables": self.num_aux_vars,
            },
        }


#: Engine reported when every module is solved by rule.
MODULE_RULE_ENGINE = "modules"


#: The cut sets a blocked solve excludes, each with all its supersets.
Found = Sequence[Tuple[str, ...]]

#: A ranked cut set of a module: its integer objective and its parts, a
#: basic event's name or the tuple of the children's entries it joins.
Entry = Tuple[int, Union[str, Tuple[Any, ...]]]


def rank_optima(
    solve: Callable[[Found], Optional[MPMCSResult]], count: int
) -> List[MPMCSResult]:
    """Blocked enumeration of up to ``count`` optima, in canonical order.

    ``solve(found)`` returns the canonical optimum among the cut sets that
    are neither in ``found`` nor a superset of one, or ``None``.  The loop
    solves until it holds ``count`` optima or ``solve`` finds none.
    """
    held: List[MPMCSResult] = []
    found: List[Tuple[str, ...]] = []
    while len(held) < count:
        optimum = solve(found)
        if optimum is None:
            break
        held.append(optimum)
        found.append(optimum.events)
    return held


class ModuleOptima:
    """The optimum of every independent module of one structure, kept up to date.

    :meth:`update` brings the optima in line with a tree's probabilities.
    Only the events whose probability changed since the previous update are
    re-weighed, and only the modules above them are solved again, bottom-up:
    a module whose solve leaves its objective unchanged stops the climb.  A
    first update, or one for a tree of another structure, solves every
    module.  Each skeleton that needs a search is solved by its own
    :class:`~repro.maxsat.incremental.IncrementalMaxSATSession`
    (:attr:`sessions`).  A cold analysis uses a fresh instance; the
    ``maxsat`` backend's warm route keeps one per structure, sessions and
    all, across the probability-only trees of a batch.
    """

    def __init__(self, structure: CompiledStructure) -> None:
        self._reset(structure)

    def _reset(self, structure: CompiledStructure) -> None:
        self.structure = structure
        #: The index, in ``structure.modules``, of the skeleton that holds each
        #: node other than the top; built by the first update that keeps
        #: earlier optima.
        self._parent: Optional[Dict[str, int]] = None
        self._probabilities: Dict[str, float] = {}
        #: Each event's ``-log`` weight.
        self.weights: Dict[str, float] = {}
        #: The ``(objective, weight)`` of every event and of each module's
        #: optimum, and the leaves of its skeleton each module's optimum takes.
        self._value: Dict[str, Tuple[int, float]] = {}
        self._chosen: Dict[str, Sequence[str]] = {}
        #: The incremental session of each skeleton that needs a search,
        #: created by its first solve and forgotten with the optima.
        self.sessions: Dict[Skeleton, IncrementalMaxSATSession] = {}

    def update(
        self, tree: FaultTree, stop_check: Optional[Callable[[], bool]] = None
    ) -> Tuple[float, int]:
        """Bring every module's optimum in line with ``tree``.

        A module whose root's children are all leaves takes its optimum by
        rule (:func:`_optimum_by_rule`); any other is solved by its session,
        under the cooperative cancellation hook ``stop_check``.  Returns the
        seconds and the SAT calls the session solves took.  A failed update
        forgets every optimum, so the next one starts afresh.
        """
        structure = tree.compiled()
        if structure is not self.structure:
            self._reset(structure)
        try:
            return self._update(tree, stop_check)
        except BaseException:
            self._reset(structure)
            raise

    def _update(
        self, tree: FaultTree, stop_check: Optional[Callable[[], bool]]
    ) -> Tuple[float, int]:
        modules = self.structure.modules
        value = self._value
        # A first update solves every module; a later one only those above a
        # change.  Skeletons are numbered bottom-up and a sorted list is a
        # heap, so either way a module is solved after every sub-module below it.
        fresh = not self._chosen
        pending: List[int] = list(range(len(modules))) if fresh else []
        queued: Set[int] = set()

        def touch(name: str) -> None:
            if self._parent is None:
                self._parent = {
                    node: index
                    for index, skeleton in enumerate(modules)
                    for node in skeleton.order[:-1]
                }
            index = self._parent.get(name)
            if index is not None and index not in queued:
                queued.add(index)
                heapq.heappush(pending, index)

        changed: Dict[str, float] = {}
        for name, event in tree.events.items():
            probability = event.probability
            if self._probabilities.get(name) != probability:
                changed[name] = probability
        self._probabilities.update(changed)
        for name, weight, objective in weigh_events(changed.items(), self.structure):
            self.weights[name] = weight
            value[name] = (objective, weight)
            if not fresh:
                touch(name)
        seconds = 0.0
        sat_calls = 0
        while pending:
            skeleton = modules[heapq.heappop(pending)]
            if skeleton.by_rule:
                leaves = _optimum_by_rule(skeleton.gates[-1], value)
            else:
                session = self.sessions.get(skeleton)
                if session is None:
                    session = self.sessions[skeleton] = IncrementalMaxSATSession(skeleton)
                started = time.perf_counter()
                calls = session.sat_calls
                leaves = session.solve(value, stop_check)
                seconds += time.perf_counter() - started
                sat_calls += session.sat_calls - calls
            self._chosen[skeleton.root] = leaves
            optimum = (
                sum(value[leaf][0] for leaf in leaves),
                sum(value[leaf][1] for leaf in leaves),
            )
            if value.get(skeleton.root) != optimum:
                value[skeleton.root] = optimum
                if not fresh:
                    touch(skeleton.root)
        return seconds, sat_calls

    def optimum(self) -> Tuple[Tuple[str, ...], int, float]:
        """The top's optimal cut set (sorted), its objective and its weight."""
        top = self.structure.order[self.structure.top]
        cut_set: List[str] = []
        stack = [top]
        while stack:
            name = stack.pop()
            if name in self._chosen:
                stack.extend(self._chosen[name])
            else:
                cut_set.append(name)
        objective, weight = self._value[top]
        return tuple(sorted(cut_set)), objective, weight


class MPMCSSolver:
    """Compute Maximum Probability Minimal Cut Sets with MaxSAT.

    Parameters
    ----------
    single_engine:
        When given, this engine alone solves one whole-tree encoding per
        optimum, and a ranking is a blocked enumeration of them
        (:func:`rank_optima`): the oracle of the tests and the paper
        reproductions.

    Without ``single_engine``, :meth:`solve` works module by module.  The
    MaxSAT objective (:func:`~repro.maxsat.instance.objective_weight`) is
    additive over disjoint event sets and no two sets tie, so the optimum of
    an independent module follows from the optima of its maximal proper
    sub-modules (:attr:`~repro.fta.compiled.CompiledStructure.modules`).
    The modules are solved bottom-up: one whose root's children are all
    leaves takes its optimum by rule (AND: every child; OR: the cheapest
    child; k-of-n: the k cheapest children), and every other one takes one
    solve of its skeleton's
    :class:`~repro.maxsat.incremental.IncrementalMaxSATSession` (an implicit
    hitting set loop), in which each sub-module is a single pseudo-event
    weighted by its optimum's objective.  The result is the whole-tree
    optimum, found with fewer and smaller solves; its ``engine`` reads
    :data:`~repro.maxsat.incremental.SESSION_ENGINE` when some module needs a
    search and :data:`MODULE_RULE_ENGINE` otherwise.  :meth:`rank` walks the
    modules the same way (see there), so the default solver never builds a
    whole-tree encoding.

    :attr:`stop_check` is the cooperative cancellation hook (a service job's
    guard): the sessions, a ranking's among them, and the engine of
    :meth:`solve_encoding` all poll it, and a module-route solve or ranking
    it stops raises :class:`~repro.exceptions.SolverInterrupted`.

    Every returned cut set is checked to be a minimal cut set of the fault
    tree; an :class:`AnalysisError` is raised otherwise.  The check is one
    bit-parallel pass over the compiled tree
    (:meth:`~repro.fta.tree.FaultTree.is_minimal_cut_set`) and catches
    encoding or solver regressions early.
    """

    def __init__(self, *, single_engine: Optional[MaxSATEngine] = None) -> None:
        self.single_engine = single_engine
        #: Zero-argument callable returning true once every solve should stop.
        self.stop_check: Optional[Callable[[], bool]] = None

    # -- public API ----------------------------------------------------------------

    def solve(self, tree: FaultTree) -> MPMCSResult:
        """Run the full six-step pipeline on ``tree``, module by module
        unless ``single_engine`` is set (see the class docstring)."""
        start = time.perf_counter()
        if self.single_engine is not None:
            # Steps 1-4 over the whole tree, then Steps 5-6.
            result = self.solve_encoding(tree, encode_mpmcs(tree))
        else:
            result = self.solve_modules(tree, ModuleOptima(tree.compiled()))
        result.total_time = time.perf_counter() - start
        return result

    def solve_modules(self, tree: FaultTree, optima: ModuleOptima) -> MPMCSResult:
        """Steps 3-6 module by module: ``optima`` brought in line with
        ``tree`` (:meth:`ModuleOptima.update`).  The reported instance size
        is the whole-tree encoding's, assembled only if it is read."""
        start = time.perf_counter()
        seconds, sat_calls = optima.update(tree, self.stop_check)
        cut_set, objective, weight = optima.optimum()
        engine = SESSION_ENGINE if optima.sessions else MODULE_RULE_ENGINE
        return self._result(
            tree,
            cut_set,
            optima.weights,
            _merged_result(engine, objective, weight, seconds, sat_calls),
            start,
            len(optima.weights),
            optima.structure,
        )

    def solve_encoding(
        self, tree: FaultTree, encoding: MPMCSEncoding
    ) -> MPMCSResult:
        """Solve an already-built encoding (Steps 5-6) with ``single_engine``,
        or with RC2 (which hands a solve that outgrows its core budget to the
        hitting set engine)."""
        start = time.perf_counter()
        engine = self.single_engine or RC2Engine()
        engine.stop_check = self.stop_check
        maxsat_result = engine.solve(encoding.instance)
        instance = encoding.instance
        return self._result(
            tree,
            encoding.cut_set_from_model(self._model(tree, maxsat_result)),
            encoding.weights,
            maxsat_result,
            start,
            instance.num_soft,
            (instance.num_vars, instance.num_hard, encoding.num_aux_vars),
        )

    def rank(self, tree: FaultTree, count: int) -> List[MPMCSResult]:
        """Up to ``count`` minimal cut sets of ``tree``, in canonical order.

        One cut set is :meth:`solve`.  Without ``single_engine``, two or
        more walk the modules bottom-up, each keeping its ``count`` cheapest
        entries (:data:`Entry`): an OR merges its children's lists, an AND
        or k-of-n searches them (:func:`_k_best`), and a skeleton that needs
        a search lists its own cut sets on a session (:func:`_rank_skeleton`).
        The objective adds up over independent children and no two cut sets
        tie, so the sums order cut sets canonically.  The skeleton walks'
        seconds and SAT calls are reported on the first entry, so a sum over
        the ranking counts them once.  With ``single_engine`` it is
        :func:`rank_optima` over :meth:`optima`.
        """
        if count < 2 or self.single_engine is not None:
            return rank_optima(self.optima(tree), count)
        start = time.perf_counter()
        structure = tree.compiled()
        weights, objectives = event_weights(tree)
        ranked: Dict[str, List[Entry]] = {
            name: [(objective, name)] for name, objective in objectives.items()
        }
        engine = MODULE_RULE_ENGINE
        seconds = 0.0
        sat_calls = 0
        for skeleton in structure.modules:
            if not skeleton.by_rule:
                engine = SESSION_ENGINE
                ranked[skeleton.root], took, calls = _rank_skeleton(
                    skeleton, ranked, count, self.stop_check
                )
                seconds += took
                sat_calls += calls
                continue
            gate = skeleton.gates[-1]
            children = [ranked[child] for child in gate.children]
            if gate.gate_type is GateType.OR:
                ranked[skeleton.root] = list(islice(heapq.merge(*children), count))
            else:
                k = len(children) if gate.gate_type is GateType.AND else gate.k
                ranked[skeleton.root] = _k_best(children, k, count)
        results = []
        for objective, parts in ranked[structure.order[structure.top]]:
            cut_set = _cut_set(parts)
            weight = sum(weights[name] for name in cut_set)
            merged = _merged_result(engine, objective, weight, seconds, sat_calls)
            seconds, sat_calls = 0.0, 0
            results.append(
                self._result(tree, cut_set, weights, merged, start, len(weights), structure)
            )
        return results

    def optima(self, tree: FaultTree) -> Callable[[Found], Optional[MPMCSResult]]:
        """The cold ``solve`` callable of :func:`rank_optima`.

        The first, unblocked call is :meth:`solve`.  The first blocked call
        builds the whole-tree encoding (:func:`encode_mpmcs`), which the
        callable owns; each blocked call adds the blocking clauses of the
        newly found cut sets to it and solves it.  :meth:`rank` uses it for
        one cut set, or with ``single_engine``.
        """
        encoding: Optional[MPMCSEncoding] = None
        blocks = 0

        def solve(found: Sequence[Tuple[str, ...]]) -> Optional[MPMCSResult]:
            nonlocal encoding, blocks
            try:
                if not found:
                    return self.solve(tree)
                if encoding is None:
                    encoding = encode_mpmcs(tree)
                for events in found[blocks:]:
                    encoding.instance.add_hard([-encoding.event_vars[name] for name in events])
                blocks = len(found)
                return self.solve_encoding(tree, encoding)
            except NoCutSetError:
                return None

        return solve

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _model(tree: FaultTree, maxsat_result: MaxSATResult) -> Dict[int, bool]:
        """The optimal model of a solve, or the error its status calls for."""
        if maxsat_result.status is MaxSATStatus.UNSATISFIABLE:
            raise NoCutSetError(
                f"fault tree {tree.name!r} has no cut set: the top event cannot occur"
            )
        if maxsat_result.status is not MaxSATStatus.OPTIMUM or maxsat_result.model is None:
            raise AnalysisError(
                f"MaxSAT resolution did not reach an optimum for fault tree {tree.name!r} "
                f"(status: {maxsat_result.status.value})"
            )
        return maxsat_result.model

    @staticmethod
    def _result(
        tree: FaultTree,
        cut_set: Tuple[str, ...],
        weights: Dict[str, float],
        maxsat_result: MaxSATResult,
        start: float,
        num_soft: int,
        encoding_sizes: Union[Tuple[int, int, int], CompiledStructure],
    ) -> MPMCSResult:
        """Step 6: the checked cut set and its reverse log-space transformation.

        ``num_soft`` and ``encoding_sizes`` describe the whole-tree encoding
        (see :class:`MPMCSResult`).
        """
        if not tree.is_minimal_cut_set(cut_set):
            raise AnalysisError(
                f"internal error: extracted set {cut_set} is not a minimal cut set of "
                f"{tree.name!r}; please report this as a bug"
            )
        return MPMCSResult(
            tree_name=tree.name,
            events=cut_set,
            probability=probability_of_cut_set(cut_set, tree.probabilities()),
            cost=sum(weights[name] for name in cut_set),
            weights={name: weights[name] for name in cut_set},
            engine=maxsat_result.engine,
            solve_time=maxsat_result.solve_time,
            total_time=time.perf_counter() - start,
            num_soft=num_soft,
            sat_calls=maxsat_result.sat_calls,
            encoding_sizes=encoding_sizes,
        )


def _optimum_by_rule(gate: Gate, value: Dict[str, Tuple[int, float]]) -> Sequence[str]:
    """The children a module root over independent children takes in its optimum.

    The children's event sets are disjoint, so their optima add up: an AND
    gate takes every child, an OR gate its cheapest child and a k-of-n gate
    its k cheapest children (no two children cost the same).
    """
    if gate.gate_type is GateType.AND:
        return gate.children
    if gate.gate_type is GateType.OR:
        return [min(gate.children, key=lambda child: value[child][0])]
    return sorted(gate.children, key=lambda child: value[child][0])[: gate.k]


def _k_best(children: Sequence[List[Entry]], k: int, count: int) -> List[Entry]:
    """The ``count`` cheapest cut sets of a k-of-n gate over independent children.

    ``children`` holds each child's cheapest entries, cheapest first; a cut
    set of the gate joins one entry from each of ``k`` distinct children (an
    AND is ``k = n``: the k-best sums of Frederickson & Johnson, JCSS 24(2),
    1982).  The search is best-first over states ``((position, rank), ...)``
    of chosen children, positioned in the order of their cheapest entries.
    A successor raises one chosen child's rank by one, or swaps a chosen
    child at rank 0 for the next child in that order, if that one is
    unchosen.  Every other state has a strictly cheaper predecessor (lower a
    raised rank; or swap back a chosen child whose previous child is
    unchosen), so states leave the heap in cost order.  Three cuts drop only
    states that ``count`` cheaper states precede: choosing a position
    ``p ≥ k + count - 1`` takes at least ``count`` swaps; an AND that
    raises any child but the ``count - 1`` whose second entry adds least
    costs more than the all-heads state and each of those raised alone; and
    a successor dearer than ``count`` states already pushed is not pushed
    (costs never fall along successor edges, so nothing it leads to is
    needed either).
    """
    heads = sorted(children, key=lambda entries: entries[0][0])[: k + count - 1]
    if k == len(heads):
        kept = heapq.nsmallest(
            count - 1,
            (position for position, entries in enumerate(heads) if len(entries) > 1),
            key=lambda position: heads[position][1][0] - heads[position][0][0],
        )
        heads = [
            entries if position in kept else entries[:1] for position, entries in enumerate(heads)
        ]
    start = tuple((position, 0) for position in range(k))
    start_cost = sum(heads[position][0][0] for position in range(k))
    heap = [(start_cost, start)]
    seen = {start}
    # The ``count`` smallest costs pushed so far, negated (a max-heap): a
    # successor dearer than the largest of them is preceded by ``count``
    # cheaper states, and so is everything reached through it.
    bound = [-start_cost]
    ranked: List[Entry] = []

    def push(
        cost: int, state: Tuple[Tuple[int, int], ...], index: int, pair: Tuple[int, int]
    ) -> None:
        """Push ``state`` with ``pair`` at ``index``, unless ``count`` cheaper precede it."""
        if len(bound) == count and cost > -bound[0]:
            return
        successor = state[:index] + (pair,) + state[index + 1 :]
        if successor not in seen:
            seen.add(successor)
            heapq.heappush(heap, (cost, successor))
            if len(bound) < count:
                heapq.heappush(bound, -cost)
            elif cost < -bound[0]:
                heapq.heapreplace(bound, -cost)

    while heap and len(ranked) < count:
        cost, state = heapq.heappop(heap)
        ranked.append((cost, tuple(heads[position][rank] for position, rank in state)))
        for index, (position, rank) in enumerate(state):
            entries = heads[position]
            if rank + 1 < len(entries):
                raised = cost - entries[rank][0] + entries[rank + 1][0]
                push(raised, state, index, (position, rank + 1))
            following = position + 1
            if (
                rank == 0
                and following < len(heads)
                and (index + 1 == k or state[index + 1][0] != following)
            ):
                push(cost - entries[0][0] + heads[following][0][0], state, index, (following, 0))
    return ranked


def _rank_skeleton(
    skeleton: Skeleton,
    ranked: Dict[str, List[Entry]],
    count: int,
    stop_check: Optional[Callable[[], bool]],
) -> Tuple[List[Entry], float, int]:
    """The ``count`` cheapest entries of a module whose skeleton needs a search.

    Lawler's partition (Management Science 18(7), 1972) over the skeleton
    alone: every minimal cut set of the module joins one minimal cut set
    ``S`` of the skeleton with one entry of each leaf in ``S`` (the
    :func:`_k_best` join of the leaves' lists), and costs at least ``S``'s
    *base cost*, the sum of its leaves' cheapest entries.  A session of the
    ranking's own, each leaf weighed by its cheapest entry, lists the sets
    ``S`` cheapest first, blocking each once found, so every solve starts
    from the cores of the solves before it.  The walk stops after ``count``
    sets, when none is left, or at a set whose base cost exceeds the
    ``count``-th entry held.  Returns the entries and the walk's seconds and
    SAT calls; a session over its budget raises :class:`AnalysisError`.
    """
    started = time.perf_counter()
    session = IncrementalMaxSATSession(skeleton)
    cheapest = {leaf: ranked[leaf][0] for leaf in session.event_vars}
    entries: List[Entry] = []
    for _ in range(count):
        try:
            chosen = session.solve(cheapest, stop_check)
        except NoCutSetError:
            break
        except BudgetExceededError as exc:
            raise AnalysisError(
                f"the skeleton of module {skeleton.root!r} gave no optimum ({exc})"
            ) from exc
        if len(entries) == count and sum(cheapest[leaf][0] for leaf in chosen) > entries[-1][0]:
            break
        joined = _k_best([ranked[leaf] for leaf in chosen], len(chosen), count)
        entries = list(islice(heapq.merge(entries, joined), count))
        session.block(chosen)
    return entries, time.perf_counter() - started, session.sat_calls


def _cut_set(parts: Union[str, Tuple[Any, ...]]) -> Tuple[str, ...]:
    """The sorted events of an :data:`Entry`'s parts, walked without recursion."""
    events: List[str] = []
    stack = [parts]
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            events.append(part)
        else:
            stack.extend(entry[1] for entry in part)
    return tuple(sorted(events))


def _merged_result(
    engine: str, cost: int, float_cost: float, seconds: float, sat_calls: int
) -> MaxSATResult:
    """One result for a modular solve, its skeleton solves' ``seconds`` and
    ``sat_calls`` summed, under the engine name ``engine``."""
    return MaxSATResult(
        MaxSATStatus.OPTIMUM,
        cost=cost,
        float_cost=float_cost,
        engine=engine,
        solve_time=seconds,
        sat_calls=sat_calls,
    )


def find_mpmcs(tree: FaultTree, **kwargs: object) -> MPMCSResult:
    """Convenience wrapper: ``MPMCSSolver(**kwargs).solve(tree)``."""
    return MPMCSSolver(**kwargs).solve(tree)  # type: ignore[arg-type]
