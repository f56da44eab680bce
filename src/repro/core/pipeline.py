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
from itertools import chain, islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.encoder import MPMCSEncoding, encode_mpmcs, weigh_events
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

#: A node's cheapest entries, cheapest first.
Ranked = Tuple[Entry, ...]


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
    """The ``count`` cheapest cut sets of every independent module of one
    structure, kept up to date.

    :attr:`ranked` holds each event's entry and each module root's ``count``
    cheapest entries (:data:`Entry`), cheapest first; entries are tuples
    because the garbage collector untracks tuples of atoms but walks every
    list on each full collection.  :meth:`update` brings them in line with
    a tree's probabilities.  Only the events whose probability changed
    since the previous update are re-weighed, and only the modules above
    them are walked again, bottom-up: a module whose entries keep their
    objectives stops the climb (an objective fixes its event set, see
    :func:`~repro.maxsat.instance.objective_weight`).  A first update, or
    one for a tree of another structure, walks every module.  Each skeleton
    that needs a search is walked on an
    :class:`~repro.maxsat.incremental.IncrementalMaxSATSession`,
    which starts from the skeleton's core memo: one kept across updates
    (:attr:`sessions`) for one cut set, a fresh one per walk for more (a
    ranking blocks the sets it finds).  A cold analysis uses a fresh
    instance; the ``maxsat`` backend's warm route keeps one per structure,
    sessions and all, across the probability-only trees of a batch.
    """

    def __init__(self, structure: CompiledStructure, count: int = 1) -> None:
        self.count = count
        self._reset(structure)

    def _reset(self, structure: CompiledStructure) -> None:
        self.structure = structure
        #: The index, in ``structure.modules``, of the skeleton that holds each
        #: node other than the top; built by the first update that keeps
        #: earlier entries.
        self._parent: Optional[Dict[str, int]] = None
        self._probabilities: Dict[str, float] = {}
        #: Each event's ``-log`` weight.
        self.weights: Dict[str, float] = {}
        #: The ``count`` cheapest entries of every event and module root.
        self.ranked: Dict[str, Ranked] = {}
        #: Whether some module's skeleton needs a search.
        self.searched = False
        #: At count 1, the session of each skeleton that needs a search,
        #: forgotten with the entries.
        self.sessions: Dict[Skeleton, IncrementalMaxSATSession] = {}

    def update(
        self, tree: FaultTree, stop_check: Optional[Callable[[], bool]] = None
    ) -> Tuple[float, int]:
        """Bring every module's entries in line with ``tree``.

        A module whose root's children are all leaves takes its entries by
        rule (:func:`_ranked_by_rule`); any other lists them on a session
        (:func:`_rank_skeleton`), under the cooperative cancellation hook
        ``stop_check``.  Returns the seconds and the SAT calls the session
        solves took.  A failed update forgets every entry, so the next one
        starts afresh.
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
        ranked = self.ranked
        count = self.count
        # A first update walks every module; a later one only those above a
        # change.  Skeletons are numbered bottom-up and a sorted list is a
        # heap, so either way a module is walked after every sub-module below it.
        fresh = not ranked
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
            ranked[name] = ((objective, name),)
            if not fresh:
                touch(name)
        seconds = 0.0
        sat_calls = 0
        while pending:
            skeleton = modules[heapq.heappop(pending)]
            if skeleton.by_rule:
                entries = _ranked_by_rule(skeleton.gates[-1], ranked, count)
            else:
                self.searched = True
                session = self.sessions.get(skeleton)
                if session is None:
                    session = IncrementalMaxSATSession(skeleton)
                    if count == 1:
                        # A ranking's session keeps the sets it blocked.
                        self.sessions[skeleton] = session
                entries, took, calls = _rank_skeleton(session, ranked, count, stop_check)
                seconds += took
                sat_calls += calls
            previous = ranked.get(skeleton.root, ())
            ranked[skeleton.root] = entries
            if not fresh and [entry[0] for entry in previous] != [entry[0] for entry in entries]:
                touch(skeleton.root)
        return seconds, sat_calls


class MPMCSSolver:
    """Compute Maximum Probability Minimal Cut Sets with MaxSAT.

    Parameters
    ----------
    single_engine:
        When given, this engine alone solves one whole-tree encoding per
        optimum, and a ranking is a blocked enumeration of them
        (:func:`rank_optima`): the oracle of the tests and the paper
        reproductions.

    Without ``single_engine``, :meth:`solve` and :meth:`rank` walk the
    modules (:meth:`solve_modules`).  The MaxSAT objective
    (:func:`~repro.maxsat.instance.objective_weight`) is additive over
    disjoint event sets and no two sets tie, so the cheapest cut sets of an
    independent module follow from those of its maximal proper sub-modules
    (:attr:`~repro.fta.compiled.CompiledStructure.modules`).  The modules are
    walked bottom-up, each keeping its ``count`` cheapest entries
    (:data:`Entry`): one whose root's children are all leaves takes them by
    rule (:func:`_ranked_by_rule`), and every other one lists its
    skeleton's own cut sets on an
    :class:`~repro.maxsat.incremental.IncrementalMaxSATSession` (an implicit
    hitting set loop per cut set, :func:`_rank_skeleton`), in which each
    sub-module is a single pseudo-event weighted by its cheapest entry's
    objective.  The result is the whole-tree ranking, found with fewer and
    smaller solves; its ``engine`` reads
    :data:`~repro.maxsat.incremental.SESSION_ENGINE` when some module needs a
    search and :data:`MODULE_RULE_ENGINE` otherwise.  The default solver
    never builds a whole-tree encoding.

    :attr:`stop_check` is the cooperative cancellation hook (a service job's
    guard): the sessions and the engine of :meth:`solve_encoding` poll it,
    and a module walk it stops raises
    :class:`~repro.exceptions.SolverInterrupted`.  A session over its budget
    (after its retry from no core) fails the walk with an
    :class:`AnalysisError` chained from the
    :class:`~repro.exceptions.BudgetExceededError`, whatever the count.

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
            (result,) = self.solve_modules(tree, ModuleOptima(tree.compiled()))
        result.total_time = time.perf_counter() - start
        return result

    def solve_modules(self, tree: FaultTree, optima: ModuleOptima) -> List[MPMCSResult]:
        """Steps 3-6 module by module: up to ``optima.count`` cut sets of
        ``tree`` in canonical order, from ``optima`` brought in line with
        ``tree`` (:meth:`ModuleOptima.update`).  The walk's seconds and SAT
        calls are reported on the first result, so a sum over the list
        counts them once.  The reported instance size is the whole-tree
        encoding's, assembled only if it is read."""
        start = time.perf_counter()
        seconds, sat_calls = optima.update(tree, self.stop_check)
        engine = SESSION_ENGINE if optima.searched else MODULE_RULE_ENGINE
        structure, weights = optima.structure, optima.weights
        results = []
        for _, parts in optima.ranked[structure.order[structure.top]]:
            walk = MaxSATResult(
                MaxSATStatus.OPTIMUM, engine=engine, solve_time=seconds, sat_calls=sat_calls
            )
            seconds, sat_calls = 0.0, 0
            results.append(
                self._result(tree, _cut_set(parts), weights, walk, start, len(weights), structure)
            )
        return results

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
        """Up to ``count`` minimal cut sets of ``tree``, in canonical order:
        :meth:`solve_modules` on fresh ``ModuleOptima(structure, count)``, or
        with ``single_engine`` :func:`rank_optima` over :meth:`optima`."""
        if count < 1:
            return []
        if self.single_engine is not None:
            return rank_optima(self.optima(tree), count)
        return self.solve_modules(tree, ModuleOptima(tree.compiled(), count))

    def optima(self, tree: FaultTree) -> Callable[[Found], Optional[MPMCSResult]]:
        """The cold ``solve`` callable of :func:`rank_optima`, for
        ``single_engine``.

        The first, unblocked call is :meth:`solve`.  The first blocked call
        builds the whole-tree encoding (:func:`encode_mpmcs`), which the
        callable owns; each blocked call adds the blocking clauses of the
        newly found cut sets to it and solves it.
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


def _ranked_by_rule(gate: Gate, ranked: Dict[str, Ranked], count: int) -> Ranked:
    """The ``count`` cheapest entries of a module root over independent children.

    The children's event sets are disjoint, so their entries join by adding
    objectives: an OR takes the cheapest of its children's entries, an AND
    one entry of every child and a k-of-n one of each of k children
    (:func:`_k_best`).
    """
    children = [ranked[child] for child in gate.children]
    if gate.gate_type is GateType.OR:
        return tuple(heapq.nsmallest(count, chain.from_iterable(children)))
    return _k_best(children, len(children) if gate.gate_type is GateType.AND else gate.k, count)


def _k_best(children: Sequence[Ranked], k: int, count: int) -> Ranked:
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
    needed either).  One cut set is the ``k`` cheapest heads.
    """
    # The search below, run for one cut set, costs the cold count-1 walk
    # about a fifth of its throughput (E4 trees of 600 events).
    if count == 1:
        heads = [entries[0] for entries in children]
        if k < len(heads):
            heads = heapq.nsmallest(k, heads)
        return ((sum(entry[0] for entry in heads), tuple(heads)),)
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
    return tuple(ranked)


def _rank_skeleton(
    session: IncrementalMaxSATSession,
    ranked: Dict[str, Ranked],
    count: int,
    stop_check: Optional[Callable[[], bool]],
) -> Tuple[Ranked, float, int]:
    """The ``count`` cheapest entries of a module whose skeleton needs a search.

    Lawler's partition (Management Science 18(7), 1972) over the skeleton
    alone: every minimal cut set of the module joins one minimal cut set
    ``S`` of the skeleton with one entry of each leaf in ``S`` (the
    :func:`_k_best` join of the leaves' entries), and costs at least ``S``'s
    *base cost*, the sum of its leaves' cheapest entries.  ``session``, each
    leaf weighed by its cheapest entry, lists the sets ``S`` cheapest first,
    blocking the previous set only before it solves again, so one cut set
    blocks nothing and leaves the session fit for later updates.  Every
    solve starts from the session's cores.  The walk stops after ``count``
    sets, when none is left, or at a set whose base cost exceeds the
    ``count``-th entry held.  Returns the entries and the walk's seconds and
    SAT calls; a session over its budget (after its retry from no core)
    raises :class:`AnalysisError`, chained from its
    :class:`BudgetExceededError`.
    """
    started = time.perf_counter()
    calls = session.sat_calls
    cheapest = {leaf: ranked[leaf][0] for leaf in session.event_vars}
    entries: Ranked = ()
    chosen: List[str] = []
    for solved in range(count):
        if solved:
            session.block(chosen)
        try:
            chosen = session.solve(cheapest, stop_check)
        except NoCutSetError:
            break
        except BudgetExceededError as exc:
            raise AnalysisError(
                f"the skeleton of module {session.skeleton.root!r} gave no optimum ({exc})"
            ) from exc
        if len(entries) == count and sum(cheapest[leaf][0] for leaf in chosen) > entries[-1][0]:
            break
        joined = _k_best([ranked[leaf] for leaf in chosen], len(chosen), count)
        entries = tuple(islice(heapq.merge(entries, joined), count)) if entries else joined
    return entries, time.perf_counter() - started, session.sat_calls - calls


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


def find_mpmcs(tree: FaultTree, **kwargs: object) -> MPMCSResult:
    """Convenience wrapper: ``MPMCSSolver(**kwargs).solve(tree)``."""
    return MPMCSSolver(**kwargs).solve(tree)  # type: ignore[arg-type]
