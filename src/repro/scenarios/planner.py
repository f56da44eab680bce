"""Budgeted mitigation planning: which components to harden first.

The MPMCS names the weakest link; this module turns that insight into a
*plan*.  Given a set of candidate :class:`HardeningAction`\\ s (per-event cost
and effect) and a budget, the planner selects the action subset that pushes
the Maximum Probability Minimal Cut Set down the most:

* :func:`greedy_plan` — the classical cost-effectiveness baseline: repeatedly
  buy the affordable action with the best objective reduction per unit cost.
  Fast, and optimal surprisingly often, but it can be trapped (hardening the
  current MPMCS may just promote the runner-up cut set).
* :func:`exact_plan` — an exact re-encoding into Weighted Partial MaxSAT,
  solved with RC2 (:class:`~repro.maxsat.rc2.RC2Engine`).  The objective
  ``min_H max_C P'(C)`` becomes, in the paper's ``-log`` weight space,
  ``max_H min_C w'(C)`` — a bottleneck problem solved by binary search over
  the finite set of achievable cut-set weights.  Each feasibility probe
  asks: *is there a selection of actions, of minimal total cost, under which
  every minimal cut set weighs at least θ?*  Per-cut-set weight constraints
  are pseudo-Boolean and compile through the generalized totalizer
  (:func:`repro.maxsat.pb.encode_weighted_at_most`); action costs become soft
  clauses, so the MaxSAT optimum is the cheapest plan reaching θ.

:func:`rank_actions` provides the tornado-style sensitivity ranking: the
one-at-a-time impact of every candidate action on the top-event probability
and the MPMCS, sorted by risk reduction.

:func:`pareto_frontier` generalises the planners from one budget point to the
whole trade-off curve: every Pareto-optimal ``(cost, post-hardening MPMCS)``
pair, found by walking the achievable-threshold lattice with the same MaxSAT
feasibility probe the exact planner uses (the cheapest-selection cost is a
monotone step function of the threshold, so a recursive bisection localises
every step with O(points x log thresholds) probes instead of one probe per
threshold).  Large action sets fall back to a greedy sweep that records one
frontier point per purchase.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.cutsets import CutSet, CutSetCollection
from repro.analysis.topevent import top_event_probability_from_cut_sets
from repro.api.cache import ArtifactCache
from repro.core.weights import log_weight
from repro.exceptions import AnalysisError, SolverError
from repro.fta.tree import FaultTree
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.pb import encode_weighted_at_most
from repro.maxsat.rc2 import RC2Engine
from repro.maxsat.result import MaxSATStatus
from repro.scenarios.incremental import incremental_cut_sets
from repro.scenarios.patches import DEFAULT_HARDENING_FACTOR, Harden

__all__ = [
    "ActionImpact",
    "FrontierPoint",
    "HardeningAction",
    "MitigationPlan",
    "ParetoFrontier",
    "exact_plan",
    "greedy_plan",
    "pareto_frontier",
    "plan_mitigation",
    "rank_actions",
]

#: Guard on the exact planner's threshold enumeration: every cut set
#: contributes ``2**|C ∩ actions|`` candidate weights.
_MAX_THRESHOLD_CANDIDATES = 200_000

#: Objective reductions below this *relative* slice of the current objective
#: are treated as zero by the greedy planner: an action whose entire effect
#: vanishes in float noise (or rounds to nothing at the exact planner's
#: precision) must not be bought — spending budget for no measurable risk
#: reduction is strictly worse than returning the base plan.
_MIN_RELATIVE_REDUCTION = 1e-9


@dataclass(frozen=True)
class HardeningAction:
    """One purchasable mitigation: harden ``event`` at ``cost``.

    The effect is either an explicit target ``probability`` or a
    multiplicative ``factor`` (default
    :data:`~repro.scenarios.patches.DEFAULT_HARDENING_FACTOR`); hardening may
    only lower the probability.
    """

    event: str
    cost: float
    factor: Optional[float] = None
    probability: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.event, str) or not self.event:
            raise AnalysisError(f"action event must be a non-empty string, got {self.event!r}")
        cost = self.cost
        if not isinstance(cost, (int, float)) or isinstance(cost, bool):
            raise AnalysisError(
                f"action cost for {self.event!r} must be a number, got {type(cost).__name__}"
            )
        if not math.isfinite(cost) or cost <= 0:
            raise AnalysisError(f"action cost for {self.event!r} must be positive")

    def as_patch(self) -> Harden:
        return Harden(self.event, factor=self.factor, probability=self.probability)

    def hardened_probability(self, base: float) -> float:
        return self.as_patch().hardened_probability(base)

    @property
    def label(self) -> str:
        return self.as_patch().label


@dataclass(frozen=True)
class ActionImpact:
    """Tornado-style one-at-a-time impact of a single hardening action."""

    action: HardeningAction
    top_event_before: float
    top_event_after: float
    mpmcs_probability_before: float
    mpmcs_probability_after: float

    @property
    def top_event_reduction(self) -> float:
        return self.top_event_before - self.top_event_after

    @property
    def reduction_per_cost(self) -> float:
        return self.top_event_reduction / self.action.cost


@dataclass(frozen=True)
class MitigationPlan:
    """The selected hardening set and its projected effect."""

    method: str
    budget: float
    selected: Tuple[HardeningAction, ...]
    total_cost: float
    base_mpmcs: Tuple[str, ...]
    base_mpmcs_probability: float
    new_mpmcs: Tuple[str, ...]
    new_mpmcs_probability: float
    base_top_event: float
    new_top_event: float

    @property
    def events(self) -> Tuple[str, ...]:
        """Names of the hardened events, sorted."""
        return tuple(sorted(action.event for action in self.selected))

    @property
    def mpmcs_reduction(self) -> float:
        return self.base_mpmcs_probability - self.new_mpmcs_probability

    @property
    def top_event_reduction(self) -> float:
        return self.base_top_event - self.new_top_event

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "budget": self.budget,
            "selected": [
                {"event": action.event, "cost": action.cost, "effect": action.label}
                for action in self.selected
            ],
            "total_cost": self.total_cost,
            "base_mpmcs": list(self.base_mpmcs),
            "base_mpmcs_probability": self.base_mpmcs_probability,
            "new_mpmcs": list(self.new_mpmcs),
            "new_mpmcs_probability": self.new_mpmcs_probability,
            "base_top_event": self.base_top_event,
            "new_top_event": self.new_top_event,
        }


# -- shared evaluation helpers -----------------------------------------------------------


def _cut_set_structure(
    tree: FaultTree, cache: Optional[ArtifactCache]
) -> List[CutSet]:
    collection = incremental_cut_sets(tree, cache if cache is not None else ArtifactCache())
    if not len(collection):
        raise AnalysisError(f"fault tree {tree.name!r} has no cut set to mitigate")
    return list(collection)


def _probabilities_under(
    tree: FaultTree, selection: Iterable[HardeningAction]
) -> Dict[str, float]:
    probabilities = tree.probabilities()
    for action in selection:
        probabilities[action.event] = action.hardened_probability(
            tree.probability(action.event)
        )
    return probabilities


def _mpmcs_under(
    structure: Sequence[CutSet], probabilities: Mapping[str, float]
) -> Tuple[Tuple[str, ...], float]:
    collection = CutSetCollection(cut_sets=list(structure), probabilities=probabilities)
    events, probability = collection.most_probable()
    return tuple(sorted(events)), probability


def _top_event_under(
    structure: Sequence[CutSet], probabilities: Mapping[str, float]
) -> float:
    return top_event_probability_from_cut_sets(structure, probabilities, method="auto")


def validate_actions(tree: FaultTree, actions: Sequence[HardeningAction]) -> None:
    seen: Set[str] = set()
    for action in actions:
        if not tree.is_event(action.event):
            raise AnalysisError(f"action references unknown basic event {action.event!r}")
        if action.event in seen:
            raise AnalysisError(f"multiple actions target event {action.event!r}")
        seen.add(action.event)
        base = tree.probability(action.event)
        if action.hardened_probability(base) > base:
            raise AnalysisError(
                f"action on {action.event!r} would raise its probability; "
                "hardening must not make things worse"
            )


# -- tornado-style sensitivity ranking ---------------------------------------------------


def rank_actions(
    tree: FaultTree,
    actions: Sequence[HardeningAction],
    *,
    cache: Optional[ArtifactCache] = None,
) -> List[ActionImpact]:
    """One-at-a-time impact of each action, sorted by top-event reduction.

    The classical tornado diagram restricted to the downside every action can
    actually buy; ties break on cost (cheaper first) then event name.
    """
    validate_actions(tree, actions)
    structure = _cut_set_structure(tree, cache)
    base_probabilities = tree.probabilities()
    base_top = _top_event_under(structure, base_probabilities)
    _, base_mpmcs_probability = _mpmcs_under(structure, base_probabilities)
    impacts = []
    for action in actions:
        probabilities = _probabilities_under(tree, [action])
        _, mpmcs_probability = _mpmcs_under(structure, probabilities)
        impacts.append(
            ActionImpact(
                action=action,
                top_event_before=base_top,
                top_event_after=_top_event_under(structure, probabilities),
                mpmcs_probability_before=base_mpmcs_probability,
                mpmcs_probability_after=mpmcs_probability,
            )
        )
    return sorted(
        impacts,
        key=lambda impact: (
            -impact.top_event_reduction,
            impact.action.cost,
            impact.action.event,
        ),
    )


# -- greedy baseline ---------------------------------------------------------------------


def _objective_value(
    tree: FaultTree,
    structure: Sequence[CutSet],
    selection: Sequence[HardeningAction],
    objective: str,
) -> float:
    probabilities = _probabilities_under(tree, selection)
    if objective == "mpmcs":
        return _mpmcs_under(structure, probabilities)[1]
    return _top_event_under(structure, probabilities)


def _greedy_purchases(
    tree: FaultTree,
    structure: Sequence[CutSet],
    actions: Sequence[HardeningAction],
    *,
    objective: str = "mpmcs",
    budget: Optional[float] = None,
):
    """Yield the cumulative selection after each greedy purchase.

    The one definition of the greedy heuristic — best objective reduction per
    unit cost among the (affordable, when ``budget`` is set) actions whose
    reduction clears :data:`_MIN_RELATIVE_REDUCTION` — shared by
    :func:`greedy_plan` (which keeps only the final selection) and the greedy
    frontier (which records every intermediate one).
    """
    selected: List[HardeningAction] = []
    remaining = list(actions)
    spent = 0.0
    current = _objective_value(tree, structure, selected, objective)
    while True:
        best: Optional[Tuple[float, float, str, HardeningAction]] = None
        for action in remaining:
            if budget is not None and spent + action.cost > budget + 1e-12:
                continue
            value = _objective_value(tree, structure, selected + [action], objective)
            reduction = current - value
            if reduction <= current * _MIN_RELATIVE_REDUCTION:
                continue
            key = (-(reduction / action.cost), action.cost, action.event)
            if best is None or key < best[:3]:
                best = (*key, action)
        if best is None:
            return
        action = best[3]
        selected.append(action)
        remaining.remove(action)
        spent += action.cost
        current = _objective_value(tree, structure, selected, objective)
        yield tuple(selected)


def greedy_plan(
    tree: FaultTree,
    actions: Sequence[HardeningAction],
    budget: float,
    *,
    objective: str = "mpmcs",
    cache: Optional[ArtifactCache] = None,
) -> MitigationPlan:
    """Cost-effectiveness greedy baseline.

    Repeatedly buys the affordable action with the largest objective
    reduction per unit cost (``objective`` is ``"mpmcs"`` — the MPMCS
    probability, the paper's quantity — or ``"top_event"``), stopping when
    the budget is exhausted or no affordable action still reduces the
    objective.
    """
    if objective not in ("mpmcs", "top_event"):
        raise AnalysisError(f"unknown objective {objective!r}; use 'mpmcs' or 'top_event'")
    validate_actions(tree, actions)
    structure = _cut_set_structure(tree, cache)

    selected: Tuple[HardeningAction, ...] = ()
    for selection in _greedy_purchases(
        tree, structure, actions, objective=objective, budget=budget
    ):
        selected = selection

    return _assemble_plan(tree, structure, selected, budget, method="greedy")


# -- exact MaxSAT planner ----------------------------------------------------------------


class _ThresholdProbe:
    """The exact planners' shared weight-space machinery.

    Precomputes the paper's ``-log`` weight space at a fixed integer
    ``precision`` — per-action weight deltas, per-cut-set base weights and the
    finite lattice of achievable bottleneck thresholds — and answers the one
    question both :func:`exact_plan` and :func:`pareto_frontier` ask:
    :meth:`cheapest`, the minimum-cost action subset under which every minimal
    cut set weighs at least ``theta`` (a Weighted Partial MaxSAT instance
    solved with RC2, which hands a solve that outgrows its core budget to
    the hitting set engine).
    """

    def __init__(
        self,
        tree: FaultTree,
        structure: Sequence[CutSet],
        actions: Sequence[HardeningAction],
        precision: int,
    ) -> None:
        self.structure = structure
        self.precision = precision

        base_weights = {name: log_weight(p) for name, p in tree.probabilities().items()}
        self.deltas: Dict[str, int] = {}
        self.costs: Dict[str, float] = {}
        for action in actions:
            base = tree.probability(action.event)
            hardened = action.hardened_probability(base)
            delta = log_weight(hardened) - base_weights[action.event]
            self.deltas[action.event] = max(0, int(round(delta * precision)))
            self.costs[action.event] = action.cost
        self.action_by_event = {action.event: action for action in actions}

        self.cut_weights = [
            int(round(sum(base_weights[name] for name in cut_set) * precision))
            for cut_set in structure
        ]

        # Finite candidate set for the bottleneck value min_C w'(C): every cut
        # set's weight under every subset of its actionable members.
        total_subsets = sum(
            2 ** len([e for e in cut_set if e in self.deltas]) for cut_set in structure
        )
        if total_subsets > _MAX_THRESHOLD_CANDIDATES:
            raise AnalysisError(
                f"exact planner would enumerate {total_subsets} candidate thresholds "
                f"(limit {_MAX_THRESHOLD_CANDIDATES}); use the greedy method for "
                "this model"
            )
        candidates: Set[int] = set()
        for cut_set, base_weight in zip(structure, self.cut_weights):
            actionable = [event for event in cut_set if event in self.deltas]
            for size in range(len(actionable) + 1):
                for combo in itertools.combinations(actionable, size):
                    candidates.add(
                        base_weight + sum(self.deltas[event] for event in combo)
                    )
        self.thresholds: List[int] = sorted(candidates)

    def cheapest(
        self, theta: int, *, budget: Optional[float] = None
    ) -> Optional[List[HardeningAction]]:
        """Cheapest action set making every cut set weigh >= ``theta``, or ``None``.

        ``budget`` additionally rejects selections costing more than it;
        ``None`` means unconstrained (the frontier walk's mode).  A solve
        that reaches no conclusion raises :class:`SolverError` rather than
        read as "no selection reaches ``theta``".
        """
        instance = WPMaxSATInstance(precision=self.precision)
        harden_vars = {event: instance.new_var() for event in sorted(self.deltas)}
        for cut_set, base_weight in zip(self.structure, self.cut_weights):
            need = theta - base_weight
            if need <= 0:
                continue
            terms = [
                (self.deltas[event], harden_vars[event])
                for event in sorted(cut_set)
                if event in self.deltas and self.deltas[event] > 0
            ]
            available = sum(weight for weight, _ in terms)
            if available < need:
                return None  # no selection can lift this cut set to theta
            # sum(delta_e * h_e) >= need  <=>  sum(delta_e * (1 - h_e)) <= available - need
            encode_weighted_at_most(
                [(weight, -var) for weight, var in terms],
                available - need,
                instance.new_var,
                instance.add_hard,
            )
        for event, var in harden_vars.items():
            instance.add_soft([-var], self.costs[event])
        if instance.num_soft == 0:
            return []  # theta is free: no constraint requires any action
        result = RC2Engine().solve(instance)
        if result.status is MaxSATStatus.UNSATISFIABLE:
            return None
        if not result.is_optimum:
            raise SolverError(
                f"the threshold probe reached no conclusion (status: {result.status.value})"
            )
        if budget is not None and result.float_cost > budget + 1e-9:
            return None
        return [
            self.action_by_event[event]
            for event, var in sorted(harden_vars.items())
            if result.value(var)
        ]


def exact_plan(
    tree: FaultTree,
    actions: Sequence[HardeningAction],
    budget: float,
    *,
    cache: Optional[ArtifactCache] = None,
    precision: int = 10**6,
) -> MitigationPlan:
    """Exact budgeted MPMCS minimisation via Weighted Partial MaxSAT.

    Maximises ``min_C w'(C)`` (equivalently minimises the post-hardening
    MPMCS probability) over all action subsets within budget, by binary
    search over the finite candidate thresholds; each feasibility probe is a
    WPMaxSAT instance solved with RC2.  Among all
    subsets reaching the optimal threshold the *cheapest* one is returned.
    """
    validate_actions(tree, actions)
    structure = _cut_set_structure(tree, cache)
    probe = _ThresholdProbe(tree, structure, actions, precision)
    thresholds = probe.thresholds

    best_selection: List[HardeningAction] = []
    low, high = 0, len(thresholds) - 1
    while low <= high:
        mid = (low + high) // 2
        selection = probe.cheapest(thresholds[mid], budget=budget)
        if selection is not None:
            best_selection = selection
            low = mid + 1
        else:
            high = mid - 1

    return _assemble_plan(tree, structure, best_selection, budget, method="maxsat")


def _assemble_plan(
    tree: FaultTree,
    structure: Sequence[CutSet],
    selected: Sequence[HardeningAction],
    budget: float,
    *,
    method: str,
) -> MitigationPlan:
    base_probabilities = tree.probabilities()
    base_mpmcs, base_mpmcs_probability = _mpmcs_under(structure, base_probabilities)
    new_probabilities = _probabilities_under(tree, selected)
    new_mpmcs, new_mpmcs_probability = _mpmcs_under(structure, new_probabilities)
    ordered = tuple(sorted(selected, key=lambda action: action.event))
    return MitigationPlan(
        method=method,
        budget=budget,
        selected=ordered,
        total_cost=sum(action.cost for action in ordered),
        base_mpmcs=base_mpmcs,
        base_mpmcs_probability=base_mpmcs_probability,
        new_mpmcs=new_mpmcs,
        new_mpmcs_probability=new_mpmcs_probability,
        base_top_event=_top_event_under(structure, base_probabilities),
        new_top_event=_top_event_under(structure, new_probabilities),
    )


def plan_mitigation(
    tree: FaultTree,
    actions: Sequence[HardeningAction],
    budget: float,
    *,
    method: str = "greedy",
    objective: str = "mpmcs",
    cache: Optional[ArtifactCache] = None,
) -> MitigationPlan:
    """Front door: dispatch to :func:`greedy_plan` or :func:`exact_plan`."""
    if method == "greedy":
        return greedy_plan(tree, actions, budget, objective=objective, cache=cache)
    if method in ("exact", "maxsat"):
        if objective != "mpmcs":
            raise AnalysisError("the exact planner optimises the 'mpmcs' objective only")
        return exact_plan(tree, actions, budget, cache=cache)
    raise AnalysisError(f"unknown planning method {method!r}; use 'greedy' or 'exact'")


# -- Pareto frontier: the whole cost-vs-risk trade-off curve -----------------------------


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal purchase: its cost and the risk it buys down to."""

    cost: float
    selected: Tuple[HardeningAction, ...]
    mpmcs: Tuple[str, ...]
    mpmcs_probability: float
    top_event: float

    @property
    def events(self) -> Tuple[str, ...]:
        """Names of the hardened events, sorted."""
        return tuple(sorted(action.event for action in self.selected))

    def to_dict(self) -> Dict[str, object]:
        return {
            "cost": self.cost,
            "selected": [
                {"event": action.event, "cost": action.cost, "effect": action.label}
                for action in self.selected
            ],
            "mpmcs": list(self.mpmcs),
            "mpmcs_probability": self.mpmcs_probability,
            "top_event": self.top_event,
        }


@dataclass(frozen=True)
class ParetoFrontier:
    """The full cost-vs-MPMCS (and cost-vs-P(top)) trade-off curve.

    ``points`` are sorted by ascending cost with strictly decreasing MPMCS
    probability; the first point is always the base model (cost 0) and, for
    the exact method, the last point is the unconstrained optimum — the global
    risk floor any budget can reach.
    """

    method: str
    base_mpmcs: Tuple[str, ...]
    base_mpmcs_probability: float
    base_top_event: float
    points: Tuple[FrontierPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def best_within(self, budget: float) -> FrontierPoint:
        """The lowest-risk frontier point affordable at ``budget``.

        Exact when the frontier was built with the exact method.  A greedy
        frontier is an approximation: a tight budget may admit a better
        multi-action selection than any recorded point — run
        :func:`greedy_plan`/:func:`exact_plan` at that budget before
        committing a spend.
        """
        affordable = [point for point in self.points if point.cost <= budget + 1e-9]
        if not affordable:
            raise AnalysisError(
                f"no frontier point is affordable at budget {budget:g}"
            )
        return affordable[-1]

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "base_mpmcs": list(self.base_mpmcs),
            "base_mpmcs_probability": self.base_mpmcs_probability,
            "base_top_event": self.base_top_event,
            "points": [point.to_dict() for point in self.points],
        }


def _selection_cost(selection: Optional[Sequence[HardeningAction]]) -> float:
    return math.inf if selection is None else sum(action.cost for action in selection)


def _same_cost(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9


def _exact_frontier_selections(
    probe: _ThresholdProbe,
) -> List[Tuple[HardeningAction, ...]]:
    """Every cheapest selection at the steps of the cost-vs-threshold curve.

    The cheapest cost reaching threshold ``theta`` is monotone non-decreasing
    in ``theta`` (an infeasible threshold counts as infinitely expensive), so
    the step function is localised by recursive bisection: an interval whose
    endpoint costs agree is constant and needs no interior probes.  Every
    distinct cost level is probed at its highest achievable threshold, which
    is exactly the selection the frontier needs for that spend.
    """
    thresholds = probe.thresholds
    results: Dict[int, Optional[List[HardeningAction]]] = {}

    def probe_at(index: int) -> Optional[List[HardeningAction]]:
        if index not in results:
            results[index] = probe.cheapest(thresholds[index], budget=None)
        return results[index]

    def walk(low: int, high: int) -> None:
        if high - low <= 1:
            return
        if _same_cost(_selection_cost(probe_at(low)), _selection_cost(probe_at(high))):
            return
        mid = (low + high) // 2
        probe_at(mid)
        walk(low, mid)
        walk(mid, high)

    if thresholds:
        probe_at(0)
        probe_at(len(thresholds) - 1)
        walk(0, len(thresholds) - 1)
    return [
        tuple(selection) for selection in results.values() if selection is not None
    ]


def _greedy_frontier_selections(
    tree: FaultTree,
    structure: Sequence[CutSet],
    actions: Sequence[HardeningAction],
) -> List[Tuple[HardeningAction, ...]]:
    """Candidate selections for the greedy frontier.

    The empty selection, every *single* action, and the cumulative selection
    after each greedy purchase.  The singletons matter: the unconstrained
    cost-effectiveness ordering can defer a cheap low-impact action behind an
    expensive high-impact one, which would leave small budgets with nothing
    to buy on the frontier even though a one-action purchase helps; including
    them guarantees :meth:`ParetoFrontier.best_within` is never worse than
    the best single affordable action.  Beyond that the greedy frontier
    remains an approximation of the exact lattice walk.
    """
    selections: List[Tuple[HardeningAction, ...]] = [()]
    selections.extend((action,) for action in actions)
    selections.extend(_greedy_purchases(tree, structure, actions))
    return selections


def pareto_frontier(
    tree: FaultTree,
    actions: Sequence[HardeningAction],
    *,
    method: str = "auto",
    cache: Optional[ArtifactCache] = None,
    precision: int = 10**6,
) -> ParetoFrontier:
    """Enumerate the Pareto-optimal cost-vs-MPMCS trade-off curve.

    ``method``:

    * ``"exact"`` — walk the achievable-threshold lattice with the MaxSAT
      feasibility probe of :func:`exact_plan`; the returned points provably
      match brute-force enumeration over all action subsets (at the weight
      ``precision``).
    * ``"greedy"`` — record one point per greedy cost-effectiveness purchase;
      an approximation, but linear in the action count.
    * ``"auto"`` (default) — exact, falling back to greedy when the threshold
      lattice exceeds the enumeration guard.

    Every returned point also carries the exact top-event probability under
    its selection, so the same frontier answers cost-vs-P(top) questions.
    """
    if method not in ("auto", "exact", "greedy"):
        raise AnalysisError(
            f"unknown frontier method {method!r}; use 'auto', 'exact' or 'greedy'"
        )
    validate_actions(tree, actions)
    structure = _cut_set_structure(tree, cache)

    chosen = method
    selections: List[Tuple[HardeningAction, ...]] = [()]
    if method in ("auto", "exact") and actions:
        try:
            probe = _ThresholdProbe(tree, structure, actions, precision)
        except AnalysisError:
            if method == "exact":
                raise
            chosen = "greedy"
        else:
            chosen = "exact"
            selections = _exact_frontier_selections(probe)
    if chosen in ("auto", "greedy"):
        chosen = "greedy"
        if actions:
            selections = _greedy_frontier_selections(tree, structure, actions)

    # Deduplicate selections, evaluate them, and keep the Pareto-dominant set:
    # ascending cost, strictly decreasing MPMCS probability.
    unique: Dict[Tuple[str, ...], Tuple[HardeningAction, ...]] = {}
    for selection in selections:
        ordered = tuple(sorted(selection, key=lambda action: action.event))
        unique.setdefault(tuple(action.event for action in ordered), ordered)
    base_probabilities = tree.probabilities()
    base_mpmcs, base_mpmcs_probability = _mpmcs_under(structure, base_probabilities)
    base_top_event = _top_event_under(structure, base_probabilities)

    candidates: List[FrontierPoint] = []
    for ordered in unique.values():
        probabilities = _probabilities_under(tree, ordered)
        mpmcs, mpmcs_probability = _mpmcs_under(structure, probabilities)
        candidates.append(
            FrontierPoint(
                cost=sum(action.cost for action in ordered),
                selected=ordered,
                mpmcs=mpmcs,
                mpmcs_probability=mpmcs_probability,
                top_event=_top_event_under(structure, probabilities),
            )
        )
    candidates.sort(
        key=lambda point: (point.cost, point.mpmcs_probability, len(point.selected))
    )
    points: List[FrontierPoint] = []
    for point in candidates:
        # A point joins the frontier only for a *measurable* improvement:
        # float-noise "reductions" (two selections whose bottleneck cut set is
        # identical up to rounding) must not buy their way in at a higher cost.
        if (
            not points
            or point.mpmcs_probability
            < points[-1].mpmcs_probability * (1.0 - _MIN_RELATIVE_REDUCTION)
        ):
            points.append(point)

    return ParetoFrontier(
        method=chosen,
        base_mpmcs=base_mpmcs,
        base_mpmcs_probability=base_mpmcs_probability,
        base_top_event=base_top_event,
        points=tuple(points),
    )
