"""``repro.scenarios`` — what-if sweeps and mitigation planning.

The MPMCS tells an operator *where* the system is weakest; this package
answers the follow-up question — *what should I do about it?* — with three
layers:

* a declarative **perturbation model** (:mod:`~repro.scenarios.patches`):
  :class:`Patch` objects that set/scale/harden probabilities, remove events,
  add redundancy or spare children, change voting thresholds, and sweep
  mission time or CCF beta factors, applied non-destructively and composed
  into named :class:`Scenario` objects and parametric grids;
* a **sweep executor** (:mod:`~repro.scenarios.sweep`) that evaluates
  scenario families through the ordinary :class:`~repro.api.AnalysisSession`
  while reusing subtree-level cached artifacts, so a probability sweep pays
  for one structural cut-set enumeration instead of hundreds;
* a **mitigation planner** (:mod:`~repro.scenarios.planner`): a greedy
  cost-effectiveness baseline plus an exact MaxSAT re-encoding of budgeted
  MPMCS minimisation solved with RC2, with a tornado-style action ranking.

Quickstart:

.. code-block:: python

    from repro.scenarios import (
        HardeningAction, SweepExecutor, plan_mitigation, probability_sweep,
    )
    from repro.workloads.library import fire_protection_system

    tree = fire_protection_system()
    report = SweepExecutor().run(tree, probability_sweep("x1", start=1e-3, stop=0.5, steps=200))
    report.best().name            # the scenario with the lowest P(top)
    report.subtree_reuse          # {'hits': ..., 'misses': ...} — incremental proof

    plan = plan_mitigation(
        tree,
        [HardeningAction("x1", cost=2.0), HardeningAction("x5", cost=1.0)],
        budget=2.0,
        method="exact",
    )
    plan.events                   # the optimal hardening set within budget
"""

from repro.scenarios.incremental import incremental_cut_sets, seed_session_cut_sets
from repro.scenarios.patches import (
    AddRedundancy,
    AddSpareChild,
    ApplyCCF,
    Harden,
    MaintenanceAtTime,
    MaintenancePatch,
    Patch,
    RemoveEvent,
    ScaleFailureRate,
    ScaleMissionTime,
    ScaleProbability,
    ScaleRepairRate,
    ScaleTestInterval,
    SetFailureRate,
    SetMTTR,
    SetProbability,
    SetRepairRate,
    SetTestInterval,
    SetVotingThreshold,
)
from repro.scenarios.planner import (
    ActionImpact,
    FrontierPoint,
    HardeningAction,
    MitigationPlan,
    ParetoFrontier,
    exact_plan,
    greedy_plan,
    pareto_frontier,
    plan_mitigation,
    rank_actions,
)
from repro.scenarios.report import (
    ScenarioOutcome,
    ScenarioReport,
    mpmcs_identity_changed,
)
from repro.scenarios.scenario import (
    Scenario,
    ccf_beta_sweep,
    maintenance_sweep,
    mission_time_sweep,
    probability_sweep,
    repair_rate_sweep,
    scale_sweep,
    scenario_grid,
    sweep_values,
    test_interval_sweep,
)
from repro.scenarios.serialization import (
    action_from_dict,
    action_to_dict,
    actions_from_spec,
    assignment_from_documents,
    campaign_from_dict,
    campaign_to_dict,
    model_from_dict,
    model_to_dict,
    patch_from_dict,
    patch_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    scenarios_from_spec,
)
from repro.scenarios.sweep import SweepExecutor, run_sweep

__all__ = [
    "ActionImpact",
    "AddRedundancy",
    "AddSpareChild",
    "ApplyCCF",
    "FrontierPoint",
    "Harden",
    "HardeningAction",
    "MaintenanceAtTime",
    "MaintenancePatch",
    "MitigationPlan",
    "ParetoFrontier",
    "Patch",
    "RemoveEvent",
    "ScaleFailureRate",
    "ScaleMissionTime",
    "ScaleProbability",
    "ScaleRepairRate",
    "ScaleTestInterval",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioReport",
    "SetFailureRate",
    "SetMTTR",
    "SetProbability",
    "SetRepairRate",
    "SetTestInterval",
    "SetVotingThreshold",
    "SweepExecutor",
    "action_from_dict",
    "action_to_dict",
    "actions_from_spec",
    "assignment_from_documents",
    "campaign_from_dict",
    "campaign_to_dict",
    "ccf_beta_sweep",
    "exact_plan",
    "greedy_plan",
    "incremental_cut_sets",
    "maintenance_sweep",
    "mission_time_sweep",
    "model_from_dict",
    "model_to_dict",
    "mpmcs_identity_changed",
    "pareto_frontier",
    "patch_from_dict",
    "patch_to_dict",
    "plan_mitigation",
    "probability_sweep",
    "rank_actions",
    "repair_rate_sweep",
    "run_sweep",
    "scale_sweep",
    "scenario_from_dict",
    "scenario_grid",
    "scenario_to_dict",
    "scenarios_from_spec",
    "seed_session_cut_sets",
    "sweep_values",
    "test_interval_sweep",
]
