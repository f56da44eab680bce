#!/usr/bin/env python3
"""Mitigation planning walkthrough: from MPMCS to an action plan.

The MPMCS of the Fig. 1 Fire Protection System is ``{x1, x2}`` — both fire
sensors failing.  This script shows how :mod:`repro.scenarios` turns that
diagnosis into decisions:

1. a tornado-style ranking of candidate hardening actions (one at a time);
2. a 200-scenario what-if sweep over the probability of sensor ``x1``,
   evaluated incrementally — the cut-set structure is enumerated once and
   reused by every scenario (watch the subtree cache counters);
3. structural what-ifs: a redundant sensor and a decommissioned attack
   vector, applied non-destructively;
4. budgeted mitigation planning — the greedy cost-effectiveness baseline
   against the exact MaxSAT planner, which re-encodes budgeted MPMCS
   minimisation as Weighted Partial MaxSAT and solves it with RC2.

Run it with::

    python examples/mitigation_planning.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AnalysisSession, fire_protection_system
from repro.reporting import render_scenario_report
from repro.scenarios import (
    AddRedundancy,
    HardeningAction,
    RemoveEvent,
    Scenario,
    SweepExecutor,
    plan_mitigation,
    probability_sweep,
    rank_actions,
)


def main() -> int:
    tree = fire_protection_system()
    session = AnalysisSession()

    base = session.analyze(tree, ["mpmcs", "top_event"], backend="mocus")
    print("Base model:")
    print(f"  MPMCS  = {{{', '.join(base.mpmcs.events)}}}  p = {base.mpmcs.probability:.6g}")
    print(f"  P(top) = {base.top_event.best_estimate:.6e}")

    # ------------------------------------------------- 1. what helps the most?
    actions = [
        HardeningAction("x1", cost=2.0),   # better smoke sensor
        HardeningAction("x2", cost=2.0),   # better heat sensor
        HardeningAction("x4", cost=1.0),   # nozzle inspection schedule
        HardeningAction("x5", cost=1.0),   # automatic-trigger self test
        HardeningAction("x7", cost=3.0),   # DDoS protection for the channel
    ]
    print("\nTornado ranking (each action alone, 10x hardening):")
    for impact in rank_actions(tree, actions):
        print(
            f"  {impact.action.event}: P(top) {impact.top_event_before:.4e} -> "
            f"{impact.top_event_after:.4e}   (reduction/cost {impact.reduction_per_cost:.4e})"
        )

    # ------------------------------------ 2. a 200-point incremental sweep
    executor = SweepExecutor(session)
    sweep = executor.run(
        tree, probability_sweep("x1", start=1e-4, stop=0.5, steps=200)
    )
    reuse = sweep.subtree_reuse
    print(f"\n200-scenario sweep over p(x1) in {sweep.total_time_s:.3f}s "
          f"(subtree cache: {reuse['hits']} hits / {reuse['misses']} misses):")
    crossover = next(
        (outcome for outcome in sweep.outcomes if not outcome.mpmcs_changed), None
    )
    if crossover is not None:
        print(f"  the MPMCS stops being displaced at {crossover.name} — below that, "
              "hardening x1 has handed the weakest-link role to {x5, x6}")

    # --------------------------------------------- 3. structural what-ifs
    structural = executor.run(
        tree,
        [
            Scenario("redundant-sensor", [AddRedundancy("x1")]),
            Scenario("no-ddos-vector", [RemoveEvent("x7")]),
            Scenario("both", [AddRedundancy("x1"), RemoveEvent("x7")]),
        ],
    )
    print("\nStructural scenarios:")
    print(render_scenario_report(structural, "markdown"))

    # --------------------------------------------- 4. budgeted planning
    print("\nBudgeted mitigation planning (budget = 3.0):")
    for method in ("greedy", "exact"):
        plan = plan_mitigation(tree, actions, budget=3.0, method=method,
                               cache=session.artifacts)
        chosen = ", ".join(plan.events) or "(nothing)"
        print(f"  {method:<6}: harden {{{chosen}}}  cost {plan.total_cost:g}  "
              f"MPMCS {plan.base_mpmcs_probability:.4g} -> {plan.new_mpmcs_probability:.4g}  "
              f"P(top) {plan.base_top_event:.4e} -> {plan.new_top_event:.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
