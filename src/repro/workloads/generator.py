"""Seeded random fault-tree generator.

The paper's evaluation claims the MaxSAT approach "is able to scale to fault
trees with thousands of nodes in seconds".  The authors' benchmark trees are
not distributed with the paper, so the scalability experiment (E4,
``benchmarks/test_bench_scalability.py``) drives the pipeline with synthetic
trees produced here.  The
generator controls exactly the quantities that matter for that claim — total
node count, depth, gate arity, AND/OR/voting mix, and the probability
distribution of basic events — and is fully deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree

__all__ = ["GeneratorConfig", "probability_walk", "random_fault_tree"]


@dataclass
class GeneratorConfig:
    """Parameters of the random fault-tree generator.

    Attributes
    ----------
    num_basic_events:
        Number of basic events (leaves) to generate.
    gate_arity:
        Inclusive ``(min, max)`` range of children per gate.
    and_ratio / or_ratio / voting_ratio:
        Relative frequencies of the gate types.  They are normalised, so any
        positive values work; voting gates pick ``k`` uniformly in
        ``[2, arity-1]`` (falling back to AND when the arity is too small).
    probability_range:
        Inclusive ``(low, high)`` range from which event probabilities are
        drawn log-uniformly (probabilities in real models span orders of
        magnitude, so a log-uniform draw is more realistic than uniform).
    event_reuse:
        Probability that a gate child reuses an already-placed node instead of
        consuming a fresh one, producing shared sub-trees (DAG structure).
    seed:
        PRNG seed; two calls with equal configs produce identical trees.
    """

    num_basic_events: int = 100
    gate_arity: Tuple[int, int] = (2, 4)
    and_ratio: float = 0.4
    or_ratio: float = 0.55
    voting_ratio: float = 0.05
    probability_range: Tuple[float, float] = (1e-5, 0.2)
    event_reuse: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_basic_events < 2:
            raise ConfigurationError("num_basic_events must be at least 2")
        low, high = self.gate_arity
        if low < 2 or high < low:
            raise ConfigurationError(f"invalid gate arity range {self.gate_arity}")
        if min(self.and_ratio, self.or_ratio, self.voting_ratio) < 0:
            raise ConfigurationError("gate ratios cannot be negative")
        if self.and_ratio + self.or_ratio + self.voting_ratio <= 0:
            raise ConfigurationError("at least one gate ratio must be positive")
        plow, phigh = self.probability_range
        if not 0 < plow <= phigh <= 1:
            raise ConfigurationError(f"invalid probability range {self.probability_range}")
        if not 0 <= self.event_reuse < 1:
            raise ConfigurationError("event_reuse must lie in [0, 1)")


def random_fault_tree(
    config: Optional[GeneratorConfig] = None,
    *,
    name: Optional[str] = None,
    **overrides: object,
) -> FaultTree:
    """Generate a random fault tree.

    Either pass a full :class:`GeneratorConfig` or keyword overrides of its
    fields, e.g. ``random_fault_tree(num_basic_events=500, seed=3)``.

    The construction is bottom-up: starting from the basic events, nodes are
    repeatedly grouped under fresh gates until a single root remains, which
    becomes the top event.  This guarantees every node is reachable from the
    top and the result always passes :meth:`FaultTree.validate`.
    """
    if config is None:
        config = GeneratorConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise ConfigurationError("pass either a GeneratorConfig or keyword overrides, not both")
    config.validate()

    rng = random.Random(config.seed)
    tree_name = name or f"random-tree-{config.num_basic_events}-seed{config.seed}"
    tree = FaultTree(tree_name)

    plow, phigh = config.probability_range
    import math

    log_low, log_high = math.log(plow), math.log(phigh)
    for index in range(config.num_basic_events):
        probability = math.exp(rng.uniform(log_low, log_high))
        tree.add_basic_event(f"e{index + 1}", min(probability, 1.0))

    # Bottom-up accumulation: `open_nodes` are nodes not yet attached to a parent.
    open_nodes: List[str] = list(tree.event_names)
    rng.shuffle(open_nodes)
    all_nodes: List[str] = list(open_nodes)
    gate_counter = 0

    while len(open_nodes) > 1:
        arity = rng.randint(config.gate_arity[0], config.gate_arity[1])
        arity = min(arity, len(open_nodes))
        children = [open_nodes.pop() for _ in range(arity)]

        # Optionally reuse already-attached nodes as extra children (sharing).
        if config.event_reuse > 0 and len(all_nodes) > arity:
            extra_candidates = [node for node in all_nodes if node not in children]
            while extra_candidates and rng.random() < config.event_reuse:
                children.append(extra_candidates.pop(rng.randrange(len(extra_candidates))))

        gate_counter += 1
        gate_name = f"g{gate_counter}"
        gate_type, k = _pick_gate_type(rng, config, len(children))
        tree.add_gate(gate_name, gate_type, children, k=k)
        open_nodes.insert(rng.randrange(len(open_nodes) + 1), gate_name)
        all_nodes.append(gate_name)

    tree.set_top_event(open_nodes[0])
    tree.validate()
    return tree


def probability_walk(
    tree: FaultTree,
    *,
    steps: int,
    seed: int = 0,
    events_per_step: int = 1,
    volatility: float = 0.35,
    probability_range: Tuple[float, float] = (1e-6, 0.99),
):
    """Yield ``steps`` batches of basic-event probability changes.

    Each batch is a ``{event_name: new_probability}`` dict produced by a
    log-space random walk over the tree's basic events: every step picks
    ``events_per_step`` distinct events and multiplies their current
    probability by ``exp(gauss(0, volatility))``, clamped to
    ``probability_range``.  The walk is fully deterministic given a seed —
    it drives the synthetic live-monitoring feed
    (:class:`repro.monitoring.feeds.SyntheticFeed`) and its tests, which
    re-derive expected values from the same seed.
    """
    if steps < 0:
        raise ConfigurationError(f"steps cannot be negative, got {steps}")
    if volatility <= 0:
        raise ConfigurationError(f"volatility must be positive, got {volatility}")
    low, high = probability_range
    if not 0 < low <= high <= 1:
        raise ConfigurationError(f"invalid probability range {probability_range}")
    events = sorted(tree.events_reachable_from_top())
    if not events:
        raise ConfigurationError(f"tree {tree.name!r} has no reachable basic events")
    if not 1 <= events_per_step <= len(events):
        raise ConfigurationError(
            f"events_per_step must lie in [1, {len(events)}], got {events_per_step}"
        )
    import math

    rng = random.Random(seed)
    current = {name: tree.probabilities()[name] for name in events}
    for _ in range(steps):
        batch = {}
        for name in rng.sample(events, events_per_step):
            value = current[name] * math.exp(rng.gauss(0.0, volatility))
            value = min(max(value, low), high)
            current[name] = value
            batch[name] = value
        yield batch


def _pick_gate_type(
    rng: random.Random, config: GeneratorConfig, arity: int
) -> Tuple[GateType, Optional[int]]:
    """Draw a gate type according to the configured mix."""
    total = config.and_ratio + config.or_ratio + config.voting_ratio
    draw = rng.uniform(0, total)
    if draw < config.and_ratio:
        return GateType.AND, None
    if draw < config.and_ratio + config.or_ratio:
        return GateType.OR, None
    if arity < 3:
        # Voting gates need at least 3 children to be interesting; fall back.
        return GateType.AND, None
    return GateType.VOTING, rng.randint(2, arity - 1)
