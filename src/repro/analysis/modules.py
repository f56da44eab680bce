"""Detection of independent modules in a fault tree.

A *module* is a gate whose descendant nodes appear nowhere else in the tree:
the sub-tree rooted at the gate shares no event or gate with the rest of the
model.  Modules matter because they can be analysed independently — their
probability (or their minimal cut sets) can be computed once and substituted
as if they were single basic events, which is the classical divide-and-conquer
speed-up used by BDD-based and MOCUS-based tools, and by the MaxSAT pipeline
(:class:`~repro.core.pipeline.MPMCSSolver`).

The detection is the linear-time visit-date algorithm of Dutuit & Rauzy ("A
Linear-Time Algorithm to Find Modules of Fault Trees", IEEE Trans.
Reliability 45(3), 1996), run once per structure by
:attr:`~repro.fta.compiled.CompiledStructure.modules`: a depth-first pass
dates every encounter of every node, and a gate ``g`` is a module exactly
when every encounter of its strict descendants falls strictly between the
first and the second visit of ``g`` — that is, when each strict descendant
has all of its parents inside the sub-tree rooted at ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.fta.tree import FaultTree

__all__ = ["Module", "find_modules", "modularisation_report"]


@dataclass(frozen=True)
class Module:
    """An independent module of a fault tree.

    Attributes
    ----------
    gate:
        Name of the gate at the root of the module.
    events:
        Basic events contained in the module.
    gates:
        Gates contained in the module (including the root gate itself).
    """

    gate: str
    events: FrozenSet[str]
    gates: FrozenSet[str]

    @property
    def size(self) -> int:
        """Total number of nodes in the module."""
        return len(self.events) + len(self.gates)


def find_modules(tree: FaultTree, *, include_top: bool = True) -> List[Module]:
    """Return every gate that roots an independent module.

    Parameters
    ----------
    tree:
        The fault tree to analyse (validated first).
    include_top:
        Whether to report the top gate, which is trivially a module, as one
        (default true, matching the convention of classical FTA tools).

    The result is sorted by decreasing module size so that the most useful
    decomposition candidates come first.
    """
    tree.validate()
    modules: Dict[str, Module] = {}
    # Skeletons come sub-modules first: a module's contents are its
    # skeleton's nodes plus the contents of the sub-modules it collapses.
    for skeleton in tree.compiled().modules:
        events: Set[str] = set()
        gates: Set[str] = {gate.name for gate in skeleton.gates}
        for name in skeleton.order:
            inner = modules.get(name)
            if inner is not None:
                events |= inner.events
                gates |= inner.gates
            elif name not in gates:
                events.add(name)
        modules[skeleton.root] = Module(
            gate=skeleton.root, events=frozenset(events), gates=frozenset(gates)
        )
    if not include_top:
        modules.pop(tree.top_event, None)
    return sorted(modules.values(), key=lambda module: (-module.size, module.gate))


def modularisation_report(tree: FaultTree) -> Dict[str, object]:
    """Summary of the modular structure of ``tree`` (used by reports and the CLI).

    Reports the number of modules, the largest proper module (excluding the
    top gate) and the fraction of gates that root a module — a rough indicator
    of how much a divide-and-conquer analysis could save.
    """
    modules = find_modules(tree)
    proper = [module for module in modules if module.gate != tree.top_event]
    largest_proper: Tuple[str, int] = ("", 0)
    if proper:
        largest_proper = (proper[0].gate, proper[0].size)
    return {
        "tree": tree.name,
        "num_gates": tree.num_gates,
        "num_modules": len(modules),
        "num_proper_modules": len(proper),
        "module_gates": [module.gate for module in modules],
        "largest_proper_module": largest_proper[0],
        "largest_proper_module_size": largest_proper[1],
        "module_fraction": len(modules) / tree.num_gates if tree.num_gates else 0.0,
    }
