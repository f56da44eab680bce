"""The paper's primary contribution: MPMCS computation via Weighted Partial MaxSAT.

The package implements the six-step resolution method of Section III:

1. **Logical transformation** and 2. **CNF conversion** — the Tseitin CNF of
   the structure function, assembled gate by gate by the AND, OR and k-of-n
   clause generators (:func:`repro.core.encoder.assemble_structure_cnf` over
   :mod:`repro.logic.tseitin`).
3. **Probabilities transformation into log-space** —
   :mod:`repro.core.weights`.
4. **Weighted Partial MaxSAT instance** — :mod:`repro.core.encoder`.
5. **MaxSAT resolution** — module by module in :mod:`repro.core.pipeline`
   (rules, and one :mod:`repro.maxsat.incremental` session per searched
   skeleton, blocked once per cut set in a ranking), or by one engine on a
   whole-tree encoding.  The paper's parallel portfolio is not reproduced:
   measured, the race lost to the module route on 172 of 173 searched trees.
6. **Reverse log-space transformation** — :mod:`repro.core.weights` and the
   result assembly in :mod:`repro.core.pipeline`.

The user-facing entry points are :class:`repro.core.pipeline.MPMCSSolver`
(single best cut set), :func:`repro.core.pipeline.find_mpmcs` (convenience
wrapper) and :func:`repro.core.topk.enumerate_mpmcs` (top-k enumeration).
"""

from repro.core.weights import (
    log_weights,
    probability_from_cost,
    probability_of_cut_set,
    weight_of_cut_set,
)
from repro.core.encoder import (
    MPMCSEncoding,
    assemble_structure_cnf,
    encode_mpmcs,
)
from repro.core.pipeline import MPMCSResult, MPMCSSolver, find_mpmcs
from repro.core.topk import RankedCutSet, enumerate_mpmcs

__all__ = [
    "MPMCSEncoding",
    "MPMCSResult",
    "MPMCSSolver",
    "RankedCutSet",
    "assemble_structure_cnf",
    "encode_mpmcs",
    "enumerate_mpmcs",
    "find_mpmcs",
    "log_weights",
    "probability_from_cost",
    "probability_of_cut_set",
    "weight_of_cut_set",
]
