"""Every cut-set enumeration stops at its bound before it exhausts memory.

A k-of-n voting gate expands into ``C(n, k)`` candidates at once: the
16-of-31 ladder makes about 3·10⁸.  MOCUS and the truncated enumeration
count each candidate as they insert it, and the scenario layer's voting
composition counts each product, so each raises :class:`AnalysisError`
instead.  The checks run in a child process whose address space is capped
(its own ``RLIMIT_AS``, lowered, never raised), so a regression fails the
test with a ``MemoryError`` rather than taking the host down.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Address-space cap of the child: the truncated enumeration's default
#: 500 000 live candidates of the 16-of-31 ladder peak near 0.7 GB, and
#: an unbounded expansion passed 1.35 GB before failing.
CAP_BYTES = 1 << 30

CHILD = """
from repro.analysis.truncation import truncated_cut_sets
from repro.api import AnalysisSession
from repro.api.cache import ArtifactCache
from repro.exceptions import AnalysisError
from repro.scenarios import incremental
from tests.conftest import flat_vote, k_of_n_ladder

def raises(call):
    try:
        call()
    except AnalysisError as error:
        return str(error)
    raise SystemExit("no AnalysisError")

ladder = k_of_n_ladder(31, 16)
print(raises(lambda: AnalysisSession().analyze(ladder, ["mpmcs"], backend="mocus")))
print(raises(lambda: truncated_cut_sets(ladder, 1e-300, max_candidates=20_000)))
incremental.MAX_INTERMEDIATE_PRODUCTS = 1_000
print(raises(lambda: incremental.incremental_cut_sets(flat_vote(31, 16), ArtifactCache())))
"""


def _cap_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = CAP_BYTES if hard == resource.RLIM_INFINITY else min(CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_voting_ladder_enumerations_stop_at_their_bound():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env["REPRO_NO_NUMPY"] = "1"  # numpy's thread pools reserve address space
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=ROOT,
        env=env,
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    mocus, truncation, composition = child.stdout.splitlines()
    assert "MOCUS exceeded the candidate limit of 200000" in mocus
    assert "candidate limit of 20000" in truncation
    assert "more than 1000 intermediate products" in composition
