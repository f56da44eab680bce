"""The CDCL search is pinned result by result.

A seeded corpus of random 3-CNFs is solved incrementally: each instance
takes eight solves under random assumption sets, with clauses added between
solves.  Every :class:`SatResult` (status, model, core and the conflict,
decision and propagation counts) and the number of learned clauses kept
after each solve go into one sha256, compared with the digest the solver
produced before its assumption phase moved into the propagation loop.  Any
change to propagation order, decisions, learning, restarts or learned
clause reduction changes the digest.

The corpus is checked to reach every path of the search: conflicts,
restarts, learned clause reduction (also at a fixpoint where assumptions
are still to be decided), cores from a falsified assumption and from a
conflict among the assumption levels, and assumptions that are already
true when their level comes.  Seeds are
integers, so the corpus is the same on every supported Python.
"""

import hashlib
import random

from repro.sat.cdcl import CDCLSolver

#: sha256 over every result of :func:`_solve_corpus`.
DIGEST = "dcf4b9aac2a59fd272727f41951feeb9c9a0b0d6b0967776656c0bb514b501d4"

NUM_VARS = (30, 60, 120)
RESTART_BASES = (20, 100)
RATIOS = (3.8, 4.0, 4.2, 4.4, 4.6)
#: The default, and one small enough that a reduction often leaves the
#: learned clauses over budget, so the next fixpoint reduces them again.
LEARNT_FACTORS = (2.0, 0.02)
INSTANCES = 6
SOLVES = 8


def _literals(rng, num_vars, count):
    variables = rng.sample(range(1, num_vars + 1), count)
    return [var if rng.random() < 0.5 else -var for var in variables]


def _assumptions(rng, num_vars):
    literals = _literals(rng, num_vars, rng.randrange(1, num_vars // 8))
    # A repeated literal is already true by the time its level comes.
    literals.append(literals[rng.randrange(len(literals))])
    return literals


def _empty_assumption_levels(solver, assumptions):
    """Assumption levels that assigned nothing: their literal was already true."""
    bounds = solver._trail_lim + [len(solver._trail)]
    return sum(1 for start, end in zip(bounds[: len(assumptions)], bounds[1:]) if start == end)


def _solve_corpus(monkeypatch):
    seen = dict.fromkeys(
        (
            "searches",
            "reductions",
            "reductions_mid_assumptions",
            "falsified",
            "conflict_cores",
            "already_true",
        ),
        0,
    )
    current = {}

    def hook(name, count):
        method = getattr(CDCLSolver, name)

        def wrapper(self, *args):
            count(self, *args)
            return method(self, *args)

        monkeypatch.setattr(CDCLSolver, name, wrapper)

    def tally(key):
        def count(solver, *args):
            seen[key] += 1

        return count

    def core_seeds(solver, seeds, assumptions):
        # A conflict clause has at least two literals; a falsified
        # assumption seeds the walk with its one complement.
        seen["falsified" if len(seeds) == 1 else "conflict_cores"] += 1

    def reduction(solver):
        seen["reductions"] += 1
        seen["reductions_mid_assumptions"] += len(solver._trail_lim) < len(current["assumptions"])

    def final_state(solver, *args):
        seen["already_true"] += _empty_assumption_levels(solver, current["assumptions"])

    hook("_search", tally("searches"))
    hook("_reduce_learnts", reduction)
    hook("_analyze_final", core_seeds)
    for name in ("_extract_model", "_analyze_final"):
        hook(name, final_state)

    digest = hashlib.sha256()
    solves = conflicts = 0
    for num_vars in NUM_VARS:
        for restart_base in RESTART_BASES:
            for index in range(INSTANCES):
                rng = random.Random(num_vars * 1000 + restart_base * 10 + index)
                ratio = RATIOS[index % len(RATIOS)]
                solver = CDCLSolver(
                    restart_base=restart_base,
                    max_learnt_factor=LEARNT_FACTORS[index % len(LEARNT_FACTORS)],
                )
                for _ in range(round(num_vars * ratio)):
                    solver.add_clause(_literals(rng, num_vars, 3))
                for _ in range(SOLVES):
                    current["assumptions"] = _assumptions(rng, num_vars)
                    result = solver.solve(current["assumptions"])
                    solves += 1
                    conflicts += result.conflicts
                    model = (result.model or {}).items()
                    model = sorted(var if value else -var for var, value in model)
                    digest.update(
                        repr(
                            (
                                result.status.value,
                                model,
                                sorted(result.core),
                                result.conflicts,
                                result.decisions,
                                result.propagations,
                                solver.num_learnts,
                            )
                        ).encode()
                    )
                    for _ in range(rng.randrange(1, 4)):
                        solver.add_clause(_literals(rng, num_vars, 3))
    seen["restarts"] = seen.pop("searches") - solves
    seen["conflicts"] = conflicts
    return digest.hexdigest(), seen


def test_search_is_pinned(monkeypatch):
    digest, seen = _solve_corpus(monkeypatch)
    for path in (
        "conflicts",
        "restarts",
        "reductions",
        "reductions_mid_assumptions",
        "falsified",
        "conflict_cores",
        "already_true",
    ):
        assert seen[path] > 0, path
    assert digest == DIGEST
