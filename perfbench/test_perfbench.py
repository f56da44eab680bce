"""Self-test of the benchmark (not a workload).

Checks that the inputs are deterministic per seed, that the printed metric
names match ``BENCHMARK.json``, that the traced run restores every function
it patches, that a tiny configuration of each workload passes its oracle,
and that failing operations are counted rather than crashing the run.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracing
from perfbench.harness import END_TO_END, run
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import WORKLOADS, Scale

ROOT = Path(__file__).resolve().parent.parent

#: Small inputs that exercise the same code paths in a few seconds.
TINY = Scale(e4_pool=((40, 0), (80, 1)), pinned_tree=(20, 5), grid_size=6, episode_updates=5)

#: The 80-event, generator-seed-5 tree: explicit cut-set seeding of the
#: sweep exceeds its intermediate-product guard and raises AnalysisError.
FAILING = Scale(e4_pool=((40, 0),), pinned_tree=(80, 5), grid_size=3)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprint(item):
    """A comparable summary of one input item of any workload."""
    if isinstance(item, list):
        return tuple(_fingerprint(element) for element in item)
    if hasattr(item, "probabilities"):  # a fault tree
        return (item.name, tuple(sorted(item.probabilities().items())))
    if hasattr(item, "patches"):  # a scenario
        return (item.name, item.describe())
    return (item.seq, item.values)  # a probability update


def _first_inputs(name: str, seed: int, count: int = 2):
    return [_fingerprint(item) for item in WORKLOADS[name](seed, TINY).setup(count).inputs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert _first_inputs(name, 7) == _first_inputs(name, 7)
    assert _first_inputs(name, 7) != _first_inputs(name, 8)


def test_benchmark_json_lists_the_printed_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def _bindings():
    """Every attribute of every ``repro`` module and wrapped class, by identity."""
    owners = [module for name, module in sys.modules.items() if name.split(".")[0] == "repro"]
    owners += [cls for _, cls, *_ in tracing._METHODS()]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_recorder_restores_every_patched_function():
    from repro.core import encoder
    from repro.sat.cdcl import CDCLSolver

    before = _bindings()
    original_encode, original_solve = encoder.encode_mpmcs, CDCLSolver.__dict__["solve"]
    recorder = tracing.Recorder()
    with recorder.installed():
        assert encoder.encode_mpmcs is not original_encode
        assert CDCLSolver.__dict__["solve"] is not original_solve
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def _assert_metrics(metrics, expected):
    assert list(metrics) == [name for name, _ in expected]
    for name, unit in expected:
        assert metrics[name]["unit"] == unit
        assert math.isfinite(metrics[name]["value"]), name


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_oracle(name, trace):
    result, record, spans = run(name, 3, 0.01, trace, root=ROOT, scale=TINY)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert record["failed_ratio"] == 0.0
    if trace:
        _assert_metrics(result["metrics"], tracing.PER_LAYER)
        assert spans is not None and spans["layers"]
    else:
        _assert_metrics(result["metrics"], END_TO_END)
        assert result["metrics"]["ops_per_s"]["value"] > 0


def test_monitor_episodes_each_start_from_a_fresh_monitor():
    episodes = 2
    seconds = episodes * WORKLOADS["monitor-flip"].item_s
    result, record, _ = run("monitor-flip", 3, seconds, False, root=ROOT, scale=TINY)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == episodes * TINY.episode_updates
    # at least one timed set-up, then one monitor build per later episode
    assert len(record["samples"]["setup_s"]) >= 1 + episodes - 1


def test_failing_sweep_reports_every_scenario_failed():
    result, record, _ = run("sweep-drift", 1, 0.01, False, root=ROOT, scale=FAILING)
    assert result["attempted"] == FAILING.grid_size
    assert result["failed"] == result["attempted"]
    assert record["failed_ratio"] == 1.0
    assert record["errors"] == {"AnalysisError": FAILING.grid_size}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("records", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e4-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
