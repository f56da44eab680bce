"""One benchmark run: set-up, a timed phase, an optional traced phase, the oracle.

End-to-end metrics come from the untraced phase.  With ``trace`` on, the
untraced phase is followed by a traced phase on freshly set-up state with
the same inputs, which yields the per-layer metrics and the tracing
overhead (traced over untraced busy time).  Every time is reference time
(:class:`perfbench.cpus.HostClock`); the record keeps the wall times and
the host-speed readings beside it.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import resource
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.cpus import NOMINAL_REFERENCE_S, HostClock
from perfbench.tracing import Recorder, per_layer_metrics
from perfbench.workloads import FULL, WORKLOADS, Phase, Scale, Workload, measure

__all__ = ["END_TO_END", "percentile", "run"]

#: Set-ups per run: at least ``Workload.setup_repeats``, and more, up to
#: ``SETUP_MAX_REPEATS``, until ``SETUP_BUDGET_S`` has been spent, so
#: millisecond set-ups get enough samples.  ``setup_s`` is the median of
#: these and of the set-ups a workload repeats in its timed phase.
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 1.0

#: A phase stops early, between input items, once it has run this many
#: times its nominal length, so a run on a slow host or of a slow commit
#: still ends in time.  Every item of a workload is alike, so a shorter
#: phase only holds fewer samples.
MAX_SLOWDOWN = 1.25

#: ``(name, unit)`` of every end-to-end metric.  An operation is an
#: analysis (``e4-cold``), a scenario (sweeps) or an update (monitor).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("first_result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (inclusive interpolation); 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def supported_percentile(samples: int) -> Optional[int]:
    """The highest percentile with at least ten samples beyond it."""
    if samples <= 10:
        return None
    return (100 * (samples - 10)) // samples


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(
    phase: Phase, setup_samples: List[float], rss_mb: float
) -> Dict[str, Dict[str, Any]]:
    latencies_ms = [seconds * 1e3 for seconds in phase.latencies_s]
    values = {
        "ops_per_s": phase.completed / phase.busy_s if phase.busy_s else 0.0,
        "op_ms_p50": percentile(latencies_ms, 50),
        "op_ms_p95": percentile(latencies_ms, 95),
        "first_result_s": statistics.median(phase.first_results_s) if phase.first_results_s else 0.0,
        "setup_s": statistics.median(setup_samples + phase.setups_s),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def host_info() -> Dict[str, Any]:
    from repro import kernels

    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "kernel_tier": kernels.select().name,
        "platform": platform.platform(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def commit_of(root: Path) -> Optional[str]:
    """The checked-out commit when ``root`` is a git work tree, else ``None``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources, path and content."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _timed_setups(workload: Workload, items: int, clock: HostClock) -> Tuple[List[float], Any]:
    """Set-up durations and the state of the last set-up."""
    samples: List[float] = []
    while len(samples) < workload.setup_repeats or (
        sum(samples) < SETUP_BUDGET_S and len(samples) < SETUP_MAX_REPEATS
    ):
        state = None  # free the previous state before building the next
        started = clock.start()
        state = workload.setup(items)
        samples.append(clock.stop(started))
    return samples, state


def _readings(clock: HostClock) -> Dict[str, Any]:
    readings = sorted(clock.readings_s)
    return {
        "nominal_s": NOMINAL_REFERENCE_S,
        "count": len(readings),
        "min_s": readings[0] if readings else None,
        "median_s": statistics.median(readings) if readings else None,
        "max_s": readings[-1] if readings else None,
        "wall_s": sum(clock.walls_s),
    }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: Path,
    scale: Scale = FULL,
) -> Tuple[Dict[str, Any], Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one workload; return the printed result, the record and the spans."""
    started_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
    workload = WORKLOADS[workload_name](seed, scale)
    clock = HostClock()
    try:
        setup_samples, state = _timed_setups(workload, workload.items_for(seconds), clock)
        workload.warm_up(state)
        phase = measure(workload, state, deadline_s=MAX_SLOWDOWN * seconds, clock=clock)
        rss_mb = peak_rss_mb()
        untraced_clock = _readings(clock)
        checked = [(state, phase)]
        spans: Optional[Dict[str, Any]] = None
        traced_record: Dict[str, Any] = {}
        if trace:
            recorder = Recorder()
            with recorder.installed():
                traced_state = workload.setup(len(phase.plan))
                recorder.reset()
                with recorder.tracing() as tracer:
                    traced = measure(workload, traced_state, clock=clock)
            overhead = traced.busy_s / phase.busy_s if phase.busy_s else 0.0
            metrics = per_layer_metrics(recorder, tracer, traced.completed, overhead)
            checked.append((traced_state, traced))
            spans = {"layers": recorder.spans, "program": tracer.to_dict()}
            traced_record = {
                "busy_s": traced.busy_s,
                "completed": traced.completed,
                "dropped_layer_spans": recorder.dropped_spans,
                "dropped_program_spans": tracer.dropped_spans,
            }
        else:
            metrics = end_to_end_metrics(phase, setup_samples, rss_mb)
    finally:
        clock.release()

    mismatches = sum(workload.mismatches(s, p) for s, p in checked)
    attempted = sum(p.attempted for _, p in checked)
    failed = sum(p.failed for _, p in checked) + mismatches
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    latencies_ms = [value * 1e3 for value in phase.latencies_s]
    errors: Dict[str, int] = {}
    for _, checked_phase in checked:
        for name, count in checked_phase.errors.items():
            errors[name] = errors.get(name, 0) + count
    record = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_utc": started_utc,
        "host": host_info(),
        "host_speed": untraced_clock,
        "cpu_pinning": {"cpus": clock.cpu.cpus, "checks": clock.cpu.checks, "moves": clock.cpu.moves},
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "oracle_mismatches": mismatches,
        "errors": errors,
        "metrics": metrics,
        "samples": {
            "setup_s": setup_samples + phase.setups_s,
            "busy_s": phase.busy_s,
            "completed": phase.completed,
            "latency_ms": latencies_ms,
            "latency_percentiles_ms": {
                f"p{p}": percentile(latencies_ms, p) for p in (50, 90, 95, 99)
            },
            "first_result_s": phase.first_results_s,
            "highest_supported_percentile": supported_percentile(len(phase.latencies_s)),
        },
    }
    if traced_record:
        record["traced"] = traced_record
    return result, record, spans
