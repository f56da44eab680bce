"""Shared helpers for the benchmark harness.

Each benchmark module reproduces one experiment (E1, E2, …), described in
its own module docstring.
Benchmarks print the rows/series they regenerate so that running

.. code-block:: console

    pytest benchmarks/ --benchmark-only -s

shows the reproduced tables next to pytest-benchmark's timing output, and they
``assert`` the *shape* of the paper's results (who wins, what the optimum is),
so a regression in the reproduction fails the benchmark run loudly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

try:  # pragma: no cover - import guard
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))


def pytest_collection_modifyitems(items) -> None:
    """Tag every test in this directory with the ``bench`` marker.

    The default run (``testpaths = tests`` in pytest.ini) already skips this
    directory; the marker additionally allows ``-m "not bench"`` to deselect
    benchmarks when they are collected explicitly alongside other tests.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)


def emit(title: str, lines) -> None:
    """Print a reproduced table/series in a recognisable block."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}")
    for line in lines:
        print(line)
    print(banner)
