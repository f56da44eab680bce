"""Measure time on a host whose speed changes: CPU pinning and a reference clock.

On shared virtual machines the CPUs a process may use do not run at one
speed, and not at one speed over time.  On the 2-vCPU reference host one
vCPU ran Python about 1.3x slower than the other, the two swapped every few
seconds, and both slowed down by up to 2x for minutes at a time (process
CPU time slowed as much as wall time, so this is contention, not stolen
time).  Two defences, both outside every timed region:

- :class:`FastestCpu` times the reference kernel on each usable CPU and
  pins the calling thread to the fastest.  Threads the program starts
  inherit that CPU.
- :class:`HostClock` times the reference kernel right before and right
  after every operation, on the CPU the operation runs on, and converts
  the operation's wall time to *reference time*: wall time scaled by the
  kernel's nominal duration over its measured duration.  On the reference
  host at its fastest, reference time equals wall time.

The reference kernel is interpreter work like the program's own: unit
propagation over a fixed random 3-CNF with dicts, lists and small
comprehensions.  A tight integer loop tracked the program's slowdowns
poorly (it normalised a MaxSAT solve's run-to-run spread from 0.16 to
0.09); this kernel brought the same spread to 0.03.
"""

from __future__ import annotations

import os
import random
import time
from typing import List, Optional, Tuple

__all__ = ["FastestCpu", "HostClock", "NOMINAL_REFERENCE_S", "reference_s"]

_KERNEL_RNG = random.Random(7)
_KERNEL_VARS = 120
#: The fixed 3-CNF the reference kernel propagates over.
_KERNEL_CLAUSES = [
    [_KERNEL_RNG.choice((1, -1)) * _KERNEL_RNG.randint(1, _KERNEL_VARS) for _ in range(3)]
    for _ in range(500)
]

#: ``reference_s()`` on the reference host (2-vCPU KVM guest, CPython 3.11)
#: on its fastest vCPU in a quiet period: 0.25-0.26 ms, against a median of
#: 0.31 ms and a maximum of 0.76 ms over a minute.
NOMINAL_REFERENCE_S = 0.00026


def _reference_kernel() -> int:
    watches: dict = {}
    for index, clause in enumerate(_KERNEL_CLAUSES):
        for literal in clause:
            watches.setdefault(-literal, []).append(index)
    assigned: dict = {}
    for variable in range(1, 40):
        assigned[variable] = True
        for index in watches.get(variable, ()):
            free = [lit for lit in _KERNEL_CLAUSES[index] if abs(lit) not in assigned]
            if len(free) == 1:
                assigned[abs(free[0])] = free[0] > 0
    return len(assigned)


def reference_s(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timings of the reference kernel on this CPU, in s."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - started)
    return best


class FastestCpu:
    """Re-pins the calling thread to the fastest usable CPU, at most every ``interval_s``."""

    def __init__(self, interval_s: float = 0.25, *, active: bool = True) -> None:
        self.cpus: List[int] = sorted(os.sched_getaffinity(0))
        self.active = active and len(self.cpus) > 1
        self.interval_s = interval_s
        self.checks = 0
        self.moves = 0
        self._current = -1
        self._checked_at = float("-inf")

    def _speed_s(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return reference_s()

    def settle(self) -> bool:
        """Move to the fastest CPU if the last check is older than ``interval_s``.

        Returns whether the thread now runs on another CPU than before.
        """
        now = time.perf_counter()
        if not self.active or now - self._checked_at < self.interval_s:
            return False
        self.checks += 1
        fastest = min(self.cpus, key=self._speed_s)
        os.sched_setaffinity(0, {fastest})
        self._checked_at = time.perf_counter()
        if fastest == self._current:
            return False
        self.moves += 1
        self._current = fastest
        return True

    def release(self) -> None:
        """Allow every CPU the process started with again."""
        if self.active:
            os.sched_setaffinity(0, set(self.cpus))


class HostClock:
    """Times operations in reference time (see the module docstring).

    Use ``start()`` before an operation and ``stop(started)`` after it; a
    ``mark()`` between the two splits the operation into parts, as a
    sweep's scenario outcomes do.  The kernel timings themselves fall
    between the perf-counter readings and so outside every measurement.
    ``walls_s`` and ``readings_s`` keep the raw figures for the run record.
    """

    def __init__(self, *, pin: bool = True) -> None:
        self.cpu = FastestCpu(active=pin)
        self.readings_s: List[float] = []
        self.walls_s: List[float] = []
        self._last: Optional[float] = None

    def _reading(self) -> float:
        value = reference_s()
        self.readings_s.append(value)
        self._last = value
        return value

    def settle(self) -> None:
        """Pin to the fastest CPU; a move makes the next start take a new reading."""
        if self.cpu.settle():
            self._last = None

    def start(self) -> "Mark":
        """Settle, take a speed reading and start timing."""
        self.settle()
        reading = self._last if self._last is not None else self._reading()
        return Mark(reading, time.perf_counter())

    def mark(self, previous: "Mark") -> Tuple[float, "Mark"]:
        """Reference time since ``previous``, and a mark to time the next part from.

        The time spent here (a reading and a settle) is left out of both.
        """
        now = time.perf_counter()
        wall = now - previous.at
        reading = self._reading()
        elapsed = self.scale(wall, previous.reading, reading)
        self.settle()
        if self._last is None:
            reading = self._reading()
        return elapsed, Mark(reading, time.perf_counter())

    def stop(self, started: "Mark") -> float:
        """Reference time since ``started``, with a closing speed reading."""
        return self.mark(started)[0]

    def scale(self, wall: float, before: float, after: float) -> float:
        self.walls_s.append(wall)
        return wall * NOMINAL_REFERENCE_S / ((before + after) / 2)

    def release(self) -> None:
        self.cpu.release()


class Mark:
    """A point in time with the speed reading taken there."""

    __slots__ = ("reading", "at")

    def __init__(self, reading: float, at: float) -> None:
        self.reading = reading
        self.at = at
