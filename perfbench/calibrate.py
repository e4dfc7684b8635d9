"""Fixed reference computations that measure how fast the machine runs now.

On a shared host other tenants slow this process by up to 2x, in spells of a
fraction of a second to minutes, and how much of a run they cover changes
from run to run.  A reference does a fixed amount of the kind of work a
workload does without calling the library, so its time tracks the machine
and never the code under test.  The benchmark runs one between operations
and scales each operation's time by the reference's calm-machine time over
the reference times measured around the operation:

- ``IN_PROCESS`` for the in-process workloads: Fraction arithmetic in numpy
  object arrays, the crossing into complex floats, a small LAPACK call, dict
  and list traffic;
- ``CHILD`` for cli-cold, whose ops are child processes: start and end one
  bare interpreter, the fixed part of every CLI op.  The in-process
  reference does not track process start-up: between a fast and a slow run
  it slowed by 48%, and cli-cold's ops by 19%.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_EXACT = np.array([[Fraction(int(x), 3) for x in row]
                   for row in _rng.integers(-3, 4, (12, 12))], dtype=object)
_VECTORS = _EXACT[:, :3].copy()
_SYM = _rng.standard_normal((24, 24))
_SYM = _SYM + _SYM.T

#: references on each side of an op whose median scales it
WINDOW = 2


def in_process() -> float:
    """Seconds taken by one fixed in-process computation.

    The cyclic garbage collector is off meanwhile: a collection it triggered
    would walk every object the workload holds, so the reference would time
    the size of the program's heap rather than the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        product = _EXACT.dot(_VECTORS)
        (product - _VECTORS[:, :1]).astype(np.complex128)
        np.linalg.eigvalsh(_SYM)
        classes: dict = {}
        for i, row in enumerate(product.tolist()):
            classes.setdefault(tuple(row[:2]), []).append(i)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def child() -> float:
    """Seconds taken to start and end one bare interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


@dataclass(frozen=True)
class Reference:
    run: Callable[[], float]
    #: its time on a calm machine (2-vCPU VM, Python 3.11, OpenBLAS with one
    #: thread); a scaled time is the time the work would take there
    nominal_s: float
    #: op time between two runs of it
    every_s: float


IN_PROCESS = Reference(in_process, 1.2e-3, 0.015)
CHILD = Reference(child, 40e-3, 0.25)


class SpeedLog:
    """Reference times taken between operations, and the scale they give."""

    def __init__(self, reference: Reference = IN_PROCESS):
        self.reference = reference
        self.ended: list[float] = []
        self.took: list[float] = []
        self._since = 0.0

    def probe(self, times: int = 1):
        for _ in range(times):
            took = self.reference.run()
            self.ended.append(perf_counter())
            self.took.append(took)

    def after_op(self, elapsed: float):
        """Probe once at least ``every_s`` of op time has passed since the last."""
        self._since += elapsed
        if self._since >= self.reference.every_s:
            self.probe()
            self._since = 0.0

    def scale(self, ended: float) -> float:
        """Calm-machine time over the median of the WINDOW references on each
        side of a moment; probes must have been taken on both sides of it."""
        after = bisect.bisect_left(self.ended, ended)
        window = self.took[max(0, after - WINDOW):after + WINDOW]
        return self.reference.nominal_s / statistics.median(window)


def scaled_setup(seconds: float, probes: int = 15) -> float:
    """A set-up time scaled by the machine's speed just after it."""
    log = SpeedLog()
    log.probe(probes)
    return seconds * log.reference.nominal_s / statistics.median(log.took)
