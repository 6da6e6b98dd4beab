"""A fixed calibration kernel that tracks the speed the host gives us.

On a shared VM the CPU time of the same work drifts by 10-30 % over
seconds to minutes, as other tenants load the host. The kernel here does
two kinds of work zetatrap spends its time on, straight through scipy and
numpy: complex ``hankel1`` and element-wise array arithmetic, on inputs
that never change. Its CPU time, taken just before and just after a piece
of the program's work, measures how fast the host ran at that moment.
Scaling the program's CPU seconds by ``REFERENCE_S / kernel seconds``
gives them at the reference speed, so a change in the program moves the
scaled figure while a change in the host's load mostly does not.

The kernel calls nothing in zetatrap, so no change to the program can
change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

# CPU seconds of one pass on the machine described in perfbench/README.md
# while its host was lightly loaded. Any fixed value would do: it sets the
# scale only.
REFERENCE_S = 0.046
PASSES = 4  # passes per measurement; their median is the measurement

_rng = np.random.default_rng(0)
_HANKEL_ARGS = _rng.uniform(0.5, 30.0, 100_000) + 0j  # 1.6 MB
_GRID = _rng.uniform(0.1, 2.0, (800, 800))  # 5 MB
# Outputs are written in place: a kernel that allocated between rounds
# would move where the program's arrays land in the heap, and with it the
# run's peak resident memory.
_HANKEL_OUT = np.empty_like(_HANKEL_ARGS)
_GRID_OUT = np.empty_like(_GRID)
_GRID_TMP = np.empty_like(_GRID)


def _one_pass() -> float:
    start = time.process_time()
    special.hankel1(0, _HANKEL_ARGS, out=_HANKEL_OUT)
    for _ in range(3):
        # log(g) * g + sqrt(g) / g
        np.multiply(np.log(_GRID, out=_GRID_OUT), _GRID, out=_GRID_OUT)
        np.divide(np.sqrt(_GRID, out=_GRID_TMP), _GRID, out=_GRID_TMP)
        np.add(_GRID_OUT, _GRID_TMP, out=_GRID_OUT)
    return time.process_time() - start


def measure() -> float:
    """CPU seconds of one pass of the kernel at the host's current speed."""
    return statistics.median([_one_pass() for _ in range(PASSES)])


def at_reference(cpu_s: float, kernel_s: float) -> float:
    """``cpu_s`` measured while the kernel took ``kernel_s``, at reference speed."""
    return cpu_s * REFERENCE_S / kernel_s
