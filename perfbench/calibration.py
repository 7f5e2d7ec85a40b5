"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-core box the speed of the CPU the benchmark gets drifts by up
to 2x over seconds to minutes, independently of the program.  A short
fixed kernel is therefore timed between the ops of a run, and every time the
run measured is scaled by ``REFERENCE_S / median kernel time``: the time it
would have taken while the kernel ran at its reference speed.  One factor
per run, not one per op: the kernel lasts milliseconds and its own noise,
added to each op, widened the spread of op times within a run (on
``open_surface`` from 10-22 % to 15-36 % of the median), while a run's
median kernel time follows the drift between runs.  The kernel is a loop of
12 x 12 symmetric eigendecompositions: interpreter, allocation and small
LAPACK work, the mix this package spends its closed-system time on, and
too small for BLAS to thread.

One kernel time is the slowest of the CPUs the process may use, with the
kernel pinned to each in turn.  The two vCPUs of that box switch between a
fast and a slow state (2.8 and 4.4 ms kernel times) independently, about
once a second.  An unpinned kernel measures whichever CPU the harness lands
on, while the run process uses both, and a Lindblad op, which runs BLAS on
two threads, is paced by the slower one: in one ``open_surface`` run the
unpinned kernel ran mostly on the fast CPU and the run's scaled time read
35 % high.  Over six ``open_surface`` runs the spread of the scaled round
time was 5 % with the slowest CPU's kernel and 12 % with the mean of both.

The kernel runs in the harness process, never in the process that runs the
program: the run process asks for it between ops and waits, idle, while the
harness times it.  So nothing an op leaves behind in its own process (heap
growth, garbage-collector debt, BLAS state) enters the divisor.

Raw (unscaled) times are reported next to the scaled ones.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

#: A kernel run is BLOCKS blocks of BLOCK_SIZE eigendecompositions; its time
#: is BLOCKS times the fastest block, which drops interruptions shorter than
#: a block (a helper thread still spinning after an op, a page fault).
BLOCKS = 3
BLOCK_SIZE = 34

#: The kernel time that scaled times refer to: about its time on a quiet
#: reference box (2-core Intel Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31).
#: Only its constancy matters.
REFERENCE_S = 0.003

#: CPUs the kernel is pinned to, at most (the first ones the process may use).
MAX_CPUS = 8

_MATRIX = np.random.default_rng(0).standard_normal((12, 12))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now on the slowest usable CPU."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel_once())
    finally:
        os.sched_setaffinity(0, allowed)
    return max(times)


def _kernel_once() -> float:
    eigh = np.linalg.eigh
    fastest = float("inf")
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(BLOCK_SIZE):
            eigh(_MATRIX)
        fastest = min(fastest, perf_counter() - t0)
    return BLOCKS * fastest


def scale(kernel_times) -> float:
    """Factor that converts the times of a run, with these kernel times, to reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)
