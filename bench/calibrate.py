"""A fixed reference kernel that calibrates timings against machine speed.

On a machine shared with other tenants the speed of a core switches
between a fast and a slow state 1.5-2x apart, for seconds to minutes at a
time, and the CPU time of a process slows with it (no time is stolen;
each instruction takes longer).  Wall times of the program are therefore
divided by the wall time of this kernel, run right before and after them:
both slow by about the same factor, and their ratio much less.
Multiplying the ratio by ``KERNEL_S`` turns it back into seconds on a
machine where the kernel takes ``KERNEL_S``.

The kernel has the profile of the benchmark's work: Brent searches whose
Python objective takes a logsumexp over 100 points, plus a few whole-array
passes over 10^4 points.  It calls numpy and scipy only, never mindiv, so
a change to mindiv cannot change it.  scipy is imported on the first call,
after set-up has been timed, so that a lighter mindiv import still shows
in ``setup_s``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Wall time of one kernel call in the fast state of the 2-core x86-64 VM
# the benchmark was written on (Python 3.11, numpy 2.4, scipy 1.17).  It
# only scales calibrated times back to seconds.
KERNEL_S = 0.019

_rng = np.random.default_rng(20240611)
_SMALL = _rng.standard_cauchy((12, 100))
_LARGE = _rng.standard_cauchy((2, 10_000))


def kernel() -> float:
    """One reference unit of work; returns a value so nothing is skipped."""
    from scipy.optimize import minimize_scalar
    from scipy.special import logsumexp

    total = 0.0
    for x in _SMALL:
        def objective(m, x=x):
            z = x - m
            return -float(logsumexp(-0.25 * z * z))

        total += minimize_scalar(objective, bracket=(-1.0, 1.0), method="brent").x
        s = np.sort(x)
        total += float(np.median(s)) + float(np.mean(np.abs(s)))
    for x in _LARGE:
        z = (x - np.median(x)) / 2.0
        total += float(logsumexp(-0.5 * np.log1p(z * z))) + float(np.sort(z)[x.size // 4])
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel call."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
